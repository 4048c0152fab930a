"""Persistent experiment run registry (``runs/<timestamp>-<id>/``).

Every recorded harness / benchmark / ``repro-sd experiment`` invocation
becomes one *run directory* holding everything needed to compare it
against any other run later:

``manifest.json``
    Provenance: run id, experiment id, detector/sweep configuration,
    seeds, git SHA, Python/numpy versions, host info, wall time, status.
``series.json``
    The experiment's :class:`~repro.bench.harness.SeriesResult` table
    (columns + rows), when the run produced one.
``sweep.json``
    The :class:`~repro.mimo.montecarlo.SweepResult` series — decode
    time, BER, frame and node counts per SNR point.
``metrics.json``
    Span percentile summaries (p50/p95/p99) from the run's tracer,
    plus — when a metrics registry was active — its final labelled
    counter/gauge/histogram snapshot under ``instruments``.
``metrics.stream.jsonl``
    Live snapshot stream appended *while the run executes* (see
    :mod:`repro.obs.stream`); ``repro-sd obs tail``/``top`` replay it.
``trace.json``
    Optionally, the full Chrome ``trace_event`` document.

Mirroring the tracer's design, a *disabled* recorder (the default when
no runs directory was requested) turns every call into a guarded no-op:
no directories are created, nothing is serialised, and the instrumented
call sites pay one attribute check. ``repro.obs.report`` renders and
diffs the recorded artifacts.
"""

from __future__ import annotations

import json
import platform
import socket
import subprocess
import sys
import time
import uuid
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Mapping

from repro.obs.export import chrome_trace
from repro.obs.log import get_logger
from repro.obs.metrics import MetricsRegistry, span_metrics
from repro.obs.stream import STREAM_FILE as _STREAM_FILE
from repro.obs.stream import MetricsStreamWriter
from repro.obs.tracer import Tracer

_log = get_logger(__name__)

#: On-disk schema version stamped into every manifest.
SCHEMA_VERSION = 1

#: Default registry root, relative to the current working directory.
DEFAULT_RUNS_DIR = "runs"

#: File names inside one run directory.
MANIFEST_FILE = "manifest.json"
SERIES_FILE = "series.json"
SWEEP_FILE = "sweep.json"
METRICS_FILE = "metrics.json"
TRACE_FILE = "trace.json"
#: Span call-tree with self/total times + function hotspots
#: (see repro.obs.profile; rendered by `runs show` and `profile diff`).
PROFILE_FILE = "profile.json"
#: Live metrics stream (written during the run; see repro.obs.stream).
STREAM_FILE = _STREAM_FILE


def _git_sha() -> str | None:
    """The current repository HEAD, or None outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def capture_environment() -> dict[str, Any]:
    """Reproducibility context recorded into every manifest."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except Exception:  # pragma: no cover - numpy is a hard dependency
        numpy_version = None
    return {
        "git_sha": _git_sha(),
        "python": sys.version.split()[0],
        "numpy": numpy_version,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "hostname": socket.gethostname(),
    }


def make_run_id(experiment: str) -> str:
    """``<UTC timestamp>-<experiment>-<random suffix>`` — sortable and
    collision-free even for runs started within the same second."""
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    return f"{stamp}-{experiment}-{uuid.uuid4().hex[:6]}"


@dataclass
class RunManifest:
    """Provenance record for one run (serialised to ``manifest.json``)."""

    run_id: str
    experiment: str
    created_utc: str
    status: str = "running"
    seed: int | None = None
    config: dict[str, Any] = field(default_factory=dict)
    environment: dict[str, Any] = field(default_factory=dict)
    elapsed_s: float | None = None
    #: Artifact file names the recorder wrote (stamped at finalize), so
    #: readers can see what a run holds without listing its directory.
    artifacts: list[str] = field(default_factory=list)
    schema: int = SCHEMA_VERSION

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)


def sweep_to_dict(sweep) -> dict[str, Any]:
    """Serialise a :class:`SweepResult` (time + BER per SNR point)."""
    points = []
    for p in sweep.points:
        nodes = p.mean_nodes_expanded()
        points.append(
            {
                "snr_db": p.snr_db,
                "ber": p.ber,
                "frames": p.frames,
                "decode_time_s": p.decode_time_s,
                "mean_decode_time_s": p.mean_decode_time_s
                if p.frames
                else None,
                "bit_errors": p.errors.bit_errors,
                "bits": p.errors.bits,
                "mean_nodes": None if nodes != nodes else nodes,  # NaN -> null
            }
        )
    return {
        "detector": sweep.detector_name,
        "system": sweep.system_label,
        "points": points,
    }


def series_to_dict(series) -> dict[str, Any]:
    """Serialise a :class:`SeriesResult` (duck-typed: columns + rows)."""
    return {
        "experiment": series.experiment,
        "title": series.title,
        "columns": list(series.columns),
        "rows": [dict(row) for row in series.rows],
        "notes": series.notes,
    }


def metrics_to_dict(
    tracer: Tracer, metrics: MetricsRegistry | None = None
) -> dict[str, Any]:
    """Serialise span percentile summaries and the registry snapshot.

    ``instruments`` (flat Prometheus-style series keys) is present when
    an enabled registry is given.
    """
    spans = {}
    for name, s in span_metrics(tracer).items():
        spans[name] = {
            "count": s.count,
            "total_s": s.total,
            "mean_s": s.mean,
            "min_s": s.minimum,
            "max_s": s.maximum,
            "p50_s": s.p50,
            "p95_s": s.p95,
            "p99_s": s.p99,
        }
    doc: dict[str, Any] = {"spans": spans}
    if metrics is not None and metrics.enabled:
        doc["instruments"] = metrics.snapshot().to_dict()
    return doc


class RunRecorder:
    """Accumulates one run's artifacts; all methods no-op when disabled.

    Created by :meth:`RunRegistry.new_run`. Nothing touches the
    filesystem until the first ``record_*`` call on an *enabled*
    recorder, and ``finalize`` stamps the manifest last — a crash
    mid-run leaves a manifest-less directory that the loaders skip.
    """

    def __init__(
        self,
        path: Path | None,
        manifest: RunManifest | None,
        *,
        enabled: bool = True,
    ) -> None:
        self.enabled = enabled and path is not None
        self.path = path
        self.manifest = manifest
        self._started = time.perf_counter()
        self._artifacts: set[str] = set()

    def _write(self, name: str, payload: Mapping[str, Any]) -> None:
        assert self.path is not None
        self.path.mkdir(parents=True, exist_ok=True)
        (self.path / name).write_text(json.dumps(payload, indent=1))
        self._artifacts.add(name)

    def record_series(self, series) -> None:
        """Record a :class:`SeriesResult` table as ``series.json``."""
        if not self.enabled:
            return
        self._write(SERIES_FILE, series_to_dict(series))

    def record_sweep(self, sweep) -> None:
        """Record a :class:`SweepResult` series as ``sweep.json``."""
        if not self.enabled:
            return
        self._write(SWEEP_FILE, sweep_to_dict(sweep))

    def record_metrics(
        self, tracer: Tracer, metrics: MetricsRegistry | None = None
    ) -> None:
        """Record :func:`metrics_to_dict` as ``metrics.json``."""
        if not self.enabled:
            return
        self._write(METRICS_FILE, metrics_to_dict(tracer, metrics))

    def stream_writer(
        self, *, interval_s: float | None = None
    ) -> MetricsStreamWriter | None:
        """A live-snapshot writer appending to this run's
        ``metrics.stream.jsonl`` (None for a disabled recorder).

        Attach it to a registry (``metrics.stream = ...``) so engine
        ``tick()`` calls land here; the run directory is created eagerly
        so ``obs tail --follow`` can resolve the run before the first
        other artifact is written.
        """
        if not self.enabled:
            return None
        assert self.path is not None
        self.path.mkdir(parents=True, exist_ok=True)
        kwargs = {} if interval_s is None else {"interval_s": interval_s}
        return MetricsStreamWriter(self.path / STREAM_FILE, **kwargs)

    def record_trace(self, tracer: Tracer) -> None:
        """Record the full Chrome trace document as ``trace.json``."""
        if not self.enabled:
            return
        self._write(TRACE_FILE, chrome_trace(tracer))

    def record_profile(self, tree_or_tracer) -> None:
        """Record a span call-tree as ``profile.json``.

        Accepts a ready :class:`~repro.obs.profile.ProfileTree` (duck-
        typed on ``to_dict``) or a tracer whose span events are folded
        into one on the spot — every recorded run can carry its own
        perf attribution for ``repro-sd profile diff`` at no extra
        runtime cost (the fold is a read-side pass over the buffer).
        """
        if not self.enabled:
            return
        if isinstance(tree_or_tracer, Tracer):
            from repro.obs.profile import build_profile_tree

            tree = build_profile_tree(tree_or_tracer.events)
        else:
            tree = tree_or_tracer
        self._write(PROFILE_FILE, tree.to_dict())

    def finalize(self, status: str = "complete") -> Path | None:
        """Stamp the manifest (status + elapsed time); returns the run
        directory, or None for a disabled recorder."""
        if not self.enabled:
            return None
        assert self.manifest is not None and self.path is not None
        self.manifest.status = status
        self.manifest.elapsed_s = time.perf_counter() - self._started
        if (self.path / STREAM_FILE).is_file():
            self._artifacts.add(STREAM_FILE)
        self.manifest.artifacts = sorted(self._artifacts)
        self._write(MANIFEST_FILE, self.manifest.to_dict())
        _log.info("recorded run %s -> %s", self.manifest.run_id, self.path)
        return self.path


#: Shared disabled recorder — the no-op analogue of ``NULL_TRACER``.
NULL_RECORDER = RunRecorder(None, None, enabled=False)


class RunRegistry:
    """Creates and enumerates run directories under one root.

    Parameters
    ----------
    root:
        Registry root directory (``runs/`` by convention). ``None``
        yields a *disabled* registry whose recorders never write.
    """

    def __init__(self, root: str | Path | None) -> None:
        self.root = Path(root) if root is not None else None

    @property
    def enabled(self) -> bool:
        """Whether this registry persists anything at all."""
        return self.root is not None

    def new_run(
        self,
        experiment: str,
        *,
        seed: int | None = None,
        config: Mapping[str, Any] | None = None,
    ) -> RunRecorder:
        """A recorder for one new run (the shared no-op when disabled)."""
        if not self.enabled:
            return NULL_RECORDER
        run_id = make_run_id(experiment)
        manifest = RunManifest(
            run_id=run_id,
            experiment=experiment,
            created_utc=time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            seed=seed,
            config=dict(config or {}),
            environment=capture_environment(),
        )
        assert self.root is not None
        return RunRecorder(self.root / run_id, manifest)

    def run_dirs(self, *, include_unfinished: bool = False) -> list[Path]:
        """All finalized run directories, oldest first (id-sorted).

        ``include_unfinished`` also lists directories whose manifest has
        not landed yet (a run still executing, or one that crashed
        before ``finalize``) — what ``obs tail --follow`` needs to
        attach to a live run.
        """
        if self.root is None or not self.root.is_dir():
            return []
        return sorted(
            p
            for p in self.root.iterdir()
            if p.is_dir()
            and (include_unfinished or (p / MANIFEST_FILE).is_file())
        )

    def resolve(self, token: str, *, include_unfinished: bool = False) -> Path:
        """Resolve a user-supplied run reference to a directory.

        Accepts an exact run id, a unique id prefix, ``latest`` /
        ``latest~N`` (N runs before the newest), or a filesystem path.
        ``include_unfinished`` extends every form to manifest-less
        (live/crashed) run directories. Raises :class:`KeyError` with a
        one-line message otherwise.
        """
        as_path = Path(token)
        if as_path.is_dir() and (
            include_unfinished or (as_path / MANIFEST_FILE).is_file()
        ):
            return as_path
        runs = self.run_dirs(include_unfinished=include_unfinished)
        if token == "latest" or token.startswith("latest~"):
            back = 0
            if "~" in token:
                try:
                    back = int(token.split("~", 1)[1])
                except ValueError:
                    raise KeyError(f"bad run reference {token!r}")
            if back >= len(runs):
                raise KeyError(
                    f"only {len(runs)} run(s) recorded; {token!r} is out of range"
                )
            return runs[-1 - back]
        exact = [p for p in runs if p.name == token]
        if exact:
            return exact[0]
        matches = [p for p in runs if p.name.startswith(token)]
        if len(matches) == 1:
            return matches[0]
        if not matches:
            raise KeyError(
                f"no run matching {token!r} under {self.root} "
                f"({len(runs)} run(s) recorded)"
            )
        names = ", ".join(p.name for p in matches[:4])
        raise KeyError(f"ambiguous run reference {token!r}: {names}, ...")
