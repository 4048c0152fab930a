"""Shared experiment machinery: canonical configs, sweeps, table output.

The *canonical decoder* for all paper experiments is the configuration
Algorithm 1 describes: sorted-DFS traversal (the LIFO list of Fig. 3)
with the preset noise-scaled radius, GEMM-batched evaluation and radius
update on every improving leaf. The GPU baseline is the GEMM-BFS decoder
with a generously provisioned radius (alpha = 4), the way [1] must
configure it to protect BER at the low end of the SNR range.

Every experiment returns a :class:`SeriesResult` that can render itself
as an aligned text table (the benches print these, and EXPERIMENTS.md is
assembled from them).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Sequence

from repro.detectors.registry import DEFAULT_MAX_NODES, DetectorSpec, spec
from repro.fpga.pipeline import FPGAPipeline, PipelineConfig
from repro.mimo.constellation import Constellation
from repro.mimo.montecarlo import MonteCarloEngine, SweepResult
from repro.mimo.system import MIMOSystem
from repro.obs import (
    MetricsRegistry,
    RunRegistry,
    Tracer,
    format_metrics,
    use_metrics,
    use_tracer,
    write_chrome_trace,
)
from repro.obs.log import get_logger
from repro.perfmodel import CPUCostModel

_log = get_logger(__name__)

#: SNR grid used by every execution-time figure in the paper.
CANONICAL_SNRS: tuple[float, ...] = (4.0, 8.0, 12.0, 16.0, 20.0)

#: The paper's real-time constraint (section I).
REAL_TIME_MS = 10.0


def canonical_decoder_factory(
    constellation: Constellation,
    *,
    alpha: float = 2.0,
    max_nodes: int | None = DEFAULT_MAX_NODES,
) -> DetectorSpec:
    """Spec for the paper's Algorithm-1 decoder configuration.

    A :class:`DetectorSpec` is picklable, so Monte Carlo sweeps can ship
    it to process-pool workers; see :mod:`repro.mimo.parallel_mc`.
    """
    return spec("sd", constellation, alpha=alpha, max_nodes=max_nodes)


def bfs_gpu_decoder_factory(
    constellation: Constellation,
    *,
    alpha: float = 4.0,
    max_frontier: int = 2**19,
) -> DetectorSpec:
    """Spec for the GPU GEMM-BFS baseline of [1]."""
    return spec("bfs", constellation, alpha=alpha, max_frontier=max_frontier)


@dataclass
class SeriesResult:
    """A table of experiment rows plus provenance notes."""

    experiment: str
    title: str
    columns: list[str]
    rows: list[dict] = field(default_factory=list)
    notes: str = ""

    def column(self, name: str) -> list:
        """All values of one column, in row order."""
        if name not in self.columns:
            raise KeyError(f"unknown column {name!r}; have {self.columns}")
        return [row.get(name) for row in self.rows]

    def format(self) -> str:
        """Render as an aligned plain-text table."""

        def fmt(value: object) -> str:
            if value is None:
                return "-"
            if isinstance(value, float):
                if value == 0:
                    return "0"
                if abs(value) >= 1000 or abs(value) < 0.001:
                    return f"{value:.3g}"
                return f"{value:.3f}".rstrip("0").rstrip(".")
            return str(value)

        cells = [[fmt(row.get(col)) for col in self.columns] for row in self.rows]
        widths = [
            max(len(col), *(len(r[i]) for r in cells)) if cells else len(col)
            for i, col in enumerate(self.columns)
        ]
        lines = [f"== {self.experiment}: {self.title} =="]
        lines.append(
            "  ".join(col.ljust(widths[i]) for i, col in enumerate(self.columns))
        )
        lines.append("  ".join("-" * w for w in widths))
        for r in cells:
            lines.append("  ".join(r[i].ljust(widths[i]) for i in range(len(r))))
        if self.notes:
            lines.append(self.notes)
        return "\n".join(lines)


@dataclass
class WorkloadSweep:
    """Raw material for the execution-time figures: one MC sweep with
    traces, plus the platform models bound to the system's geometry."""

    system: MIMOSystem
    sweep: SweepResult
    cpu: CPUCostModel
    fpga_baseline: FPGAPipeline
    fpga_optimized: FPGAPipeline


def run_workload_sweep(
    n_antennas: int,
    modulation: str,
    *,
    snrs: Sequence[float] = CANONICAL_SNRS,
    channels: int = 3,
    frames_per_channel: int = 4,
    seed: int = 2023,
    alpha: float = 2.0,
    max_nodes: int | None = DEFAULT_MAX_NODES,
    workers: int = 1,
) -> WorkloadSweep:
    """Run the canonical decoder over an SNR grid, keeping traces.

    ``workers > 1`` shards channel blocks over a process pool,
    bit-identical to the serial sweep for the same seed. The canonical
    decoder is a sorted DFS, which decodes frame by frame, so the sweep
    decodes with ``detect``.
    """
    system = MIMOSystem(n_antennas, n_antennas, modulation)
    const = system.constellation
    engine = MonteCarloEngine(
        system,
        channels=channels,
        frames_per_channel=frames_per_channel,
        seed=seed,
        keep_traces=True,
        workers=workers,
    )
    sweep = engine.run(
        canonical_decoder_factory(const, alpha=alpha, max_nodes=max_nodes),
        snrs,
    )
    order = const.order
    return WorkloadSweep(
        system=system,
        sweep=sweep,
        cpu=CPUCostModel(n_rx=n_antennas),
        fpga_baseline=FPGAPipeline(
            PipelineConfig.baseline(order),
            n_tx=n_antennas,
            n_rx=n_antennas,
            order=order,
        ),
        fpga_optimized=FPGAPipeline(
            PipelineConfig.optimized(order),
            n_tx=n_antennas,
            n_rx=n_antennas,
            order=order,
        ),
    )


def resolve_trace_path(base: str | Path, name: str) -> Path:
    """Where one named run's Chrome trace lands under ``--obs-trace BASE``.

    A ``BASE`` ending in ``.json`` is used verbatim (single-run case);
    anything else is treated as a directory receiving
    ``<name>.trace.json``.
    """
    base = Path(base)
    if base.suffix == ".json":
        return base
    return base / f"{name}.trace.json"


@contextmanager
def observe_bench(
    name: str,
    *,
    trace: str | Path | None = None,
    metrics: bool = False,
    runs_dir: str | Path | None = None,
    flame: str | Path | None = None,
    seed: int | None = None,
    config: dict | None = None,
) -> Iterator[Tracer | None]:
    """Scope one bench/experiment run under the observability layer.

    Installs an enabled :class:`~repro.obs.Tracer` and
    :class:`~repro.obs.MetricsRegistry` as the ambient ones when any
    output was requested (otherwise a no-op that yields ``None``). On
    exit writes the Chrome trace to
    :func:`resolve_trace_path`, prints the aligned metrics summary,
    writes flamegraph exports (``flame`` is a directory receiving
    ``<name>.collapsed.txt`` + ``<name>.speedscope.json``), and/or
    records a registry run (manifest + metrics + trace + span profile)
    under ``runs_dir``. ``benchmarks/conftest.py`` wires this behind
    every ``bench_*.py`` via the ``--obs-trace``/``--metrics``/
    ``--obs-runs``/``--obs-flame`` pytest options.
    """
    if trace is None and not metrics and runs_dir is None and flame is None:
        yield None
        return
    tracer, registry = Tracer(), MetricsRegistry()
    recorder = RunRegistry(runs_dir).new_run(name, seed=seed, config=config)
    status = "complete"
    try:
        with use_tracer(tracer), use_metrics(registry):
            yield tracer
    except BaseException:
        status = "failed"
        raise
    finally:
        export_observations(
            tracer, name, trace=trace, metrics=metrics, registry=registry
        )
        if flame is not None:
            from repro.obs.profile import (
                build_profile_tree,
                write_collapsed,
                write_speedscope,
            )

            tree = build_profile_tree(tracer.events)
            base = Path(flame)
            collapsed = write_collapsed(tree, base / f"{name}.collapsed.txt")
            speedscope = write_speedscope(
                tree, base / f"{name}.speedscope.json", name=name
            )
            print(f"[obs] flamegraphs written: {collapsed}, {speedscope}")
        if recorder.enabled:
            recorder.record_metrics(tracer, registry)
            recorder.record_trace(tracer)
            recorder.record_profile(tracer)
            path = recorder.finalize(status)
            print(f"[obs] run recorded: {path}")


def export_observations(
    tracer: Tracer,
    name: str,
    *,
    trace: str | Path | None = None,
    metrics: bool = False,
    registry: MetricsRegistry | None = None,
) -> None:
    """Write/print one observed run's artifacts (trace file, metrics
    summary — counters from ``registry``)."""
    if trace is not None:
        path = write_chrome_trace(tracer, resolve_trace_path(trace, name))
        _log.info("wrote Chrome trace for %s to %s", name, path)
        print(f"[obs] trace written: {path}")
    if metrics:
        print(format_metrics(tracer, registry, title=f"metrics: {name}"))


def time_rows(workload: WorkloadSweep) -> list[dict]:
    """Per-SNR platform times (the rows of Figs. 6/8/9/10)."""
    rows = []
    for point in workload.sweep.points:
        stats = point.frame_stats
        cpu_ms = workload.cpu.mean_decode_seconds(stats) * 1e3
        base_ms = workload.fpga_baseline.mean_decode_seconds(stats) * 1e3
        opt_ms = workload.fpga_optimized.mean_decode_seconds(stats) * 1e3
        agg = point.aggregate_stats()
        rows.append(
            {
                "snr_db": point.snr_db,
                "cpu_ms": cpu_ms,
                "fpga_baseline_ms": base_ms,
                "fpga_optimized_ms": opt_ms,
                "speedup_vs_cpu": cpu_ms / opt_ms,
                "ber": point.ber,
                "mean_nodes": point.mean_nodes_expanded(),
                "truncated_frames": agg.truncated,
                "real_time_cpu": cpu_ms <= REAL_TIME_MS,
                "real_time_fpga": opt_ms <= REAL_TIME_MS,
            }
        )
    return rows
