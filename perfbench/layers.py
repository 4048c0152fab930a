"""Traced runs: spans around each layer's public entry points.

The program's own spans and counters stay off: the spans here go into a
standalone :class:`repro.obs.Tracer` that is never made ambient, and
they are opened by wrappers this module installs around the entry
points listed in :data:`ENTRY_POINTS` for the length of one traced
pass. The spans are folded with :func:`repro.obs.profile.build_profile_tree`
and :func:`~repro.obs.profile.self_by_name`, and each span's self time
is charged to one layer, named after the module the work lives in.

GEMM time has no span of its own: it is the program's existing
``DecodeStats.gemm_time_s``, so ``core.traversal`` is the self time of
the solve spans minus the GEMM time, and ``core.gemm`` is the GEMM
time. Everything outside the layer spans is ``bench.residual``, so
the layer self times plus the residual add up to the traced wall time.
"""

from __future__ import annotations

import functools
import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator

import repro.detectors.engine as engine_mod
import repro.serve.service as service_mod
from repro.core.traversal import TraversalEngine
from repro.detectors.engine import EngineDetector
from repro.detectors.registry import DetectorSpec
from repro.fpga.pipeline import FPGAPipeline
from repro.mimo.metrics import ErrorCounter
from repro.obs import Tracer
from repro.obs.metrics import (
    CounterHandle,
    GaugeHandle,
    HistogramHandle,
    MetricsRegistry,
)
from repro.obs.profile import build_profile_tree, self_by_name
from repro.perfmodel import CPUCostModel
from repro.serve.scheduler import BatchScheduler
from repro.serve.service import DetectionService

#: ``(owner, attribute, span name)`` for every wrapped entry point.
#: Module-level functions are wrapped in the namespace their caller
#: looks them up in (``prepare`` and ``detect`` resolve
#: ``qr_decompose`` & co. through :mod:`repro.detectors.engine`).
ENTRY_POINTS: tuple[tuple[Any, str, str], ...] = (
    (DetectorSpec, "__call__", "detectors.build"),
    (EngineDetector, "prepare", "detectors.prepare"),
    (engine_mod, "qr_decompose", "mimo.qr"),
    (engine_mod, "sorted_qr", "mimo.qr"),
    (engine_mod, "ChannelKernel", "core.channel_kernel"),
    (engine_mod, "effective_receive", "mimo.receive"),
    (EngineDetector, "detect", "detectors.detect"),
    (EngineDetector, "decode_batch", "detectors.decode_batch"),
    (EngineDetector, "solve", "core.solve"),
    (TraversalEngine, "solve_batch", "core.solve_batch"),
    (ErrorCounter, "update", "mimo.errors"),
    (FPGAPipeline, "decode_report", "fpga.decode_report"),
    (CPUCostModel, "decode_seconds", "perfmodel.decode_seconds"),
    (service_mod, "serve_trace", "serve.trace"),
    (DetectionService, "submit", "serve.submit"),
    (BatchScheduler, "poll", "serve.poll"),
    (DetectionService, "process", "serve.process"),
    (DetectionService, "finish", "serve.finish"),
    (EngineDetector, "_flush_traversal_metrics", "obs.metrics"),
    (MetricsRegistry, "counter", "obs.metrics"),
    (MetricsRegistry, "gauge", "obs.metrics"),
    (MetricsRegistry, "histogram", "obs.metrics"),
    (CounterHandle, "inc", "obs.metrics"),
    (GaugeHandle, "set", "obs.metrics"),
    (HistogramHandle, "observe", "obs.metrics"),
)

#: The layer each span's self time is charged to.
SPAN_LAYER = {
    "detectors.build": "detectors.prepare",
    "detectors.prepare": "detectors.prepare",
    "mimo.qr": "mimo.qr",
    "core.channel_kernel": "core.channel_kernel",
    "mimo.receive": "mimo.receive",
    "detectors.detect": "detectors.foldback",
    "detectors.decode_batch": "detectors.foldback",
    "core.solve": "core.traversal",
    "core.solve_batch": "core.traversal",
    "mimo.errors": "mimo.errors",
    "fpga.decode_report": "fpga.pricing",
    "perfmodel.decode_seconds": "perfmodel.pricing",
    "serve.trace": "serve.loop",
    "serve.submit": "serve.scheduler",
    "serve.poll": "serve.scheduler",
    "serve.process": "serve.process",
    "serve.finish": "serve.finish",
    "obs.metrics": "obs.metrics",
    "bench.pass": "bench.residual",
}

#: Every layer of the table, in print order. ``core.gemm`` has no span:
#: it is carved out of ``core.traversal`` with ``DecodeStats.gemm_time_s``.
LAYERS = (
    "detectors.prepare",
    "mimo.qr",
    "core.channel_kernel",
    "mimo.receive",
    "core.traversal",
    "core.gemm",
    "detectors.foldback",
    "mimo.errors",
    "fpga.pricing",
    "perfmodel.pricing",
    "serve.loop",
    "serve.scheduler",
    "serve.process",
    "serve.finish",
    "obs.metrics",
    "bench.residual",
)

#: Layers whose cost is paid once per channel block, not per frame.
PER_BLOCK = ("detectors.prepare", "mimo.qr", "core.channel_kernel")

#: For each per-layer metric group: the end-to-end metric it should
#: move, the workload where most of its work is, and where it should
#: stay flat. Written down before any change claims a gain.
MOVES: tuple[tuple[str, str, str, str], ...] = (
    ("detectors.prepare, mimo.qr, core.channel_kernel", "frames_per_s",
     "mc-fig6 (4-frame blocks)", "batch-20x20 (64-frame blocks)"),
    ("mimo.receive, detectors.foldback", "frames_per_s",
     "serve-6x6", "batch-20x20"),
    ("core.traversal", "frames_per_s, frame_p50_ms, frame_p95_ms",
     "mc-fig6 (one-node DFS pops), batch-20x20 (pooled lockstep)",
     "latency_* on serve-6x6"),
    ("core.gemm", "frames_per_s",
     "batch-20x20 (tall fused GEMMs)", "serve-6x6"),
    ("core.traversal.{survive_ratio,truncated_frac}",
     "nodes_per_frame, fpga_us_per_frame, ber",
     "mc-fig6", "every workload under a host-only change"),
    ("fpga.pricing, perfmodel.pricing", "frames_per_s",
     "mc-fig6 (three pricings per frame); serve-6x6 (service model)",
     "batch-20x20 (no pricing, no trace)"),
    ("serve.{loop,scheduler,process,finish}", "frames_per_s",
     "serve-6x6", "only serve-6x6 runs them"),
    ("serve.{batch_fill,queue_wait_*,service_p50_ms,modelled_util,"
     "rejected_frac}", "latency_p50_ms, latency_p99_ms, failed_frac",
     "serve-6x6", "serve-6x6 under a host-only change"),
    ("obs.metrics", "frames_per_s", "serve-6x6 (registry on)",
     "mc-fig6, batch-20x20 (telemetry off)"),
    ("bench.residual.share, bench.trace_overhead", "(checks the table)",
     "all workloads", "none"),
)


#: Per-layer metrics that come from the FPGA service model, not the host.
MODELLED = (
    "serve.queue_wait_p50_ms",
    "serve.queue_wait_p99_ms",
    "serve.service_p50_ms",
    "serve.modelled_util",
)


@dataclass
class TraceCounts:
    """Exact counts the wrappers see and the program does not return."""

    fused_gemm_calls: int = 0
    fused_rows: int = 0
    fused_frame_gemm_calls: int = 0
    priced_events: int = 0


@dataclass
class LayerTracer:
    """Spans for one traced pass, kept in memory until :meth:`fold`."""

    tracer: Tracer = field(default_factory=Tracer)
    counts: TraceCounts = field(default_factory=TraceCounts)
    #: Identity of the unit being decoded (``block``/``frame``/``trace``
    #: index), set by the workload loop and stamped on outermost spans.
    ids: dict[str, int] = field(default_factory=dict)
    _stack: list[str] = field(default_factory=lambda: ["bench.pass"])

    def _wrap(self, fn, name: str):
        tracer, stack, ids = self.tracer, self._stack, self.ids
        reentrant = name == "obs.metrics"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if reentrant and stack[-1] == name:
                return fn(*args, **kwargs)
            # A span's parent is the span enclosing it; the unit id rides
            # on the outermost spans only, which keeps a traced serve-6x6
            # pass (~30 spans a frame) small.
            span = tracer.span(name, **ids) if len(stack) == 1 else tracer.span(name)
            with span:
                stack.append(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    stack.pop()

        return wrapper

    def _wrap_solve_batch(self, fn, name: str):
        wrapped = self._wrap(fn, name)
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(engine, r, ybars, noise_var, stats_list, *args, **kwargs):
            outcomes, backend = wrapped(
                engine, r, ybars, noise_var, stats_list, *args, **kwargs
            )
            counts.fused_gemm_calls += backend.fused_gemm_calls
            counts.fused_rows += sum(st.nodes_expanded for st in stats_list)
            counts.fused_frame_gemm_calls += sum(
                st.gemm_calls for st in stats_list
            )
            return outcomes, backend

        return wrapper

    def _wrap_decode_report(self, fn, name: str):
        wrapped = self._wrap(fn, name)
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(pipeline, stats):
            counts.priced_events += len(stats.batches)
            return wrapped(pipeline, stats)

        return wrapper

    @contextmanager
    def installed(self) -> Iterator["LayerTracer"]:
        """Wrap every entry point for the ``with`` body, then restore."""
        special = {
            "core.solve_batch": self._wrap_solve_batch,
            "fpga.decode_report": self._wrap_decode_report,
        }
        saved = []
        try:
            for owner, attr, name in ENTRY_POINTS:
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                make = special.get(name, self._wrap)
                setattr(owner, attr, make(original, name))
            with self.tracer.span("bench.pass"):
                yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def fold(self, *, wall_s: float, gemm_s: float) -> dict[str, float]:
        """Self seconds per layer; checks that they add up to ``wall_s``.

        ``bench.residual`` is measured, not derived: it is the self time
        of the ``bench.pass`` root plus the part of ``wall_s`` that no
        span covers. Raises :class:`ValueError` when the layers plus the
        residual miss ``wall_s`` or GEMM time exceeds the solve spans.
        """
        tree = build_profile_tree(self.tracer.events)
        seconds = dict.fromkeys(LAYERS, 0.0)
        for name, row in self_by_name(tree).items():
            seconds[SPAN_LAYER[name]] += row["self_s"]
        seconds["bench.residual"] += wall_s - tree.wall_s
        if gemm_s > seconds["core.traversal"] * (1 + 1e-9) + 1e-9:
            raise ValueError(
                f"GEMM time {gemm_s:.6f}s exceeds solve self time "
                f"{seconds['core.traversal']:.6f}s"
            )
        seconds["core.traversal"] = max(seconds["core.traversal"] - gemm_s, 0.0)
        seconds["core.gemm"] = gemm_s
        total = sum(seconds.values())
        if abs(total - wall_s) > 1e-6 * wall_s + 1e-6:
            raise ValueError(
                f"layer self times + residual = {total:.6f}s, "
                f"traced wall = {wall_s:.6f}s"
            )
        return seconds

    def write(self, path: Path) -> Path:
        """Write the spans as a Chrome trace, streamed one event a line.

        ``repro.obs.write_chrome_trace`` builds every event as a dict and
        the whole text in memory: over a gigabyte for a traced
        serve-6x6 pass.
        """
        path.parent.mkdir(parents=True, exist_ok=True)
        spans = sorted(self.tracer.spans(), key=lambda e: e.ts)
        with path.open("w") as out:
            out.write('{"displayTimeUnit": "ms", "traceEvents": [')
            for i, e in enumerate(spans):
                row = {"name": e.name, "ph": "X", "ts": e.ts * 1e6,
                       "dur": e.dur * 1e6, "pid": 0, "tid": 0}
                if e.args:
                    row["args"] = e.args
                out.write(("\n" if i == 0 else ",\n") + json.dumps(row))
            out.write("\n]}\n")
        return path


def layer_metrics(
    seconds: dict[str, float],
    *,
    wall: float,
    overhead: float,
    frames: int,
    blocks: int,
    counts: dict,
    trace_counts: TraceCounts,
    serve: dict | None,
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of a traced pass: ``name -> (value, unit)``.

    ``seconds`` is :meth:`LayerTracer.fold`'s output, ``counts`` the
    workload's exact counts and ``serve`` its serving summary (``None``
    off the serving path). Layers the workload never calls read zero.
    """
    tc = trace_counts
    out: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        out[f"{layer}.share"] = (seconds[layer] / wall, "fraction")
        if layer in PER_BLOCK:
            out[f"{layer}.ms_per_block"] = (seconds[layer] / blocks * 1e3, "ms")
        elif layer != "bench.residual":
            out[f"{layer}.us_per_frame"] = (seconds[layer] / frames * 1e6, "us")
    # GEMM calls made: the per-frame calls of frames decoded with
    # detect, plus one per fused cross-frame call of decode_batch.
    made = counts["gemm_calls"] - tc.fused_frame_gemm_calls + tc.fused_gemm_calls
    search_s = seconds["core.traversal"] + seconds["core.gemm"]
    serve = serve or {}
    out.update(
        {
            "core.traversal.nodes_per_s": (
                counts["nodes_expanded"] / search_s, "nodes/s"
            ),
            "core.traversal.survive_ratio": (
                1.0 - counts["nodes_pruned"] / counts["nodes_generated"],
                "fraction",
            ),
            "core.traversal.truncated_frac": (
                counts["truncated_frames"] / frames, "fraction"
            ),
            "core.gemm.calls_per_frame": (counts["gemm_calls"] / frames, "count"),
            "core.gemm.rows_per_call": (counts["nodes_expanded"] / made, "count"),
            "core.gemm.fused_calls_per_frame": (
                tc.fused_gemm_calls / frames, "count"
            ),
            "core.gemm.rows_per_fused_call": (
                tc.fused_rows / tc.fused_gemm_calls if tc.fused_gemm_calls else 0.0,
                "count",
            ),
            "core.gemm.flops_per_frame": (counts["gemm_flops"] / frames, "flops"),
            "fpga.pricing.us_per_event": (
                seconds["fpga.pricing"] / tc.priced_events * 1e6
                if tc.priced_events
                else 0.0,
                "us",
            ),
            "fpga.pricing.events_per_frame": (tc.priced_events / frames, "count"),
            "serve.batch_fill": (serve.get("batch_fill", 0.0), "frames"),
            "serve.queue_wait_p50_ms": (serve.get("queue_wait_p50_ms", 0.0), "ms"),
            "serve.queue_wait_p99_ms": (serve.get("queue_wait_p99_ms", 0.0), "ms"),
            "serve.service_p50_ms": (serve.get("service_p50_ms", 0.0), "ms"),
            "serve.modelled_util": (serve.get("modelled_util", 0.0), "fraction"),
            "serve.rejected_frac": (
                serve["rejected"] / serve["offered"] if serve else 0.0,
                "fraction",
            ),
            "bench.trace_overhead": (overhead, "ratio"),
        }
    )
    return out
