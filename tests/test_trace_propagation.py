"""Cross-process telemetry: shard workers feed the parent's timeline.

The tentpole contract of the sharded sweep's observability path: worker
tracers (parent epoch, worker pid) and metrics registries flush through
the manager queue as :class:`ShardTelemetry`, the parent absorbs them
live, and the merged Chrome trace renders one lane per worker process —
including the partial trace of a shard that dies mid-block-range.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.mimo.montecarlo import MonteCarloEngine
from repro.mimo.parallel_mc import (
    ShardTelemetry,
    _run_shard,
    _ShardConfig,
    plan_shards,
)
from repro.mimo.system import MIMOSystem
from repro.obs.export import TRACE_PID, chrome_trace, write_chrome_trace
from repro.obs.metrics import MetricsRegistry, use_metrics
from repro.obs.tracer import TraceContext, Tracer, use_tracer
from tests.test_parallel_mc import CrashingFactory, SdFactory


def _engine(**overrides):
    system = MIMOSystem(4, 4, "4qam")
    defaults = dict(channels=6, frames_per_channel=3, seed=1234)
    defaults.update(overrides)
    return MonteCarloEngine(system, **defaults)


def _observed_sweep(tmp_path, **overrides):
    """Run a workers=2 sweep with tracer + metrics ambient; return both."""
    tracer = Tracer()
    metrics = MetricsRegistry()
    with use_tracer(tracer), use_metrics(metrics):
        sweep = _engine(workers=2, **overrides).run(SdFactory(4), [8.0])
    return tracer, metrics, sweep


class TestWorkerLanes:
    def test_worker_events_land_on_parent_timeline_with_their_pid(
        self, tmp_path
    ):
        tracer, metrics, sweep = _observed_sweep(tmp_path)
        worker_pids = {e.pid for e in tracer.events if e.pid != 0}
        assert worker_pids, "no worker telemetry absorbed"
        assert os.getpid() not in worker_pids
        # Worker decode spans are present, not just parent bookkeeping.
        worker_spans = [
            e for e in tracer.events if e.pid != 0 and e.phase == "span"
        ]
        assert {"mc.block", "mc.frame"} <= {e.name for e in worker_spans}
        assert worker_spans
        # Shared epoch: worker timestamps are on the parent clock, i.e.
        # non-negative offsets comparable to the parent's own events.
        assert all(e.ts >= 0 for e in worker_spans)

    def test_chrome_trace_has_one_lane_per_worker_process(self, tmp_path):
        tracer, _, _ = _observed_sweep(tmp_path)
        doc = chrome_trace(tracer)
        events = doc["traceEvents"]
        meta = [
            ev
            for ev in events
            if ev.get("ph") == "M" and ev.get("name") == "process_name"
        ]
        names = {ev["args"]["name"] for ev in meta}
        assert "repro (main)" in names
        worker_names = {n for n in names if n.startswith("shard worker")}
        assert worker_names, "no worker lanes in the merged trace"
        # Every event lane is declared in the process metadata.
        declared = {ev["pid"] for ev in meta}
        assert {ev["pid"] for ev in events} <= declared
        # Parent events render on the reserved lane, never a raw 0.
        assert TRACE_PID in declared

    def test_written_trace_is_one_valid_json_document(self, tmp_path):
        tracer, _, _ = _observed_sweep(tmp_path)
        path = write_chrome_trace(tracer, tmp_path / "trace.json")
        doc = json.loads(path.read_text())
        assert doc["traceEvents"]

    def test_worker_counters_merge_into_parent_totals(self, tmp_path):
        _, metrics, sweep = _observed_sweep(tmp_path)
        point = sweep.points[0]
        snap = metrics.snapshot()
        assert snap.counter_total("mc.frames") == point.frames
        assert snap.counter_total("mc.bit_errors") == point.errors.bit_errors
        assert snap.counter_total("mc.bits") == point.errors.bits

    def test_shard_progress_gauges_reach_their_totals(self, tmp_path):
        _, metrics, _ = _observed_sweep(tmp_path)
        snap = metrics.snapshot()
        done = snap.gauge_series("mc.shard.blocks_done")
        total = snap.gauge_series("mc.shard.blocks_total")
        assert set(done) == set(total)
        assert done == total  # every shard finished every block


class ExplodingDetector:
    """Decodes one frame, then explodes — leaves a partial block trace."""

    def __init__(self) -> None:
        from repro.detectors.sphere import SphereDecoder
        from repro.mimo.constellation import Constellation

        self._inner = SphereDecoder(Constellation.qam(4))
        self._detects = 0

    @property
    def name(self):
        return self._inner.name

    def prepare(self, channel, **kwargs):
        return self._inner.prepare(channel, **kwargs)

    def detect(self, received):
        self._detects += 1
        if self._detects > 1:
            raise RuntimeError("injected worker failure (mid-block)")
        return self._inner.detect(received)


class ExplodingFactory:
    def __call__(self):
        return ExplodingDetector()


class FakeQueue:
    """In-process stand-in for the manager queue (records puts)."""

    def __init__(self) -> None:
        self.messages = []

    def put(self, msg) -> None:
        self.messages.append(msg)


class TestCrashPartialFlush:
    def _spec_and_config(self, factory, *, telemetry):
        spec = plan_shards([8.0], 1234, 2, workers=1)[0]
        if telemetry is not None:
            from dataclasses import replace

            spec = replace(spec, telemetry=telemetry)
        config = _ShardConfig(
            system=MIMOSystem(4, 4, "4qam"),
            factory=factory,
            frames_per_channel=2,
            keep_traces=False,
            batch_frames=False,
            crash_dir=None,
        )
        return spec, config

    def test_dying_shard_flushes_partial_telemetry(self):
        ctx = TraceContext(trace_enabled=True, metrics_enabled=True, epoch=0.0)
        spec, config = self._spec_and_config(
            ExplodingFactory(), telemetry=ctx
        )
        queue = FakeQueue()
        with pytest.raises(RuntimeError, match="injected worker failure"):
            _run_shard(spec, config, queue)
        flushes = [
            m for m in queue.messages if isinstance(m, ShardTelemetry)
        ]
        assert flushes, "crash path did not flush telemetry"
        assert flushes[-1].pid == os.getpid()
        # The block never finished, so every event here came from the
        # crash path: the one frame decoded before the detector died.
        names = {e.name for m in flushes for e in m.events}
        assert "mc.frame" in names

    def test_instant_crash_ships_nothing_but_still_raises(self):
        ctx = TraceContext(trace_enabled=True, metrics_enabled=True, epoch=0.0)
        spec, config = self._spec_and_config(
            CrashingFactory(), telemetry=ctx
        )
        queue = FakeQueue()
        with pytest.raises(RuntimeError, match="injected worker failure"):
            _run_shard(spec, config, queue)
        # Nothing was observed before the factory blew up: the flush is
        # skipped rather than shipping an empty message.
        assert not any(
            isinstance(m, ShardTelemetry) for m in queue.messages
        )

    def test_unobserved_shard_ships_no_telemetry(self):
        spec, config = self._spec_and_config(SdFactory(4), telemetry=None)
        queue = FakeQueue()
        _run_shard(spec, config, queue)
        assert not any(
            isinstance(m, ShardTelemetry) for m in queue.messages
        )

    def test_observed_shard_flushes_after_every_block(self):
        ctx = TraceContext(trace_enabled=True, metrics_enabled=True, epoch=0.0)
        spec, config = self._spec_and_config(SdFactory(4), telemetry=ctx)
        queue = FakeQueue()
        _run_shard(spec, config, queue)
        flushes = [
            m for m in queue.messages if isinstance(m, ShardTelemetry)
        ]
        assert len(flushes) == spec.n_blocks
        # Metrics ride as registry deltas that merge to exact totals.
        parent = MetricsRegistry()
        for flush in flushes:
            assert flush.metrics is not None
            parent.merge_snapshot(flush.metrics)
        frames = spec.n_blocks * config.frames_per_channel
        assert parent.snapshot().counter_total("mc.frames") == frames
