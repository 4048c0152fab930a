"""Tests for repro.obs.tracer: spans, instants, the ambient tracer."""

import numpy as np
import pytest

from repro.obs import (
    NULL_TRACER,
    PHASE_INSTANT,
    PHASE_SPAN,
    MetricsRegistry,
    Tracer,
    current_tracer,
    reset_tracer,
    set_tracer,
    use_metrics,
    use_tracer,
)
from repro.util.timing import WallClock


class FakeClock(WallClock):
    def __init__(self) -> None:
        self.t = 0.0

    def now(self) -> float:
        return self.t


class TestSpans:
    def test_records_duration(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        with tracer.span("work"):
            clock.t += 2.5
        (span,) = tracer.spans("work")
        assert span.phase == PHASE_SPAN
        assert span.dur == pytest.approx(2.5)
        assert span.ts == pytest.approx(0.0)

    def test_nesting_depth(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        (inner,) = tracer.spans("inner")
        (outer,) = tracer.spans("outer")
        assert inner.depth == outer.depth + 1

    def test_sibling_spans_same_depth(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            pass
        a, b = tracer.spans()
        assert a.depth == b.depth

    def test_depth_restored_after_exception(self):
        tracer = Tracer(clock=FakeClock())
        with pytest.raises(RuntimeError):
            with tracer.span("boom"):
                raise RuntimeError("x")
        with tracer.span("after"):
            pass
        assert tracer.spans("boom")[0].depth == tracer.spans("after")[0].depth

    def test_span_args_kept(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("decode", n_tx=10, strategy="dfs"):
            pass
        (span,) = tracer.spans("decode")
        assert span.args == {"n_tx": 10, "strategy": "dfs"}

    def test_span_durations_grouped(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        for dt in (1.0, 3.0):
            with tracer.span("step"):
                clock.t += dt
        assert tracer.span_durations()["step"] == pytest.approx([1.0, 3.0])


class TestDisabled:
    def test_no_events_recorded(self):
        tracer = Tracer(enabled=False)
        with tracer.span("work", detail=1):
            pass
        tracer.instant("tick")
        tracer.marks("sd.batch", [(1.0, 3, 8)])
        assert tracer.events == []

    def test_disabled_span_is_shared_noop(self):
        tracer = Tracer(enabled=False)
        assert tracer.span("a") is tracer.span("b")

    def test_null_tracer_disabled(self):
        assert not NULL_TRACER.enabled
        assert NULL_TRACER.events == []


class TestCounters:
    def test_no_counter_api(self):
        """Counts live in the metrics registry; the tracer keeps events."""
        tracer = Tracer()
        for attr in ("count", "counter", "counters"):
            assert not hasattr(tracer, attr)

    def test_instant(self):
        tracer = Tracer(clock=FakeClock())
        tracer.instant("batch", level=3)
        (event,) = tracer.events
        assert event.phase == PHASE_INSTANT
        assert event.args == {"level": 3}

    def test_clear(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        tracer.instant("before")
        clock.t += 5.0
        tracer.clear()
        assert tracer.events == []
        tracer.instant("after")
        assert tracer.events[0].ts == pytest.approx(0.0)  # epoch restarted


class TestAmbientTracer:
    def test_default_is_null(self):
        assert current_tracer() is NULL_TRACER

    def test_use_tracer_scopes(self):
        tracer = Tracer()
        with use_tracer(tracer) as installed:
            assert installed is tracer
            assert current_tracer() is tracer
        assert current_tracer() is NULL_TRACER

    def test_set_reset_token(self):
        tracer = Tracer()
        token = set_tracer(tracer)
        try:
            assert current_tracer() is tracer
        finally:
            reset_tracer(token)
        assert current_tracer() is NULL_TRACER

    def test_use_tracer_restores_on_exception(self):
        with pytest.raises(ValueError):
            with use_tracer(Tracer()):
                raise ValueError("x")
        assert current_tracer() is NULL_TRACER


def _decode_marks(strategy, *, tracer, seed=3):
    """``sd.batch`` instants of one 6x6 decode, plus its stats."""
    import threading

    from repro.detectors.sphere import SphereDecoder
    from repro.mimo.system import MIMOSystem

    system = MIMOSystem(6, 6, "4qam")
    frame = system.random_frame(8.0, np.random.default_rng(seed))
    decoder = SphereDecoder(system.constellation, strategy=strategy)
    decoder.prepare(frame.channel, noise_var=frame.noise_var)
    with use_tracer(tracer):
        result = decoder.detect(frame.received)
    marks = [e for e in tracer.events if e.name == "sd.batch"]
    return marks, result.stats, threading.get_ident()


class TestMarkSampling:
    def test_disabled_tracer_records_no_marks(self):
        marks, stats, _ = _decode_marks("dfs", tracer=Tracer(enabled=False))
        assert marks == [] and stats.gemm_calls > 0

    def test_decode_marks_land_as_instants(self):
        tracer = Tracer(mark_stride=1)
        marks, stats, tid = _decode_marks("best-first", tracer=tracer)
        assert len(marks) == stats.gemm_calls  # every expansion marked
        (detect,) = tracer.spans("sd.detect")
        for event in marks:
            assert event.phase == PHASE_INSTANT
            assert event.tid == tid
            assert set(event.args) == {"level", "pool"}
            # Stamped on the tracer's own timeline, inside the decode.
            assert detect.ts <= event.ts <= detect.ts + detect.dur
        # The marks replay the batch trace, level and pool alike.
        assert [(e.args["level"], e.args["pool"]) for e in marks] == list(
            zip(stats.batches.levels, stats.batches.pools)
        )

    def test_pooled_marks_always_recorded(self):
        marks, stats, _ = _decode_marks("best-first", tracer=Tracer())
        pooled = [p for p in stats.batches.pools if p > 1]
        assert pooled, "workload has no pooled expansion"
        assert [e.args["pool"] for e in marks if e.args["pool"] > 1] == pooled

    def test_mark_stride_validated(self):
        with pytest.raises(ValueError):
            Tracer(mark_stride=0)
        with pytest.raises(TypeError):
            Tracer(mark_stride=2.5)

    def test_dfs_marks_stride_sampled(self):
        """stride=1 records one mark per expansion; stride=s samples
        every s-th (first always records), never losing exact counts."""
        from repro.detectors.sphere import SphereDecoder
        from repro.mimo.system import MIMOSystem

        system = MIMOSystem(6, 6, "4qam")
        frame = system.random_frame(8.0, np.random.default_rng(3))

        def decode(stride):
            decoder = SphereDecoder(system.constellation, strategy="dfs")
            decoder.prepare(frame.channel, noise_var=frame.noise_var)
            with use_tracer(Tracer(mark_stride=stride)) as tracer:
                result = decoder.detect(frame.received)
            marks = [
                e
                for e in tracer.events
                if e.phase == PHASE_INSTANT and e.name == "sd.batch"
            ]
            return marks, result.stats

        full, stats = decode(1)
        assert len(full) == stats.gemm_calls  # every expansion marked
        assert stats.gemm_calls > 16
        sampled, stats2 = decode(16)
        # DFS expands single nodes, one solve per detect: exactly
        # ceil(n / stride) marks survive sampling.
        assert len(sampled) == -(-stats.gemm_calls // 16)
        # Sampling never perturbs the search or its exact statistics.
        assert stats2.nodes_expanded == stats.nodes_expanded


class TestDecoderIntegration:
    def make_frame(self, seed=0):
        from repro.mimo.system import MIMOSystem

        system = MIMOSystem(6, 6, "4qam")
        frame = system.random_frame(8.0, np.random.default_rng(seed))
        return system, frame

    def test_decode_emits_spans_and_counters(self):
        from repro.detectors.sphere import SphereDecoder

        system, frame = self.make_frame()
        decoder = SphereDecoder(system.constellation)
        decoder.prepare(frame.channel, noise_var=frame.noise_var)
        with use_tracer(Tracer()) as tracer, use_metrics(MetricsRegistry()) as m:
            result = decoder.detect(frame.received)
        assert tracer.spans("sd.detect")
        assert tracer.spans("sd.solve")
        snap = m.snapshot()
        stats = result.stats
        assert snap.counter_total("traversal.nodes_expanded") == stats.nodes_expanded
        assert snap.counter_total("traversal.expansions") == stats.gemm_calls
        assert snap.counter_total("traversal.leaves_reached") == stats.leaves_reached
        assert snap.counter_total("traversal.gemm_flops") == stats.gemm_flops

    def test_decode_without_tracer_emits_nothing(self):
        from repro.detectors.sphere import SphereDecoder

        system, frame = self.make_frame()
        decoder = SphereDecoder(system.constellation)
        decoder.prepare(frame.channel, noise_var=frame.noise_var)
        result = decoder.detect(frame.received)  # no ambient tracer
        assert result.stats.nodes_expanded > 0
        assert NULL_TRACER.events == []

    def test_bfs_decoder_instrumented(self):
        from repro.detectors.sd_bfs import GemmBfsDecoder

        system, frame = self.make_frame()
        decoder = GemmBfsDecoder(system.constellation)
        decoder.prepare(frame.channel, noise_var=frame.noise_var)
        with use_tracer(Tracer()) as tracer, use_metrics(MetricsRegistry()) as m:
            decoder.detect(frame.received)
        assert tracer.spans("bfs.detect")
        assert tracer.spans("bfs.level")
        assert m.snapshot().counter_total("traversal.nodes_expanded") > 0

    def test_montecarlo_instrumented(self):
        from repro.core.radius import NoiseScaledRadius
        from repro.detectors.sphere import SphereDecoder
        from repro.mimo.montecarlo import MonteCarloEngine
        from repro.mimo.system import MIMOSystem

        system = MIMOSystem(4, 4, "4qam")
        engine = MonteCarloEngine(
            system, channels=1, frames_per_channel=2, seed=1
        )
        with use_tracer(Tracer()) as tracer, use_metrics(MetricsRegistry()) as m:
            engine.run(
                lambda: SphereDecoder(
                    system.constellation,
                    radius_policy=NoiseScaledRadius(alpha=2.0),
                ),
                [8.0],
            )
        assert len(tracer.spans("mc.point")) == 1
        assert len(tracer.spans("mc.frame")) == 2
        assert m.snapshot().counter_total("mc.frames") == 2
