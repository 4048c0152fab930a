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

    def test_no_expansion_marks(self):
        """The per-expansion record is the decode's BatchTrace."""
        assert not hasattr(Tracer(), "marks")

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


class TestDecodeSpansOnly:
    """A traced leaf-first decode records spans at decode, solve and
    search-round boundaries only, so its event count does not grow with
    the nodes it expands."""

    @pytest.mark.parametrize("strategy", ["best-first", "dfs"])
    @pytest.mark.parametrize("radius_sq", [None, 1e-3])
    def test_detect_records_boundary_spans_only(self, strategy, radius_sq):
        from repro.core.radius import ESCALATION_FACTOR, FixedRadius
        from repro.detectors.sphere import SphereDecoder
        from repro.mimo.system import MIMOSystem

        system = MIMOSystem(6, 6, "4qam")
        frame = system.random_frame(4.0, np.random.default_rng(3))
        # None: the Babai radius, one round; a tiny fixed radius
        # escalates through several empty rounds.
        radius = None if radius_sq is None else FixedRadius(radius_sq)
        decoder = SphereDecoder(
            system.constellation, strategy=strategy, radius_policy=radius
        )
        decoder.prepare(frame.channel, noise_var=frame.noise_var)
        with use_tracer(Tracer()) as tracer:
            stats = decoder.detect(frame.received).stats
        assert {e.phase for e in tracer.events} == {PHASE_SPAN}
        bounds = [e.args["bound"] for e in tracer.spans("sd.search")]
        # One sd.search per round of the radius schedule.
        assert bounds == [
            stats.radius_trace[0] * ESCALATION_FACTOR**i
            for i in range(len(bounds))
        ]
        assert (len(bounds) > 1) == (radius_sq is not None)
        assert sorted(e.name for e in tracer.events) == sorted(
            ["sd.detect", "sd.solve"] + ["sd.search"] * len(bounds)
        )
        assert stats.gemm_calls > len(tracer.events)


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
