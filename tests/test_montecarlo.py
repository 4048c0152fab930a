"""Tests for repro.mimo.montecarlo."""

import numpy as np
import pytest

from repro.detectors.linear import ZeroForcingDetector
from repro.detectors.sphere import SphereDecoder
from repro.mimo.montecarlo import MonteCarloEngine, SnrPoint
from repro.mimo.metrics import ErrorCounter
from repro.mimo.system import MIMOSystem


def _system():
    return MIMOSystem(4, 4, "4qam")


class _ZfFactory:
    """Picklable detector factory (needed for process workers)."""

    def __init__(self, const):
        self.const = const

    def __call__(self):
        return ZeroForcingDetector(self.const)


def _zf_factory(const):
    return _ZfFactory(const)


class TestEngineBasics:
    def test_runs_and_counts_frames(self):
        system = _system()
        engine = MonteCarloEngine(system, channels=2, frames_per_channel=3, seed=0)
        sweep = engine.run(_zf_factory(system.constellation), [10.0, 20.0])
        assert len(sweep.points) == 2
        for point in sweep.points:
            assert point.frames == 6
            assert point.errors.bits == 6 * system.bits_per_frame

    def test_snr_grid_preserved(self):
        system = _system()
        engine = MonteCarloEngine(system, channels=1, frames_per_channel=2, seed=0)
        sweep = engine.run(_zf_factory(system.constellation), [4, 12, 20])
        assert np.array_equal(sweep.snrs_db, [4.0, 12.0, 20.0])

    def test_reproducible(self):
        system = _system()

        def run():
            engine = MonteCarloEngine(
                system, channels=2, frames_per_channel=4, seed=77
            )
            return engine.run(_zf_factory(system.constellation), [8.0])

        a, b = run(), run()
        assert a.points[0].errors.bit_errors == b.points[0].errors.bit_errors

    def test_different_seeds_differ(self):
        system = _system()
        results = []
        for seed in (1, 2):
            engine = MonteCarloEngine(
                system, channels=3, frames_per_channel=10, seed=seed
            )
            sweep = engine.run(_zf_factory(system.constellation), [6.0])
            results.append(sweep.points[0].errors.bit_errors)
        assert results[0] != results[1]

    def test_detector_name_default_and_override(self):
        system = _system()
        engine = MonteCarloEngine(system, channels=1, frames_per_channel=1, seed=0)
        sweep = engine.run(_zf_factory(system.constellation), [10.0])
        assert sweep.detector_name == "zf"
        named = engine.run(
            _zf_factory(system.constellation), [10.0], detector_name="custom"
        )
        assert named.detector_name == "custom"

    def test_empty_snrs_rejected(self):
        system = _system()
        engine = MonteCarloEngine(system, channels=1, frames_per_channel=1)
        with pytest.raises(ValueError):
            engine.run(_zf_factory(system.constellation), [])

    def test_invalid_counts_rejected(self):
        system = _system()
        with pytest.raises(ValueError):
            MonteCarloEngine(system, channels=0, frames_per_channel=1)
        with pytest.raises(ValueError):
            MonteCarloEngine(system, channels=1, frames_per_channel=0)


class TestStatsCollection:
    def test_sd_stats_collected(self):
        system = _system()
        const = system.constellation
        engine = MonteCarloEngine(system, channels=2, frames_per_channel=2, seed=0)
        sweep = engine.run(lambda: SphereDecoder(const), [10.0])
        point = sweep.points[0]
        assert len(point.frame_stats) == point.frames
        agg = point.aggregate_stats()
        assert agg.nodes_expanded > 0
        assert agg.gemm_calls > 0

    def test_linear_detector_has_no_stats(self):
        system = _system()
        engine = MonteCarloEngine(system, channels=1, frames_per_channel=2, seed=0)
        sweep = engine.run(_zf_factory(system.constellation), [10.0])
        assert sweep.points[0].frame_stats == []
        assert np.isnan(sweep.points[0].mean_nodes_expanded())

    def test_keep_traces_false_drops_batches(self):
        system = _system()
        const = system.constellation
        engine = MonteCarloEngine(
            system, channels=1, frames_per_channel=2, seed=0, keep_traces=False
        )
        sweep = engine.run(lambda: SphereDecoder(const), [10.0])
        for st in sweep.points[0].frame_stats:
            assert len(st.batches) == 0

    def test_decode_time_accumulated(self):
        system = _system()
        const = system.constellation
        engine = MonteCarloEngine(system, channels=1, frames_per_channel=3, seed=0)
        sweep = engine.run(lambda: SphereDecoder(const), [10.0])
        assert sweep.points[0].decode_time_s > 0
        assert sweep.points[0].mean_decode_time_s > 0


class TestEarlyStop:
    def test_no_early_stop_without_target(self):
        system = _system()
        engine = MonteCarloEngine(system, channels=3, frames_per_channel=2, seed=0)
        sweep = engine.run(_zf_factory(system.constellation), [-5.0])
        assert sweep.points[0].frames == 6


class TestSweepResult:
    def test_point_at(self):
        system = _system()
        engine = MonteCarloEngine(system, channels=1, frames_per_channel=1, seed=0)
        sweep = engine.run(_zf_factory(system.constellation), [4.0, 8.0])
        assert sweep.point_at(8.0).snr_db == 8.0
        with pytest.raises(KeyError):
            sweep.point_at(12.0)

    def test_bers_array(self):
        system = _system()
        engine = MonteCarloEngine(system, channels=2, frames_per_channel=5, seed=0)
        sweep = engine.run(_zf_factory(system.constellation), [0.0, 30.0])
        bers = sweep.bers
        assert bers.shape == (2,)
        assert bers[1] <= bers[0]  # higher SNR, no more errors


class TestParallelWorkers:
    def test_parallel_matches_frame_count(self):
        system = _system()
        engine = MonteCarloEngine(system, channels=4, frames_per_channel=2, seed=0)
        sweep = engine.run(
            _zf_factory(system.constellation), [10.0], n_workers=2
        )
        assert sweep.points[0].frames == 8

    def test_parallel_matches_serial_errors(self):
        """Same seed => identical per-block streams => identical counts."""
        system = _system()

        def run(workers):
            engine = MonteCarloEngine(
                system, channels=4, frames_per_channel=3, seed=42
            )
            sweep = engine.run(
                _zf_factory(system.constellation), [6.0], n_workers=workers
            )
            return sweep.points[0].errors.bit_errors

        assert run(1) == run(2)


class TestHeartbeat:
    def heartbeats(self, tracer):
        return [e for e in tracer.events if e.name == "mc.heartbeat"]

    def run_traced(self, *, channels=3, heartbeat_every=1):
        from repro.obs import Tracer, use_tracer

        system = _system()
        engine = MonteCarloEngine(
            system,
            channels=channels,
            frames_per_channel=2,
            seed=0,
            heartbeat_every=heartbeat_every,
        )
        tracer = Tracer()
        with use_tracer(tracer):
            engine.run(_zf_factory(system.constellation), [10.0])
        return tracer

    def test_instant_per_block(self):
        tracer = self.run_traced(channels=3)
        beats = self.heartbeats(tracer)
        assert [e.args["blocks_done"] for e in beats] == [1, 2, 3]
        assert all(e.args["blocks_total"] == 3 for e in beats)

    def test_instant_payload(self):
        tracer = self.run_traced(channels=2)
        last = self.heartbeats(tracer)[-1]
        assert set(last.args) == {
            "snr_db", "blocks_done", "blocks_total", "frames",
            "ber", "nodes_per_s", "eta_s",
        }
        assert last.args["snr_db"] == 10.0
        assert last.args["frames"] == 4  # 2 blocks x 2 frames
        assert 0.0 <= last.args["ber"] <= 1.0
        assert last.args["eta_s"] == pytest.approx(0.0, abs=5.0)

    def test_every_n_blocks(self):
        tracer = self.run_traced(channels=4, heartbeat_every=2)
        beats = self.heartbeats(tracer)
        assert [e.args["blocks_done"] for e in beats] == [2, 4]

    def test_zero_disables(self):
        tracer = self.run_traced(channels=3, heartbeat_every=0)
        assert self.heartbeats(tracer) == []

    def test_negative_interval_rejected(self):
        with pytest.raises(ValueError, match="heartbeat_every"):
            MonteCarloEngine(_system(), heartbeat_every=-1)

    def test_log_line_when_verbose(self):
        """The INFO heartbeat renders frames, BER and ETA."""
        import io

        from repro.obs.log import configure

        stream = io.StringIO()
        configure(1, stream=stream)
        try:
            system = _system()
            engine = MonteCarloEngine(
                system, channels=2, frames_per_channel=2, seed=0
            )
            engine.run(_zf_factory(system.constellation), [10.0])
        finally:
            configure(0)
        logged = stream.getvalue()
        assert "mc heartbeat 10.0 dB" in logged
        assert "block 2/2" in logged
        assert "eta" in logged

    def test_silent_without_tracer_or_verbose_logging(self):
        """Default run: no heartbeat work observable anywhere."""
        from repro.obs import current_tracer

        system = _system()
        engine = MonteCarloEngine(system, channels=2, frames_per_channel=2, seed=0)
        engine.run(_zf_factory(system.constellation), [10.0])
        assert self.heartbeats(current_tracer()) == []
