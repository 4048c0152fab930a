"""End-to-end integration tests spanning the whole stack.

These exercise the full pipeline the way the paper's evaluation does:
Monte Carlo link simulation -> decoder -> work traces -> platform time
models, asserting the qualitative claims of the paper hold in this
implementation.
"""

import numpy as np
import pytest

from repro import (
    BabaiRadius,
    FixedRadius,
    GemmBfsDecoder,
    MIMOSystem,
    MLDetector,
    MMSEDetector,
    MonteCarloEngine,
    NoiseScaledRadius,
    SphereDecoder,
    ZeroForcingDetector,
)
from repro.detectors.registry import spec
from repro.fpga import FPGAPipeline, PipelineConfig
from repro.perfmodel import CPUCostModel


class TestBerHierarchy:
    """SD (exact ML) must dominate the suboptimal detectors in BER."""

    def test_sd_beats_linear_detectors(self):
        system = MIMOSystem(8, 8, "4qam")
        const = system.constellation
        engine = MonteCarloEngine(
            system, channels=6, frames_per_channel=15, seed=5, keep_traces=False
        )
        snrs = [8.0]
        sd = engine.run(lambda: SphereDecoder(const), snrs)
        zf = engine.run(lambda: ZeroForcingDetector(const), snrs)
        mmse = engine.run(lambda: MMSEDetector(const), snrs)
        assert sd.points[0].ber < zf.points[0].ber
        assert sd.points[0].ber <= mmse.points[0].ber

    def test_sd_ber_decreases_with_snr(self):
        system = MIMOSystem(6, 6, "4qam")
        const = system.constellation
        engine = MonteCarloEngine(
            system, channels=6, frames_per_channel=15, seed=6, keep_traces=False
        )
        sweep = engine.run(lambda: SphereDecoder(const), [2.0, 10.0, 18.0])
        bers = sweep.bers
        assert bers[0] > bers[2]
        assert bers[1] >= bers[2]

    def test_all_exact_decoders_same_ber(self):
        """Best-FS, sorted-DFS, Geosphere and generously-provisioned BFS
        are all exact: identical decisions frame by frame."""
        system = MIMOSystem(5, 5, "4qam")
        const = system.constellation
        rng = np.random.default_rng(9)
        frame = system.random_frame(5.0, rng)
        decoders = [
            SphereDecoder(const, strategy="best-first"),
            SphereDecoder(const, strategy="dfs"),
            spec("geosphere", const)(),
            GemmBfsDecoder(const, radius_policy=FixedRadius(radius_sq=1e9)),
        ]
        decisions = []
        for d in decoders:
            d.prepare(frame.channel, noise_var=frame.noise_var)
            decisions.append(d.detect(frame.received).indices)
        for other in decisions[1:]:
            assert np.array_equal(decisions[0], other)


class TestWorkloadShapes:
    def test_nodes_fall_with_snr(self):
        system = MIMOSystem(8, 8, "4qam")
        const = system.constellation
        engine = MonteCarloEngine(system, channels=4, frames_per_channel=5, seed=2)
        sweep = engine.run(
            lambda: SphereDecoder(
                const, strategy="dfs", radius_policy=NoiseScaledRadius(alpha=2.0)
            ),
            [4.0, 20.0],
        )
        assert (
            sweep.points[0].mean_nodes_expanded()
            > sweep.points[1].mean_nodes_expanded()
        )

    def test_nodes_grow_with_antennas(self):
        counts = {}
        for n in (4, 8):
            system = MIMOSystem(n, n, "4qam")
            const = system.constellation
            engine = MonteCarloEngine(
                system, channels=4, frames_per_channel=5, seed=3
            )
            sweep = engine.run(
                lambda: SphereDecoder(
                    const, strategy="dfs", radius_policy=NoiseScaledRadius(alpha=2.0)
                ),
                [6.0],
            )
            counts[n] = sweep.points[0].mean_nodes_expanded()
        assert counts[8] > counts[4]

    def test_modulation_scaling_dominates(self):
        """Paper section IV-E: modulation factor hits harder than antennas."""
        base = self._mean_nodes(MIMOSystem(6, 6, "4qam"), seed=4)
        wider = self._mean_nodes(MIMOSystem(8, 8, "4qam"), seed=4)
        denser = self._mean_nodes(MIMOSystem(6, 6, "16qam"), seed=4)
        assert denser > base
        assert denser > wider

    @staticmethod
    def _mean_nodes(system, seed):
        const = system.constellation
        engine = MonteCarloEngine(system, channels=3, frames_per_channel=4, seed=seed)
        sweep = engine.run(
            lambda: SphereDecoder(
                const, strategy="dfs", radius_policy=NoiseScaledRadius(alpha=2.0)
            ),
            [8.0],
        )
        return sweep.points[0].mean_nodes_expanded()


class TestPlatformStory:
    def test_fpga_opt_beats_cpu_beats_baseline_ordering(self):
        """On identical traces: FPGA-opt < FPGA-baseline < CPU decode time."""
        system = MIMOSystem(8, 8, "4qam")
        const = system.constellation
        engine = MonteCarloEngine(system, channels=3, frames_per_channel=4, seed=1)
        sweep = engine.run(
            lambda: SphereDecoder(
                const, strategy="dfs", radius_policy=NoiseScaledRadius(alpha=2.0)
            ),
            [6.0],
        )
        stats = sweep.points[0].frame_stats
        cpu = CPUCostModel(n_rx=8).mean_decode_seconds(stats)
        opt = FPGAPipeline(
            PipelineConfig.optimized(4), n_tx=8, n_rx=8, order=4
        ).mean_decode_seconds(stats)
        base = FPGAPipeline(
            PipelineConfig.baseline(4), n_tx=8, n_rx=8, order=4
        ).mean_decode_seconds(stats)
        assert opt < base < cpu

    def test_babai_seeding_reduces_work_without_changing_answer(self):
        """Our added optimisation must be work-reducing and exact."""
        system = MIMOSystem(6, 6, "4qam")
        const = system.constellation
        rng = np.random.default_rng(4)
        frame = system.random_frame(6.0, rng)
        plain = SphereDecoder(
            const, strategy="dfs", radius_policy=NoiseScaledRadius(alpha=2.0)
        )
        seeded = SphereDecoder(const, strategy="dfs", radius_policy=BabaiRadius())
        plain.prepare(frame.channel, noise_var=frame.noise_var)
        seeded.prepare(frame.channel, noise_var=frame.noise_var)
        r_plain = plain.detect(frame.received)
        r_seeded = seeded.detect(frame.received)
        assert np.array_equal(r_plain.indices, r_seeded.indices)
        assert (
            r_seeded.stats.nodes_expanded <= r_plain.stats.nodes_expanded
        )

    def test_ml_detector_agrees_with_full_stack(self):
        """The whole chain (system/QR/decoder) matches brute force."""
        system = MIMOSystem(4, 4, "16qam")
        const = system.constellation
        rng = np.random.default_rng(8)
        ok = 0
        for _ in range(5):
            frame = system.random_frame(10.0, rng)
            ml = MLDetector(const)
            ml.prepare(frame.channel)
            sd = SphereDecoder(const)
            sd.prepare(frame.channel, noise_var=frame.noise_var)
            if np.array_equal(
                ml.detect(frame.received).indices,
                sd.detect(frame.received).indices,
            ):
                ok += 1
        assert ok == 5
