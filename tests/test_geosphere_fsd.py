"""Tests for the Geosphere preset (the ``geosphere`` registry kind) and
the fixed-complexity decoder."""

import numpy as np
import pytest

from repro.detectors.fsd import FixedComplexityDecoder
from repro.detectors.ml import MLDetector
from repro.detectors.registry import spec
from repro.mimo.system import MIMOSystem


def run_pair(system, decoder, snr_db, seed):
    rng = np.random.default_rng(seed)
    frame = system.random_frame(snr_db, rng)
    ml = MLDetector(system.constellation)
    ml.prepare(frame.channel)
    decoder.prepare(frame.channel, noise_var=frame.noise_var)
    return frame, decoder.detect(frame.received), ml.detect(frame.received)


class TestGeosphere:
    @pytest.mark.parametrize("seed", range(5))
    def test_exact_ml(self, seed):
        system = MIMOSystem(5, 5, "4qam")
        decoder = spec("geosphere", system.constellation)()
        _, geo, ml = run_pair(system, decoder, 6.0, seed)
        assert geo.metric == pytest.approx(ml.metric, rel=1e-9)
        assert np.array_equal(geo.indices, ml.indices)

    def test_is_dfs_single_node(self):
        system = MIMOSystem(5, 5, "4qam")
        decoder = spec("geosphere", system.constellation)()
        _, geo, _ = run_pair(system, decoder, 6.0, 0)
        assert all(ev.pool_size == 1 for ev in geo.stats.batches)

    def test_max_nodes_passthrough(self):
        system = MIMOSystem(6, 6, "4qam")
        decoder = spec("geosphere", system.constellation, max_nodes=3)()
        _, geo, _ = run_pair(system, decoder, 0.0, 0)
        assert geo.stats.truncated >= 1


class TestFixedComplexity:
    def test_workload_is_data_independent(self):
        """The defining FSD property: node counts don't depend on SNR."""
        system = MIMOSystem(5, 5, "4qam")
        counts = []
        for snr in (0.0, 10.0, 30.0):
            decoder = FixedComplexityDecoder(system.constellation, rho=1)
            _, fsd, _ = run_pair(system, decoder, snr, 0)
            counts.append(fsd.stats.nodes_expanded)
        assert counts[0] == counts[1] == counts[2]

    def test_workload_formula_rho1(self):
        """rho=1: level widths are 1, P, P, ..., P."""
        system = MIMOSystem(5, 5, "4qam")
        decoder = FixedComplexityDecoder(system.constellation, rho=1)
        _, fsd, _ = run_pair(system, decoder, 10.0, 0)
        pools = [ev.pool_size for ev in fsd.stats.batches]
        assert pools == [1, 4, 4, 4, 4]
        assert fsd.stats.leaves_reached == 4

    def test_workload_formula_rho2(self):
        system = MIMOSystem(4, 4, "4qam")
        decoder = FixedComplexityDecoder(system.constellation, rho=2)
        _, fsd, _ = run_pair(system, decoder, 10.0, 0)
        pools = [ev.pool_size for ev in fsd.stats.batches]
        assert pools == [1, 4, 16, 16]

    def test_metric_at_least_ml(self):
        """FSD is sub-optimal: its metric can never beat ML."""
        system = MIMOSystem(5, 5, "4qam")
        for seed in range(8):
            decoder = FixedComplexityDecoder(system.constellation, rho=1)
            _, fsd, ml = run_pair(system, decoder, 5.0, seed)
            assert fsd.metric >= ml.metric - 1e-9

    def test_full_rho_is_exhaustive(self):
        """rho = M enumerates everything -> exact ML."""
        system = MIMOSystem(3, 3, "4qam")
        for seed in range(5):
            decoder = FixedComplexityDecoder(system.constellation, rho=3)
            _, fsd, ml = run_pair(system, decoder, 3.0, seed)
            assert fsd.metric == pytest.approx(ml.metric, rel=1e-9)

    def test_high_snr_recovers(self):
        system = MIMOSystem(6, 6, "4qam")
        decoder = FixedComplexityDecoder(system.constellation)
        frame, fsd, _ = run_pair(system, decoder, 60.0, 0)
        assert np.array_equal(fsd.indices, frame.symbol_indices)

    def test_rho_validation(self):
        const = MIMOSystem(3, 3).constellation
        with pytest.raises(ValueError):
            FixedComplexityDecoder(const, rho=0)
        decoder = FixedComplexityDecoder(const, rho=4)
        with pytest.raises(ValueError, match="rho"):
            decoder.prepare(np.eye(3, dtype=complex))

    def test_requires_prepare(self):
        decoder = FixedComplexityDecoder(MIMOSystem(3, 3).constellation)
        with pytest.raises(RuntimeError):
            decoder.detect(np.zeros(3, complex))

    def test_metric_is_true_residual(self):
        system = MIMOSystem(4, 4, "16qam")
        decoder = FixedComplexityDecoder(system.constellation)
        frame, fsd, _ = run_pair(system, decoder, 10.0, 0)
        expected = (
            np.linalg.norm(frame.received - frame.channel @ fsd.symbols) ** 2
        )
        assert fsd.metric == pytest.approx(expected, rel=1e-9)
