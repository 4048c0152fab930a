"""Tests for the sphere-radius policies."""

import numpy as np
import pytest

from repro.core.radius import (
    BabaiRadius,
    FixedRadius,
    InfiniteRadius,
    NoiseScaledRadius,
    babai_point,
)
from repro.mimo.channel import ChannelModel
from repro.mimo.constellation import Constellation
from repro.mimo.preprocessing import effective_receive, qr_decompose


def triangular_system(n=4, seed=0, order=4):
    const = Constellation.qam(order)
    rng = np.random.default_rng(seed)
    h = ChannelModel(n_tx=n, n_rx=n).draw_channel(rng)
    qr = qr_decompose(h)
    idx = rng.integers(0, order, n)
    s = const.points[idx]
    y = h @ s + 0.1 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    ybar = effective_receive(qr, y)
    return qr.r, ybar, const, idx


class TestBabaiPoint:
    def test_metric_matches_solution(self):
        r, ybar, const, _ = triangular_system()
        idx, metric = babai_point(r, ybar, const)
        s = const.points[idx]
        assert metric == pytest.approx(np.linalg.norm(ybar - r @ s) ** 2, rel=1e-9)

    def test_recovers_transmit_with_small_noise(self):
        r, ybar, const, sent = triangular_system(seed=3)
        idx, _ = babai_point(r, ybar, const)
        # Babai = SIC; with mild noise on a random well-conditioned channel
        # it usually recovers, but the guaranteed property is validity:
        assert idx.shape == sent.shape
        assert np.all((idx >= 0) & (idx < const.order))

    def test_noiseless_exact(self):
        const = Constellation.qam(4)
        rng = np.random.default_rng(7)
        h = ChannelModel(n_tx=5, n_rx=5).draw_channel(rng)
        qr = qr_decompose(h)
        sent = rng.integers(0, 4, 5)
        y = h @ const.points[sent]
        ybar = effective_receive(qr, y)
        idx, metric = babai_point(qr.r, ybar, const)
        assert np.array_equal(qr.unpermute(idx), sent)
        assert metric == pytest.approx(0.0, abs=1e-18)

    def test_metric_upper_bounds_ml(self):
        """The Babai metric can never be below the ML minimum."""
        from repro.detectors.ml import MLDetector

        const = Constellation.qam(4)
        rng = np.random.default_rng(11)
        h = ChannelModel(n_tx=3, n_rx=3).draw_channel(rng)
        qr = qr_decompose(h)
        y = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        ybar = effective_receive(qr, y)
        _, metric = babai_point(qr.r, ybar, const)
        ml = MLDetector(const)
        ml.prepare(h)
        assert metric >= ml.detect(y).metric - 1e-9


class TestPolicies:
    def test_infinite(self):
        r, ybar, const, _ = triangular_system()
        init = InfiniteRadius().initial(r, ybar, const, 0.5)
        assert np.isinf(init.radius_sq)
        assert init.incumbent_indices is None
        assert not InfiniteRadius().can_escalate()

    def test_noise_scaled_value(self):
        r, ybar, const, _ = triangular_system(n=4)
        init = NoiseScaledRadius(alpha=2.0).initial(r, ybar, const, 0.25)
        assert init.radius_sq == pytest.approx(2.0 * 4 * 0.25)
        assert init.incumbent_indices is None

    def test_noise_scaled_escalates(self):
        assert NoiseScaledRadius().can_escalate()

    def test_noise_scaled_zero_noise_falls_back_to_babai(self):
        r, ybar, const, _ = triangular_system()
        init = NoiseScaledRadius().initial(r, ybar, const, 0.0)
        assert init.incumbent_indices is not None
        assert init.radius_sq > 0

    def test_noise_scaled_validation(self):
        with pytest.raises(ValueError):
            NoiseScaledRadius(alpha=0.0)

    def test_fixed(self):
        r, ybar, const, _ = triangular_system()
        init = FixedRadius(radius_sq=5.0).initial(r, ybar, const, 0.9)
        assert init.radius_sq == 5.0
        assert init.incumbent_indices is None
        assert FixedRadius(5.0).can_escalate()

    def test_fixed_validation(self):
        with pytest.raises(ValueError):
            FixedRadius(radius_sq=0.0)

    def test_babai_policy_consistent(self):
        r, ybar, const, _ = triangular_system()
        init = BabaiRadius().initial(r, ybar, const, 0.5)
        idx, metric = babai_point(r, ybar, const)
        assert np.array_equal(init.incumbent_indices, idx)
        assert init.radius_sq == pytest.approx(metric)
        assert not BabaiRadius().can_escalate()
