"""Tests for the sphere-radius policies."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.metric import L2, LINF, resolve_metric
from repro.core.radius import (
    BabaiRadius,
    FixedRadius,
    InfiniteRadius,
    NoiseScaledRadius,
    babai_point,
)
from repro.detectors.sic import SICDetector
from repro.mimo.channel import ChannelModel
from repro.mimo.constellation import Constellation, pam_component
from repro.mimo.preprocessing import effective_receive, qr_decompose, sorted_qr


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


# ----------------------------------------------------------------------
# Scalar slicing keeps every bit of the array-slicer Babai recursion
# ----------------------------------------------------------------------


def _babai_reference(r, ybar, constellation, *, metric=None):
    """``babai_point`` with one array slice per level (``nearest_indices``
    on a one-element array): the oracle the scalar-slicing loop must
    match bit for bit. Kept verbatim; do not tidy it."""
    metric_obj = resolve_metric(metric)
    n_tx = r.shape[0]
    indices = np.empty(n_tx, dtype=np.int64)
    symbols = np.empty(n_tx, dtype=np.complex128)
    metric_val = 0.0
    accumulate = metric_obj.scalar_accumulate
    for k in range(n_tx - 1, -1, -1):
        interference = r[k, k + 1 :] @ symbols[k + 1 :]
        estimate = (ybar[k] - interference) / r[k, k]
        idx = int(constellation.nearest_indices(np.asarray([estimate]))[0])
        indices[k] = idx
        symbols[k] = constellation.points[idx]
        err = ybar[k] - interference - r[k, k] * symbols[k]
        metric_val = accumulate(metric_val, err)
    return indices, metric_val


_REFERENCE_CONSTELLATIONS = {
    "bpsk": Constellation.bpsk(),
    "4qam": Constellation.qam(4),
    "16qam": Constellation.qam(16),
    "64qam": Constellation.qam(64),
    "4pam": pam_component(Constellation.qam(16)),  # the real-lattice alphabet
}


def _prepared_qr(rng, n_rx, n_tx, conditioning, ordering):
    """A Rayleigh draw, or one with condition number 1e4, or one whose last
    column is the first plus a 1e-5 perturbation, with its natural or SQRD
    QR. Closer to singular, SQRD's downdated column norms can cancel to
    zero and it reports rank deficiency; such draws are skipped."""
    h = ChannelModel(n_tx=n_tx, n_rx=n_rx).draw_channel(rng)
    if conditioning == "ill":
        u, _, vh = np.linalg.svd(h, full_matrices=False)
        h = (u * np.logspace(0, -4, n_tx)) @ vh
    elif conditioning == "near-singular" and n_tx > 1:
        h[:, -1] = h[:, 0] + 1e-5 * h[:, -1]
    try:
        qr = sorted_qr(h) if ordering == "sqrd" else qr_decompose(h)
    except np.linalg.LinAlgError:
        assume(False)
    return h, qr


def _edge_receive(r, const, rng):
    """A reduced receive vector that puts every Babai estimate on a decision
    edge up to rounding: level by level, the midpoint of a point and a
    nearest neighbour, scaled by the pivot, plus that level's interference.
    The slice there turns on the estimate's last bit."""
    n_tx = r.shape[0]
    points = const.points
    dist = np.abs(points[:, None] - points[None, :])
    np.fill_diagonal(dist, np.inf)
    ybar = np.empty(n_tx, dtype=np.complex128)
    symbols = np.empty(n_tx, dtype=np.complex128)
    for k in range(n_tx - 1, -1, -1):
        a = rng.integers(const.order)
        b = rng.choice(np.flatnonzero(dist[a] == dist[a].min()))
        interference = r[k, k + 1 :] @ symbols[k + 1 :]
        ybar[k] = interference + r[k, k] * ((points[a] + points[b]) / 2)
        estimate = (ybar[k] - interference) / r[k, k]
        symbols[k] = points[const.nearest_indices(np.asarray([estimate]))[0]]
    return ybar


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n_tx=st.integers(min_value=1, max_value=24),
    extra_rx=st.integers(min_value=0, max_value=3),
    alphabet=st.sampled_from(sorted(_REFERENCE_CONSTELLATIONS)),
    conditioning=st.sampled_from(["random", "ill", "near-singular"]),
    ordering=st.sampled_from(["natural", "sqrd"]),
    metric=st.sampled_from([None, L2, LINF]),
    noise=st.sampled_from([0.0, 1e-3, 0.3, 3.0, "edge"]),
)
@settings(max_examples=400, deadline=None)
def test_property_babai_point_matches_array_slicer_reference(
    seed, n_tx, extra_rx, alphabet, conditioning, ordering, metric, noise
):
    """Equal indices and an equal metric, to the last bit, over natural and
    SQRD QR of random, ill-conditioned and near-singular channels, under
    the l2 and l-infinity metrics, for noisy receive vectors and for ones
    whose estimates sit on decision edges."""
    const = _REFERENCE_CONSTELLATIONS[alphabet]
    rng = np.random.default_rng(seed)
    h, qr = _prepared_qr(rng, n_tx + extra_rx, n_tx, conditioning, ordering)
    if noise == "edge":
        ybar = _edge_receive(qr.r, const, rng)
    else:
        y = h @ const.points[rng.integers(0, const.order, n_tx)] + noise * (
            rng.standard_normal(h.shape[0]) + 1j * rng.standard_normal(h.shape[0])
        )
        ybar = effective_receive(qr, y)
    got_idx, got_metric = babai_point(qr.r, ybar, const, metric=metric)
    ref_idx, ref_metric = _babai_reference(qr.r, ybar, const, metric=metric)
    assert got_idx.dtype == ref_idx.dtype
    assert np.array_equal(got_idx, ref_idx)
    assert type(got_metric) is type(ref_metric)
    assert float(got_metric).hex() == float(ref_metric).hex()


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n_tx=st.integers(min_value=1, max_value=16),
    order=st.sampled_from([4, 16, 64]),
    conditioning=st.sampled_from(["random", "ill", "near-singular"]),
    ordering=st.sampled_from(["natural", "sqrd"]),
    snr_db=st.sampled_from([0.0, 12.0, 40.0, "edge"]),
)
@settings(max_examples=150, deadline=None)
def test_property_sic_decisions_match_array_slicer_reference(
    seed, n_tx, order, conditioning, ordering, snr_db
):
    """``SICDetector`` decides the reference recursion's point on the QR it
    prepares, at three SNRs and for receive vectors rotated from decision
    edges (``y = Q ybar``)."""
    const = Constellation.qam(order)
    rng = np.random.default_rng(seed)
    h, qr = _prepared_qr(rng, n_tx, n_tx, conditioning, ordering)
    if snr_db == "edge":
        noise_var = 0.0
        y = qr.q @ _edge_receive(qr.r, const, rng)
    else:
        noise_var = ChannelModel(n_tx=n_tx, n_rx=n_tx).noise_var(snr_db)
        y = h @ const.points[rng.integers(0, order, n_tx)] + np.sqrt(
            noise_var / 2
        ) * (rng.standard_normal(n_tx) + 1j * rng.standard_normal(n_tx))
    sic = SICDetector(const, ordering=ordering)
    sic.prepare(h, noise_var=noise_var)
    ref_idx, _ = _babai_reference(qr.r, effective_receive(qr, y), const)
    assert np.array_equal(sic.detect(y).indices, qr.unpermute(ref_idx))
