"""Cross-detector invariants (property-based).

These tests pin down the *relationships* between detectors that the
theory demands, over randomly drawn systems: metric orderings, BER
dominance, workload orderings. They are the guard rails that keep the
detector zoo mutually consistent as the library evolves.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.radius import FixedRadius, NoiseScaledRadius
from repro.detectors.fsd import FixedComplexityDecoder
from repro.detectors.kbest import KBestDecoder
from repro.detectors.linear import MMSEDetector, MRCDetector, ZeroForcingDetector
from repro.detectors.lr import LRZFDetector
from repro.detectors.ml import MLDetector
from repro.detectors.sd_bfs import GemmBfsDecoder
from repro.detectors.sic import SICDetector
from repro.detectors.sphere import SphereDecoder
from repro.mimo.system import MIMOSystem


def one_frame(n, modulation, snr_db, seed):
    system = MIMOSystem(n, n, modulation)
    return system, system.random_frame(snr_db, np.random.default_rng(seed))


@given(
    n=st.integers(min_value=2, max_value=5),
    snr_db=st.floats(min_value=-2, max_value=25),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=25, deadline=None)
def test_property_ml_metric_is_global_floor(n, snr_db, seed):
    """No detector's residual metric ever beats brute-force ML."""
    system, frame = one_frame(n, "4qam", snr_db, seed)
    const = system.constellation
    ml = MLDetector(const)
    ml.prepare(frame.channel)
    floor = ml.detect(frame.received).metric
    detectors = [
        ZeroForcingDetector(const),
        MMSEDetector(const),
        MRCDetector(const),
        SICDetector(const),
        LRZFDetector(const),
        FixedComplexityDecoder(const),
        KBestDecoder(const, k=4),
        SphereDecoder(const),
        GemmBfsDecoder(const),
    ]
    for det in detectors:
        det.prepare(frame.channel, noise_var=frame.noise_var)
        metric = det.detect(frame.received).metric
        assert metric >= floor - 1e-9, type(det).__name__


@given(
    n=st.integers(min_value=2, max_value=5),
    snr_db=st.floats(min_value=0, max_value=25),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=25, deadline=None)
def test_property_all_detectors_return_valid_decisions(n, snr_db, seed):
    """Contract: indices in range, bits/symbols consistent, metric ≥ 0."""
    system, frame = one_frame(n, "16qam", snr_db, seed)
    const = system.constellation
    detectors = [
        ZeroForcingDetector(const),
        MMSEDetector(const),
        SICDetector(const),
        LRZFDetector(const),
        KBestDecoder(const, k=8),
        SphereDecoder(const),
    ]
    for det in detectors:
        det.prepare(frame.channel, noise_var=frame.noise_var)
        result = det.detect(frame.received)
        assert result.indices.shape == (n,)
        assert np.all((result.indices >= 0) & (result.indices < const.order))
        assert np.array_equal(result.symbols, const.points[result.indices])
        assert np.array_equal(result.bits, const.indices_to_bits(result.indices))
        assert result.metric >= 0.0


@given(
    n=st.integers(min_value=2, max_value=5),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=20, deadline=None)
def test_property_noiseless_consensus(n, seed):
    """With no noise every sensible detector returns the transmission."""
    system, frame = one_frame(n, "4qam", 300.0, seed)
    const = system.constellation
    detectors = [
        ZeroForcingDetector(const),
        MMSEDetector(const),
        SICDetector(const),
        LRZFDetector(const),
        SphereDecoder(const),
        FixedComplexityDecoder(const),
        KBestDecoder(const, k=8),
    ]
    for det in detectors:
        det.prepare(frame.channel, noise_var=0.0)
        result = det.detect(frame.received)
        assert np.array_equal(result.indices, frame.symbol_indices), (
            type(det).__name__
        )


@given(
    n=st.integers(min_value=3, max_value=6),
    snr_db=st.floats(min_value=2, max_value=15),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=20, deadline=None)
def test_property_leaf_first_needs_fewer_nodes_than_bfs(n, snr_db, seed):
    """The paper's IV-F ordering holds for arbitrary random instances."""
    system, frame = one_frame(n, "4qam", snr_db, seed)
    const = system.constellation
    leaf_first = SphereDecoder(
        const, strategy="dfs", radius_policy=NoiseScaledRadius(alpha=2.0)
    )
    bfs = GemmBfsDecoder(const, radius_policy=NoiseScaledRadius(alpha=2.0))
    leaf_first.prepare(frame.channel, noise_var=frame.noise_var)
    bfs.prepare(frame.channel, noise_var=frame.noise_var)
    r_lf = leaf_first.detect(frame.received)
    r_bfs = bfs.detect(frame.received)
    # Identical spheres: BFS can never explore fewer nodes.
    assert r_bfs.stats.nodes_expanded >= r_lf.stats.nodes_expanded
    # And both land on the same answer (both exact within the sphere,
    # with identical escalation schedules).
    assert r_bfs.metric == pytest.approx(r_lf.metric, rel=1e-9)


@given(
    n=st.integers(min_value=2, max_value=5),
    snr_db=st.floats(min_value=0, max_value=20),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=20, deadline=None)
def test_property_kbest_full_width_dominates(n, snr_db, seed):
    """Untruncated K-best is exact ML, so no finite K beats it.

    Note K-best is *not* monotone in K in general: K=1 follows the
    greedy SIC path, whose prefix can fall outside a wider beam's
    globally-ranked survivors yet finish at a better leaf (hypothesis
    found ``n=5, snr_db=0, seed=32973498``). Only the full-width beam —
    which never truncates and is therefore exhaustive — dominates every
    narrower configuration.
    """
    system, frame = one_frame(n, "4qam", snr_db, seed)
    const = system.constellation
    metrics = []
    for k in (1, 4, 4**n):
        det = KBestDecoder(const, k=k)
        det.prepare(frame.channel)
        metrics.append(det.detect(frame.received).metric)
    assert metrics[2] <= metrics[0] + 1e-9
    assert metrics[2] <= metrics[1] + 1e-9


@given(
    n=st.integers(min_value=2, max_value=5),
    snr_db=st.floats(min_value=0, max_value=20),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=15, deadline=None)
def test_property_kbest1_equals_sic_natural_ordering_free(n, snr_db, seed):
    """K=1 K-best is successive interference cancellation (same ordering)."""
    system, frame = one_frame(n, "4qam", snr_db, seed)
    const = system.constellation
    kbest = KBestDecoder(const, k=1)  # uses SQRD internally
    sic = SICDetector(const, ordering="sqrd")
    kbest.prepare(frame.channel)
    sic.prepare(frame.channel)
    a = kbest.detect(frame.received)
    b = sic.detect(frame.received)
    assert np.array_equal(a.indices, b.indices)


@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=15, deadline=None)
def test_property_sphere_radius_contains_ml_iff_found(seed):
    """A finite sphere either contains the ML point (and SD finds it) or
    the decoder escalates/falls back — but it never silently returns a
    worse point while claiming the sphere was adequate."""
    system, frame = one_frame(4, "4qam", 6.0, seed)
    const = system.constellation
    ml = MLDetector(const)
    ml.prepare(frame.channel)
    ml_metric = ml.detect(frame.received).metric
    decoder = SphereDecoder(
        const, strategy="dfs", radius_policy=FixedRadius(radius_sq=1e-3)
    )
    decoder.prepare(frame.channel, noise_var=frame.noise_var)
    result = decoder.detect(frame.received)
    # Escalation guarantees the ML point is eventually inside.
    assert result.metric == pytest.approx(ml_metric, rel=1e-9, abs=1e-12)
