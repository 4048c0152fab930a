"""ML-oracle conformance: every exact detector matches brute force.

The :class:`~repro.detectors.ml.MLDetector` enumerates the entire
lattice, so on systems small enough to enumerate it is ground truth for
the maximum-likelihood point. The candidate set is drawn from the
detector registry — every entry flagged ``exact`` and
``fpga_replayable`` (the tree-search detectors; the linear baselines are
exact only in a trivial sense and have no decode trace) must return
exactly the same decision (indices) and the same ML metric on every one
of these random instances. Registering a new exact tree-search kind
automatically enrols it here; flagging an approximate kind ``exact``
makes this suite fail loudly. This is the conformance suite guarding the
batched/lockstep decode refactor and the metric/lattice axes: any
scheduling or representation change that alters a decision surfaces
here as a hard mismatch, not a statistical drift.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.detectors.ml import MLDetector
from repro.detectors.registry import detector_entries, spec
from repro.mimo.constellation import Constellation

#: (n_antennas, modulation order) — small enough for exhaustive ML.
SYSTEMS = [(2, 4), (3, 4), (4, 4), (2, 16), (3, 16)]

N_SEEDS = 60

#: Registry kinds that claim exact ML and carry a replayable decode
#: trace — i.e. the tree-search detectors the paper benchmarks.
EXACT_KINDS = [
    e.kind for e in detector_entries() if e.exact and e.fpga_replayable
]

def _instance(n: int, order: int, seed: int):
    """One random channel / transmit / receive triple."""
    rng = np.random.default_rng(seed)
    const = Constellation.qam(order)
    channel = (
        rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    ) / np.sqrt(2)
    indices = rng.integers(0, order, size=n)
    sent = const.points[indices]
    noise_var = 0.05
    noise = np.sqrt(noise_var / 2) * (
        rng.standard_normal(n) + 1j * rng.standard_normal(n)
    )
    received = channel @ sent + noise
    return const, channel, received, noise_var


def test_registry_enrols_expected_kinds():
    # Guard against the selection predicate silently going empty (which
    # would vacuously pass everything below).
    assert "sd" in EXACT_KINDS
    assert "sd-real-reordered" in EXACT_KINDS
    assert "sd-linf" not in EXACT_KINDS  # approximate w.r.t. ML
    assert "ml" not in EXACT_KINDS  # the oracle itself, no trace


@pytest.mark.parametrize("n,order", SYSTEMS, ids=lambda v: str(v))
def test_every_exact_detector_matches_brute_force(n, order):
    oracle_mismatches = []
    for seed in range(N_SEEDS):
        const, channel, received, noise_var = _instance(n, order, seed)
        oracle = MLDetector(const)
        oracle.prepare(channel, noise_var=noise_var)
        truth = oracle.detect(received)
        for kind in EXACT_KINDS:
            detector = spec(kind, const)()
            detector.prepare(channel, noise_var=noise_var)
            result = detector.detect(received)
            if not np.array_equal(result.indices, truth.indices):
                # Distinct decisions are still ML if the metrics tie
                # exactly (degenerate instances); anything else is a bug.
                if not np.isclose(
                    result.metric, truth.metric, rtol=1e-10, atol=1e-12
                ):
                    oracle_mismatches.append(
                        (seed, kind, result.metric, truth.metric)
                    )
                continue
            assert np.isclose(
                result.metric, truth.metric, rtol=1e-10, atol=1e-12
            ), f"seed {seed}, {kind}: metric {result.metric} != {truth.metric}"
    assert not oracle_mismatches, oracle_mismatches


@pytest.mark.parametrize("n,order", [(3, 4), (4, 4), (2, 16)])
def test_decode_batch_matches_brute_force(n, order):
    """The batch path (fused lockstep for the sweeps, frame by frame
    for the leaf-first searches) is also exactly ML on every frame."""
    rng = np.random.default_rng(99)
    const = Constellation.qam(order)
    channel = (
        rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    ) / np.sqrt(2)
    noise_var = 0.05
    frames = 8
    indices = rng.integers(0, order, size=(frames, n))
    sent = const.points[indices]
    noise = np.sqrt(noise_var / 2) * (
        rng.standard_normal((frames, n)) + 1j * rng.standard_normal((frames, n))
    )
    received = sent @ channel.T + noise

    oracle = MLDetector(const)
    oracle.prepare(channel, noise_var=noise_var)
    truths = [oracle.detect(row) for row in received]

    for kind in EXACT_KINDS:
        detector = spec(kind, const)()
        detector.prepare(channel, noise_var=noise_var)
        results = detector.decode_batch(received)
        assert len(results) == frames
        for truth, result in zip(truths, results):
            assert np.isclose(
                result.metric, truth.metric, rtol=1e-10, atol=1e-12
            ), detector.name
