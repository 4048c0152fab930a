"""Edge cases of the metric / lattice evaluation-layer axes.

The partial-distance metric (:mod:`repro.core.metric`) and the lattice
representation (:mod:`repro.core.lattice`) are first-class axes of the
evaluation layer. This suite covers their contracts at the seams:
kernel validation, kernel/search metric agreement, ℓ∞ semantics
(monotone accumulation, exactness *in the ℓ∞ sense*, node-count
reduction), and the interleaved (reordered) real lattice's table
geometry and index fold.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.gemm import ChannelKernel
from repro.core.lattice import (
    COMPLEX_LATTICE,
    REAL_LATTICE,
    REORDERED_REAL_LATTICE,
    resolve_lattice,
)
from repro.core.metric import L2, LINF, resolve_metric
from repro.core.radius import NoiseScaledRadius
from repro.detectors.sphere import SphereDecoder
from repro.mimo.constellation import Constellation
from repro.mimo.preprocessing import real_layout_permutation
from repro.mimo.system import MIMOSystem


def _frame(n=4, modulation="16qam", snr_db=14.0, seed=5):
    system = MIMOSystem(n, n, modulation)
    return system, system.random_frame(snr_db, np.random.default_rng(seed))


class TestChannelKernelValidation:
    def test_rejects_non_square(self):
        const = Constellation.qam(4)
        with pytest.raises(ValueError, match="square"):
            ChannelKernel(np.ones((3, 4), dtype=complex), const)

    def test_rejects_non_triangular(self):
        const = Constellation.qam(4)
        rng = np.random.default_rng(0)
        full = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        with pytest.raises(ValueError, match="upper triangular"):
            ChannelKernel(full, const)

    def test_pins_resolved_metric(self):
        const = Constellation.qam(4)
        r = np.triu(np.ones((3, 3), dtype=complex))
        assert ChannelKernel(r, const).metric is L2
        assert ChannelKernel(r, const, metric="linf").metric is LINF

    @pytest.mark.parametrize("entry", ["solve", "batch"])
    def test_search_metric_mismatch_raises(self, entry):
        """An engine asking an l2 kernel for linf PDs raises, through
        either entry point."""
        from repro.core.stats import DecodeStats
        from repro.core.traversal import KBestPolicy, TraversalEngine
        from repro.obs.tracer import NULL_TRACER

        const = Constellation.qam(4)
        r = np.triu(np.ones((3, 3), dtype=complex))
        kernel = ChannelKernel(r, const, metric="l2")
        engine = TraversalEngine(const, KBestPolicy(k=2), metric="linf")
        ybars = np.zeros((2, 3), dtype=complex)
        with pytest.raises(ValueError, match="metric mismatch"):
            if entry == "solve":
                engine.solve(
                    r, ybars[0], 0.0, DecodeStats(), NULL_TRACER, kernel=kernel
                )
            else:
                engine.solve_batch(
                    r, ybars, 0.0, [DecodeStats(), DecodeStats()], kernel=kernel
                )

    @pytest.mark.parametrize("ybar_form", ["scalar", "column"])
    def test_expand_uses_kernel_metric(self, ybar_form):
        """A linf kernel accumulates PDs with ``max``, whether the pool
        belongs to one frame (scalar ``ybar_k``) or is fused across
        frames (a ``(B, 1)`` column)."""
        const = Constellation.qam(4)
        r = np.triu(np.ones((3, 3), dtype=complex))
        kernel = ChannelKernel(r, const, metric="linf")
        assert kernel.metric is LINF
        ybar_k = 0j if ybar_form == "scalar" else np.zeros((2, 1), dtype=complex)
        root = np.empty((2, 0), dtype=np.int64)
        pds = kernel.expand(2, root, np.full(2, 1e9), ybar_k)
        np.testing.assert_array_equal(pds, np.full((2, 4), 1e9))
        # Below the root the shared GEMM term joins the error; an l2
        # kernel adds every nonzero error to the parent PD instead.
        parents = np.array([[0], [3]], dtype=np.int64)
        pds = kernel.expand(1, parents, np.full(2, 1e9), ybar_k)
        np.testing.assert_array_equal(pds, np.full((2, 4), 1e9))
        l2_pds = ChannelKernel(r, const).expand(1, parents, np.full(2, 1e9), ybar_k)
        assert np.all(l2_pds >= 1e9) and np.any(l2_pds > 1e9)


class TestResolvers:
    def test_unknown_metric_rejected(self):
        with pytest.raises(ValueError, match="unknown partial-distance metric"):
            resolve_metric("l7")

    def test_unknown_lattice_rejected(self):
        with pytest.raises(ValueError, match="unknown lattice"):
            resolve_lattice("hexagonal")

    def test_none_defaults(self):
        assert resolve_metric(None) is L2
        assert resolve_lattice(None) is COMPLEX_LATTICE

    def test_instances_pass_through(self):
        assert resolve_metric(LINF) is LINF
        assert resolve_lattice(REAL_LATTICE) is REAL_LATTICE

    def test_real_lattice_needs_square_qam(self):
        bpsk = Constellation.bpsk()
        with pytest.raises(ValueError):
            SphereDecoder(bpsk, lattice="real-reordered")

    def test_leaf_first_loops_reject_other_metrics(self):
        """Both leaf-first loops implement the l2 and linf metrics only."""
        from repro.core.metric import PartialDistanceMetric
        from repro.core.traversal import (
            BestFirstPolicy,
            DfsPolicy,
            TraversalEngine,
        )

        class L1(PartialDistanceMetric):
            name = "l1"

        for policy in (DfsPolicy(), BestFirstPolicy()):
            with pytest.raises(ValueError, match="'l2' and 'linf'"):
                TraversalEngine(Constellation.qam(4), policy, metric=L1())


class TestLinfMetric:
    def test_increment_and_accumulate_semantics(self):
        error = np.array([[0.3 + 0.4j, -1.0 + 0.25j]])
        inc = LINF.increments(error)
        assert np.allclose(inc, [[0.4, 1.0]])
        acc = LINF.accumulate(np.array([0.7]), inc)
        # max-accumulation: keeps the running max, never a sum.
        assert np.allclose(acc, [[0.7, 1.0]])

    def test_accumulate_is_monotone(self):
        # PDs must never decrease along a path or pruning is unsound.
        rng = np.random.default_rng(3)
        parents = rng.uniform(0, 2, 16)
        errors = rng.standard_normal((16, 4)) + 1j * rng.standard_normal((16, 4))
        child = LINF.accumulate(parents, LINF.increments(errors))
        assert np.all(child >= parents[:, None])

    @pytest.mark.parametrize("seed", [9, 21, 33])
    def test_sd_linf_is_exact_in_linf(self, seed):
        """The ℓ∞ search decision achieves the true ℓ∞ minimum.

        (``result.metric`` itself stays the uniform ℓ₂-squared
        antenna-domain residual every detector reports — the search
        objective lives in the QR-rotated domain, where ℓ∞ is *not*
        unitarily invariant.)
        """
        from repro.mimo.preprocessing import effective_receive

        system, frame = _frame(n=3, modulation="4qam", seed=seed)
        const = system.constellation
        decoder = SphereDecoder(
            const,
            strategy="dfs",
            radius_policy=NoiseScaledRadius(alpha=2.0),
            metric="linf",
        )
        decoder.prepare(frame.channel, noise_var=frame.noise_var)
        result = decoder.detect(frame.received)
        # Brute-force the same triangular system the decoder searched
        # (natural ordering: no column permutation).
        r = decoder._qr.r
        ybar = effective_receive(decoder._qr, frame.received)

        def linf(idx):
            e = ybar - r @ const.points[np.asarray(idx)]
            return float(np.max(np.maximum(abs(e.real), abs(e.imag))))

        best = min(
            linf([(flat // const.order**k) % const.order for k in range(3)])
            for flat in range(const.order**3)
        )
        assert linf(result.indices) == pytest.approx(best, rel=1e-12)
        # The reported metric is the decision's l2-squared residual.
        res = frame.received - frame.channel @ const.points[result.indices]
        assert result.metric == pytest.approx(
            float(np.real(np.vdot(res, res))), rel=1e-12
        )

    def test_linf_prunes_no_worse_than_l2(self):
        """|e|_inf <= |e|_2 tightens every bound: fewer (or equal) nodes."""
        totals = {"l2": 0, "linf": 0}
        for seed in range(8):
            system, frame = _frame(n=4, modulation="16qam", seed=seed)
            for name in totals:
                decoder = SphereDecoder(
                    system.constellation,
                    strategy="dfs",
                    radius_policy=NoiseScaledRadius(alpha=2.0),
                    metric=name,
                )
                decoder.prepare(frame.channel, noise_var=frame.noise_var)
                totals[name] += decoder.detect(frame.received).stats.nodes_expanded
        assert totals["linf"] < totals["l2"]


class TestReorderedRealLattice:
    def test_permutation_interleaves(self):
        perm = real_layout_permutation(3, "interleaved")
        assert perm.tolist() == [0, 3, 1, 4, 2, 5]
        assert real_layout_permutation(3, "stacked").tolist() == list(range(6))

    def test_kernel_tables_have_real_tree_geometry(self):
        system, frame = _frame(n=4, modulation="16qam")
        decoder = SphereDecoder(system.constellation, lattice="real-reordered")
        decoder.prepare(frame.channel, noise_var=frame.noise_var)
        kernel = decoder._kernel
        side = 4  # sqrt(16): the per-dimension PAM alphabet
        n_levels = 2 * 4
        assert kernel.n_tx == n_levels
        assert kernel.diag_points.shape == (n_levels, side)
        for k in range(n_levels):
            assert kernel.rows[k].shape == (n_levels - 1 - k,)

    def test_fold_indices_round_trip(self):
        const = Constellation.qam(16)
        side = 4
        rng = np.random.default_rng(11)
        indices = rng.integers(0, const.order, size=6)
        i_part, q_part = indices // side, indices % side
        for rep in (REAL_LATTICE, REORDERED_REAL_LATTICE):
            perm = real_layout_permutation(
                6, "interleaved" if rep is REORDERED_REAL_LATTICE else "stacked"
            )
            stacked = np.concatenate([i_part, q_part])
            level_indices = stacked[perm]
            folded = rep.fold_indices(level_indices, 6, const)
            assert folded.tolist() == indices.tolist()

    def test_reordered_matches_stacked_decisions(self):
        """Both real layouts are exact ML — identical metrics everywhere."""
        system, frame = _frame(n=4, modulation="16qam", seed=2)
        results = {}
        for lattice in ("real", "real-reordered"):
            decoder = SphereDecoder(system.constellation, lattice=lattice)
            decoder.prepare(frame.channel, noise_var=frame.noise_var)
            results[lattice] = decoder.detect(frame.received)
        assert results["real"].metric == pytest.approx(
            results["real-reordered"].metric, rel=1e-12
        )
        assert np.array_equal(
            results["real"].indices, results["real-reordered"].indices
        )

    def test_depth_doubles_branching_narrows(self):
        system, frame = _frame(n=4, modulation="16qam")
        decoder = SphereDecoder(system.constellation, lattice="real-reordered")
        decoder.prepare(frame.channel, noise_var=frame.noise_var)
        stats = decoder.detect(frame.received).stats
        assert max(ev.level for ev in stats.batches) == 2 * 4 - 1
        # sqrt(P) children per expansion.
        assert stats.nodes_generated == 4 * stats.nodes_expanded
