"""Tests for the GEMM partial-distance kernel — the paper's central refactor.

:meth:`ChannelKernel.expand` against a naive textbook PD, its scalar and
column ``ybar_k`` forms, the leaf-first loops' lookup tables
(:meth:`ChannelKernel.scalar_tables`) against the kernel's own
arithmetic bit for bit, the lockstep driver's call count and GEMM time,
and the GEMM calls and FLOPs the sweeps book.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.gemm import FLOPS_PER_CMAC, ChannelKernel, _stacked_gemv
from repro.core.lattice import REAL_LATTICE
from repro.core.lockstep import ExpandRequest, drive_lockstep
from repro.core.metric import L2
from repro.core.traversal import _append_child_pds
from repro.detectors.kbest import KBestDecoder
from repro.mimo.channel import ChannelModel
from repro.mimo.constellation import Constellation, pam_component
from repro.mimo.preprocessing import effective_receive, qr_decompose, sorted_qr
from repro.mimo.system import MIMOSystem


def make_kernel(n=4, order=4, seed=0):
    const = Constellation.qam(order)
    model = ChannelModel(n_tx=n, n_rx=n)
    rng = np.random.default_rng(seed)
    h = model.draw_channel(rng)
    y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    qr = qr_decompose(h)
    ybar = effective_receive(qr, y)
    return ChannelKernel(qr.r, const), qr.r, ybar, const


def expand(kernel, ybar, level, parents, pds):
    """One frame's expansion: the scalar ``ybar[level]`` form."""
    return kernel.expand(
        level,
        np.asarray(parents, dtype=np.int64),
        np.asarray(pds, dtype=float),
        ybar[level],
    )


ROOT = np.empty((1, 0), dtype=np.int64)


def naive_pd(r, ybar, const, path, level):
    """Scalar reference: PD of assigning each omega at `level` given path.

    ``path[i]`` is the index chosen at level ``M-1-i``.
    """
    n = r.shape[0]
    out = np.empty(const.order)
    for c in range(const.order):
        total = 0.0
        assigned = {n - 1 - i: const.points[p] for i, p in enumerate(path)}
        assigned[level] = const.points[c]
        for k in range(level, n):
            acc = ybar[k]
            for j in range(k, n):
                if j in assigned:
                    acc -= r[k, j] * assigned[j]
            total += abs(acc) ** 2
        out[c] = total
    return out


class TestExpandCorrectness:
    def test_root_expansion_matches_naive(self):
        kernel, r, ybar, const = make_kernel()
        pds = expand(kernel, ybar, 3, ROOT, np.zeros(1))
        ref = naive_pd(r, ybar, const, (), 3)
        assert np.allclose(pds[0], ref)

    def test_deep_expansion_matches_naive(self):
        kernel, r, ybar, const = make_kernel()
        path = (2, 1)  # levels 3, 2 assigned
        parent_pd = naive_pd(r, ybar, const, (2,), 2)[1]
        pds = expand(kernel, ybar, 1, [[2, 1]], [parent_pd])
        ref = naive_pd(r, ybar, const, path, 1)
        assert np.allclose(pds[0], ref)

    def test_leaf_expansion_matches_leaf_metric(self):
        kernel, r, ybar, const = make_kernel()
        # Walk a full path accumulating PDs through expand().
        path = []
        pd = 0.0
        for level in range(3, -1, -1):
            arr = np.array([path], dtype=np.int64).reshape(1, len(path))
            pds = expand(kernel, ybar, level, arr, [pd])
            c = int(np.argmin(pds[0]))
            path.append(c)
            pd = float(pds[0, c])
        s = const.points[np.array(path[::-1])]
        leaf_metric = kernel.metric.residual_metric(ybar - r @ s)
        assert pd == pytest.approx(leaf_metric, rel=1e-9)

    def test_pool_matches_individual(self):
        """Batch expansion of B nodes == B separate expansions."""
        kernel, r, ybar, const = make_kernel()
        pool = np.array([[0, 1], [3, 2], [1, 1]], dtype=np.int64)
        pds_parent = np.array([0.5, 1.0, 2.0])
        batched = expand(kernel, ybar, 1, pool, pds_parent)
        for i in range(3):
            single = expand(kernel, ybar, 1, pool[i : i + 1], pds_parent[i : i + 1])
            assert np.allclose(batched[i], single[0])

    def test_increments_nonnegative(self):
        kernel, _, ybar, _ = make_kernel(seed=5)
        pds = expand(kernel, ybar, 3, ROOT, np.zeros(1))
        assert np.all(pds >= 0)

    def test_parent_pd_added(self):
        kernel, _, ybar, _ = make_kernel()
        base = expand(kernel, ybar, 3, ROOT, np.zeros(1))
        shifted = expand(kernel, ybar, 3, ROOT, np.array([10.0]))
        assert np.allclose(shifted, base + 10.0)

    def test_scalar_and_column_ybar_bit_identical(self):
        """A pool fused across frames (a ``(B, 1)`` column of each row's
        ``ybar[level]``) gives every row the bits its own frame's scalar
        gives it, at the root and below."""
        kernel, r, ybar, const = make_kernel(n=5)
        rng = np.random.default_rng(3)
        other = ybar[::-1].copy()
        for depth in range(5):
            level = 5 - 1 - depth
            b = int(rng.integers(1, 6))
            parents = rng.integers(0, const.order, size=(b, depth)).astype(
                np.int64
            )
            pds = rng.uniform(0, 4, size=b)
            column = np.where(np.arange(b) % 2, other[level], ybar[level])
            fused = kernel.expand(level, parents, pds, column[:, None])
            for i in range(b):
                own = other if i % 2 else ybar
                alone = kernel.expand(
                    level, parents[i : i + 1], pds[i : i + 1], own[level]
                )
                np.testing.assert_array_equal(fused[i], alone[0])


class TestAccounting:
    """The sweeps book one GEMM call per level and its FLOPs."""

    def _kbest_stats(self, n, k):
        system = MIMOSystem(n, n, "4qam")
        frame = system.random_frame(10.0, np.random.default_rng(1))
        decoder = KBestDecoder(system.constellation, k=k)
        decoder.prepare(frame.channel, noise_var=frame.noise_var)
        return decoder.detect(frame.received).stats

    def test_gemm_calls_counted(self):
        assert self._kbest_stats(5, 4).gemm_calls == 5  # one per level

    def test_flops_scale_with_pool_and_depth(self):
        # K-best with K=1 keeps one node per level: depth d costs d CMACs.
        n, p = 6, 4
        stats = self._kbest_stats(n, 1)
        cmacs = sum(range(n))  # depths 0 .. n-1, one node each
        assert stats.gemm_flops == FLOPS_PER_CMAC * cmacs + L2.flops_per_norm * n * p
        # K=2 keeps two nodes below the root: twice the CMACs, n - 1
        # more NORMed nodes.
        wide = self._kbest_stats(n, 2)
        assert wide.gemm_flops - stats.gemm_flops == (
            FLOPS_PER_CMAC * cmacs + L2.flops_per_norm * (n - 1) * p
        )

    def test_root_expansion_no_gemm_flops(self):
        # One antenna: only the root is expanded, so no interference term.
        stats = self._kbest_stats(1, 4)
        assert stats.gemm_flops == L2.flops_per_norm * 4


class TestValidation:
    def test_requires_upper_triangular(self):
        const = Constellation.qam(4)
        r = np.ones((3, 3), dtype=complex)
        with pytest.raises(ValueError, match="triangular"):
            ChannelKernel(r, const)

    def test_requires_square(self):
        const = Constellation.qam(4)
        with pytest.raises(ValueError):
            ChannelKernel(np.triu(np.ones((3, 4))), const)


@given(
    n=st.integers(min_value=1, max_value=6),
    order=st.sampled_from([4, 16]),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=25, deadline=None)
def test_property_expand_matches_naive(n, order, seed):
    """Batched expansion equals the scalar textbook PD at a random node."""
    kernel, r, ybar, const = make_kernel(n=n, order=order, seed=seed)
    rng = np.random.default_rng(seed)
    depth = int(rng.integers(0, n))
    level = n - 1 - depth
    path = tuple(int(x) for x in rng.integers(0, order, depth))
    parent_pd = float(rng.uniform(0, 5))
    got = expand(
        kernel,
        ybar,
        level,
        np.array([path], dtype=np.int64).reshape(1, depth),
        [parent_pd],
    )[0]
    # naive_pd computes the *full* PD from scratch for a zero parent; the
    # increment is its value minus the parent's own naive PD.
    full = naive_pd(r, ybar, const, path, level)
    if depth:
        parent_full = naive_pd(r, ybar, const, path[:-1], level + 1)[path[-1]]
    else:
        parent_full = 0.0
    expected = parent_pd + (full - parent_full)
    assert np.allclose(got, expected, rtol=1e-8, atol=1e-9)


def _hex(z: complex) -> tuple[str, str]:
    return z.real.hex(), z.imag.hex()


def _table_case(n_tx, alphabet, factor, seed):
    """An R factor of ``n_tx`` search levels and the search alphabet.

    ``"pam"`` searches the real lattice of a 16-QAM link (``n_tx`` is
    rounded up to even); ``"near-singular"`` is plain QR of a channel
    whose first two columns differ by ~1e-9.
    """
    rng = np.random.default_rng(seed)
    if alphabet == "pam":
        const = pam_component(Constellation.qam(16))
        n_ant = (n_tx + 1) // 2
    else:
        const = (
            Constellation.bpsk() if alphabet == "bpsk"
            else Constellation.qam(int(alphabet.removesuffix("qam")))
        )
        n_ant = n_tx
    h = ChannelModel(n_tx=n_ant, n_rx=n_ant).draw_channel(rng)
    if factor == "near-singular" and n_ant > 1:
        h[:, 1] = h[:, 0] + 1e-9 * (
            rng.standard_normal(n_ant) + 1j * rng.standard_normal(n_ant)
        )
    if alphabet == "pam":
        h = REAL_LATTICE.map_channel(h)
    r = (sorted_qr(h) if factor == "sqrd" else qr_decompose(h)).r
    return r, const, rng


@given(
    n_tx=st.integers(min_value=1, max_value=8),
    alphabet=st.sampled_from(["bpsk", "4qam", "16qam", "64qam", "pam"]),
    factor=st.sampled_from(["natural", "sqrd", "near-singular"]),
    metric=st.sampled_from(["l2", "linf"]),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=60, deadline=None)
def test_property_scalar_tables_match_kernel(n_tx, alphabet, factor, metric, seed):
    """The lookup tables reproduce the kernel's arithmetic bit for bit.

    Every ``cross`` entry is the Python product ``pts[s] * R[k, j]``;
    at every level, a random node's leaf-first offset fold equals
    :func:`_stacked_gemv`'s row and its float-pair child PDs equal
    :meth:`ChannelKernel.expand`'s row.
    """
    r, const, rng = _table_case(n_tx, alphabet, factor, seed)
    kernel = ChannelKernel(r, const, metric=metric)
    cross, diag, heads = kernel.scalar_tables()
    m, p = kernel.n_tx, const.order
    pts = const.points.astype(np.complex128).tolist()
    rr = np.asarray(r, dtype=np.complex128).tolist()
    for k in range(m):
        assert len(cross[k]) == (m - 1 - k) * p
        for j in range(k + 1, m):
            for s in range(p):
                assert _hex(cross[k][(m - 1 - j) * p + s]) == _hex(pts[s] * rr[k][j])
    for k in range(m):
        # Root-first symbols (column i assigns level m-1-i), as expand
        # takes them, and the same path as the loops build it.
        symbols = [int(x) for x in rng.integers(0, p, m - 1 - k)]
        path = ()
        for i, s in enumerate(symbols):
            path = heads[m - 1 - i][s] + path
        assert [o % p for o in path] == symbols[::-1]
        parent = np.asarray([symbols], dtype=np.int64).reshape(1, len(symbols))
        if symbols:
            acc = 0j
            for o in path:
                acc = acc + cross[k][o]
            gemv = _stacked_gemv(
                const.points[parent[:, ::-1]], kernel.rows[k]
            )[0]
            assert _hex(acc) == _hex(complex(gemv))
        pd = float(rng.uniform(0.0, 5.0))
        yk = complex(rng.standard_normal(), rng.standard_normal())
        child = []
        _append_child_pds(
            child, cross[k], diag[k], yk, path, pd, metric == "linf"
        )
        row = kernel.expand(k, parent, np.asarray([pd]), yk)[0]
        assert [v.hex() for v in child] == [float(v).hex() for v in row]


class TestKernelReuse:
    """A prepare-time kernel serves every frame of a block."""

    def test_shared_kernel_reuse_is_bit_identical(self):
        """A kernel reused across frames gives the same results as one
        built for the frame."""
        kernel, r, ybar, const = make_kernel(n=4)
        fresh = ChannelKernel(r, const)
        parents = np.array([[1, 3]], dtype=np.int64)
        pds = np.array([0.25])
        np.testing.assert_array_equal(
            expand(fresh, ybar, 1, parents, pds),
            expand(kernel, ybar, 1, parents, pds),
        )

    def test_kernel_validates_triangularity(self):
        const = Constellation.qam(4)
        with pytest.raises(ValueError):
            ChannelKernel(np.ones((3, 3)), const)


class TestLockstepDriver:
    def test_times_and_counts_expansions(self):
        """Same-level requests of two searches share one ``expand``; the
        driver returns each search's result, the calls and their time."""
        kernel, r, ybar, const = make_kernel(n=4)
        ybars = np.stack([ybar, ybar[::-1]]).astype(np.complex128)

        def search():
            pds = yield ExpandRequest(3, ROOT, np.zeros(1))
            return pds

        results, calls, seconds = drive_lockstep(
            [search(), search()], kernel, ybars
        )
        assert calls == 1
        assert seconds > 0.0
        for f in range(2):
            np.testing.assert_array_equal(
                results[f], expand(kernel, ybars[f], 3, ROOT, np.zeros(1))
            )
