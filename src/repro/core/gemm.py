"""Batched (GEMM-based) partial-distance evaluation — the paper's refactor.

Classic sphere decoders evaluate one node at a time with a dot product
(BLAS-2-ish, memory-bound). Arfaoui et al. [1] — adopted by this paper —
refactor the evaluation so a *pool* of nodes at the same tree level is
evaluated with one matrix-matrix product (BLAS-3, compute-bound):

For a pool of ``B`` nodes at level ``k`` with known symbols
``s_{k+1} .. s_{M-1}`` stacked as columns of ``S`` (shape ``m x B`` with
``m = M-1-k``), the shared interference terms are one GEMM::

    b = R[k, k+1:] @ S                      # (1 x m) @ (m x B)

and the PD increment of child ``c`` (constellation point ``omega_c``) of
pool node ``n`` is a rank-1 broadcast followed by the NORM step::

    inc[n, c] = | ybar_k - b[n] - R[k, k] * omega_c |^2

On the FPGA the GEMM maps to the systolic array and the broadcast/norm to
the NORM module (Fig. 4); here both are single vectorised NumPy
expressions. The evaluator counts real FLOPs so platform cost models can
translate work into time.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

from repro.core.metric import PartialDistanceMetric, resolve_metric
from repro.mimo.constellation import Constellation
from repro.util.validation import check_matrix, check_vector

#: Real FLOPs per complex multiply-accumulate (4 mults + 4 adds).
FLOPS_PER_CMAC = 8
#: Real FLOPs per child for the ℓ₂ NORM step: complex subtract (2),
#: complex multiply by R_kk (6 for the product with a precomputed point
#: table is folded into the table), |.|^2 (3). Other metrics carry their
#: own per-child cost (``PartialDistanceMetric.flops_per_norm``).
FLOPS_PER_NORM = 8


def _check_metric_match(
    kernel: "ChannelKernel", metric
) -> PartialDistanceMetric:
    """Resolve the evaluator metric against a prebuilt kernel's.

    A kernel's per-level tables are metric-independent, but the PDs an
    evaluator produces are not — silently mixing an ℓ∞ traversal with an
    ℓ₂-precomputed kernel (or vice versa) would corrupt radius state, so
    an explicit mismatch is an error rather than a best-effort override.
    """
    if metric is None:
        return kernel.metric
    metric = resolve_metric(metric)
    if metric is not kernel.metric and metric.name != kernel.metric.name:
        raise ValueError(
            f"metric mismatch: evaluator requested {metric.name!r} but the "
            f"prebuilt ChannelKernel was prepared for {kernel.metric.name!r}"
        )
    return metric


def _stacked_gemv(matrix: np.ndarray, vector: np.ndarray) -> np.ndarray:
    """``(B, m) @ (m,)`` with a row-count-independent summation order.

    ``np.matmul`` dispatches tall and single-row operands to different
    BLAS kernels, so slicing rows out of a taller product is not
    bit-identical to evaluating them alone. Non-optimised ``einsum``
    reduces every output row in the same fixed order regardless of ``B``,
    which is what lets :class:`BatchedGemmEvaluator` (stacking pools of
    many frames) reproduce :class:`GemmEvaluator` results exactly.
    """
    return np.einsum("bm,m->b", matrix, vector)


class ChannelKernel:
    """Per-channel precompute shared by every frame of a fading block.

    Validates the triangular factor once and owns the per-level tables
    both evaluators need: ``diag_points[k] = R[k, k] * points`` (the
    "branching" enumeration as a lookup) and ``rows[k] = R[k, k+1:]``
    (the interference operand of the level-``k`` GEMM).

    R is constant across all frames of a block-fading channel, so the
    detector shell builds one kernel at ``prepare`` time and every
    subsequent ``detect`` / ``decode_batch`` call reuses it — previously
    the O(M·P) table build, the ``astype`` copies and the
    ``np.allclose(triu)`` scan ran again for every frame.

    The kernel also pins the partial-distance ``metric`` the channel was
    prepared for (default ℓ₂): evaluators built on the kernel inherit
    it, and requesting a different metric from the same kernel raises.

    :meth:`scalar_tables` hands the scalar DFS loop the same tables as
    Python lists, built on first use and kept for the block.
    """

    __slots__ = (
        "n_tx", "r", "constellation", "diag_points", "rows", "metric",
        "_scalar_tables",
    )

    def __init__(
        self,
        r: np.ndarray,
        constellation: Constellation,
        *,
        metric: PartialDistanceMetric | str | None = None,
    ) -> None:
        r = check_matrix(r, "r")
        if r.shape[0] != r.shape[1]:
            raise ValueError(f"r must be square, got {r.shape}")
        if not np.allclose(r, np.triu(r)):
            raise ValueError("r must be upper triangular")
        self.n_tx = r.shape[0]
        self.r = r.astype(np.complex128)
        self.constellation = constellation
        self.metric = resolve_metric(metric)
        points = constellation.points
        self.diag_points = np.asarray(
            [self.r[k, k] * points for k in range(self.n_tx)]
        )  # (M, P)
        self.rows = [self.r[k, k + 1 :] for k in range(self.n_tx)]
        self._scalar_tables = None

    def scalar_tables(self) -> tuple[list, list, list]:
        """``(points, rows, diag_points)`` as lists of Python complexes.

        ``.tolist()`` copies of the arrays the evaluators index, so the
        scalar DFS loop sees the same values without per-node NumPy
        dispatch. The points are cast to complex128 first, exactly as
        :func:`_stacked_gemv` casts real PAM points inside ``einsum``.
        """
        tables = self._scalar_tables
        if tables is None:
            tables = self._scalar_tables = (
                self.constellation.points.astype(np.complex128).tolist(),
                [row.tolist() for row in self.rows],
                self.diag_points.tolist(),
            )
        return tables


class GemmEvaluator:
    """Evaluates PD increments for pools of same-level nodes via GEMM.

    Parameters
    ----------
    r:
        ``(M, M)`` upper-triangular factor of the channel.
    ybar:
        ``(M,)`` rotated receive vector ``Q^H y``.
    constellation:
        The symbol alphabet (defines ``P`` children per node).
    kernel:
        Optional prebuilt :class:`ChannelKernel` for this channel; when
        given, ``r``/``constellation`` are taken from it and the
        per-frame validation and per-level precompute are skipped
        entirely (the block-fading fast path).
    metric:
        Partial-distance metric (name or instance); defaults to the
        kernel's metric (ℓ₂ for a fresh kernel). Must agree with a
        prebuilt kernel's metric.
    """

    def __init__(
        self,
        r: np.ndarray,
        ybar: np.ndarray,
        constellation: Constellation,
        *,
        kernel: ChannelKernel | None = None,
        metric: PartialDistanceMetric | str | None = None,
    ) -> None:
        if kernel is None:
            kernel = ChannelKernel(r, constellation, metric=metric)
        self.kernel = kernel
        self.metric = _check_metric_match(kernel, metric)
        self.n_tx = kernel.n_tx
        self.ybar = check_vector(ybar, "ybar", length=self.n_tx).astype(
            np.complex128
        )
        self.r = kernel.r
        self.constellation = kernel.constellation
        # Per-level precomputation: diag term times each constellation
        # point — the "branching" enumeration is a table lookup.
        self._diag_points = kernel.diag_points
        self._rows = kernel.rows
        # Bound-method-free locals for the hot path (a property lookup
        # per expansion is measurable at single-node pools).
        self._points = kernel.constellation.points
        self._order = kernel.constellation.order
        self._increments = self.metric.increments
        self._accumulate = self.metric.accumulate
        self._flops_per_norm = self.metric.flops_per_norm
        self.gemm_calls = 0
        self.gemm_flops = 0
        self.norm_flops = 0
        #: Seconds spent inside :meth:`expand_unchecked` (the GEMM +
        #: NORM arithmetic) — the denominator of the host-overhead
        #: ratio in :class:`~repro.core.stats.DecodeStats`.
        self.gemm_time_s = 0.0

    @property
    def order(self) -> int:
        """Children per expansion (the paper's modulation factor P)."""
        return self.constellation.order

    def expand(
        self,
        level: int,
        parent_indices: np.ndarray,
        parent_pds: np.ndarray,
    ) -> np.ndarray:
        """Child PDs for a pool of nodes at ``level``.

        Parameters
        ----------
        level:
            The tree level ``k`` being assigned (``M-1`` at the root's
            children, ``0`` at leaves).
        parent_indices:
            ``(B, d)`` integer array, ``d = M-1-level``; column ``i``
            holds the point index assigned at level ``M-1-i`` (i.e. the
            root-first path). ``d == 0`` expands the root.
        parent_pds:
            ``(B,)`` accumulated PDs of the pool nodes.

        Returns
        -------
        ``(B, P)`` array: total PD of every child of every pool node.
        """
        if not 0 <= level < self.n_tx:
            raise ValueError(f"level must be in [0, {self.n_tx - 1}], got {level}")
        parent_indices = np.asarray(parent_indices, dtype=np.int64)
        parent_pds = np.asarray(parent_pds, dtype=float)
        depth = self.n_tx - 1 - level
        if parent_indices.ndim != 2 or parent_indices.shape[1] != depth:
            raise ValueError(
                f"parent_indices must have shape (B, {depth}), "
                f"got {parent_indices.shape}"
            )
        pool = parent_indices.shape[0]
        if parent_pds.shape != (pool,):
            raise ValueError(
                f"parent_pds must have shape ({pool},), got {parent_pds.shape}"
            )
        return self.expand_unchecked(level, parent_indices, parent_pds)

    def expand_unchecked(
        self,
        level: int,
        parent_indices: np.ndarray,
        parent_pds: np.ndarray,
    ) -> np.ndarray:
        """:meth:`expand` without argument validation — the engine path.

        Trusts the caller completely: ``parent_indices`` must be a
        ``(B, M-1-level)`` ``int64`` array of in-range point indices and
        ``parent_pds`` a ``(B,)`` ``float64`` array. The traversal
        policies construct exactly that from their
        :class:`~repro.core.nodepool.NodePool`, so the lockstep drivers
        call this directly; external callers should stay on
        :meth:`expand` (``tests/test_gemm_evaluator.py`` proves both
        paths agree bit-for-bit on valid input).
        """
        t0 = perf_counter()
        depth = self.n_tx - 1 - level
        pool = parent_indices.shape[0]
        if depth:
            # Path position i holds level M-1-i; row index j-(k+1) needs
            # level j ascending -> reverse the path columns.
            symbols = self._points[parent_indices[:, ::-1]]  # (B, m)
            # (B, m) @ (m,) -> (B,); rows[level] holds levels k+1 .. M-1.
            shared = _stacked_gemv(symbols, self._rows[level])
            self.gemm_flops += FLOPS_PER_CMAC * pool * depth
            # NORM step: broadcast over the P children.
            error = (
                self.ybar[level]
                - shared[:, None]
                - self._diag_points[level][None, :]
            )
        else:
            # Root expansion: the shared term is exactly zero and
            # ``x - (+0.0)`` is the identity bit-for-bit, so skip the
            # zero vector and its broadcast subtraction entirely.
            error = np.broadcast_to(
                self.ybar[level] - self._diag_points[level], (pool, self._order)
            )
        self.gemm_calls += 1
        increments = self._increments(error)
        self.norm_flops += self._flops_per_norm * pool * self._order
        result = self._accumulate(parent_pds, increments)
        self.gemm_time_s += perf_counter() - t0
        return result

    def leaf_metric(self, indices_by_level: np.ndarray) -> float:
        """Full reduced-domain metric of one leaf (``||ybar - R s||²``
        under ℓ₂, the max per-dimension error under ℓ∞).

        ``indices_by_level[k]`` is the point index assigned at level ``k``
        (ascending level order).
        """
        indices_by_level = np.asarray(indices_by_level)
        if indices_by_level.shape != (self.n_tx,):
            raise ValueError(
                f"indices_by_level must have shape ({self.n_tx},), "
                f"got {indices_by_level.shape}"
            )
        s = self.constellation.points[indices_by_level]
        residual = self.ybar - self.r @ s
        return self.metric.residual_metric(residual)


class BatchedGemmEvaluator:
    """PD evaluation for node pools drawn from ``F`` concurrent frames.

    The paper's BLAS-2 -> BLAS-3 refactor applied *across frames*, not
    just within one tree level: all frames of a block-fading channel
    share the triangular factor ``R``, so same-level pools from several
    concurrent decodes stack into one taller GEMM operand. Only the
    rotated receive vector differs per frame, and it enters in the
    element-wise NORM step — so each output row of the fused product is
    the same independent dot product :class:`GemmEvaluator` would have
    computed for that row alone, and batched decoding is bit-identical
    to per-frame decoding (``tests/test_parallel_mc.py`` enforces this).

    Parameters
    ----------
    r:
        ``(M, M)`` upper-triangular factor shared by every frame.
    ybars:
        ``(F, M)`` rotated receive vectors, one row per frame.
    constellation:
        The symbol alphabet.
    kernel:
        Optional prebuilt :class:`ChannelKernel`, as in
        :class:`GemmEvaluator`.
    metric:
        Partial-distance metric, as in :class:`GemmEvaluator`.
    """

    def __init__(
        self,
        r: np.ndarray,
        ybars: np.ndarray,
        constellation: Constellation,
        *,
        kernel: ChannelKernel | None = None,
        metric: PartialDistanceMetric | str | None = None,
    ) -> None:
        if kernel is None:
            kernel = ChannelKernel(r, constellation, metric=metric)
        self.kernel = kernel
        self.metric = _check_metric_match(kernel, metric)
        self.n_tx = kernel.n_tx
        ybars = np.asarray(ybars)
        if ybars.ndim != 2 or ybars.shape[1] != self.n_tx:
            raise ValueError(
                f"ybars must have shape (F, {self.n_tx}), got {ybars.shape}"
            )
        self.n_frames = ybars.shape[0]
        self.ybars = ybars.astype(np.complex128)
        self.r = kernel.r
        self.constellation = kernel.constellation
        self._diag_points = kernel.diag_points
        self._rows = kernel.rows
        self._points = kernel.constellation.points
        self._order = kernel.constellation.order
        self._increments = self.metric.increments
        self._accumulate = self.metric.accumulate
        self._flops_per_norm = self.metric.flops_per_norm
        #: Fused cross-frame GEMM calls actually issued (the batching
        #: win: compare against the sum of per-frame ``gemm_calls``).
        self.fused_gemm_calls = 0
        #: Pool rows evaluated across all fused calls.
        self.rows_evaluated = 0
        self.gemm_flops = 0
        self.norm_flops = 0
        #: Seconds spent inside :meth:`expand_unchecked` (fused GEMM +
        #: NORM arithmetic across all frames).
        self.gemm_time_s = 0.0

    @property
    def order(self) -> int:
        """Children per expansion (the paper's modulation factor P)."""
        return self.constellation.order

    def expand(
        self,
        level: int,
        parent_indices: np.ndarray,
        parent_pds: np.ndarray,
        frame_rows: np.ndarray,
    ) -> np.ndarray:
        """Child PDs for a cross-frame pool of same-level nodes.

        ``parent_indices``/``parent_pds`` are laid out exactly as in
        :meth:`GemmEvaluator.expand`; ``frame_rows`` is the ``(B,)``
        integer map from pool row to frame (row of ``ybars``).
        """
        if not 0 <= level < self.n_tx:
            raise ValueError(f"level must be in [0, {self.n_tx - 1}], got {level}")
        parent_indices = np.asarray(parent_indices, dtype=np.int64)
        parent_pds = np.asarray(parent_pds, dtype=float)
        frame_rows = np.asarray(frame_rows, dtype=np.int64)
        depth = self.n_tx - 1 - level
        if parent_indices.ndim != 2 or parent_indices.shape[1] != depth:
            raise ValueError(
                f"parent_indices must have shape (B, {depth}), "
                f"got {parent_indices.shape}"
            )
        pool = parent_indices.shape[0]
        if parent_pds.shape != (pool,) or frame_rows.shape != (pool,):
            raise ValueError(
                f"parent_pds and frame_rows must have shape ({pool},), "
                f"got {parent_pds.shape} and {frame_rows.shape}"
            )
        if frame_rows.size and not (
            0 <= frame_rows.min() and frame_rows.max() < self.n_frames
        ):
            raise ValueError(
                f"frame_rows must index into {self.n_frames} frames"
            )
        return self.expand_unchecked(level, parent_indices, parent_pds, frame_rows)

    def expand_unchecked(
        self,
        level: int,
        parent_indices: np.ndarray,
        parent_pds: np.ndarray,
        frame_rows: np.ndarray,
    ) -> np.ndarray:
        """:meth:`expand` without argument validation — the engine path.

        Same contract as :meth:`GemmEvaluator.expand_unchecked`, plus
        ``frame_rows`` must be a ``(B,)`` ``int64`` array of valid frame
        indices (the lockstep driver constructs it).
        """
        t0 = perf_counter()
        depth = self.n_tx - 1 - level
        pool = parent_indices.shape[0]
        ybar_rows = self.ybars[frame_rows, level]  # (B,)
        if depth:
            symbols = self._points[parent_indices[:, ::-1]]
            # One fused (B_total, m) @ (m,) product over all frames.
            shared = _stacked_gemv(symbols, self._rows[level])
            self.gemm_flops += FLOPS_PER_CMAC * pool * depth
            error = (
                ybar_rows[:, None]
                - shared[:, None]
                - self._diag_points[level][None, :]
            )
        else:
            # Root expansion: subtracting the exactly-zero shared term
            # is a bit-for-bit identity, so skip it.
            error = ybar_rows[:, None] - self._diag_points[level][None, :]
        self.fused_gemm_calls += 1
        self.rows_evaluated += pool
        increments = self._increments(error)
        self.norm_flops += self._flops_per_norm * pool * self._order
        result = self._accumulate(parent_pds, increments)
        self.gemm_time_s += perf_counter() - t0
        return result
