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
expressions in :meth:`ChannelKernel.expand`. The searches count real
FLOPs with :data:`FLOPS_PER_CMAC` and the metric's ``flops_per_norm``
so platform cost models can translate work into time.
"""

from __future__ import annotations

import functools

import numpy as np

from repro.core.metric import PartialDistanceMetric, resolve_metric
from repro.mimo.constellation import Constellation
from repro.util.validation import check_matrix

#: Real FLOPs per complex multiply-accumulate (4 mults + 4 adds).
FLOPS_PER_CMAC = 8


def _stacked_gemv(matrix: np.ndarray, vector: np.ndarray) -> np.ndarray:
    """``(B, m) @ (m,)`` with a row-count-independent summation order.

    ``np.matmul`` dispatches tall and single-row operands to different
    BLAS kernels, so slicing rows out of a taller product is not
    bit-identical to evaluating them alone. Non-optimised ``einsum``
    reduces every output row in the same fixed order regardless of ``B``,
    which is what lets a pool fused across frames reproduce each frame's
    own rows exactly.
    """
    return np.einsum("bm,m->b", matrix, vector)


@functools.lru_cache(maxsize=None)
def _path_heads(n_tx: int, order: int) -> tuple:
    """``heads[k][c] = ((n_tx-1-k)*order + c,)`` (see
    :meth:`ChannelKernel.scalar_tables`), one table per shape."""
    return tuple(
        tuple(((n_tx - 1 - k) * order + c,) for c in range(order))
        for k in range(n_tx)
    )


class ChannelKernel:
    """Per-channel partial-distance kernel shared by every frame of a
    fading block.

    Validates the triangular factor once and owns the per-level tables
    :meth:`expand` reads: ``diag_points[k] = R[k, k] * points`` (the
    "branching" enumeration as a lookup) and ``rows[k] = R[k, k+1:]``
    (the interference operand of the level-``k`` GEMM).

    R is constant across all frames of a block-fading channel, so a
    detector builds one kernel at ``prepare`` time and every subsequent
    ``detect`` / ``decode_batch`` call reuses it.

    The kernel also pins the partial-distance ``metric`` the channel was
    prepared for (default ℓ₂); a search asking a prebuilt kernel for a
    different metric raises.

    :meth:`scalar_tables` hands the leaf-first scalar loops per-channel
    lookup tables built from the same values: the ``R[k, j] * omega``
    products, the diagonal points as float pairs and the path offsets.
    """

    __slots__ = ("n_tx", "points", "diag_points", "rows", "metric", "_scalar_tables")

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
        r = r.astype(np.complex128)
        self.metric = resolve_metric(metric)
        self.points = points = constellation.points
        self.diag_points = np.asarray(
            [r[k, k] * points for k in range(self.n_tx)]
        )  # (M, P)
        self.rows = [r[k, k + 1 :] for k in range(self.n_tx)]
        self._scalar_tables = None

    def scalar_tables(self) -> tuple[list, list, tuple]:
        """``(cross, diag, heads)``: the leaf-first loops' per-channel tables.

        Built on first use and kept for the block (the detector shell
        builds them at ``prepare``). With ``M = n_tx``, ``P`` points and
        the root-relative path offset ``off(j, s) = (M-1-j)*P + s`` of
        symbol ``s`` at level ``j``:

        ``cross[k][off(j, s)]``
            ``pts[s] * R[k, j]`` for every ``j > k``, each a Python
            complex product (not a NumPy broadcast, whose bits nothing
            pins) of ``pts``, the points cast to complex128 as
            :func:`_stacked_gemv` casts real PAM points inside
            ``einsum``, and ``R[k, j]`` read from ``rows[k]``. A node's
            interference at level ``k`` is then one lookup-add per
            assigned symbol, ``acc = acc + cross[k][o]`` from a zero
            start over its leaf-first offsets (level ``k+1`` first):
            the ascending-level order of :meth:`expand`'s ``einsum``.
        ``diag[k][c]``
            ``diag_points[k, c]`` as a ``(real, imag)`` float pair, for
            a NORM step on floats (complex subtraction is componentwise).
        ``heads[k][c]``
            ``(off(k, c),)``, the offset a child assigning symbol ``c``
            at level ``k`` puts in front of its parent's path. It
            depends only on ``(M, P)`` and is shared by every kernel of
            that shape.
        """
        tables = self._scalar_tables
        if tables is None:
            pts = self.points.astype(np.complex128).tolist()
            tables = self._scalar_tables = (
                [
                    [w * rkj for rkj in reversed(row.tolist()) for w in pts]
                    for row in self.rows
                ],
                [
                    [(d.real, d.imag) for d in level]
                    for level in self.diag_points.tolist()
                ],
                _path_heads(self.n_tx, len(pts)),
            )
        return tables

    def expand(
        self,
        level: int,
        parent_indices: np.ndarray,
        parent_pds: np.ndarray,
        ybar_k,
    ) -> np.ndarray:
        """Child PDs of a pool of same-level nodes: one GEMM + NORM step.

        Parameters
        ----------
        level:
            The tree level ``k`` being assigned (``M-1`` at the root's
            children, ``0`` at leaves).
        parent_indices:
            ``(B, M-1-level)`` ``int64`` array; column ``i`` holds the
            point index assigned at level ``M-1-i`` (the root-first
            path). Zero columns expand the root.
        parent_pds:
            ``(B,)`` ``float64`` accumulated PDs of the pool nodes.
        ybar_k:
            The rotated receive value of level ``k``: one frame's scalar
            ``ybar[level]``, or a ``(B, 1)`` column holding each pool
            row's own frame value (a pool fused across frames). Both
            give every row the same bits.

        Returns
        -------
        ``(B, P)`` array: the PD of every child of every pool node.

        Arguments are not validated: the sweeps build exactly these
        arrays from their frontiers.
        """
        metric = self.metric
        if parent_indices.shape[1]:
            # Path position i holds level M-1-i; rows[level] holds
            # levels k+1 .. M-1 ascending -> reverse the path columns.
            symbols = self.points[parent_indices[:, ::-1]]  # (B, m)
            shared = _stacked_gemv(symbols, self.rows[level])  # (B,)
            # NORM step: broadcast over the P children.
            error = ybar_k - shared[:, None] - self.diag_points[level]
        else:
            # Root expansion: the shared term is exactly zero and
            # ``x - (+0.0)`` is the identity bit for bit, so skip it; a
            # scalar ``ybar_k`` leaves one (P,) row that ``accumulate``
            # broadcasts over the pool.
            error = ybar_k - self.diag_points[level]
        return metric.accumulate(parent_pds, metric.increments(error))
