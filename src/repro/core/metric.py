"""Partial-distance metrics — the node-cost axis of the evaluation layer.

The paper's GEMM engine accumulates squared-ℓ₂ partial distances: every
child costs one complex MAC (GEMM stage) plus one ``|e|²`` accumulate
(NORM stage). Seethaler & Bölcskei observed that the NORM stage itself
is a design axis: replacing the squared Euclidean increment with the
ℓ∞ norm of the error's real decomposition,

    inc_k = max(|Re e_k|, |Im e_k|),   pd = max(pd_parent, inc_k)

keeps partial distances monotone non-decreasing along every root→leaf
path (so all sphere pruning logic remains valid) while turning the
hardware NORM stage from a multiply-accumulate chain into a compare
tree — no DSP multipliers, shorter latency. The price is that the
detector is exact with respect to the ℓ∞ metric but only approximate
with respect to the ML (ℓ₂) decision; the BER loss is bounded by the
norm-equivalence factor (see ``docs/algorithms.md``).

This module makes the metric a first-class object threaded through
:class:`~repro.core.gemm.ChannelKernel` and the traversal engine, so
every policy (best-first/DFS/BFS/K-best/FSD) composes with every
metric. Bit-identity discipline: the ℓ₂ singleton implements exactly
the expressions the GEMM evaluation used before this abstraction
existed — same NumPy ops in the same order — so the golden decode suite
replays unchanged.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "PartialDistanceMetric",
    "L2SquaredMetric",
    "LInfinityMetric",
    "L2",
    "LINF",
    "METRICS",
    "resolve_metric",
]


class PartialDistanceMetric:
    """Strategy object defining how partial distances grow per level.

    Subclasses must keep two invariants the traversal layer relies on:

    - ``accumulate`` is monotone non-decreasing in the parent PD (so a
      node outside the sphere can never have an in-sphere descendant);
    - ``residual_metric`` of a full leaf equals the PD the incremental
      recursion produces for that leaf (so Babai seeding and leaf
      acceptance agree with the tree search).

    Attributes
    ----------
    name:
        Registry key (``"l2"``, ``"linf"``).
    exact_ml:
        True when minimising this metric recovers the ML (ℓ₂) decision.
    flops_per_norm:
        Flop-equivalent cost charged per child in the NORM stage: for
        ℓ₂ a complex subtract (2), the ``R_kk`` product folded into the
        point table, and ``|.|^2`` (3), booked as 8.
    norm_kind:
        FPGA NORM-stage implementation this metric maps to
        (``"mac"`` multiply-accumulate vs ``"compare"`` compare tree);
        consumed by :mod:`repro.fpga`.
    """

    name = "abstract"
    exact_ml = False
    flops_per_norm = 0
    norm_kind = "mac"

    def increments(self, error: np.ndarray) -> np.ndarray:
        """Per-child distance increments from complex errors."""
        raise NotImplementedError

    def accumulate(self, parent_pds: np.ndarray, increments: np.ndarray) -> np.ndarray:
        """Combine ``(pool,)`` parent PDs with ``(pool, order)`` increments."""
        raise NotImplementedError

    def scalar_accumulate(self, total: float, err: complex) -> float:
        """Scalar recursion used by Babai seeding (one level at a time)."""
        raise NotImplementedError

    def residual_metric(self, residual: np.ndarray) -> float:
        """Full-vector metric of a leaf residual ``ybar - R s``."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.name!r})"


class L2SquaredMetric(PartialDistanceMetric):
    """Squared Euclidean distance — the exact-ML reference metric.

    The method bodies are verbatim the expressions the GEMM evaluation
    and ``babai_point`` used before the metric axis existed; do not
    "simplify" them, the golden decode suite pins their bit patterns.
    """

    name = "l2"
    exact_ml = True
    flops_per_norm = 8
    norm_kind = "mac"

    def increments(self, error: np.ndarray) -> np.ndarray:
        return error.real**2 + error.imag**2

    def accumulate(self, parent_pds: np.ndarray, increments: np.ndarray) -> np.ndarray:
        return parent_pds[:, None] + increments

    def scalar_accumulate(self, total: float, err: complex) -> float:
        return total + float(err.real**2 + err.imag**2)

    def residual_metric(self, residual: np.ndarray) -> float:
        return float(np.real(np.vdot(residual, residual)))


class LInfinityMetric(PartialDistanceMetric):
    """ℓ∞ partial distances (Seethaler & Bölcskei).

    The increment is the ℓ∞ norm of the error's real decomposition and
    accumulation is ``max`` instead of ``+``: the PD of a node is the
    largest per-dimension error magnitude seen on its path. Monotone by
    construction, so pruning stays valid; cheap in hardware because
    ``|Re|/|Im|`` + compares replace the MAC chain.
    """

    name = "linf"
    exact_ml = False
    flops_per_norm = 4
    norm_kind = "compare"

    def increments(self, error: np.ndarray) -> np.ndarray:
        return np.maximum(np.abs(error.real), np.abs(error.imag))

    def accumulate(self, parent_pds: np.ndarray, increments: np.ndarray) -> np.ndarray:
        return np.maximum(parent_pds[:, None], increments)

    def scalar_accumulate(self, total: float, err: complex) -> float:
        return max(total, float(max(abs(err.real), abs(err.imag))))

    def residual_metric(self, residual: np.ndarray) -> float:
        if residual.size == 0:
            return 0.0
        flat = np.asarray(residual)
        return float(
            max(np.max(np.abs(flat.real)), np.max(np.abs(flat.imag)))
        )


#: Module-level singletons — identity comparisons (``metric is L2``) are
#: the sanctioned fast check in hot paths.
L2 = L2SquaredMetric()
LINF = LInfinityMetric()

METRICS = {L2.name: L2, LINF.name: LINF}


def resolve_metric(metric) -> PartialDistanceMetric:
    """Coerce a metric name or instance to a singleton-or-instance.

    ``None`` resolves to the ℓ₂ reference so every existing call site
    keeps its historical behaviour without naming a metric.
    """
    if metric is None:
        return L2
    if isinstance(metric, PartialDistanceMetric):
        return metric
    try:
        return METRICS[metric]
    except (KeyError, TypeError):
        known = ", ".join(sorted(METRICS))
        raise ValueError(
            f"unknown partial-distance metric {metric!r} (known: {known})"
        ) from None
