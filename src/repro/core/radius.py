"""Initial sphere-radius policies (paper Alg. 1, "Radius r" input).

The sphere constraint ``||ybar - R s||^2 <= r^2`` prunes the search; the
radius is then tightened at run time whenever a better leaf is found.
Three initialisation policies are provided:

:class:`InfiniteRadius`
    No initial pruning. The search is guaranteed exact and never erases,
    but explores the most nodes. This is the configuration used for the
    exactness proofs in the test suite.

:class:`NoiseScaledRadius`
    ``r^2 = alpha * N * sigma^2`` — the classic statistical choice: the
    true transmit vector satisfies ``||ybar - R s||^2 = ||Q^H n||^2``
    whose mean is ``M * sigma^2`` (thin QR retains M of the N noise
    dimensions), so a small multiple captures the solution with high
    probability. May erase (no leaf inside the sphere); the decoder
    escalates the radius and retries.

:class:`BabaiRadius`
    Seeds the search with the Babai / SIC (successive interference
    cancellation) point: decision-feedback back-substitution through
    ``R``. Its metric is a valid upper bound on the ML metric, so the
    sphere is never empty, the returned answer is still exactly ML, and
    pruning is tight from the very first pop. This is the default for the
    performance experiments.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from repro.core.metric import L2, PartialDistanceMetric, resolve_metric
from repro.mimo.constellation import Constellation


def babai_point(
    r: np.ndarray,
    ybar: np.ndarray,
    constellation: Constellation,
    *,
    metric: PartialDistanceMetric | str | None = None,
) -> tuple[np.ndarray, float]:
    """Babai (SIC) solution and its reduced-domain metric.

    Back-substitution from level ``M-1`` down to ``0``, slicing each
    estimate to the nearest constellation point. The decision sequence is
    metric-independent (each level slices to the nearest point), but the
    accumulated metric follows the requested partial-distance ``metric``
    so the bound is valid for the traversal consuming it (a summed ℓ₂
    value would be a wrong — too loose *and* differently scaled — ℓ∞
    incumbent, and vice versa).

    Each level costs one BLAS dot for the interference
    ``r[k, k+1:] @ s[k+1:]`` plus scalar work. The dot, the division by
    the pivot and the error stay NumPy operations, and
    :meth:`~repro.mimo.constellation.Constellation.nearest_index` slices
    the estimate exactly as ``nearest_indices`` would: a Python sum for
    the dot or Python complex division rounds differently, which moves
    the metric's last bits and, at a decision edge, an index. A zero
    pivot (an all-zero channel column) divides by zero with NumPy's
    ``RuntimeWarning`` and slices the infinite estimate to an edge point.

    Returns
    -------
    ``(indices_by_level, metric)`` where ``indices_by_level[k]`` is the
    point index at level ``k`` and ``metric`` is the reduced-domain
    metric of the Babai leaf (``||ybar - R s||^2`` under ℓ₂).
    """
    accumulate = resolve_metric(metric).scalar_accumulate
    nearest_index = constellation.nearest_index
    points = constellation.points
    n_tx = r.shape[0]
    indices = np.empty(n_tx, dtype=np.int64)
    symbols = np.empty(n_tx, dtype=np.complex128)
    metric_val = 0.0
    for k in range(n_tx - 1, -1, -1):
        row = r[k]
        r_kk = row[k]
        residual = ybar[k] - row[k + 1 :] @ symbols[k + 1 :]
        idx = nearest_index(residual / r_kk)
        symbol = points[idx]
        indices[k] = idx
        symbols[k] = symbol
        metric_val = accumulate(metric_val, residual - r_kk * symbol)
    return indices, metric_val


@dataclass(frozen=True)
class RadiusInit:
    """Outcome of a radius policy.

    Attributes
    ----------
    radius_sq:
        Initial squared radius ``r^2``.
    incumbent_indices:
        Optional initial solution (ascending-level point indices) whose
        metric equals ``radius_sq``; ``None`` when the policy provides a
        bound without a candidate.
    """

    radius_sq: float
    incumbent_indices: np.ndarray | None = None


#: Factor applied to ``r^2`` when a sphere turns out empty and its
#: radius policy can escalate (the leaf-first shell, BFS and the list
#: detector all grow the radius by it).
ESCALATION_FACTOR = 4.0


class RadiusPolicy(abc.ABC):
    """Strategy object computing the initial sphere radius."""

    @abc.abstractmethod
    def initial(
        self,
        r: np.ndarray,
        ybar: np.ndarray,
        constellation: Constellation,
        noise_var: float,
        *,
        metric: PartialDistanceMetric | None = None,
    ) -> RadiusInit:
        """Initial radius (and optional incumbent) for one detection."""

    def can_escalate(self) -> bool:
        """Whether an empty sphere should be retried with a larger radius."""
        return True


class InfiniteRadius(RadiusPolicy):
    """No initial pruning — pure exact search."""

    def initial(
        self,
        r: np.ndarray,
        ybar: np.ndarray,
        constellation: Constellation,
        noise_var: float,
        *,
        metric: PartialDistanceMetric | None = None,
    ) -> RadiusInit:
        return RadiusInit(radius_sq=np.inf)

    def can_escalate(self) -> bool:
        return False  # an infinite sphere can never be empty


@dataclass
class NoiseScaledRadius(RadiusPolicy):
    """``r^2 = alpha * n_tx * sigma^2`` (statistical initial radius)."""

    alpha: float = 2.0

    def __post_init__(self) -> None:
        if self.alpha <= 0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")

    def initial(
        self,
        r: np.ndarray,
        ybar: np.ndarray,
        constellation: Constellation,
        noise_var: float,
        *,
        metric: PartialDistanceMetric | None = None,
    ) -> RadiusInit:
        n_tx = r.shape[0]
        if noise_var <= 0:
            # Noiseless operation: fall back to the Babai bound, which is
            # always valid; a zero radius would erase every time.
            indices, bound = babai_point(r, ybar, constellation, metric=metric)
            return RadiusInit(radius_sq=bound, incumbent_indices=indices)
        if metric is not None and metric is not L2 and metric.name != L2.name:
            # A statistical chi-square radius is an l2-metric quantity;
            # for other metrics the Babai bound is the valid analogue.
            indices, bound = babai_point(r, ybar, constellation, metric=metric)
            return RadiusInit(radius_sq=bound, incumbent_indices=indices)
        return RadiusInit(radius_sq=self.alpha * n_tx * noise_var)


@dataclass
class FixedRadius(RadiusPolicy):
    """A user-preset squared radius, constant across detections.

    This is literally Algorithm 1's ``Radius r`` input. The GPU GEMM-BFS
    implementation of [1] operates this way: the radius is provisioned
    for the *worst-case* SNR the deployment must survive, so at high SNR
    the sphere is far larger than necessary and the breadth-first
    frontier stays enormous — the effect behind the paper's Fig. 11.
    """

    radius_sq: float = 1.0

    def __post_init__(self) -> None:
        if self.radius_sq <= 0:
            raise ValueError(f"radius_sq must be positive, got {self.radius_sq}")

    def initial(
        self,
        r: np.ndarray,
        ybar: np.ndarray,
        constellation: Constellation,
        noise_var: float,
        *,
        metric: PartialDistanceMetric | None = None,
    ) -> RadiusInit:
        return RadiusInit(radius_sq=self.radius_sq)


class BabaiRadius(RadiusPolicy):
    """Seed with the SIC solution: never erases, stays exact, prunes hard."""

    def initial(
        self,
        r: np.ndarray,
        ybar: np.ndarray,
        constellation: Constellation,
        noise_var: float,
        *,
        metric: PartialDistanceMetric | None = None,
    ) -> RadiusInit:
        indices, bound = babai_point(r, ybar, constellation, metric=metric)
        return RadiusInit(radius_sq=bound, incumbent_indices=indices)

    def can_escalate(self) -> bool:
        return False  # the Babai sphere always contains its own point
