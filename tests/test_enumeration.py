"""Child visit orders of the depth-first search (paper section II-B / Fig. 3).

:class:`~repro.core.traversal.DfsPolicy` visits a node's children in
constellation index order (``"natural"``) or in ascending partial
distance (``"sorted"``, stable on ties). On a two-level tree searched
with no initial radius, the first leaf the search reaches — the first
radius update — is the best leaf under the first root child it visits,
which makes the visit order observable.
"""

import numpy as np
import pytest

from repro.core.radius import InfiniteRadius
from repro.core.stats import DecodeStats
from repro.core.traversal import CHILD_ORDERS, DfsPolicy, TraversalEngine
from repro.mimo.constellation import Constellation
from repro.obs.tracer import NULL_TRACER

QAM4 = Constellation.qam(4)
#: Upper-triangular factor whose off-diagonal term makes the leaves
#: below each root child differ.
R = np.array([[1.0, 0.8 + 0.3j], [0.0, 1.0]])


def first_leaf(child_ordering: str, ybar: np.ndarray) -> float:
    """Metric of the first leaf an unbounded DFS reaches."""
    engine = TraversalEngine(
        QAM4, DfsPolicy(child_ordering=child_ordering), radius_policy=InfiniteRadius()
    )
    stats = DecodeStats()
    engine.solve(R, ybar, 0.0, stats, NULL_TRACER)
    assert stats.radius_trace[0] == np.inf
    return stats.radius_trace[1]


def best_leaf_below(c: int, ybar: np.ndarray) -> float:
    """Best leaf metric below root child ``c`` (the level-1 symbol)."""
    pts = QAM4.points
    root = abs(ybar[1] - R[1, 1] * pts[c]) ** 2
    return float(root + np.min(np.abs(ybar[0] - R[0, 1] * pts[c] - R[0, 0] * pts) ** 2))


def root_pds(ybar: np.ndarray) -> np.ndarray:
    return np.abs(ybar[1] - R[1, 1] * QAM4.points) ** 2


#: Level-1 observation next to point 3, so PD order differs from index order.
NEAR_LAST = np.array([0.3 - 0.2j, QAM4.points[3] * 0.9])


class TestChildOrder:
    def test_natural_is_identity(self):
        assert int(np.argmin(root_pds(NEAR_LAST))) == 3
        assert first_leaf("natural", NEAR_LAST) == pytest.approx(
            best_leaf_below(0, NEAR_LAST), rel=1e-12
        )

    def test_sorted_ascending(self):
        assert first_leaf("sorted", NEAR_LAST) == pytest.approx(
            best_leaf_below(3, NEAR_LAST), rel=1e-12
        )
        assert best_leaf_below(3, NEAR_LAST) != pytest.approx(
            best_leaf_below(0, NEAR_LAST)
        )

    def test_sorted_is_default(self):
        assert DfsPolicy().child_ordering == "sorted"

    def test_stable_on_ties(self):
        # At the origin every 4-QAM root child ties; a stable sort keeps
        # index order, so child 0 comes first.
        ybar = np.array([0.3 - 0.2j, 0.0])
        pds = root_pds(ybar)
        assert np.all(pds == pds[0])
        leaves = [best_leaf_below(c, ybar) for c in range(QAM4.order)]
        assert len(set(np.round(leaves, 9))) == QAM4.order
        assert first_leaf("sorted", ybar) == pytest.approx(leaves[0], rel=1e-12)

    def test_rejects_unknown_order(self):
        with pytest.raises(ValueError):
            DfsPolicy(child_ordering="zigzag")

    def test_orders_registry(self):
        assert set(CHILD_ORDERS) == {"natural", "sorted"}
