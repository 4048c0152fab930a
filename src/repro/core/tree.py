"""Search-tree node representation.

The tree has ``M`` levels (one per transmit symbol, paper section III-A).
A node is identified by its *path*: the tuple of constellation point
indices assigned so far, root-first — ``path[i]`` is the index chosen at
level ``M-1-i``. The root has the empty path; a leaf has ``len(path) == M``.

Nodes are plain tuples ordered by partial distance so they can live
directly in a ``heapq`` (Best-FS) or a list used as a LIFO stack
(sorted-DFS, Fig. 3). A monotonically increasing sequence number breaks
PD ties, which keeps ordering deterministic and avoids comparing paths.

The traversal policies in :mod:`repro.core.traversal` no longer store
their frontiers as ``SearchNode`` objects — the leaf-first loops keep
nodes as rows of plain Python lists (level, PD, path tuple) and
reproduce the same ``(pd, seq)`` ordering with scalar ``(pd, row)``
heap/stack entries. ``SearchNode`` remains the node representation for
code that walks trees explicitly (the partitioned decoder's
fixed-levels enumeration, tests, teaching examples).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.mimo.constellation import Constellation


class SearchNode(NamedTuple):
    """A tree node as stored in the exploration list.

    Field order matters: tuples compare lexicographically, so a heap of
    ``SearchNode`` pops the smallest PD first (ties broken by ``seq``).
    """

    pd: float
    seq: int
    level: int  # the level this node's *children* will assign
    path: tuple[int, ...]

    @property
    def depth(self) -> int:
        """Number of symbols already assigned."""
        return len(self.path)

    def is_leaf_parent(self) -> bool:
        """True when expanding this node produces leaves (level 0)."""
        return self.level == 0


def root_node(n_tx: int) -> SearchNode:
    """The search root: nothing assigned, zero PD."""
    if n_tx <= 0:
        raise ValueError(f"n_tx must be positive, got {n_tx}")
    return SearchNode(pd=0.0, seq=0, level=n_tx - 1, path=())


def path_symbols(
    path: tuple[int, ...], constellation: Constellation
) -> np.ndarray:
    """Complex symbols of a path, root-first (level M-1 downwards)."""
    if not path:
        return np.empty(0, dtype=np.complex128)
    return constellation.points[np.asarray(path, dtype=np.int64)]


def path_to_level_indices(path: tuple[int, ...], n_tx: int) -> np.ndarray:
    """Convert a full root-first path to ascending-level index order.

    ``out[k]`` is the point index assigned at level ``k``; requires a
    complete path (``len(path) == n_tx``).
    """
    if len(path) != n_tx:
        raise ValueError(
            f"need a complete path of length {n_tx}, got {len(path)}"
        )
    return np.asarray(path[::-1], dtype=np.int64)
