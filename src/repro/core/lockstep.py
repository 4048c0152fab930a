"""Lockstep scheduling of sweep searches over one partial-distance kernel.

The level sweeps — BFS, K-best and FSD — express their traversal as
*search generators*: plain Python generators that yield an
:class:`ExpandRequest` whenever they need child partial distances and
receive the ``(B, P)`` result back at the ``yield``. The search logic
(pruning, incumbent updates, stats accounting) lives entirely inside the
generator; :func:`drive_lockstep` evaluates the requests.

It runs one to ``B`` generators against one
:class:`~repro.core.gemm.ChannelKernel`. Each round, every live search
has exactly one pending expansion; requests at the same tree level are
stacked into a single :meth:`~repro.core.gemm.ChannelKernel.expand`
call (the paper's BLAS-2 -> BLAS-3 refactor applied across frames),
each row carrying its own frame's receive value. Rows of a fused product
are the same independent dot products a search alone would get, so a
frame decodes to the same bits whether it is driven alone (``detect``)
or with others (``decode_batch``).

The leaf-first searches are not generator clients: their pools are a
node or a few, so :class:`~repro.core.traversal.BestFirstPolicy` and
:class:`~repro.core.traversal.DfsPolicy` compute their own partial
distances in scalar loops and their batches decode frame by frame.
"""

from __future__ import annotations

from time import perf_counter
from typing import Generator, NamedTuple, Sequence

import numpy as np

from repro.core.gemm import ChannelKernel


class ExpandRequest(NamedTuple):
    """One pending node-pool expansion emitted by a search generator.

    Attributes
    ----------
    level:
        Tree level being expanded (``n_tx - 1`` at the root's children,
        ``0`` at the leaves).
    parent_indices:
        ``(B, depth)`` ``int64`` root-first index paths of the pool nodes.
    parent_pds:
        ``(B,)`` ``float64`` accumulated partial distances of the pool
        nodes.
    """

    level: int
    parent_indices: np.ndarray
    parent_pds: np.ndarray


#: A search generator: yields expansion requests, receives ``(B, P)``
#: child-PD arrays, and returns its final value via ``StopIteration``.
SearchGenerator = Generator[ExpandRequest, np.ndarray, object]


def drive_lockstep(
    searches: Sequence[SearchGenerator],
    kernel: ChannelKernel,
    ybars: np.ndarray,
) -> tuple[list, int, float]:
    """Run search generators in lockstep rounds with fused expansions.

    ``ybars[f]`` is search ``f``'s ``complex128`` rotated receive
    vector. Each round collects the pending request of every live
    search, groups them by tree level (requests at different levels have
    different interference depths and cannot share an operand), issues
    **one** :meth:`ChannelKernel.expand` per level group, and resumes
    each search with its slice of the result. A group of one request is
    evaluated on its own arrays with the scalar ``ybars[f, level]``; a
    larger group is concatenated, with a ``(B, 1)`` column of the rows'
    frame values. Searches finish independently; the rounds continue
    until every generator returns.

    Returns ``(results, calls, seconds)``: the generators' return values
    in input order, the number of ``expand`` calls issued and the
    seconds spent inside them. Grouping and stacking follow ascending
    ``(level, search)`` order, so the schedule — and therefore every
    floating-point result — is deterministic.
    """
    results = [None] * len(searches)
    pending: dict[int, ExpandRequest] = {}
    calls = 0
    seconds = 0.0

    def advance(frame: int, payload) -> None:
        try:
            pending[frame] = searches[frame].send(payload)
        except StopIteration as stop:
            results[frame] = stop.value

    for frame in range(len(searches)):
        advance(frame, None)
    while pending:
        if len(pending) == 1:  # one live search (``detect``): no grouping
            groups = [list(pending.items())]
        else:
            by_level: dict[int, list[tuple[int, ExpandRequest]]] = {}
            for frame, request in sorted(pending.items()):
                by_level.setdefault(request.level, []).append((frame, request))
            groups = [by_level[level] for level in sorted(by_level)]
        pending.clear()
        for group in groups:
            frame, request = group[0]
            level = request.level
            if len(group) == 1:
                parent_indices = request.parent_indices
                parent_pds = request.parent_pds
                ybar_k = ybars[frame, level]
            else:
                parent_indices = np.concatenate(
                    [req.parent_indices for _, req in group]
                )
                parent_pds = np.concatenate([req.parent_pds for _, req in group])
                ybar_k = np.repeat(
                    ybars[[frame for frame, _ in group], level],
                    [req.parent_pds.shape[0] for _, req in group],
                )[:, None]
            t0 = perf_counter()
            child_pds = kernel.expand(level, parent_indices, parent_pds, ybar_k)
            seconds += perf_counter() - t0
            calls += 1
            offset = 0
            for frame, request in group:
                rows = request.parent_pds.shape[0]
                advance(frame, child_pds[offset : offset + rows])
                offset += rows
    return results, calls, seconds
