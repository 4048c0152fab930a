"""Lockstep scheduling of concurrent frame searches over fused GEMMs.

The level sweeps — BFS, K-best and FSD — express their traversal as
*search generators*: plain Python generators that yield an
:class:`ExpandRequest` whenever they need child partial distances and
receive the ``(B, P)`` result back at the ``yield``. The search logic
(pruning, incumbent updates, stats accounting) lives entirely inside the
generator; *who* evaluates the GEMM is the driver's choice:

* :func:`drive_serial` — one frame, one
  :class:`~repro.core.gemm.GemmEvaluator`; reproduces the classic
  per-frame decode exactly.
* :func:`drive_lockstep` — many frames against one shared
  :class:`~repro.core.gemm.BatchedGemmEvaluator`. Each round, every
  live frame has exactly one pending expansion; requests at the same
  tree level are stacked into a single fused GEMM (the paper's
  BLAS-2 -> BLAS-3 refactor applied across frames). Each frame still
  sees bit-identical child PDs — rows of the fused product are the
  same independent dot products the serial evaluator computes — so
  batched decoding never changes a decode result or a node count.

The leaf-first searches are not generator clients: their pools are a
node or a few, so :class:`~repro.core.traversal.BestFirstPolicy` and
:class:`~repro.core.traversal.DfsPolicy` compute their own partial
distances in scalar loops and their batches decode frame by frame.
"""

from __future__ import annotations

from typing import Generator, NamedTuple, Sequence

import numpy as np

from repro.core.gemm import BatchedGemmEvaluator, GemmEvaluator


class ExpandRequest(NamedTuple):
    """One pending node-pool expansion emitted by a search generator.

    Attributes
    ----------
    level:
        Tree level being expanded (``n_tx - 1`` at the root's children,
        ``0`` at the leaves).
    parent_indices:
        ``(B, depth)`` root-first index paths of the pool nodes.
    parent_pds:
        ``(B,)`` accumulated partial distances of the pool nodes.
    """

    level: int
    parent_indices: np.ndarray
    parent_pds: np.ndarray


#: A search generator: yields expansion requests, receives ``(B, P)``
#: child-PD arrays, and returns its final value via ``StopIteration``.
SearchGenerator = Generator[ExpandRequest, np.ndarray, object]


def drive_serial(search: SearchGenerator, evaluator: GemmEvaluator):
    """Run one search generator to completion against one evaluator.

    Returns the generator's return value. Requests are evaluated on the
    unchecked fast path (:meth:`GemmEvaluator.expand_unchecked`): the
    sweep policies emit correctly-shaped ``int64``/``float64``
    arrays by construction, so per-call re-validation would only tax
    the hot loop. Hand-written generators must honour the same
    contract (or be driven against :meth:`GemmEvaluator.expand`).
    """
    try:
        request = next(search)
        while True:
            child_pds = evaluator.expand_unchecked(
                request.level, request.parent_indices, request.parent_pds
            )
            request = search.send(child_pds)
    except StopIteration as stop:
        return stop.value


def drive_lockstep(
    searches: Sequence[SearchGenerator],
    evaluator: BatchedGemmEvaluator,
) -> list:
    """Run many frame searches in lockstep rounds with fused expansions.

    Each round collects the pending request of every live frame, groups
    them by tree level (requests at different levels have different
    interference depths and cannot share an operand), issues **one**
    fused :meth:`BatchedGemmEvaluator.expand` per level group, and
    resumes each frame with its slice of the result. Frames finish
    independently; the rounds continue until every generator returns.

    Returns the generators' return values, in input order. Grouping and
    stacking follow ascending ``(level, frame)`` order, so the schedule
    — and therefore every floating-point result — is deterministic.
    """
    if evaluator.n_frames < len(searches):
        raise ValueError(
            f"evaluator holds {evaluator.n_frames} frames but "
            f"{len(searches)} searches were supplied"
        )
    results = [None] * len(searches)
    pending: dict[int, ExpandRequest] = {}

    def advance(frame: int, payload, *, first: bool = False) -> None:
        try:
            request = (
                next(searches[frame]) if first else searches[frame].send(payload)
            )
        except StopIteration as stop:
            results[frame] = stop.value
        else:
            pending[frame] = request

    for frame in range(len(searches)):
        advance(frame, None, first=True)
    while pending:
        round_requests = sorted(pending.items())
        pending.clear()
        by_level: dict[int, list[tuple[int, ExpandRequest]]] = {}
        for frame, request in round_requests:
            by_level.setdefault(request.level, []).append((frame, request))
        for level in sorted(by_level):
            group = by_level[level]
            parent_indices = np.concatenate(
                [req.parent_indices for _, req in group], axis=0
            )
            parent_pds = np.concatenate([req.parent_pds for _, req in group])
            frame_rows = np.concatenate(
                [
                    np.full(req.parent_pds.shape[0], frame, dtype=np.int64)
                    for frame, req in group
                ]
            )
            child_pds = evaluator.expand_unchecked(
                level, parent_indices, parent_pds, frame_rows
            )
            offset = 0
            for frame, req in group:
                rows = req.parent_pds.shape[0]
                advance(frame, child_pds[offset : offset + rows])
                offset += rows
    return results
