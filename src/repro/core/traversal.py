"""Unified tree-traversal engine: search policy x partial-distance kernel.

The paper's central claim is that one sphere-decoding algorithm can be
re-targeted across execution substrates (CPU BLAS-3, GPU, FPGA dataflow)
because *what to expand next* is separable from *how partial distances
are evaluated*. This module is that separation made concrete:

``TraversalPolicy``
    What to expand next. Two shapes:

    * :class:`BestFirstPolicy` — global priority queue on PD with
      same-level pooling (the paper's Best-FS, Alg. 1) — and
      :class:`DfsPolicy` — LIFO with PD-sorted child insertion, the
      sorted DFS of Fig. 3 — are leaf-first searches. Their pools are a
      node or a few, too small to amortise a GEMM call, so each
      evaluates its own partial distances in one scalar loop over
      Python lists with :meth:`~repro.core.gemm.ChannelKernel.expand`'s
      order of operations, bit-identical to it. Their batches decode
      frame by frame.
    * :class:`BfsPolicy` — level-synchronous frontier sweep (the GPU
      baseline of Arfaoui et al., one GEMM per level) — plus
      :class:`KBestPolicy` (K survivors per level; fixed-throughput
      hardware detector, not exact) and :class:`FsdPolicy` (full
      enumeration on ``rho`` levels, single-best-child SIC below; not
      exact) are sweeps: search **generators** over the
      :class:`~repro.core.lockstep.ExpandRequest` protocol that yield
      one frontier per level and receive its ``(B, P)`` child partial
      distances. :func:`~repro.core.lockstep.drive_lockstep` evaluates
      them on the channel's :class:`~repro.core.gemm.ChannelKernel`:
      one frame for ``solve``, many for ``solve_batch``, whose
      same-level frontiers stack into single BLAS-3 calls with
      bit-identical child PDs.

``TraversalEngine``
    Binds a constellation, a policy and a radius policy. The detector
    classes in :mod:`repro.detectors` are thin configurations of this
    engine; all of them emit the uniform
    :class:`~repro.core.stats.BatchTrace` the FPGA pipeline
    simulator prices — a Best-FS pool is one ``(level, pool)`` event,
    whatever evaluated it.

Telemetry stays at boundaries: under an enabled tracer the leaf-first
shell opens one ``sd.solve`` span per frame and one ``sd.search`` span
per search round, and a lone BFS sweep one ``bfs.level`` span per
level — nothing per expansion. The exact per-expansion record is the
``BatchTrace``.

Exactness of the best-first / DFS policies is property-tested against
brute force in ``tests/test_sphere_decoder_exactness.py`` and
``tests/test_golden_decodes.py``, which also replays the recorded
leaf-first and sweep cases; per-frame and fused batch decoding are
held equal in ``tests/test_parallel_mc.py``.
"""

from __future__ import annotations

import abc
import heapq
from time import perf_counter
from typing import NamedTuple

import numpy as np

from repro.core.gemm import FLOPS_PER_CMAC, ChannelKernel
from repro.core.lockstep import ExpandRequest, drive_lockstep
from repro.core.metric import L2SquaredMetric, LInfinityMetric, resolve_metric
from repro.core.radius import ESCALATION_FACTOR, babai_point
from repro.core.stats import DecodeStats
from repro.obs.log import get_logger
from repro.obs.tracer import NULL_TRACER
from repro.util.validation import check_in, check_positive_int, check_vector

_log = get_logger(__name__)


def extend_paths(
    paths: np.ndarray, keep_n: np.ndarray, keep_c: np.ndarray
) -> np.ndarray:
    """Survivor paths of the next sweep level: ``paths[keep_n] + keep_c``.

    Shared by the frontier-sweep policies (BFS / K-best / FSD): one
    preallocated write instead of ``np.concatenate`` plus an ``astype``
    copy per level. ``paths`` is ``(F, d)`` root-first, ``keep_n`` the
    surviving parent rows, ``keep_c`` the appended child indices; the
    result is ``(K, d+1)`` ``int64`` with identical values to the old
    concatenation (bit-identity preserved).
    """
    depth = paths.shape[1]
    out = np.empty((keep_n.shape[0], depth + 1), dtype=np.int64)
    if depth:
        np.take(paths, keep_n, axis=0, out=out[:, :depth])
    out[:, depth] = keep_c
    return out


def _level_sweep(engine, n_tx, stats, select, tracer=None):
    """One root-to-leaves level sweep, shared by BFS, K-best and FSD.

    Yields one :class:`ExpandRequest` per level and books the level's
    expansion in ``stats`` and the engine's level accumulator.
    ``select(level, n_tx, child_pds, stats)`` returns the survivors
    ``(keep_n, keep_c, pds)`` — parent rows, child columns, PDs — and
    books its own prunes, or returns ``None`` to end the sweep empty.
    Returns the leaf frontier ``(paths, pds)`` with root-first
    ``(L, n_tx)`` paths, or ``None``. Under a ``tracer`` (BFS passes
    its own) each expansion is a ``bfs.level`` span.
    """
    p = engine.constellation.order
    norm_flops = engine.metric.flops_per_norm * p
    # Frontier state: (F, depth) root-first index paths + (F,) PDs.
    paths = np.empty((1, 0), dtype=np.int64)
    pds = np.zeros(1, dtype=float)
    for level in range(n_tx - 1, -1, -1):
        width = paths.shape[0]
        request = ExpandRequest(level, paths, pds)
        if tracer is None:
            child_pds = yield request  # (F, P)
        else:
            with tracer.span("bfs.level", level=level, frontier=width):
                child_pds = yield request
        stats.nodes_expanded += width
        stats.nodes_generated += width * p
        stats.gemm_calls += 1
        stats.gemm_flops += (FLOPS_PER_CMAC * (n_tx - 1 - level) + norm_flops) * width
        if engine.record_trace:
            stats.batches.append(level, width)
        pruned_before = stats.nodes_pruned
        kept = select(level, n_tx, child_pds, stats)
        acc = engine.level_acc
        if acc is not None:
            acc.nodes[level] += width
            acc.exps[level] += 1
            acc.pruned[level] += stats.nodes_pruned - pruned_before
        if kept is None:
            return None
        keep_n, keep_c, pds = kept
        paths = extend_paths(paths, keep_n, keep_c)
        stats.max_list_size = max(stats.max_list_size, paths.shape[0])
    stats.leaves_reached += paths.shape[0]
    return paths, pds


class TraversalPolicy(abc.ABC):
    """What to expand next — a search schedule over the SD tree.

    A policy is stateless across decodes. The leaf-first policies
    (:class:`BestFirstPolicy`, :class:`DfsPolicy`) run their search
    through ``solve``; the sweep policies implement :meth:`solve_gen`,
    which returns a fresh generator per frame, so one policy instance
    can drive many interleaved frames (lockstep batching relies on
    this).
    """

    def solve_gen(self, engine: "TraversalEngine", r, ybar, noise_var, stats, tracer):
        """Search generator for one frame's full sweep (sweep policies).

        Yields :class:`~repro.core.lockstep.ExpandRequest`s and returns
        ``(indices_by_level, reduced_metric)``. ``tracer`` scopes any
        spans the policy opens — pass ``NULL_TRACER`` when several
        generators run interleaved (lockstep batching), where spans
        opened across yields of different frames would corrupt the
        nesting stack.
        """
        raise NotImplementedError(
            f"{type(self).__name__} is not an ExpandRequest generator"
        )


class LevelAccumulator:
    """Per-level traversal totals, kept hot-path-cheap.

    Three flat integer lists indexed by tree level: nodes expanded,
    expansion (GEMM batch) count, and nodes pruned. The sweeps add to
    them once per level, the leaf-first loops once per round
    (:func:`_fold_levels`); the detector layer copies the totals into
    labelled registry counters once per ``detect`` or ``decode_batch``.
    Per-level *generated* is not tracked — it is exactly
    ``nodes * constellation.order``.
    """

    __slots__ = ("nodes", "exps", "pruned")

    def __init__(self, n_levels: int) -> None:
        self.nodes = [0] * n_levels
        self.exps = [0] * n_levels
        self.pruned = [0] * n_levels


def _fold_levels(acc, lv, queue, levels, pools, pops, order, n_tx, leaves):
    """Fold one leaf-first search round's per-level rows into ``acc``.

    ``levels``/``pools`` hold the level and node count of every
    expansion (``pools`` is ``None`` when every expansion is a single
    node), ``pops`` the per-level count of nodes pruned on pop (DFS;
    ``None`` for Best-FS, which never pops a node outside the sphere),
    and ``queue`` the ``(pd, row)`` entries still waiting when the round
    ended (``lv[row]`` is a row's level). Every node admitted at a level
    was expanded, pruned on pop or is still waiting, so the children
    admitted at ``level - 1`` — all produced by expansions at ``level``
    (the root is at ``n_tx - 1``, never a child) — number the three
    together; level-0 expansions send their children to leaf acceptance
    instead, ``leaves`` of which survived. A level without expansions
    admitted no children below it, so its prunes are its pop-prunes and
    one formula serves every level. Only the expansion lists and the
    leftover queue are scanned, never the admitted nodes. Totals match
    per-expansion accounting exactly.
    """
    exps = [0] * n_tx
    if pools is None:
        for level in levels:
            exps[level] += 1
        nodes = exps
    else:
        nodes = [0] * n_tx
        for level, b in zip(levels, pools):
            exps[level] += 1
            nodes[level] += b
    if pops is None:
        pops = [0] * n_tx
    waiting = [0] * n_tx
    for _pd, row in queue:
        waiting[lv[row]] += 1
    a_nodes, a_exps, a_pruned = acc.nodes, acc.exps, acc.pruned
    survived = leaves
    for level in range(n_tx):
        n = nodes[level]
        q = pops[level]
        a_nodes[level] += n
        a_exps[level] += exps[level]
        a_pruned[level] += n * order - survived + q
        # Nodes admitted at this level: children the level above kept.
        survived = n + q + waiting[level]


class _PooledTreePolicy(TraversalPolicy):
    """Shared solve shape of the leaf-first (best-FS / DFS) policies.

    Owns the radius schedule the paper's decoder uses: initial radius
    from the engine's radius policy, geometric escalation while the
    sphere is empty — abandoned once the node cap truncates a search,
    since a larger radius can only expand the workload — and a Babai
    fallback when every escalation came back empty.

    Each round is one call of ``_search``: a scalar loop over Python
    lists, floats and complexes fed by
    :meth:`ChannelKernel.scalar_tables`, whose arithmetic follows
    :meth:`ChannelKernel.expand`'s order of operations, so every
    decision, metric, counter and trace is bit-identical to the GEMM
    path. Only the ℓ₂ and ℓ∞ metrics are supported.
    """

    #: Strategy label used in ``sd.solve`` span args and detector attrs.
    strategy: str

    def __init__(self, *, max_nodes: int | None = None) -> None:
        self.max_nodes = (
            None if max_nodes is None else check_positive_int(max_nodes, "max_nodes")
        )

    def solve(self, engine, r, ybar, noise_var, stats, tracer, frame):
        """The radius shell around one frame's search rounds.

        ``frame`` is passed through to every :meth:`_search` round.
        """
        n_tx = int(r.shape[1])
        with tracer.span("sd.solve", strategy=self.strategy, n_tx=n_tx):
            init = engine.radius_policy.initial(
                r, ybar, engine.constellation, float(noise_var),
                metric=engine.metric,
            )
            bound = float(init.radius_sq)
            incumbent = init.incumbent_indices
            stats.radius_trace.append(bound)
            while True:
                with tracer.span("sd.search", bound=bound):
                    incumbent, bound = self._search(
                        engine, frame, n_tx, bound, incumbent, stats
                    )
                if incumbent is not None or not engine.radius_policy.can_escalate():
                    break
                if stats.truncated:
                    # The search hit the node cap before finding any leaf —
                    # a larger radius can only make that worse; give up and
                    # fall back to the Babai point below.
                    break
                bound *= ESCALATION_FACTOR
                stats.radius_trace.append(bound)
            if incumbent is None:
                incumbent, bound = babai_point(
                    r, ybar, engine.constellation, metric=engine.metric
                )
                stats.truncated = max(stats.truncated, 1)
                _log.debug(
                    "sphere empty after escalation; falling back to Babai "
                    "point (metric %.4g)",
                    bound,
                )
        return np.asarray(incumbent), float(bound)

    @abc.abstractmethod
    def _search(self, engine, frame, n_tx, bound, incumbent, stats):
        """One full tree exploration under the given initial bound.

        ``frame`` is ``(points, rows, diag_points, ybar)`` as Python
        lists. Returns the best complete solution found (ascending-level
        indices) and its metric, or ``(incumbent, bound)`` unchanged
        when the sphere is empty.
        """

    @staticmethod
    def _fold_round(
        engine, stats, order, n_tx, lv, queue, levels, pools, pops, *,
        nodes, cmacs, pruned, leaves, radii, max_list, truncated, gemm_s,
    ):
        """Fold one round's local counters into ``stats``, once.

        ``lv``/``queue``/``levels``/``pools``/``pops`` as in
        :func:`_fold_levels`; ``nodes`` is the number of nodes expanded
        and ``pruned`` every prune, pop-prunes included. The FLOP count
        uses the sweeps' formulas: one CMAC per assigned symbol of every
        pool row, one NORM per child.
        """
        stats.nodes_expanded += nodes
        stats.nodes_generated += nodes * order
        stats.gemm_calls += len(levels)
        stats.gemm_flops += (
            FLOPS_PER_CMAC * cmacs + engine.metric.flops_per_norm * nodes * order
        )
        stats.nodes_pruned += pruned
        stats.leaves_reached += leaves
        stats.radius_updates += len(radii)
        stats.radius_trace += radii
        stats.max_list_size = max(stats.max_list_size, max_list)
        stats.truncated += truncated
        stats.gemm_time_s += gemm_s
        if engine.record_trace:
            stats.batches.extend(
                levels, [1] * len(levels) if pools is None else pools
            )
        if engine.level_acc is not None:
            _fold_levels(
                engine.level_acc, lv, queue, levels, pools, pops, order, n_tx,
                leaves,
            )


class BestFirstPolicy(_PooledTreePolicy):
    """Global priority queue on PD with same-level pooling (Alg. 1).

    Parameters
    ----------
    pool_size:
        Up to this many same-level frontier nodes are popped together
        and evaluated as one batch — the ``(level, pool)`` event the
        FPGA/CPU/GPU models price as one GEMM. 1 recovers pure
        best-first; larger pools trade a little search discipline for
        bigger (more FPGA/GPU-friendly) GEMMs. Never affects exactness —
        only nodes already inside the sphere are pooled.
    max_nodes:
        Optional safety cap on expanded nodes; when hit, the best
        incumbent so far is returned and ``stats.truncated`` is set.
    """

    strategy = "best-first"

    def __init__(self, *, pool_size: int = 8, max_nodes: int | None = None) -> None:
        super().__init__(max_nodes=max_nodes)
        self.pool_size = check_positive_int(pool_size, "pool_size")

    def _search(self, engine, frame, n_tx, bound, incumbent, stats):
        """One best-first round.

        Nodes are rows of three lists, ``lv`` (the level their children
        assign), ``pds`` and ``paths`` (root-first index tuples). The
        heap holds ``(pd, row)``: rows number nodes in admission order,
        so keys are unique and the pop order is fixed. A pool's child
        PDs land row-major in one flat list.
        """
        pts, rows, diag, ybar = frame
        p = len(pts)
        linf = type(engine.metric) is LInfinityMetric
        pool_size = self.pool_size
        children = range(p)
        cap = (
            None if self.max_nodes is None
            else self.max_nodes - stats.nodes_expanded
        )
        heappop, heappush = heapq.heappop, heapq.heappush
        perf = perf_counter
        lv = [n_tx - 1]
        pds = [0.0]
        paths = [()]
        heap = [(0.0, 0)]
        levels: list[int] = []  # level of every expansion, in order
        pools: list[int] = []  # its node count
        radii: list[float] = []
        n_nodes = pruned = leaves = cmacs = max_list = truncated = 0
        gemm_s = 0.0
        best = None  # (row, child) of the best leaf this round
        while heap:
            top = heap[0]
            if top[0] >= bound:
                break  # heap is PD-ordered: nothing left can improve
            heappop(heap)
            k = lv[top[1]]
            pool = [top[1]]
            while heap and len(pool) < pool_size:
                pd, row = heap[0]
                if pd >= bound or lv[row] != k:
                    break
                heappop(heap)
                pool.append(row)
            b = len(pool)
            rk = rows[k]
            dk = diag[k]
            yk = ybar[k]
            t0 = perf()
            child = []
            for row in pool:
                path = paths[row]
                pd = pds[row]
                if path:
                    # einsum order: zero start, ascending levels k+1 .. M-1.
                    acc = 0j
                    for s, rkj in zip(reversed(path), rk):
                        acc = acc + pts[s] * rkj
                    u = yk - acc
                else:
                    u = yk
                if linf:
                    for dc in dk:
                        e = u - dc
                        er = abs(e.real)
                        ei = abs(e.imag)
                        inc = er if er > ei else ei
                        child.append(pd if pd > inc else inc)
                else:
                    for dc in dk:
                        e = u - dc
                        er = e.real
                        ei = e.imag
                        child.append(pd + (er * er + ei * ei))
            gemm_s += perf() - t0
            levels.append(k)
            pools.append(b)
            n_nodes += b
            cmacs += b * (n_tx - 1 - k)
            if k == 0:
                # Leaves, row-major: first strict minimum, as np.argmin.
                v_best = child[0]
                i_best = 0
                n_in = 0
                i = 0
                for v in child:
                    if v < bound:
                        n_in += 1
                    if v < v_best:
                        v_best = v
                        i_best = i
                    i += 1
                leaves += n_in
                pruned += b * p - n_in
                if v_best < bound:
                    bound = v_best
                    best = (pool[i_best // p], i_best % p)
                    radii.append(bound)
            else:
                # Row-major admission (pool row, then child) fixes
                # the row numbers, and with them the heap's pop order.
                before = len(lv)
                k -= 1
                i = 0
                for row in pool:
                    path = paths[row]
                    for c in children:
                        v = child[i]
                        i += 1
                        if v < bound:
                            heappush(heap, (v, len(lv)))
                            lv.append(k)
                            pds.append(v)
                            paths.append(path + (c,))
                pruned += b * p - (len(lv) - before)
                if len(heap) > max_list:
                    max_list = len(heap)
            if cap is not None and n_nodes >= cap:
                truncated = 1
                break
        self._fold_round(
            engine, stats, p, n_tx, lv, heap, levels, pools, None,
            nodes=n_nodes, cmacs=cmacs, pruned=pruned, leaves=leaves,
            radii=radii, max_list=max_list, truncated=truncated, gemm_s=gemm_s,
        )
        if best is not None:
            row, c = best
            incumbent = np.array((c,) + paths[row][::-1], dtype=np.int64)
        return incumbent, bound


#: Visit orders of a DFS node's children: ``"natural"`` (constellation
#: index order) or ``"sorted"`` (ascending PD, stable on ties — the
#: Geosphere/Best-FS order, which finds good leaves and hence tight
#: radii early; paper section II-B / Fig. 3).
CHILD_ORDERS = ("natural", "sorted")


class DfsPolicy(_PooledTreePolicy):
    """Depth-first with per-level PD-sorted child insertion (Fig. 3).

    Parameters
    ----------
    child_ordering:
        One of :data:`CHILD_ORDERS` (default ``"sorted"``); fixes the
        stack push order.
    max_nodes:
        Optional safety cap on expanded nodes.
    """

    strategy = "dfs"

    def __init__(
        self, *, child_ordering: str = "sorted", max_nodes: int | None = None
    ) -> None:
        super().__init__(max_nodes=max_nodes)
        self.child_ordering = check_in(
            child_ordering, "child_ordering", CHILD_ORDERS
        )

    def _search(self, engine, frame, n_tx, bound, incumbent, stats):
        """One DFS round.

        Nodes are rows of two lists, ``lv`` (the level their children
        assign) and ``paths`` (root-first index tuples); the LIFO holds
        ``(pd, row)``. Pop-prunes are counted per level where they
        happen.
        """
        pts, rows, diag, ybar = frame
        p = len(pts)
        linf = type(engine.metric) is LInfinityMetric
        natural = self.child_ordering == "natural"
        children = range(p)
        cap = (
            None if self.max_nodes is None
            else self.max_nodes - stats.nodes_expanded
        )
        perf = perf_counter
        lv = [n_tx - 1]
        paths = [()]
        stack = [(0.0, 0)]
        levels: list[int] = []  # level of every expansion, in order
        pops = [0] * n_tx  # nodes pruned on pop, per level
        radii: list[float] = []
        pruned = leaves = cmacs = max_list = truncated = 0
        gemm_s = 0.0
        best = None  # (row, child) of the best leaf this round
        while stack:
            pd, row = stack.pop()
            if pd >= bound:
                # Admitted inside an older, looser sphere — prune on pop.
                pops[lv[row]] += 1
                continue
            k = lv[row]
            path = paths[row]
            t0 = perf()
            if path:
                # einsum order: zero start, ascending levels k+1 .. M-1.
                acc = 0j
                for s, rkj in zip(reversed(path), rows[k]):
                    acc = acc + pts[s] * rkj
                u = ybar[k] - acc
            else:
                u = ybar[k]
            child = []
            if linf:
                for dc in diag[k]:
                    e = u - dc
                    er = abs(e.real)
                    ei = abs(e.imag)
                    inc = er if er > ei else ei
                    child.append(pd if pd > inc else inc)
            else:
                for dc in diag[k]:
                    e = u - dc
                    er = e.real
                    ei = e.imag
                    child.append(pd + (er * er + ei * ei))
            gemm_s += perf() - t0
            levels.append(k)
            cmacs += len(path)
            if k == 0:
                # Leaves: first strict minimum, as np.argmin.
                v_best = child[0]
                c_best = 0
                n_in = 0
                for c in children:
                    v = child[c]
                    if v < bound:
                        n_in += 1
                    if v < v_best:
                        v_best = v
                        c_best = c
                leaves += n_in
                pruned += p - n_in
                if v_best < bound:
                    bound = v_best
                    best = (row, c_best)
                    radii.append(bound)
            else:
                # Push worst-first so the best child tops the LIFO.
                order = (
                    children if natural
                    else sorted(children, key=child.__getitem__)
                )
                before = len(stack)
                k -= 1
                for c in reversed(order):
                    v = child[c]
                    if v < bound:
                        stack.append((v, len(lv)))
                        lv.append(k)
                        paths.append(path + (c,))
                pruned += p - (len(stack) - before)
                if len(stack) > max_list:
                    max_list = len(stack)
            if cap is not None and len(levels) >= cap:
                truncated = 1
                break
        self._fold_round(
            engine, stats, p, n_tx, lv, stack, levels, None, pops,
            nodes=len(levels), cmacs=cmacs, pruned=pruned + sum(pops),
            leaves=leaves, radii=radii, max_list=max_list,
            truncated=truncated, gemm_s=gemm_s,
        )
        if best is not None:
            row, c = best
            incumbent = np.array((c,) + paths[row][::-1], dtype=np.int64)
        return incumbent, bound


class BfsPolicy(TraversalPolicy):
    """Level-synchronous frontier sweep (the [1]/GPU strategy).

    All of its pruning comes from the initial radius. If a level ends
    with an empty frontier and the radius policy seeded an incumbent
    (the Babai point), nothing inside the sphere beats it and it is
    returned; otherwise the radius escalates and the sweep restarts.
    Unlike the leaf-first policies, escalation continues even after a
    frontier truncation (the truncated sweep may simply have dropped the
    sphere's occupants).

    Parameters
    ----------
    max_frontier:
        Optional cap on the surviving frontier per level (K-best style
        truncation). ``None`` keeps every in-sphere node, as in [1] —
        exact *within the sphere* but memory-hungry for 16-QAM.
    """

    def __init__(self, *, max_frontier: int | None = None) -> None:
        self.max_frontier = (
            None
            if max_frontier is None
            else check_positive_int(max_frontier, "max_frontier")
        )

    def sweep(self, engine, n_tx, radius_sq, stats, tracer):
        """One full root-to-leaves BFS sweep under a fixed radius.

        Yields one :class:`ExpandRequest` per level and receives the
        child PDs. Returns the in-sphere leaf frontier, ``(paths, pds)``
        with root-first ``(L, n_tx)`` paths (at most ``max_frontier``
        of them), or ``None`` when the sphere is empty. The list
        detector's candidate list is this frontier.
        """
        cap = self.max_frontier

        def select(level, n_tx, child_pds, stats):
            keep_n, keep_c = np.nonzero(child_pds < radius_sq)
            stats.nodes_pruned += child_pds.size - keep_n.size
            if keep_n.size == 0:
                return None
            new_pds = child_pds[keep_n, keep_c]
            if cap is not None and keep_n.size > cap:
                # K-best truncation: keep the lowest-PD survivors.
                top = np.argpartition(new_pds, cap)[:cap]
                keep_n, keep_c, new_pds = keep_n[top], keep_c[top], new_pds[top]
                stats.truncated += 1
            return keep_n, keep_c, new_pds

        return (yield from _level_sweep(engine, n_tx, stats, select, tracer))

    def solve_gen(self, engine, r, ybar, noise_var, stats, tracer):
        n_tx = int(r.shape[1])
        init = engine.radius_policy.initial(
            r, ybar, engine.constellation, float(noise_var),
            metric=engine.metric,
        )
        radius_sq = float(init.radius_sq)
        stats.radius_trace.append(radius_sq)
        leaves = yield from self.sweep(engine, n_tx, radius_sq, stats, tracer)
        if leaves is None and init.incumbent_indices is not None:
            # The seed leaf sits on the sphere, outside the strict
            # ``pd < r^2`` test, so an empty sweep means nothing beats
            # it: it is the answer, as in the leaf-first shell.
            return np.asarray(init.incumbent_indices), radius_sq
        while leaves is None and engine.radius_policy.can_escalate():
            radius_sq *= ESCALATION_FACTOR
            stats.radius_trace.append(radius_sq)
            leaves = yield from self.sweep(engine, n_tx, radius_sq, stats, tracer)
        if leaves is None:
            stats.truncated += 1
            return babai_point(r, ybar, engine.constellation, metric=engine.metric)
        paths, pds = leaves
        best = int(np.argmin(pds))
        stats.radius_updates += 1
        stats.radius_trace.append(float(pds[best]))
        # paths are root-first (level M-1 .. 0); flip to ascending level.
        return paths[best, ::-1].copy(), float(pds[best])


class _SweepPolicy(TraversalPolicy):
    """Shared breadth-first sweep shape of the fixed-workload policies.

    K-best and FSD consult no radius policy at all: they sweep root to
    leaves exactly once, keeping survivors by their own rule, and the
    best surviving leaf is the decision. K-best records the decision
    metric as its one ``radius_trace`` entry (its survivor list acts as
    an implicit shrinking bound); FSD's schedule has no bound of any
    kind, so its trace stays empty.
    """

    #: Whether the final decision metric is logged as a radius update.
    final_metric_in_trace = True

    def solve_gen(self, engine, r, ybar, noise_var, stats, tracer):
        n_tx = int(r.shape[1])
        paths, pds = yield from _level_sweep(engine, n_tx, stats, self._select)
        best = int(np.argmin(pds))
        if self.final_metric_in_trace:
            stats.radius_updates += 1
            stats.radius_trace.append(float(pds[best]))
        # The generator protocol requires at least one yield before
        # returning, which the level loop always provides (n_tx >= 1).
        return paths[best, ::-1].copy(), float(pds[best])

    @abc.abstractmethod
    def _select(self, level, n_tx, child_pds, stats):
        """Choose the survivors of one level.

        Returns ``(keep_n, keep_c, pds)``: parent row indices, child
        column indices and the survivors' PDs.
        """


class KBestPolicy(_SweepPolicy):
    """Breadth-first with the K lowest-PD survivors per level.

    Parameters
    ----------
    k:
        Survivors kept per level. ``k >= P^M`` recovers exhaustive ML;
        small ``k`` trades BER for a hard workload bound. Typical
        hardware choices are 8–64.
    """

    def __init__(self, *, k: int = 16) -> None:
        self.k = check_positive_int(k, "k")

    def _select(self, level, n_tx, child_pds, stats):
        p = child_pds.shape[1]
        flat = child_pds.ravel()
        keep = min(self.k, flat.size)
        if keep < flat.size:
            chosen = np.argpartition(flat, keep)[:keep]
            stats.nodes_pruned += flat.size - keep
        else:
            chosen = np.arange(flat.size)
        keep_n, keep_c = np.divmod(chosen, p)
        return keep_n, keep_c, flat[chosen]


class FsdPolicy(_SweepPolicy):
    """Fixed-complexity schedule: full enumeration, then SIC.

    Parameters
    ----------
    rho:
        Number of fully-enumerated levels (``P^rho`` candidate paths).
        The classic choice for square systems is small (1 or 2).
    """

    final_metric_in_trace = False

    def __init__(self, *, rho: int = 1) -> None:
        self.rho = check_positive_int(rho, "rho")

    def _select(self, level, n_tx, child_pds, stats):
        width, p = child_pds.shape
        depth_from_root = n_tx - 1 - level
        if depth_from_root < self.rho:
            # Full-expansion phase: keep every child.
            keep_n = np.repeat(np.arange(width), p)
            keep_c = np.tile(np.arange(p), width)
            return keep_n, keep_c, child_pds.ravel().copy()
        # SIC phase: single best child per candidate.
        keep_n = np.arange(width)
        keep_c = np.argmin(child_pds, axis=1)
        return keep_n, keep_c, child_pds[keep_n, keep_c]


class BatchInfo(NamedTuple):
    """What :meth:`TraversalEngine.solve_batch` returns beside the outcomes.

    ``fused_gemm_calls`` counts the GEMMs the batch issued: one per
    lockstep level group for the sweeps; for the leaf-first searches,
    which decode frame by frame and share no GEMM, the sum of the
    frames' ``gemm_calls``.
    """

    fused_gemm_calls: int


class TraversalEngine:
    """One search policy bound to a constellation and radius schedule.

    Parameters
    ----------
    constellation:
        Symbol alphabet.
    policy:
        The :class:`TraversalPolicy` deciding the expansion schedule.
    radius_policy:
        Initial-radius strategy consulted by the radius-driven policies
        (best-FS / DFS / BFS); the fixed-workload policies (K-best, FSD)
        ignore it. ``None`` is only valid for the latter.
    metric:
        Partial-distance metric (name or
        :class:`~repro.core.metric.PartialDistanceMetric`); ``None``
        selects the ℓ₂ reference. Threaded to the channel kernel, the
        flop accounting and the radius policy, so every traversal policy
        composes with every metric — except the leaf-first policies,
        whose scalar loops implement ℓ₂ and ℓ∞ only (any other metric
        raises).
    record_trace:
        Keep the per-expansion :class:`BatchTrace` in the stats.

    When :attr:`level_acc` is set to a :class:`LevelAccumulator` sized
    to the tree depth (the detector layer does this when a metrics
    registry is live), every
    policy folds per-level traversal totals into it — nodes expanded,
    expansion batches and nodes pruned per tree level. The detector
    copies it into labelled registry counters once per ``detect`` or
    ``decode_batch``. ``None`` (the default) costs one attribute read
    per sweep level or search round.
    """

    def __init__(
        self,
        constellation,
        policy: TraversalPolicy,
        *,
        radius_policy=None,
        metric=None,
        record_trace: bool = True,
    ) -> None:
        self.constellation = constellation
        self.policy = policy
        self.radius_policy = radius_policy
        self.metric = resolve_metric(metric)
        # Decided once per engine: ``isinstance`` against an ABC costs a
        # Python-level ``__instancecheck__`` call.
        self._leaf_first = isinstance(policy, _PooledTreePolicy)
        if self._leaf_first and type(self.metric) not in (
            L2SquaredMetric, LInfinityMetric,
        ):
            raise ValueError(
                f"the {policy.strategy} loop supports the 'l2' and 'linf' "
                f"metrics, got {self.metric.name!r}"
            )
        self.record_trace = record_trace
        #: Optional per-level traversal accumulator (see class docstring).
        self.level_acc: LevelAccumulator | None = None

    def solve_gen(self, r, ybar, noise_var, stats, tracer):
        """The sweep policy's generator for one frame (see lockstep)."""
        return self.policy.solve_gen(self, r, ybar, noise_var, stats, tracer)

    def solve(self, r, ybar, noise_var, stats, tracer, *, kernel=None):
        """Solve one pre-triangularised frame; returns (indices, metric).

        ``kernel`` is an optional prebuilt
        :class:`~repro.core.gemm.ChannelKernel` for ``r`` — pass it when
        decoding many frames against one channel so the R validation and
        per-level precompute run once per block, not once per frame.
        The leaf-first policies run their scalar loop; a sweep is the
        one-frame case of :meth:`solve_batch`.
        """
        kernel = self._channel_kernel(r, kernel)
        ybar = check_vector(ybar, "ybar", length=kernel.n_tx)
        if not self._leaf_first:
            outcomes, _calls = self._drive_sweeps(
                r, ybar[None, :], noise_var, [stats], tracer, kernel
            )
            return outcomes[0]
        frame = (*kernel.scalar_tables(), ybar.astype(np.complex128).tolist())
        return self.policy.solve(self, r, ybar, noise_var, stats, tracer, frame)

    def solve_batch(self, r, ybars, noise_var, stats_list, *, kernel=None):
        """Solve ``B`` frames; returns ``(outcomes, info)``.

        ``outcomes[f]`` is frame ``f``'s ``(indices, metric)`` —
        bit-identical to per-frame :meth:`solve` — and ``info`` is a
        :class:`BatchInfo`. The sweeps run every frame's generator in
        lockstep, stacking same-level frontiers across frames into fused
        GEMMs; the leaf-first policies decode the frames one by one
        (their pools are too small for cross-frame fusion to pay).
        ``kernel`` as in :meth:`solve`.
        """
        kernel = self._channel_kernel(r, kernel)
        if not self._leaf_first:
            outcomes, calls = self._drive_sweeps(
                r, ybars, noise_var, stats_list, NULL_TRACER, kernel
            )
            return outcomes, BatchInfo(calls)
        outcomes = [
            self.solve(
                r, ybars[f], noise_var, stats_list[f], NULL_TRACER, kernel=kernel
            )
            for f in range(len(ybars))
        ]
        return outcomes, BatchInfo(sum(st.gemm_calls for st in stats_list))

    def _channel_kernel(self, r, kernel):
        """``kernel``, checked against the engine's metric, or a new one.

        A kernel's tables are metric-independent but its PDs are not:
        an ℓ∞ search on an ℓ₂ kernel (or vice versa) would corrupt the
        radius state, so a mismatch raises.
        """
        if kernel is None:
            return ChannelKernel(r, self.constellation, metric=self.metric)
        if kernel.metric.name != self.metric.name:
            raise ValueError(
                f"metric mismatch: the search requested {self.metric.name!r} "
                f"but the prebuilt ChannelKernel was prepared for "
                f"{kernel.metric.name!r}"
            )
        return kernel

    def _drive_sweeps(self, r, ybars, noise_var, stats_list, tracer, kernel):
        """Run one sweep generator per row of ``ybars`` in lockstep.

        Returns ``(outcomes, fused GEMM calls)``. GEMM time inside a
        fused call is not separable per frame; it is split evenly over
        the frames, mirroring ``decode_batch``'s wall-time attribution.
        ``tracer`` goes to the generators: only a lone frame may open
        spans across its yields.
        """
        searches = [
            self.solve_gen(r, ybars[f], noise_var, stats_list[f], tracer)
            for f in range(len(stats_list))
        ]
        outcomes, calls, seconds = drive_lockstep(
            searches, kernel, np.asarray(ybars, dtype=np.complex128)
        )
        share = seconds / max(len(stats_list), 1)
        for stats in stats_list:
            stats.gemm_time_s += share
        return outcomes, calls
