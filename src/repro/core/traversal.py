"""Unified tree-traversal engine: search policy x evaluation backend.

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
      Python lists with the evaluators' order of operations,
      bit-identical to them.
    * :class:`BfsPolicy` — level-synchronous frontier sweep (the GPU
      baseline of Arfaoui et al., one GEMM per level) — plus
      :class:`KBestPolicy` (K survivors per level; fixed-throughput
      hardware detector, not exact) and :class:`FsdPolicy` (full
      enumeration on ``rho`` levels, single-best-child SIC below; not
      exact) are sweeps: search **generators** over the
      :class:`~repro.core.lockstep.ExpandRequest` protocol that yield
      one frontier per level and receive its ``(B, P)`` child partial
      distances, never touching an evaluator directly.

``ScalarGemvBackend`` / ``FusedGemmBackend``
    How the sweeps' child PDs are computed. The scalar backend drives
    one frame's generator serially against a
    :class:`~repro.core.gemm.GemmEvaluator`; the fused backend runs many
    frames' generators in lockstep against a
    :class:`~repro.core.gemm.BatchedGemmEvaluator`, stacking same-level
    frontiers across frames into single BLAS-3 calls. Both produce
    bit-identical child PDs (shared ``_stacked_gemv`` kernel), so BFS,
    K-best and FSD get cross-frame batch decoding for free. Leaf-first
    batches decode frame by frame, with identical results.

``TraversalEngine``
    Binds a constellation, a policy and a radius policy. The detector
    classes in :mod:`repro.detectors` are thin configurations of this
    engine; all of them emit the uniform
    :class:`~repro.core.stats.BatchTrace` the FPGA pipeline
    simulator prices — a Best-FS pool is one ``(level, pool)`` event,
    whatever evaluated it.

Exactness of the best-first / DFS policies is property-tested against
brute force in ``tests/test_sphere_decoder_exactness.py``; equivalence
of the scalar and fused backends in ``tests/test_parallel_mc.py``, and
of the leaf-first loops and the compiled kernels in
``tests/test_compiled_engine.py``.
"""

from __future__ import annotations

import abc
import heapq
from time import perf_counter
from typing import NamedTuple

import numpy as np

from repro.core.enumeration import CHILD_ORDERS
from repro.core.gemm import (
    FLOPS_PER_CMAC,
    BatchedGemmEvaluator,
    ChannelKernel,
    GemmEvaluator,
    _check_metric_match,
)
from repro.core.lockstep import ExpandRequest, drive_lockstep, drive_serial
from repro.core.metric import L2SquaredMetric, LInfinityMetric, resolve_metric
from repro.core.radius import babai_point
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


class TraversalPolicy(abc.ABC):
    """What to expand next — a search schedule over the SD tree.

    A policy is stateless across decodes. The leaf-first policies
    (:class:`BestFirstPolicy`, :class:`DfsPolicy`) run their search
    through ``solve``; the sweep policies implement :meth:`solve_gen`,
    which returns a fresh generator per frame, so one policy instance
    can drive many interleaved frames (the fused backend relies on
    this).
    """

    def solve_gen(self, engine: "TraversalEngine", r, ybar, noise_var, stats, tracer):
        """Search generator for one frame's full sweep (sweep policies).

        Yields :class:`~repro.core.lockstep.ExpandRequest`s and returns
        ``(indices_by_level, reduced_metric)``; the backend chooses the
        evaluator (serial or cross-frame fused). ``tracer`` scopes any
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


class _MarkSample:
    """One solve's sampled ``sd.batch`` marks.

    The leaf-first loops append ``(t0, level, pool)`` rows, ``t0`` being
    the clock reading they take for ``gemm_time_s``: every pooled
    expansion, and every ``stride``-th single-node one from the first
    (``skip`` counts down across the solve's rounds). The engine hands
    the rows to :meth:`~repro.obs.Tracer.marks` once per solve.
    """

    __slots__ = ("rows", "stride", "skip")

    def __init__(self, stride: int) -> None:
        self.rows: list[tuple[float, int, int]] = []
        self.stride = stride
        self.skip = 1


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
    :meth:`ChannelKernel.scalar_tables`, whose arithmetic follows the
    matching :mod:`repro.core.compiled` kernel statement for statement
    (the same order of operations as the evaluators), so every
    decision, metric, counter and trace is bit-identical to the GEMM
    path. Only the ℓ₂ and ℓ∞ metrics are supported.
    """

    #: Strategy label used in ``sd.solve`` span args and detector attrs.
    strategy: str

    def __init__(self, *, max_nodes: int | None = None) -> None:
        self.max_nodes = (
            None if max_nodes is None else check_positive_int(max_nodes, "max_nodes")
        )

    def solve(self, engine, r, ybar, noise_var, stats, tracer, search):
        """The radius shell around one frame's search rounds.

        ``search(bound, incumbent)`` runs one full tree exploration
        under ``bound`` and returns the best complete solution found
        (ascending-level indices) and its metric — or ``(incumbent,
        bound)`` unchanged when the sphere is empty. The NumPy engine
        passes its scalar loop, the compiled engine its kernel.
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
                    incumbent, bound = search(bound, incumbent)
                if incumbent is not None or not engine.radius_policy.can_escalate():
                    break
                if stats.truncated:
                    # The search hit the node cap before finding any leaf —
                    # a larger radius can only make that worse; give up and
                    # fall back to the Babai point below.
                    break
                bound *= engine.radius_policy.escalation_factor
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
    def _search(self, engine, frame, n_tx, bound, incumbent, stats, marks):
        """One full tree exploration under the given initial bound.

        ``frame`` is ``(points, rows, diag_points, ybar)`` as Python
        lists and ``marks`` the solve's :class:`_MarkSample` (``None``
        when the tracer is off). Returns what the ``search`` callable of
        :meth:`solve` returns.
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
        uses the exact formulas of
        :class:`~repro.core.gemm.GemmEvaluator`.
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

    The search follows :func:`repro.core.compiled._best_first_kernel`
    statement for statement (see :class:`_PooledTreePolicy`).

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

    def _search(self, engine, frame, n_tx, bound, incumbent, stats, marks):
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
        if marks is not None:
            sampled, stride, skip = marks.rows, marks.stride, marks.skip
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
            if marks is not None:
                if b > 1:
                    sampled.append((t0, k, b))
                else:
                    skip -= 1
                    if not skip:
                        skip = stride
                        sampled.append((t0, k, 1))
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
                # Row-major admission (pool row, then child): the
                # kernel's push order, so rows number identically.
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
        if marks is not None:
            marks.skip = skip
        self._fold_round(
            engine, stats, p, n_tx, lv, heap, levels, pools, None,
            nodes=n_nodes, cmacs=cmacs, pruned=pruned, leaves=leaves,
            radii=radii, max_list=max_list, truncated=truncated, gemm_s=gemm_s,
        )
        if best is not None:
            row, c = best
            incumbent = np.array((c,) + paths[row][::-1], dtype=np.int64)
        return incumbent, bound


class DfsPolicy(_PooledTreePolicy):
    """Depth-first with per-level PD-sorted child insertion (Fig. 3).

    The search follows :func:`repro.core.compiled._dfs_kernel`
    statement for statement (see :class:`_PooledTreePolicy`).

    Parameters
    ----------
    child_ordering:
        ``"sorted"`` (Best-FS/Geosphere behaviour) or ``"natural"``;
        fixes the stack push order.
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

    def _search(self, engine, frame, n_tx, bound, incumbent, stats, marks):
        """One DFS round.

        Nodes are rows of two lists, ``lv`` (the level their children
        assign) and ``paths`` (root-first index tuples); the LIFO holds
        ``(pd, row)``. Pop-prunes are counted per level where they
        happen, as :func:`repro.core.compiled._dfs_kernel` keeps
        ``acc_pruned``.
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
        if marks is not None:
            sampled, stride, skip = marks.rows, marks.stride, marks.skip
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
            if marks is not None:
                skip -= 1
                if not skip:
                    skip = stride
                    sampled.append((t0, k, 1))
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
        if marks is not None:
            marks.skip = skip
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

    All of its pruning comes from the initial radius; if a level ends
    with an empty frontier the radius escalates and the sweep restarts.
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

    def _sweep(self, engine, n_tx, radius_sq, stats, tracer):
        """One full root-to-leaves BFS sweep under a fixed radius.

        Yields one :class:`ExpandRequest` per level and receives the
        child PDs. Returns ``(best_indices_by_level, best_metric)`` or
        ``(None, inf)`` when the sphere is empty.
        """
        p = engine.constellation.order
        # Frontier state: (F, depth) root-first index paths + (F,) PDs.
        paths = np.empty((1, 0), dtype=np.int64)
        pds = np.zeros(1, dtype=float)
        for level in range(n_tx - 1, -1, -1):
            with tracer.span("bfs.level", level=level, frontier=paths.shape[0]):
                child_pds = yield ExpandRequest(level, paths, pds)  # (F, P)
            frontier = paths.shape[0]
            stats.nodes_expanded += frontier
            stats.nodes_generated += frontier * p
            stats.gemm_calls += 1
            depth = n_tx - 1 - level
            if depth:
                stats.gemm_flops += FLOPS_PER_CMAC * frontier * depth
            stats.gemm_flops += engine.metric.flops_per_norm * frontier * p
            if engine.record_trace:
                stats.batches.append(level, frontier)
            keep_n, keep_c = np.nonzero(child_pds < radius_sq)
            stats.nodes_pruned += frontier * p - keep_n.size
            acc = engine.level_acc
            if acc is not None:
                acc.nodes[level] += frontier
                acc.exps[level] += 1
                acc.pruned[level] += frontier * p - keep_n.size
            if keep_n.size == 0:
                return None, float("inf")
            new_pds = child_pds[keep_n, keep_c]
            if self.max_frontier is not None and keep_n.size > self.max_frontier:
                # K-best truncation: keep the lowest-PD survivors.
                top = np.argpartition(new_pds, self.max_frontier)[
                    : self.max_frontier
                ]
                keep_n, keep_c, new_pds = keep_n[top], keep_c[top], new_pds[top]
                stats.truncated += 1
            paths = extend_paths(paths, keep_n, keep_c)
            pds = new_pds
            stats.max_list_size = max(stats.max_list_size, paths.shape[0])
        stats.leaves_reached += paths.shape[0]
        best = int(np.argmin(pds))
        stats.radius_updates += 1
        stats.radius_trace.append(float(pds[best]))
        # paths are root-first (level M-1 .. 0); flip to ascending level.
        return paths[best, ::-1].copy(), float(pds[best])

    def solve_gen(self, engine, r, ybar, noise_var, stats, tracer):
        n_tx = int(r.shape[1])
        init = engine.radius_policy.initial(
            r, ybar, engine.constellation, float(noise_var),
            metric=engine.metric,
        )
        radius_sq = float(init.radius_sq)
        stats.radius_trace.append(radius_sq)
        best, metric = yield from self._sweep(engine, n_tx, radius_sq, stats, tracer)
        while best is None and engine.radius_policy.can_escalate():
            radius_sq *= engine.radius_policy.escalation_factor
            stats.radius_trace.append(radius_sq)
            best, metric = yield from self._sweep(
                engine, n_tx, radius_sq, stats, tracer
            )
        if best is None:
            best, metric = babai_point(
                r, ybar, engine.constellation, metric=engine.metric
            )
            stats.truncated += 1
        return best, metric


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
        p = engine.constellation.order
        paths = np.empty((1, 0), dtype=np.int64)
        pds = np.zeros(1, dtype=float)
        for level in range(n_tx - 1, -1, -1):
            child_pds = yield ExpandRequest(level, paths, pds)
            width = paths.shape[0]
            stats.nodes_expanded += width
            stats.nodes_generated += width * p
            stats.gemm_calls += 1
            depth = n_tx - 1 - level
            if depth:
                stats.gemm_flops += FLOPS_PER_CMAC * width * depth
            stats.gemm_flops += engine.metric.flops_per_norm * width * p
            if engine.record_trace:
                stats.batches.append(level, width)
            pruned_before = stats.nodes_pruned
            keep_n, keep_c, pds = self._select(level, n_tx, child_pds, stats)
            acc = engine.level_acc
            if acc is not None:
                acc.nodes[level] += width
                acc.exps[level] += 1
                acc.pruned[level] += stats.nodes_pruned - pruned_before
            paths = extend_paths(paths, keep_n, keep_c)
            stats.max_list_size = max(stats.max_list_size, paths.shape[0])
        stats.leaves_reached += paths.shape[0]
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


class ScalarGemvBackend:
    """Per-frame serial PD evaluation (one GEMM per sweep level).

    Drives a single frame's sweep generator to completion against a
    :class:`~repro.core.gemm.GemmEvaluator` — the CPU reference path.
    Passing a prebuilt :class:`~repro.core.gemm.ChannelKernel` skips the
    per-frame R validation and per-level precompute (block fading: R is
    shared by every frame of a block).
    """

    def run(self, engine, r, ybar, noise_var, stats, tracer, *, kernel=None):
        evaluator = GemmEvaluator(
            r, ybar, engine.constellation, kernel=kernel, metric=engine.metric
        )
        result = drive_serial(
            engine.solve_gen(r, ybar, noise_var, stats, tracer), evaluator
        )
        stats.gemm_time_s += evaluator.gemm_time_s
        return result


class FusedGemmBackend:
    """Cross-frame fused PD evaluation (the BLAS-2 -> BLAS-3 refactor).

    Runs ``B`` frames' sweep generators in lockstep against one
    :class:`~repro.core.gemm.BatchedGemmEvaluator`, stacking same-level
    frontiers into single GEMMs. Generators run with ``NULL_TRACER``:
    the span stack is per-context, not per-frame, so spans opened across
    yields of interleaved frames would corrupt the nesting.

    After :meth:`run`, :attr:`fused_gemm_calls` holds the number of
    cross-frame GEMMs the batch actually issued.
    """

    def __init__(self) -> None:
        self.fused_gemm_calls = 0

    def run(self, engine, r, ybars, noise_var, stats_list, *, kernel=None):
        evaluator = BatchedGemmEvaluator(
            r, ybars, engine.constellation, kernel=kernel, metric=engine.metric
        )
        searches = [
            engine.solve_gen(r, ybars[f], noise_var, stats_list[f], NULL_TRACER)
            for f in range(ybars.shape[0])
        ]
        outcomes = drive_lockstep(searches, evaluator)
        self.fused_gemm_calls = evaluator.fused_gemm_calls
        # GEMM time inside a fused call is not separable per frame; split
        # it evenly, mirroring decode_batch's wall-time attribution.
        share = evaluator.gemm_time_s / max(len(stats_list), 1)
        for stats in stats_list:
            stats.gemm_time_s += share
        return outcomes


class SerialBatch(NamedTuple):
    """What :meth:`TraversalEngine.solve_batch` returns for per-frame decodes.

    Frames decoded one after another share no GEMM, so
    ``fused_gemm_calls`` is the sum of their per-frame ``gemm_calls``.
    """

    fused_gemm_calls: int


def build_engine(
    engine: str,
    constellation,
    policy: "TraversalPolicy",
    *,
    radius_policy=None,
    metric=None,
    record_trace: bool = True,
) -> "TraversalEngine":
    """Construct a :class:`TraversalEngine` for the named ``engine``.

    ``"numpy"`` builds the reference engine defined here;
    ``"compiled"`` builds the fused-kernel
    :class:`~repro.core.compiled.CompiledTraversalEngine` (imported
    lazily so :mod:`repro.core.traversal` never depends on the optional
    Numba machinery). Callers are expected to have resolved
    availability already (:func:`repro.core.compiled.resolve_engine`);
    passing ``"compiled"`` here always builds the compiled engine, which
    runs interpreted when Numba is absent.
    """
    check_in(engine, "engine", ("numpy", "compiled"))
    if engine == "compiled":
        from repro.core.compiled import CompiledTraversalEngine

        return CompiledTraversalEngine(
            constellation,
            policy,
            radius_policy=radius_policy,
            metric=metric,
            record_trace=record_trace,
        )
    return TraversalEngine(
        constellation,
        policy,
        radius_policy=radius_policy,
        metric=metric,
        record_trace=record_trace,
    )


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
        selects the ℓ₂ reference. Threaded to the evaluators, the flop
        accounting and the radius policy, so every traversal policy
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
        The leaf-first policies run their scalar loop; the sweeps run
        against a :class:`ScalarGemvBackend`.
        """
        policy = self.policy
        if not self._leaf_first:
            return ScalarGemvBackend().run(
                self, r, ybar, noise_var, stats, tracer, kernel=kernel
            )
        if kernel is None:
            kernel = ChannelKernel(r, self.constellation, metric=self.metric)
        _check_metric_match(kernel, self.metric)
        ybar_c = check_vector(ybar, "ybar", length=kernel.n_tx).astype(
            np.complex128
        )
        frame = (*kernel.scalar_tables(), ybar_c.tolist())
        n_tx = kernel.n_tx
        marks = _MarkSample(tracer.mark_stride) if tracer.enabled else None

        def search(bound, incumbent):
            return policy._search(
                self, frame, n_tx, bound, incumbent, stats, marks
            )

        result = policy.solve(self, r, ybar, noise_var, stats, tracer, search)
        if marks is not None:
            tracer.marks("sd.batch", marks.rows)
        return result

    def solve_batch(self, r, ybars, noise_var, stats_list, *, kernel=None):
        """Solve ``B`` frames; returns ``(outcomes, backend)``.

        ``outcomes[f]`` is frame ``f``'s ``(indices, metric)`` —
        bit-identical to per-frame :meth:`solve` — and the backend
        exposes ``fused_gemm_calls``. The leaf-first policies decode the
        frames one by one (a :class:`SerialBatch`): their pools are too
        small for cross-frame fusion to pay. The sweeps stack same-level
        frontiers across frames into fused GEMMs (a
        :class:`FusedGemmBackend`). ``kernel`` as in :meth:`solve`.
        """
        if not self._leaf_first:
            backend = FusedGemmBackend()
            outcomes = backend.run(
                self, r, ybars, noise_var, stats_list, kernel=kernel
            )
            return outcomes, backend
        if kernel is None:
            kernel = ChannelKernel(r, self.constellation, metric=self.metric)
        outcomes = [
            self.solve(
                r, ybars[f], noise_var, stats_list[f], NULL_TRACER, kernel=kernel
            )
            for f in range(len(ybars))
        ]
        return outcomes, SerialBatch(sum(st.gemm_calls for st in stats_list))
