"""Unified tree-traversal engine: search policy x partial-distance kernel.

The paper's central claim is that one sphere-decoding algorithm can be
re-targeted across execution substrates (CPU BLAS-3, GPU, FPGA dataflow)
because *what to expand next* is separable from *how partial distances
are evaluated*. This module is that separation made concrete:

``TraversalPolicy``
    What to expand next. Two shapes:

    * :class:`BestFirstPolicy` (global priority queue on PD with
      same-level pooling, the paper's Best-FS, Alg. 1),
      :class:`DfsPolicy` (LIFO with PD-sorted child insertion, the
      sorted DFS of Fig. 3) and :class:`PartitionedPolicy` (that DFS
      split over cooperating processing entities, section V) are
      leaf-first searches. Their pools are a node or a few, too small
      to amortise a GEMM call, so each evaluates its own partial
      distances in one scalar loop over the channel's lookup tables
      (:meth:`~repro.core.gemm.ChannelKernel.scalar_tables`): one
      lookup-add of a tabled ``R[k, j] * omega`` product per assigned
      symbol and a NORM step on float pairs, in
      :meth:`~repro.core.gemm.ChannelKernel.expand`'s order of
      operations and bit-identical to it. A node's state (PD, level,
      leaf-first path offsets) lives in its heap or stack entry and is
      freed when the entry is popped. Their batches decode frame by
      frame.
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
from itertools import product
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
    expansion in ``stats``.
    ``select(level, n_tx, child_pds, stats)`` returns the survivors
    ``(keep_n, keep_c, pds)`` — parent rows, child columns, PDs — and
    books every child it does not keep in ``stats.nodes_pruned``, or
    returns ``None`` to end the sweep empty.
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
        kept = select(level, n_tx, child_pds, stats)
        if kept is None:
            return None
        keep_n, keep_c, pds = kept
        paths = extend_paths(paths, keep_n, keep_c)
        stats.max_list_size = max(stats.max_list_size, paths.shape[0])
    stats.leaves_reached += paths.shape[0]
    return paths, pds


class TraversalPolicy(abc.ABC):
    """What to expand next — a search schedule over the SD tree.

    A policy carries no search state from one decode into the next;
    :class:`PartitionedPolicy` only keeps the last frame's per-PE
    counts for reading. The leaf-first policies (:class:`BestFirstPolicy`,
    :class:`DfsPolicy`, :class:`PartitionedPolicy`) run their search
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


class _PooledTreePolicy(TraversalPolicy):
    """Shared solve shape of the leaf-first (best-FS / DFS / partitioned)
    policies.

    Owns the radius schedule the paper's decoder uses: initial radius
    from the engine's radius policy, geometric escalation while the
    sphere is empty — abandoned once the node cap truncates a search,
    since a larger radius can only expand the workload — and a Babai
    fallback when every escalation came back empty.

    Each round is one call of ``_search``: a scalar loop over the
    tables of :meth:`ChannelKernel.scalar_tables`, whose arithmetic
    follows :meth:`ChannelKernel.expand`'s order of operations, so
    every decision, metric, counter and trace is bit-identical to the
    GEMM path. Only the ℓ₂ and ℓ∞ metrics are supported.
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

        ``frame`` is ``(cross, diag, heads, ybar)``: the channel's
        :meth:`ChannelKernel.scalar_tables` and the frame's rotated
        receive vector as Python complexes. A node's path is the tuple
        of its assigned symbols' offsets, leaf-first (level ``k+1``
        first), so its level-``k`` interference is the left fold
        ``acc = acc + cross[k][o]`` over it and a child assigning ``c``
        at level ``k`` extends it as ``heads[k][c] + path``. Returns the
        best complete solution found (ascending-level indices, decoded
        from the leaf's offsets) and its metric, or
        ``(incumbent, bound)`` unchanged when the sphere is empty.
        """

    @staticmethod
    def _fold_round(
        engine, stats, order, levels, pools, *,
        nodes, cmacs, pruned, leaves, radii, max_list, truncated, gemm_s,
    ):
        """Fold one round's local counters into ``stats``, once.

        ``levels``/``pools`` hold the level and node count of every
        expansion (``pools`` is ``None`` when every expansion is a single
        node); ``nodes`` is the number of nodes expanded and ``pruned``
        every prune, pop-prunes included. The FLOP count uses the
        sweeps' formulas: one CMAC per assigned symbol of every pool
        row, one NORM per child.
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

        A node is its heap entry ``(pd, row, level, path)``: ``level``
        is the level its children assign and ``path`` its leaf-first
        offset tuple (:meth:`ChannelKernel.scalar_tables`). ``row``
        numbers entries in admission order, so keys are unique, the pop
        order is fixed and comparisons never reach ``level`` or
        ``path``. A pool's child PDs land row-major in one flat list.
        """
        cross, diag, heads, ybar = frame
        p = len(heads[0])
        linf = type(engine.metric) is LInfinityMetric
        pool_size = self.pool_size
        cap = (
            None if self.max_nodes is None
            else self.max_nodes - stats.nodes_expanded
        )
        heappop, heappush = heapq.heappop, heapq.heappush
        perf = perf_counter
        heap = [(0.0, 0, n_tx - 1, ())]
        rows = 1  # heap entries admitted so far
        levels: list[int] = []  # level of every expansion, in order
        pools: list[int] = []  # its node count
        radii: list[float] = []
        n_nodes = pruned = leaves = cmacs = max_list = truncated = 0
        gemm_s = 0.0
        best = None  # (path, child) of the best leaf this round
        while heap:
            top = heap[0]
            if top[0] >= bound:
                break  # heap is PD-ordered: nothing left can improve
            heappop(heap)
            k = top[2]
            pool = [top]
            while heap and len(pool) < pool_size:
                top = heap[0]
                if top[0] >= bound or top[2] != k:
                    break
                heappop(heap)
                pool.append(top)
            b = len(pool)
            tk = cross[k]
            dk = diag[k]
            yk = ybar[k]
            t0 = perf()
            child = []
            for pd, _row, _level, path in pool:
                # einsum order: zero start, ascending levels k+1 .. M-1.
                acc = 0j
                for o in path:
                    acc = acc + tk[o]
                u = yk - acc
                ur = u.real
                ui = u.imag
                if linf:
                    for dr, di in dk:
                        er = abs(ur - dr)
                        ei = abs(ui - di)
                        inc = er if er > ei else ei
                        child.append(pd if pd > inc else inc)
                else:
                    for dr, di in dk:
                        er = ur - dr
                        ei = ui - di
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
                    best = (pool[i_best // p][3], i_best % p)
                    radii.append(bound)
            else:
                # Row-major admission (pool row, then child) fixes the
                # admission counter, and with it the heap's pop order.
                before = rows
                hk = heads[k]
                k -= 1
                i = 0
                for entry in pool:
                    path = entry[3]
                    for head in hk:
                        v = child[i]
                        i += 1
                        if v < bound:
                            heappush(heap, (v, rows, k, head + path))
                            rows += 1
                pruned += b * p - (rows - before)
                if len(heap) > max_list:
                    max_list = len(heap)
            if cap is not None and n_nodes >= cap:
                truncated = 1
                break
        self._fold_round(
            engine, stats, p, levels, pools, nodes=n_nodes, cmacs=cmacs,
            pruned=pruned, leaves=leaves, radii=radii, max_list=max_list,
            truncated=truncated, gemm_s=gemm_s,
        )
        if best is not None:
            incumbent = _decision(*best, p)
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

        A node is its stack entry ``(pd, level, path)``: ``level`` is
        the level its children assign and ``path`` its leaf-first
        offset tuple (:meth:`ChannelKernel.scalar_tables`).
        """
        cross, diag, heads, ybar = frame
        p = len(heads[0])
        linf = type(engine.metric) is LInfinityMetric
        natural = self.child_ordering == "natural"
        children = range(p)
        cap = (
            None if self.max_nodes is None
            else self.max_nodes - stats.nodes_expanded
        )
        perf = perf_counter
        stack = [(0.0, n_tx - 1, ())]
        levels: list[int] = []  # level of every expansion, in order
        radii: list[float] = []
        pruned = leaves = cmacs = max_list = truncated = 0
        gemm_s = 0.0
        best = None  # (path, child) of the best leaf this round
        while stack:
            pd, k, path = stack.pop()
            if pd >= bound:
                # Admitted inside an older, looser sphere — prune on pop.
                pruned += 1
                continue
            tk = cross[k]
            t0 = perf()
            # einsum order: zero start, ascending levels k+1 .. M-1.
            acc = 0j
            for o in path:
                acc = acc + tk[o]
            u = ybar[k] - acc
            ur = u.real
            ui = u.imag
            child = []
            if linf:
                for dr, di in diag[k]:
                    er = abs(ur - dr)
                    ei = abs(ui - di)
                    inc = er if er > ei else ei
                    child.append(pd if pd > inc else inc)
            else:
                for dr, di in diag[k]:
                    er = ur - dr
                    ei = ui - di
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
                    best = (path, c_best)
                    radii.append(bound)
            else:
                # Push worst-first so the best child tops the LIFO.
                order = (
                    children if natural
                    else sorted(children, key=child.__getitem__)
                )
                before = len(stack)
                hk = heads[k]
                k -= 1
                for c in reversed(order):
                    v = child[c]
                    if v < bound:
                        stack.append((v, k, hk[c] + path))
                pruned += p - (len(stack) - before)
                if len(stack) > max_list:
                    max_list = len(stack)
            if cap is not None and len(levels) >= cap:
                truncated = 1
                break
        self._fold_round(
            engine, stats, p, levels, None, nodes=len(levels), cmacs=cmacs,
            pruned=pruned, leaves=leaves, radii=radii, max_list=max_list,
            truncated=truncated, gemm_s=gemm_s,
        )
        if best is not None:
            incumbent = _decision(*best, p)
        return incumbent, bound


def _append_child_pds(child, tk, dk, yk, path, pd, linf):
    """Append one node's child PDs to ``child``, with the Best-FS / DFS
    loops' arithmetic (:meth:`ChannelKernel.expand`'s order) on the
    level's ``cross`` and ``diag`` tables."""
    acc = 0j
    for o in path:
        acc = acc + tk[o]
    u = yk - acc
    ur = u.real
    ui = u.imag
    for dr, di in dk:
        er = ur - dr
        ei = ui - di
        if linf:
            er = abs(er)
            ei = abs(ei)
            inc = er if er > ei else ei
            child.append(pd if pd > inc else inc)
        else:
            child.append(pd + (er * er + ei * ei))


def _decision(path, c, order):
    """Ascending-level indices of the leaf that assigns ``c`` at level 0
    below a node with leaf-first offsets ``path``."""
    return np.array([c] + [o % order for o in path], dtype=np.int64)


class PartitionedPolicy(_PooledTreePolicy):
    """Sorted DFS split over ``n_pes`` cooperating processing entities.

    A search round grows the tree level by level, one pooled expansion
    per level, until it holds ``n_pes`` sub-trees (leaves met on the way
    are accepted in order), deals them best-first round-robin onto the
    PEs, then runs lock-step rounds: every PE with work pops one node,
    prunes it if the shared bound has moved past it, or expands it as
    the sorted DFS does. A better leaf on any PE shrinks the shared
    bound, a radius broadcast (sync event) to the others. The policy
    keeps the last frame's per-PE expansions and sync events, summed
    over its search rounds, for :meth:`makespan_expansions`.

    Parameters
    ----------
    n_pes:
        Processing entities; 1 is a sorted DFS after the root expansion.
    max_rounds:
        Optional cap on the lock-step rounds of each search round; when
        hit, the best incumbent so far is returned and
        ``stats.truncated`` is set.
    """

    strategy = "partitioned"

    def __init__(self, *, n_pes: int = 4, max_rounds: int | None = None) -> None:
        super().__init__()
        self.n_pes = check_positive_int(n_pes, "n_pes")
        self.max_rounds = (
            None if max_rounds is None else check_positive_int(max_rounds, "max_rounds")
        )
        self.last_pe_expansions: list[int] = []
        self.last_sync_events = 0

    def solve(self, engine, r, ybar, noise_var, stats, tracer, frame):
        """The radius shell's :meth:`_PooledTreePolicy.solve`, with the
        frame's PE counts reset first."""
        self.last_pe_expansions = [0] * self.n_pes
        self.last_sync_events = 0
        return super().solve(engine, r, ybar, noise_var, stats, tracer, frame)

    def makespan_expansions(self) -> int:
        """Busiest PE's expansion count of the last decoded frame: the
        parallel latency bound of a replicated-pipeline implementation."""
        if not self.last_pe_expansions:
            raise RuntimeError("no decode has run yet")
        return max(self.last_pe_expansions)

    def _search(self, engine, frame, n_tx, bound, incumbent, stats):
        """One partitioned round.

        The partitioning frontier holds one level's nodes as
        ``(pd, row, path)``, ``row`` an admission counter that makes the
        best-first deal's sort keys unique; the PE stacks hold the
        sorted DFS's ``(pd, level, path)`` entries. ``path`` is the
        leaf-first offset tuple (:meth:`ChannelKernel.scalar_tables`).
        """
        cross, diag, heads, ybar = frame
        p = len(heads[0])
        linf = type(engine.metric) is LInfinityMetric
        n_pes = self.n_pes
        children = range(p)
        perf = perf_counter
        levels: list[int] = []  # level of every expansion, in order
        pools: list[int] = []  # its node count
        radii: list[float] = []
        pruned = leaves = cmacs = max_list = truncated = 0
        gemm_s = 0.0
        best = None  # (path, child) of the best leaf this round
        # Partitioning: expand the whole frontier, one level at a time.
        frontier = [(0.0, 0, ())]
        rows = 1  # frontier entries admitted so far
        k = n_tx - 1
        while True:
            pool, frontier, child = frontier, [], []
            t0 = perf()
            for pd, _row, path in pool:
                _append_child_pds(child, cross[k], diag[k], ybar[k], path, pd, linf)
            gemm_s += perf() - t0
            levels.append(k)
            pools.append(len(pool))
            cmacs += len(pool) * (n_tx - 1 - k)
            hk = heads[k]
            for v, ((_pd, _row, path), c) in zip(child, product(pool, children)):
                if v >= bound:
                    continue
                if k == 0:
                    # Leaves are accepted in order, each a new bound.
                    leaves += 1
                    bound = v
                    best = (path, c)
                    radii.append(v)
                else:
                    frontier.append((v, rows, hk[c] + path))
                    rows += 1
            # ``leaves`` stays 0 until the last level, which admits none.
            pruned += len(pool) * p - len(frontier) - leaves
            if k == 0 or len(frontier) >= n_pes or not frontier:
                break
            k -= 1
        # Deal best-first round-robin, each PE's lowest PD on top.
        frontier.sort()
        stacks = [
            [(pd, k - 1, path) for pd, _row, path in frontier[pe::n_pes][::-1]]
            for pe in range(n_pes)
        ]
        waiting = len(frontier)  # nodes on all stacks
        pe_exps = self.last_pe_expansions
        rounds = 0
        while waiting:
            rounds += 1
            if self.max_rounds is not None and rounds > self.max_rounds:
                truncated = 1
                break
            for pe, stack in enumerate(stacks):
                if not stack:
                    continue
                pd, k, path = stack.pop()
                waiting -= 1
                if pd >= bound:
                    pruned += 1
                    continue
                t0 = perf()
                child = []
                _append_child_pds(child, cross[k], diag[k], ybar[k], path, pd, linf)
                gemm_s += perf() - t0
                levels.append(k)
                pools.append(1)
                cmacs += len(path)
                pe_exps[pe] += 1
                if k == 0:
                    n_in = sum(v < bound for v in child)
                    leaves += n_in
                    pruned += p - n_in
                    v = min(child)  # its first index is np.argmin's
                    if v < bound:
                        bound = v
                        best = (path, child.index(v))
                        radii.append(v)
                        self.last_sync_events += 1
                else:
                    # Push worst-first so the best child tops the LIFO.
                    before = len(stack)
                    hk = heads[k]
                    for c in reversed(sorted(children, key=child.__getitem__)):
                        if child[c] < bound:
                            stack.append((child[c], k - 1, hk[c] + path))
                    pushed = len(stack) - before
                    waiting += pushed
                    pruned += p - pushed
                if waiting > max_list:
                    max_list = waiting
        self._fold_round(
            engine, stats, p, levels, pools, nodes=sum(pools), cmacs=cmacs,
            pruned=pruned, leaves=leaves, radii=radii, max_list=max_list,
            truncated=truncated, gemm_s=gemm_s,
        )
        if best is not None:
            incumbent = _decision(*best, p)
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
                stats.nodes_pruned += keep_n.size - cap
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
        stats.nodes_pruned += width * (p - 1)
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
        (best-FS / DFS / partitioned / BFS); the fixed-workload policies (K-best, FSD)
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
        #: Whether the policy is a leaf-first scalar loop (Best-FS, DFS,
        #: partitioned), which reads :meth:`ChannelKernel.scalar_tables`.
        #: Decided once per engine: ``isinstance`` against an ABC costs a
        #: Python-level ``__instancecheck__`` call.
        self.leaf_first = isinstance(policy, _PooledTreePolicy)
        if self.leaf_first and type(self.metric) not in (
            L2SquaredMetric, LInfinityMetric,
        ):
            raise ValueError(
                f"the {policy.strategy} loop supports the 'l2' and 'linf' "
                f"metrics, got {self.metric.name!r}"
            )
        self.record_trace = record_trace

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
        if not self.leaf_first:
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
        if not self.leaf_first:
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
