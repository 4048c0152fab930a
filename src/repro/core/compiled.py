"""Compiled traversal engine: the pop/expand/prune loop as nopython kernels.

The NumPy :class:`~repro.core.traversal.TraversalEngine` runs its
leaf-first searches as scalar loops over Python lists — interpreter
bound by construction. This module holds the same per-search loops
(heap/stack scheduling, child PD evaluation, radius pruning, admission,
leaf acceptance) as two fused Numba ``nopython`` kernels operating
directly on flat structure-of-arrays state (``pd``/``level``/``path``
row arrays) plus the :class:`~repro.core.gemm.ChannelKernel` per-level
``diag_points``/``rows`` tables:

:func:`_best_first_kernel`
    Best-first heap pop with same-level pooling (Alg. 1), exactly the
    schedule of :class:`~repro.core.traversal.BestFirstPolicy`.
:func:`_dfs_kernel`
    LIFO stack with PD-sorted (or natural) child insertion, exactly the
    schedule of :class:`~repro.core.traversal.DfsPolicy`.

Both kernels cover the ℓ₂ (add-accumulate) and ℓ∞ (max-accumulate)
partial-distance metrics and run one *search* (one radius attempt); the
radius-escalation schedule, Babai fallback and all tracer spans stay in
Python, in the radius shell both engines share
(``_PooledTreePolicy.solve``).

Bit-identity contract
---------------------
Every arithmetic expression reproduces the evaluators' operations in
the same order (the golden-decode suite replays both engines against
the same recorded outputs, and a property test compares the NumPy
engine's scalar loops with these kernels decode for decode):

* The interference accumulation matches ``np.einsum("bm,m->b", ...)``:
  a zero-initialised complex accumulator summed in ascending row order.
* The error term uses the same two sequential subtractions
  (``(ybar_k - shared) - diag_point``) for ``depth > 0`` and the single
  subtraction for root expansions, exactly as
  :meth:`~repro.core.gemm.GemmEvaluator.expand_unchecked`.
* The heap orders entries by ``(pd, row)`` with unique rows — a strict
  total order — so any correct binary min-heap pops in the identical
  sequence regardless of internal layout.
* ``"sorted"`` child ordering is a stable insertion sort, the same
  permutation as ``np.argsort(kind="stable")``.

Counter reconstruction
----------------------
The kernels do not touch :class:`~repro.core.stats.DecodeStats` (a
Python object) on the hot path. Instead they return flat recordings —
per-expansion ``(level, pool)`` pairs, radius improvements, per-level
prune counts — from which :meth:`CompiledTraversalEngine` rebuilds all
nine counters, the :class:`~repro.core.stats.BatchTrace`, the
radius trace and the :class:`~repro.core.traversal.LevelAccumulator`
rows *exactly* (same totals, same event order). The only telemetry the
compiled engine does not produce is the sampled ``sd.batch`` tracer
*marks* (timeline samples, not counters); all counters and metrics stay
exact.

Timing semantics (``DecodeStats.gemm_time_s``)
----------------------------------------------
Under the compiled engine the GEMM and the search bookkeeping are fused
into one kernel, so ``gemm_time_s`` times the whole jitted region (the
kernel call), excluding first-call compilation (:func:`warmup_kernels`
runs before any timed region). ``host_overhead_s`` is then the Python
shell around the kernels — radius scheduling, counter reconstruction —
which keeps ``repro-sd profile diff`` attribution meaningful across
engines: the compiled engine's win shows up precisely as host overhead
collapsing.

Numba is optional (``pip install .[compiled]``). When it is absent the
kernels remain plain Python functions; :func:`compiled_available`
reports whether the compiled engine may be selected, and
:func:`resolve_engine` degrades ``"compiled"`` to ``"numpy"`` with a
single :class:`RuntimeWarning`. Setting the environment variable
``REPRO_COMPILED_INTERPRET=1`` opts in to running the kernels *without*
Numba (pure-Python execution of the same code) — far slower than the
NumPy engine, but bit-identical to the jitted path, which is how the
test suite exercises the compiled code on hosts without Numba.
"""

from __future__ import annotations

import os
import warnings
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from repro.core.gemm import FLOPS_PER_CMAC, ChannelKernel
from repro.core.radius import babai_point
from repro.core.traversal import BestFirstPolicy, DfsPolicy, TraversalEngine
from repro.util.validation import check_in, check_vector

__all__ = [
    "ENGINES",
    "INTERPRET_ENV",
    "NUMBA_AVAILABLE",
    "CompiledTraversalEngine",
    "compiled_available",
    "default_engine",
    "interpreted_kernels_requested",
    "jit_active",
    "require_compiled",
    "reset_fallback_warning",
    "resolve_engine",
    "use_engine",
    "warmup_kernels",
]

#: Selectable traversal engines (the ``engine`` axis).
ENGINES = ("numpy", "compiled")

#: Environment variable opting in to interpreted kernel execution when
#: Numba is absent (test/debug aid; see module docstring).
INTERPRET_ENV = "REPRO_COMPILED_INTERPRET"

try:  # pragma: no cover - exercised via both CI legs
    from numba import njit as _njit

    NUMBA_AVAILABLE = True
except ImportError:  # pragma: no cover - the no-numba leg
    _njit = None
    NUMBA_AVAILABLE = False


def _jit(func):
    """``numba.njit(cache=True)`` when available, identity otherwise.

    The kernels below are written in the nopython subset, so the exact
    same code runs jitted (Numba installed) or interpreted (the
    ``REPRO_COMPILED_INTERPRET`` opt-in) — one implementation, one
    bit-identity proof.
    """
    if NUMBA_AVAILABLE:
        return _njit(cache=True)(func)
    return func


def interpreted_kernels_requested() -> bool:
    """Whether ``REPRO_COMPILED_INTERPRET`` opts in to interpreted kernels."""
    return os.environ.get(INTERPRET_ENV, "") not in ("", "0")


def compiled_available() -> bool:
    """Whether the ``"compiled"`` engine may be selected on this host."""
    return NUMBA_AVAILABLE or interpreted_kernels_requested()


def jit_active() -> bool:
    """True when kernels actually run jitted (not interpreted)."""
    return NUMBA_AVAILABLE


def require_compiled() -> None:
    """Raise :class:`ValueError` unless the compiled engine is usable.

    The CLI maps this to its uniform exit-2 one-line error when
    ``--engine compiled`` is requested on a host without Numba.
    """
    if not compiled_available():
        raise ValueError(
            "engine 'compiled' requires Numba, which is not installed "
            "(pip install '.[compiled]'); the 'numpy' engine is always "
            "available"
        )


# ----------------------------------------------------------------------
# Engine selection: ambient default + per-call resolution
# ----------------------------------------------------------------------

_DEFAULT_ENGINE = "numpy"
_fallback_warned = False


def default_engine() -> str:
    """The ambient engine used when a detector does not name one."""
    return _DEFAULT_ENGINE


@contextmanager
def use_engine(name: str):
    """Temporarily set the ambient default engine (CLI ``--engine``).

    Detectors constructed with ``engine=None`` resolve the ambient
    default at :meth:`~repro.detectors.engine.EngineDetector.prepare` /
    solve time, so wrapping an experiment in ``use_engine("compiled")``
    switches every stock-configured detector inside it.
    """
    global _DEFAULT_ENGINE
    check_in(name, "engine", ENGINES)
    previous = _DEFAULT_ENGINE
    _DEFAULT_ENGINE = name
    try:
        yield
    finally:
        _DEFAULT_ENGINE = previous


def reset_fallback_warning() -> None:
    """Re-arm the once-per-process compiled-unavailable warning (tests)."""
    global _fallback_warned
    _fallback_warned = False


def resolve_engine(name: str | None = None) -> str:
    """Resolve a requested engine name to the one that will actually run.

    ``None`` resolves to the ambient default (see :func:`use_engine`).
    Requesting ``"compiled"`` on a host where it is unavailable degrades
    gracefully to ``"numpy"`` with a single :class:`RuntimeWarning` per
    process — the NumPy engine is the reference, so results are
    identical, only slower. An unknown name raises.
    """
    global _fallback_warned
    if name is None:
        name = _DEFAULT_ENGINE
    check_in(name, "engine", ENGINES)
    if name == "compiled" and not compiled_available():
        if not _fallback_warned:
            _fallback_warned = True
            warnings.warn(
                "engine 'compiled' requested but Numba is not installed; "
                "falling back to the 'numpy' reference engine "
                "(pip install '.[compiled]')",
                RuntimeWarning,
                stacklevel=2,
            )
        return "numpy"
    return name


# ----------------------------------------------------------------------
# nopython helpers: growable arrays + array binary heap
# ----------------------------------------------------------------------


@_jit
def _grow_f64(arr, used, needed):
    cap = arr.shape[0]
    if needed <= cap:
        return arr
    while cap < needed:
        cap *= 2
    out = np.empty(cap, np.float64)
    out[:used] = arr[:used]
    return out


@_jit
def _grow_i64(arr, used, needed):
    cap = arr.shape[0]
    if needed <= cap:
        return arr
    while cap < needed:
        cap *= 2
    out = np.empty(cap, np.int64)
    out[:used] = arr[:used]
    return out


@_jit
def _grow_path(path, used, needed):
    cap = path.shape[0]
    if needed <= cap:
        return path
    while cap < needed:
        cap *= 2
    out = np.empty((cap, path.shape[1]), np.int64)
    out[:used] = path[:used]
    return out


@_jit
def _heap_push(heap_pd, heap_row, n, pd, row):
    """Sift a new ``(pd, row)`` entry up; caller increments the size."""
    i = n
    heap_pd[i] = pd
    heap_row[i] = row
    while i > 0:
        parent = (i - 1) >> 1
        ppd = heap_pd[parent]
        if pd < ppd or (pd == ppd and row < heap_row[parent]):
            heap_pd[i] = ppd
            heap_row[i] = heap_row[parent]
            heap_pd[parent] = pd
            heap_row[parent] = row
            i = parent
        else:
            break


@_jit
def _heap_remove_top(heap_pd, heap_row, n):
    """Remove the root of an ``n``-entry heap; caller decrements the size.

    ``(pd, row)`` keys are unique (rows are admission-ordered), so the
    pop sequence is the sorted order — identical to ``heapq`` on the
    equivalent tuples no matter the internal array layout.
    """
    last = n - 1
    pd = heap_pd[last]
    row = heap_row[last]
    i = 0
    while True:
        left = 2 * i + 1
        if left >= last:
            break
        child = left
        right = left + 1
        if right < last:
            lpd = heap_pd[left]
            rpd = heap_pd[right]
            if rpd < lpd or (rpd == lpd and heap_row[right] < heap_row[left]):
                child = right
        cpd = heap_pd[child]
        if cpd < pd or (cpd == pd and heap_row[child] < row):
            heap_pd[i] = cpd
            heap_row[i] = heap_row[child]
            i = child
        else:
            break
    heap_pd[i] = pd
    heap_row[i] = row


# ----------------------------------------------------------------------
# Fused search kernels
# ----------------------------------------------------------------------


@_jit
def _best_first_kernel(
    points, diag, rmat, ybar, pool_size, bound0, use_linf, max_nodes,
    expanded_start,
):
    """One best-first search (one radius attempt), fully fused.

    Mirrors :meth:`BestFirstPolicy._search` and the evaluator's
    ``expand_unchecked`` bit for bit. Returns flat recordings for
    post-hoc counter reconstruction::

        (found, bound, best_leaf, batch_levels, batch_pools,
         radius_vals, nodes_pruned, leaves, max_list, trunc, acc_pruned)

    ``max_nodes < 0`` disables the node cap; ``expanded_start`` is the
    cumulative expansion count of earlier escalation rounds (the cap
    spans rounds).
    """
    n_tx = ybar.shape[0]
    order = points.shape[0]
    # SoA node pool (pd/level/path rows).
    pool_pd = np.empty(256, np.float64)
    pool_level = np.empty(256, np.int64)
    pool_path = np.empty((256, n_tx), np.int64)
    pool_pd[0] = 0.0
    pool_level[0] = n_tx - 1
    pool_n = 1
    # Array binary heap of (pd, row) scalar pairs.
    heap_pd = np.empty(256, np.float64)
    heap_row = np.empty(256, np.int64)
    heap_pd[0] = 0.0
    heap_row[0] = 0
    heap_n = 1
    # Flat recordings for counter reconstruction.
    batch_levels = np.empty(256, np.int64)
    batch_pools = np.empty(256, np.int64)
    n_batches = 0
    radius_vals = np.empty(16, np.float64)
    n_radius = 0
    acc_pruned = np.zeros(n_tx, np.int64)
    rows_buf = np.empty(pool_size, np.int64)
    child_buf = np.empty((pool_size, order), np.float64)
    best_leaf = np.zeros(n_tx, np.int64)
    found = 0
    bound = bound0
    nodes_pruned = 0
    leaves = 0
    max_list = 0
    trunc = 0
    expanded = expanded_start
    while heap_n > 0:
        if heap_pd[0] >= bound:
            break  # heap is PD-ordered: nothing left can improve
        rows_buf[0] = heap_row[0]
        _heap_remove_top(heap_pd, heap_row, heap_n)
        heap_n -= 1
        level = pool_level[rows_buf[0]]
        b = 1
        while (
            b < pool_size
            and heap_n > 0
            and pool_level[heap_row[0]] == level
            and heap_pd[0] < bound
        ):
            rows_buf[b] = heap_row[0]
            _heap_remove_top(heap_pd, heap_row, heap_n)
            heap_n -= 1
            b += 1
        depth = n_tx - 1 - level
        for i in range(b):
            row = rows_buf[i]
            parent_pd = pool_pd[row]
            if depth > 0:
                # einsum-order interference sum: zero start, ascending m.
                acc = 0.0 + 0.0j
                for j in range(depth):
                    acc = acc + (
                        points[pool_path[row, depth - 1 - j]]
                        * rmat[level, level + 1 + j]
                    )
                u = ybar[level] - acc
            else:
                u = ybar[level]
            if use_linf != 0:
                for c in range(order):
                    e = u - diag[level, c]
                    re = abs(e.real)
                    im = abs(e.imag)
                    inc = re if re > im else im
                    child_buf[i, c] = parent_pd if parent_pd > inc else inc
            else:
                for c in range(order):
                    e = u - diag[level, c]
                    er = e.real
                    ei = e.imag
                    child_buf[i, c] = parent_pd + (er * er + ei * ei)
        batch_levels = _grow_i64(batch_levels, n_batches, n_batches + 1)
        batch_pools = _grow_i64(batch_pools, n_batches, n_batches + 1)
        batch_levels[n_batches] = level
        batch_pools[n_batches] = b
        n_batches += 1
        expanded += b
        if level == 0:
            n_in = 0
            for i in range(b):
                for c in range(order):
                    if child_buf[i, c] < bound:
                        n_in += 1
            leaves += n_in
            nodes_pruned += b * order - n_in
            acc_pruned[0] += b * order - n_in
            # Row-major strict-< scan == np.argmin first occurrence.
            best_v = child_buf[0, 0]
            best_i = 0
            best_c = 0
            for i in range(b):
                for c in range(order):
                    if child_buf[i, c] < best_v:
                        best_v = child_buf[i, c]
                        best_i = i
                        best_c = c
            if best_v < bound:
                bound = best_v
                rr = rows_buf[best_i]
                best_leaf[0] = best_c
                for j in range(1, n_tx):
                    best_leaf[j] = pool_path[rr, n_tx - 1 - j]
                found = 1
                radius_vals = _grow_f64(radius_vals, n_radius, n_radius + 1)
                radius_vals[n_radius] = bound
                n_radius += 1
        else:
            admitted = 0
            for i in range(b):
                row = rows_buf[i]
                for c in range(order):
                    v = child_buf[i, c]
                    if v < bound:
                        pool_pd = _grow_f64(pool_pd, pool_n, pool_n + 1)
                        pool_level = _grow_i64(pool_level, pool_n, pool_n + 1)
                        pool_path = _grow_path(pool_path, pool_n, pool_n + 1)
                        new_row = pool_n
                        for j in range(depth):
                            pool_path[new_row, j] = pool_path[row, j]
                        pool_path[new_row, depth] = c
                        pool_pd[new_row] = v
                        pool_level[new_row] = level - 1
                        pool_n += 1
                        heap_pd = _grow_f64(heap_pd, heap_n, heap_n + 1)
                        heap_row = _grow_i64(heap_row, heap_n, heap_n + 1)
                        _heap_push(heap_pd, heap_row, heap_n, v, new_row)
                        heap_n += 1
                        admitted += 1
            nodes_pruned += b * order - admitted
            acc_pruned[level] += b * order - admitted
            if heap_n > max_list:
                max_list = heap_n
        if max_nodes >= 0 and expanded >= max_nodes:
            trunc = 1
            break
    return (
        found,
        bound,
        best_leaf,
        batch_levels[:n_batches].copy(),
        batch_pools[:n_batches].copy(),
        radius_vals[:n_radius].copy(),
        nodes_pruned,
        leaves,
        max_list,
        trunc,
        acc_pruned,
    )


@_jit
def _dfs_kernel(
    points, diag, rmat, ybar, natural_order, bound0, use_linf, max_nodes,
    expanded_start,
):
    """One DFS search (one radius attempt), fully fused.

    Mirrors :meth:`DfsPolicy._search`: LIFO pops with pop-time pruning,
    stable-sorted (or natural) child enumeration, worst-first pushes so
    the best child tops the stack. Same return layout as
    :func:`_best_first_kernel`; per-level prune attribution follows the
    conventions ``traversal._fold_levels`` reconstructs (admission
    prunes at the expanding level, pop prunes at the popped node's own
    level, leaf prunes at level 0).
    """
    n_tx = ybar.shape[0]
    order = points.shape[0]
    pool_pd = np.empty(256, np.float64)
    pool_level = np.empty(256, np.int64)
    pool_path = np.empty((256, n_tx), np.int64)
    pool_pd[0] = 0.0
    pool_level[0] = n_tx - 1
    pool_n = 1
    stack_pd = np.empty(256, np.float64)
    stack_row = np.empty(256, np.int64)
    stack_pd[0] = 0.0
    stack_row[0] = 0
    stack_n = 1
    batch_levels = np.empty(256, np.int64)
    batch_pools = np.empty(256, np.int64)
    n_batches = 0
    radius_vals = np.empty(16, np.float64)
    n_radius = 0
    acc_pruned = np.zeros(n_tx, np.int64)
    child = np.empty(order, np.float64)
    order_buf = np.empty(order, np.int64)
    best_leaf = np.zeros(n_tx, np.int64)
    found = 0
    bound = bound0
    nodes_pruned = 0
    leaves = 0
    max_list = 0
    trunc = 0
    expanded = expanded_start
    while stack_n > 0:
        stack_n -= 1
        node_pd = stack_pd[stack_n]
        row = stack_row[stack_n]
        if node_pd >= bound:
            # Admitted inside an older, looser sphere — prune on pop.
            nodes_pruned += 1
            acc_pruned[pool_level[row]] += 1
            continue
        level = pool_level[row]
        depth = n_tx - 1 - level
        parent_pd = pool_pd[row]
        if depth > 0:
            acc = 0.0 + 0.0j
            for j in range(depth):
                acc = acc + (
                    points[pool_path[row, depth - 1 - j]]
                    * rmat[level, level + 1 + j]
                )
            u = ybar[level] - acc
        else:
            u = ybar[level]
        if use_linf != 0:
            for c in range(order):
                e = u - diag[level, c]
                re = abs(e.real)
                im = abs(e.imag)
                inc = re if re > im else im
                child[c] = parent_pd if parent_pd > inc else inc
        else:
            for c in range(order):
                e = u - diag[level, c]
                er = e.real
                ei = e.imag
                child[c] = parent_pd + (er * er + ei * ei)
        batch_levels = _grow_i64(batch_levels, n_batches, n_batches + 1)
        batch_pools = _grow_i64(batch_pools, n_batches, n_batches + 1)
        batch_levels[n_batches] = level
        batch_pools[n_batches] = 1
        n_batches += 1
        expanded += 1
        if level == 0:
            n_in = 0
            for c in range(order):
                if child[c] < bound:
                    n_in += 1
            leaves += n_in
            nodes_pruned += order - n_in
            acc_pruned[0] += order - n_in
            best_v = child[0]
            best_c = 0
            for c in range(order):
                if child[c] < best_v:
                    best_v = child[c]
                    best_c = c
            if best_v < bound:
                bound = best_v
                best_leaf[0] = best_c
                for j in range(1, n_tx):
                    best_leaf[j] = pool_path[row, n_tx - 1 - j]
                found = 1
                radius_vals = _grow_f64(radius_vals, n_radius, n_radius + 1)
                radius_vals[n_radius] = bound
                n_radius += 1
        else:
            if natural_order != 0:
                for t in range(order):
                    order_buf[t] = t
            else:
                # Stable insertion sort (strict-> shift) == the
                # np.argsort(kind="stable") permutation.
                for t in range(order):
                    order_buf[t] = t
                for t in range(1, order):
                    key_i = order_buf[t]
                    key_v = child[key_i]
                    s = t - 1
                    while s >= 0 and child[order_buf[s]] > key_v:
                        order_buf[s + 1] = order_buf[s]
                        s -= 1
                    order_buf[s + 1] = key_i
            # Push worst-first (reversed enumeration order, admission-
            # filtered) so the best child tops the LIFO.
            admitted = 0
            for t in range(order - 1, -1, -1):
                c = order_buf[t]
                v = child[c]
                if v < bound:
                    pool_pd = _grow_f64(pool_pd, pool_n, pool_n + 1)
                    pool_level = _grow_i64(pool_level, pool_n, pool_n + 1)
                    pool_path = _grow_path(pool_path, pool_n, pool_n + 1)
                    new_row = pool_n
                    for j in range(depth):
                        pool_path[new_row, j] = pool_path[row, j]
                    pool_path[new_row, depth] = c
                    pool_pd[new_row] = v
                    pool_level[new_row] = level - 1
                    pool_n += 1
                    stack_pd = _grow_f64(stack_pd, stack_n, stack_n + 1)
                    stack_row = _grow_i64(stack_row, stack_n, stack_n + 1)
                    stack_pd[stack_n] = v
                    stack_row[stack_n] = new_row
                    stack_n += 1
                    admitted += 1
            nodes_pruned += order - admitted
            acc_pruned[level] += order - admitted
            if stack_n > max_list:
                max_list = stack_n
        if max_nodes >= 0 and expanded >= max_nodes:
            trunc = 1
            break
    return (
        found,
        bound,
        best_leaf,
        batch_levels[:n_batches].copy(),
        batch_pools[:n_batches].copy(),
        radius_vals[:n_radius].copy(),
        nodes_pruned,
        leaves,
        max_list,
        trunc,
        acc_pruned,
    )


# ----------------------------------------------------------------------
# Warmup (first-call compilation, excluded from timed regions)
# ----------------------------------------------------------------------

_warmed = False


def warmup_kernels() -> None:
    """Compile both search kernels on a tiny problem (idempotent).

    Called from :meth:`EngineDetector.prepare` and before the first
    timed kernel invocation so JIT compilation never lands inside
    ``gemm_time_s`` or a benchmark measurement. A no-op without Numba
    (nothing to compile) beyond a single flag check.
    """
    global _warmed
    if _warmed:
        return
    _warmed = True
    if not NUMBA_AVAILABLE:
        return
    points = np.array([-1.0 + 0.0j, 1.0 + 0.0j])
    rmat = np.eye(2, dtype=np.complex128)
    diag = np.empty((2, 2), dtype=np.complex128)
    for k in range(2):
        diag[k] = rmat[k, k] * points
    ybar = np.zeros(2, dtype=np.complex128)
    for linf in (0, 1):
        _best_first_kernel(points, diag, rmat, ybar, 8, np.inf, linf, -1, 0)
        _dfs_kernel(points, diag, rmat, ybar, 0, np.inf, linf, -1, 0)


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------


class CompiledTraversalEngine(TraversalEngine):
    """Drop-in :class:`TraversalEngine` running fused nopython searches.

    The leaf-first policies (:class:`BestFirstPolicy`,
    :class:`DfsPolicy`) run each radius round through
    :func:`_best_first_kernel` / :func:`_dfs_kernel`, inside the same
    radius shell as the NumPy engine
    (``_PooledTreePolicy.solve``). The level-synchronous sweep policies
    (BFS/K-best/FSD) delegate to the inherited NumPy path, whose
    per-level frontier sweeps are already vectorised GEMMs with
    negligible per-node Python work (the honest JIT boundary: only the
    interpreter-bound loop is compiled). Selection flows through
    :func:`repro.core.traversal.build_engine`; detectors never
    instantiate this class directly.
    """

    def solve(self, r, ybar, noise_var, stats, tracer, *, kernel=None):
        policy = self.policy
        # Exact-type checks: a subclass overriding ``_search`` keeps the
        # loop it customised.
        if type(policy) is not BestFirstPolicy and type(policy) is not DfsPolicy:
            return super().solve(r, ybar, noise_var, stats, tracer, kernel=kernel)
        if kernel is None:
            kernel = ChannelKernel(r, self.constellation, metric=self.metric)
        n_tx = kernel.n_tx
        ybar_c = check_vector(ybar, "ybar", length=n_tx).astype(np.complex128)
        points = kernel.constellation.points
        diag = kernel.diag_points
        rmat = kernel.r
        order = kernel.constellation.order
        use_linf = 1 if self.metric.name == "linf" else 0
        max_nodes = -1 if policy.max_nodes is None else int(policy.max_nodes)
        if type(policy) is BestFirstPolicy:
            search_kernel, schedule = _best_first_kernel, policy.pool_size
        else:
            search_kernel = _dfs_kernel
            schedule = 0 if policy.child_ordering == "sorted" else 1
        acc = self.level_acc
        warmup_kernels()

        def search(bound, incumbent):
            t0 = perf_counter()
            out = search_kernel(
                points, diag, rmat, ybar_c, schedule, bound, use_linf,
                max_nodes, stats.nodes_expanded,
            )
            stats.gemm_time_s += perf_counter() - t0
            return self._fold_kernel_stats(
                out, stats, acc, n_tx, order, incumbent
            )

        return policy.solve(self, r, ybar, noise_var, stats, tracer, search)

    def _fold_kernel_stats(self, out, stats, acc, n_tx, order, incumbent):
        """Reconstruct counters/trace/accumulator from kernel recordings.

        Applies the exact FLOP formulas of
        :class:`~repro.core.gemm.GemmEvaluator` vectorised over the
        recorded ``(level, pool)`` pairs, so every ``DecodeStats`` field
        and ``LevelAccumulator`` row matches the NumPy engine bit for
        bit. Returns ``(incumbent, bound)``, the radius shell's round
        result.
        """
        (
            found, bound, best_leaf, b_levels, b_pools, r_vals,
            n_pruned, n_leaves, max_list, trunc, acc_pruned,
        ) = out
        n_exp = int(b_pools.sum()) if b_pools.size else 0
        stats.nodes_expanded += n_exp
        stats.nodes_generated += n_exp * order
        stats.gemm_calls += int(b_pools.size)
        if b_pools.size:
            depths = (n_tx - 1) - b_levels
            stats.gemm_flops += FLOPS_PER_CMAC * int((b_pools * depths).sum())
        stats.gemm_flops += self.metric.flops_per_norm * n_exp * order
        stats.nodes_pruned += int(n_pruned)
        stats.leaves_reached += int(n_leaves)
        stats.radius_updates += int(r_vals.size)
        if r_vals.size:
            stats.radius_trace.extend(float(v) for v in r_vals)
        stats.max_list_size = max(stats.max_list_size, int(max_list))
        stats.truncated += int(trunc)
        if self.record_trace and b_pools.size:
            stats.batches.extend(b_levels.tolist(), b_pools.tolist())
        if acc is not None:
            exps_lv = np.bincount(b_levels, minlength=n_tx)
            nodes_lv = np.bincount(b_levels, weights=b_pools, minlength=n_tx)
            a_nodes, a_exps, a_pruned = acc.nodes, acc.exps, acc.pruned
            for lv in range(n_tx):
                if exps_lv[lv]:
                    a_nodes[lv] += int(nodes_lv[lv])
                    a_exps[lv] += int(exps_lv[lv])
                if acc_pruned[lv]:
                    a_pruned[lv] += int(acc_pruned[lv])
        if found:
            incumbent = np.asarray(best_leaf).copy()
        return incumbent, float(bound)
