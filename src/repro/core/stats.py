"""Search instrumentation records shared by every tree-search detector.

These types live in :mod:`repro.core` because the traversal engine
(:mod:`repro.core.traversal`) produces them and the platform models
(:mod:`repro.fpga`, :mod:`repro.perfmodel`) consume them; the detector
layer re-exports them from :mod:`repro.detectors.base` for backward
compatibility.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Iterable, Iterator, NamedTuple, Sequence


class BatchEvent(NamedTuple):
    """One batched node-expansion step, as :class:`BatchTrace` yields it.

    Attributes
    ----------
    level:
        Tree level being expanded; level ``k`` assigns transmit symbol
        ``s_k`` (``k = n_tx - 1`` is the root's children, ``k = 0`` the
        leaves).
    pool_size:
        Number of tree nodes expanded together in this batch (1 for pure
        best-first pops; the whole frontier for BFS levels).
    """

    level: int
    pool_size: int


def _check_columns(levels: Sequence[int], pools: Sequence[int]) -> None:
    if len(levels) != len(pools):
        raise ValueError(
            f"trace columns differ in length: {len(levels)} levels, "
            f"{len(pools)} pools"
        )


@dataclass(slots=True)
class BatchTrace:
    """The per-expansion batch trace of one decode, as two int columns.

    ``levels[i]`` and ``pools[i]`` are the tree level and pool size of
    the ``i``-th expansion batch, in the order the search ran them.
    Producers append plain Python ints to the columns, so recording a
    trace builds no per-event object; iterating yields
    :class:`BatchEvent` records for readers. ``+`` and ``+=``
    concatenate, which is how :meth:`DecodeStats.merge` and
    :meth:`DecodeStats.merge_all` fold traces.
    """

    levels: list[int] = field(default_factory=list)
    pools: list[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        _check_columns(self.levels, self.pools)

    @classmethod
    def from_events(cls, events: Iterable[tuple[int, int]]) -> "BatchTrace":
        """Trace of ``(level, pool_size)`` pairs such as :class:`BatchEvent`."""
        trace = cls()
        for level, pool in events:
            trace.append(level, pool)
        return trace

    def append(self, level: int, pool: int) -> None:
        """Record one batch of ``pool`` nodes expanded at ``level``."""
        self.levels.append(level)
        self.pools.append(pool)

    def extend(self, levels: Sequence[int], pools: Sequence[int]) -> None:
        """Record a run of batches given column-wise (plain-int sequences,
        e.g. ``ndarray.tolist()``)."""
        _check_columns(levels, pools)
        self.levels += levels
        self.pools += pools

    def __len__(self) -> int:
        return len(self.levels)

    def __iter__(self) -> Iterator[BatchEvent]:
        return map(BatchEvent, self.levels, self.pools)

    def __add__(self, other: "BatchTrace") -> "BatchTrace":
        return BatchTrace(self.levels + other.levels, self.pools + other.pools)

    def __iadd__(self, other: "BatchTrace") -> "BatchTrace":
        self.levels += other.levels
        self.pools += other.pools
        return self


@dataclass
class DecodeStats:
    """Work performed by one ``detect`` call of a tree-search detector.

    Aggregation across frames goes through :meth:`merge`, which derives
    the per-field rule from the dataclass definition itself: numeric
    fields sum and list fields concatenate unless the field declares a
    ``merge`` metadata override (``max_list_size`` keeps the maximum).
    Adding a field therefore never silently drops it from aggregates —
    ``tests/test_detector_base.py`` asserts every field round-trips.

    Merging is **order-independent** for every scalar field (sums and
    maxima commute and associate), so cross-process aggregation needs no
    global frame order: ``a.merge(b)`` equals ``b.merge(a)`` field-wise
    except for the sequence fields (``batches``, ``radius_trace``), which
    concatenate left-to-right. Callers that shard frames across workers
    therefore merge worker results in deterministic shard order (see
    :mod:`repro.mimo.parallel_mc`) so the concatenated traces reproduce
    the serial order exactly.
    """

    nodes_expanded: int = 0
    nodes_generated: int = 0
    nodes_pruned: int = 0
    leaves_reached: int = 0
    radius_updates: int = 0
    gemm_calls: int = 0
    gemm_flops: int = 0
    max_list_size: int = field(default=0, metadata={"merge": "max"})
    wall_time_s: float = 0.0
    #: Seconds spent inside the evaluator's GEMM + NORM arithmetic
    #: (:meth:`repro.core.gemm.GemmEvaluator.expand_unchecked`, or the
    #: child-PD arithmetic of the scalar DFS loop); the
    #: rest of ``wall_time_s`` is host-side search bookkeeping. Under
    #: fused batch decoding the shared GEMM time is split evenly across
    #: the batch's frames, mirroring ``wall_time_s``. Under the compiled
    #: engine (:class:`repro.core.compiled.CompiledTraversalEngine`)
    #: the pop/expand/prune loop is fused into one kernel, so this field
    #: times each *whole kernel invocation* — arithmetic and traversal
    #: bookkeeping together — and ``host_overhead_s`` shrinks to the
    #: Python-side escalation shell. Kernels are warmed at ``prepare``
    #: time, so first-call JIT compilation never lands here.
    gemm_time_s: float = 0.0
    truncated: int = 0
    #: One entry per expansion batch; recorded only when the decoder
    #: runs with ``record_trace=True``. The FPGA pipeline model prices it.
    batches: BatchTrace = field(default_factory=BatchTrace)
    radius_trace: list[float] = field(default_factory=list)

    @property
    def nodes_per_sec(self) -> float:
        """Traversal throughput: expanded nodes per wall-clock second.

        The paper's host-efficiency figure of merit — once PD evaluation
        is BLAS-3, this is bounded by search bookkeeping, not FLOPs.
        Zero when no wall time was recorded.
        """
        if self.wall_time_s <= 0.0:
            return 0.0
        return self.nodes_expanded / self.wall_time_s

    @property
    def host_overhead_s(self) -> float:
        """Wall time spent outside the GEMM/NORM arithmetic.

        Under the compiled engine the fused kernel subsumes the search
        bookkeeping, so this measures only the Python escalation shell
        (radius policy, stat folding) around the kernel calls.
        """
        return max(self.wall_time_s - self.gemm_time_s, 0.0)

    @property
    def gemm_fraction(self) -> float:
        """Share of wall time inside the evaluator (1.0 = compute-bound).

        For the compiled engine this is the share of wall time inside
        the fused jitted kernel (compilation excluded via warm-up) —
        values near 1.0 mean the decode is kernel-bound, the goal state.
        """
        if self.wall_time_s <= 0.0:
            return 0.0
        return min(self.gemm_time_s / self.wall_time_s, 1.0)

    def merge(self, other: "DecodeStats") -> "DecodeStats":
        """Aggregate two stats records (e.g. across Monte Carlo frames)."""
        merged: dict[str, object] = {}
        for f in fields(self):
            mine, theirs = getattr(self, f.name), getattr(other, f.name)
            rule = f.metadata.get("merge")
            if rule is None:
                if isinstance(mine, (int, float, list, BatchTrace)):
                    rule = "sum"  # numeric add / sequence concatenation
                else:
                    raise TypeError(
                        f"DecodeStats.{f.name}: no default merge rule for "
                        f"{type(mine).__name__}; declare one via "
                        "field(metadata={'merge': ...})"
                    )
            if rule == "sum":
                merged[f.name] = mine + theirs
            elif rule == "max":
                merged[f.name] = max(mine, theirs)
            else:
                raise TypeError(
                    f"DecodeStats.{f.name}: unknown merge rule {rule!r}"
                )
        return type(self)(**merged)

    @classmethod
    def merge_all(cls, stats: Iterable["DecodeStats"]) -> "DecodeStats":
        """Fold many stats records into one in linear time.

        Equivalent to chaining :meth:`merge` pairwise left-to-right but
        without the quadratic sequence re-concatenation — the form the
        Monte Carlo engine and the process-sharded sweep runner use to
        aggregate thousands of per-frame records.
        """
        merged = cls()
        total: dict[str, object] = {
            f.name: getattr(merged, f.name) for f in fields(cls)
        }
        for st in stats:
            for f in fields(cls):
                value = getattr(st, f.name)
                rule = f.metadata.get("merge")
                if rule == "max":
                    total[f.name] = max(total[f.name], value)
                else:
                    # In place for the fresh lists and trace of ``merged``.
                    total[f.name] += value
        return cls(**total)
