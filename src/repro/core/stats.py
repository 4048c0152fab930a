"""Search instrumentation records shared by every tree-search detector.

These types live in :mod:`repro.core` because the traversal engine
(:mod:`repro.core.traversal`) produces them and the platform models
(:mod:`repro.fpga`, :mod:`repro.perfmodel`) consume them; the detector
layer re-exports them from :mod:`repro.detectors.base` for backward
compatibility.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    :class:`BatchEvent` records for readers.
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


@dataclass
class DecodeStats:
    """Work performed by one ``detect`` call of a tree-search detector.

    One record per frame; readers that want totals sum the fields they
    need over the frames (the metrics registry's ``traversal.*``
    counters are such sums, written by the detector shell).
    """

    nodes_expanded: int = 0
    nodes_generated: int = 0
    nodes_pruned: int = 0
    leaves_reached: int = 0
    radius_updates: int = 0
    gemm_calls: int = 0
    gemm_flops: int = 0
    max_list_size: int = 0
    wall_time_s: float = 0.0
    #: Seconds spent inside the GEMM + NORM arithmetic
    #: (:meth:`repro.core.gemm.ChannelKernel.expand`, or the child-PD
    #: arithmetic of the leaf-first scalar loops: one table lookup-add
    #: per assigned symbol and the float-pair NORM per child); the
    #: rest of ``wall_time_s`` is host-side search bookkeeping. Under
    #: fused batch decoding the shared GEMM time is split evenly across
    #: the batch's frames, mirroring ``wall_time_s``. The scalar loops
    #: time each expansion's child-PD loop, so scheduling, pruning,
    #: admission and the table build at ``prepare`` stay outside it.
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

        That is search bookkeeping (pops, pruning, admission), the
        radius shell and stat folding.
        """
        return max(self.wall_time_s - self.gemm_time_s, 0.0)

    @property
    def gemm_fraction(self) -> float:
        """Share of wall time inside the GEMM + NORM arithmetic
        (1.0 = compute-bound)."""
        if self.wall_time_s <= 0.0:
            return 0.0
        return min(self.gemm_time_s / self.wall_time_s, 1.0)
