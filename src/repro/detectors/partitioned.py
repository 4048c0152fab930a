"""Multi-PE partitioned tree search (paper section V, future work).

The paper's conclusion proposes "further parallelizing the execution of
the SD algorithm by partitioning the search tree over multiple
Processing Entities (PEs)", citing the massively-parallel design of
Nikitopoulos et al. [4] (29x latency reduction with 32 PEs) as related
work. This module implements that extension:

* the root's children are sorted by partial distance and dealt
  round-robin onto ``n_pes`` processing entities (so every PE starts
  with a promising branch — the "tree of promise" idea of [4]);
* each PE runs an independent sorted-DFS over its sub-trees;
* PEs share the incumbent radius: whenever any PE lands a better leaf
  the new bound is broadcast (a synchronisation event — cheap on the
  FPGA fabric, the costly part on GPUs);
* execution is simulated cooperatively, one expansion per live PE per
  round, which is exactly the lock-step schedule a replicated-pipeline
  FPGA implementation would follow.

The result remains **exact ML**: the PE partition covers the whole tree
and the shared bound only ever shrinks, so no PE can discard the
optimum. The interesting output is the *makespan*: the busiest PE's
expansion count, which bounds the parallel latency. Sub-linear scaling
(radius updates arrive later when the best branch is split away from
the others' work) is the effect [4] engineer around.

Its schedule is not a :class:`~repro.core.traversal.TraversalEngine`
configuration: the cooperative round-robin interleaves per-PE
expansions with shared-bound broadcasts, which does not fit the
one-generator-per-frame ``ExpandRequest`` protocol. Its partial
distances come from the same
:meth:`~repro.core.gemm.ChannelKernel.expand` the sweeps use, on a
kernel built once at ``prepare``, and it books GEMM calls and FLOPs as
the sweeps do. It stays a direct :class:`Detector` and still emits the
standard :class:`BatchTrace`.
"""

from __future__ import annotations

import numpy as np

from repro.core.gemm import FLOPS_PER_CMAC, ChannelKernel
from repro.core.radius import BabaiRadius, RadiusPolicy, babai_point
from repro.detectors.base import DecodeStats, DetectionResult, Detector
from repro.mimo.constellation import Constellation
from repro.mimo.preprocessing import QRResult, effective_receive, qr_decompose
from repro.util.timing import Timer
from repro.util.validation import check_positive_int

#: A search node: ``(pd, seq, level, path)``. Tuples compare
#: lexicographically, so nodes sort by PD with the unique sequence
#: number breaking ties; ``level`` is the level the node's children
#: assign and ``path`` the root-first point indices assigned so far.
Node = tuple[float, int, int, tuple[int, ...]]


class PartitionedSphereDecoder(Detector):
    """Exact sphere decoding over ``n_pes`` cooperating processing entities.

    Parameters
    ----------
    constellation:
        Symbol alphabet.
    n_pes:
        Processing entities (replicated pipelines). 1 reduces to the
        sequential sorted-DFS decoder.
    radius_policy:
        Initial-radius strategy shared by all PEs (default Babai seed:
        exact and never erases, so the cooperative loop needs no
        escalation logic).
    max_rounds:
        Optional cap on cooperative rounds (safety valve, mirrors
        ``max_nodes`` of the sequential decoder).

    A NaN or Inf in the channel, the noise variance or a received
    vector raises :class:`~repro.util.validation.NonFiniteInputError`.
    """

    name = "sphere-partitioned"

    def __init__(
        self,
        constellation: Constellation,
        *,
        n_pes: int = 4,
        radius_policy: RadiusPolicy | None = None,
        max_rounds: int | None = None,
        record_trace: bool = True,
    ) -> None:
        self.constellation = constellation
        self.n_pes = check_positive_int(n_pes, "n_pes")
        self.radius_policy = radius_policy or BabaiRadius()
        self.max_rounds = (
            None if max_rounds is None else check_positive_int(max_rounds, "max_rounds")
        )
        self.record_trace = record_trace
        self._qr: QRResult | None = None
        self._channel: np.ndarray | None = None
        self._noise_var = 0.0
        self._prepared = False
        #: Per-PE expansion counts of the last decode (makespan analysis).
        self.last_pe_expansions: list[int] = []
        #: Radius-broadcast events of the last decode.
        self.last_sync_events: int = 0

    def prepare(self, channel: np.ndarray, noise_var: float = 0.0) -> None:
        channel = self._checked_channel(channel, noise_var)
        self._channel = channel
        self._qr = qr_decompose(channel)
        self._kernel = ChannelKernel(self._qr.r, self.constellation)
        self._noise_var = float(noise_var)
        self._prepared = True

    # ------------------------------------------------------------------

    def _expand(self, level, paths, pds, ybar, stats) -> np.ndarray:
        """Child PDs of a pool on the prepared kernel, booking its GEMM
        call and FLOPs with the sweeps' formulas."""
        pool, depth = paths.shape
        stats.gemm_calls += 1
        stats.gemm_flops += pool * (
            FLOPS_PER_CMAC * depth
            + self._kernel.metric.flops_per_norm * self.constellation.order
        )
        return self._kernel.expand(level, paths, pds, ybar[level])

    def _seed_stacks(
        self, ybar: np.ndarray, bound: float, stats: DecodeStats
    ) -> tuple[list[list[Node]], np.ndarray | None, float]:
        """Grow enough sub-trees for every PE, then deal them round-robin.

        One root expansion yields only ``P`` sub-trees; with more PEs
        than that, the frontier is expanded level by level (the offline
        partitioning phase of [4], whose cost "scales only linearly")
        until at least ``n_pes`` sub-trees exist or the leaves are
        reached.
        """
        n_tx = self._kernel.n_tx
        order = self.constellation.order
        incumbent: np.ndarray | None = None
        frontier: list[Node] = []
        seq = 1
        level = n_tx - 1
        # Expand the root first.
        pools: list[tuple[tuple[int, ...], float]] = [((), 0.0)]
        while True:
            paths = np.asarray([p for p, _ in pools], dtype=np.int64).reshape(
                len(pools), n_tx - 1 - level
            )
            pds = np.asarray([pd for _, pd in pools], dtype=float)
            child_pds = self._expand(level, paths, pds, ybar, stats)
            stats.nodes_expanded += len(pools)
            stats.nodes_generated += len(pools) * order
            if self.record_trace:
                stats.batches.append(level, len(pools))
            frontier = []
            for i, (path, _pd) in enumerate(pools):
                for c in range(order):
                    pd = float(child_pds[i, c])
                    if pd >= bound:
                        stats.nodes_pruned += 1
                        continue
                    if level == 0:
                        stats.leaves_reached += 1
                        bound = pd
                        incumbent = np.asarray((c,) + path[::-1], dtype=np.int64)
                        stats.radius_updates += 1
                        stats.radius_trace.append(bound)
                        continue
                    frontier.append((pd, seq, level - 1, path + (c,)))
                    seq += 1
            if level == 0 or len(frontier) >= self.n_pes or not frontier:
                break
            pools = [(path, pd) for pd, _seq, _level, path in frontier]
            level -= 1
        # Deal sub-trees best-first round-robin so every PE starts with a
        # promising branch ([4]'s tree-of-promise idea).
        frontier.sort()
        stacks: list[list[Node]] = [[] for _ in range(self.n_pes)]
        for rank, node in enumerate(frontier):
            stacks[rank % self.n_pes].append(node)
        # Each PE explores best-candidate-first: put lowest PD on top.
        for stack in stacks:
            stack.reverse()
        return stacks, incumbent, bound

    def detect(self, received: np.ndarray) -> DetectionResult:
        self._require_prepared()
        received = self._checked_received(received)
        timer = Timer()
        stats = DecodeStats()
        with timer:
            ybar = effective_receive(self._qr, received)
            ybar_c = ybar.astype(np.complex128)
            init = self.radius_policy.initial(
                self._qr.r, ybar, self.constellation, self._noise_var
            )
            bound = float(init.radius_sq)
            incumbent = init.incumbent_indices
            stats.radius_trace.append(bound)
            stacks, seeded, bound = self._seed_stacks(ybar_c, bound, stats)
            if seeded is not None:
                incumbent = seeded
            pe_expansions = [0] * self.n_pes
            sync_events = 0
            order = self.constellation.order
            seq = order + 1
            rounds = 0
            while any(stacks):
                rounds += 1
                if self.max_rounds is not None and rounds > self.max_rounds:
                    stats.truncated += 1
                    break
                for pe, stack in enumerate(stacks):
                    if not stack:
                        continue
                    pd, _seq, level, path = stack.pop()
                    if pd >= bound:
                        stats.nodes_pruned += 1
                        continue
                    child_pds = self._expand(
                        level,
                        np.asarray([path], dtype=np.int64),
                        np.asarray([pd]),
                        ybar_c,
                        stats,
                    )[0]
                    pe_expansions[pe] += 1
                    stats.nodes_expanded += 1
                    stats.nodes_generated += order
                    if self.record_trace:
                        stats.batches.append(level, 1)
                    if level == 0:
                        in_sphere = child_pds < bound
                        stats.leaves_reached += int(np.count_nonzero(in_sphere))
                        stats.nodes_pruned += int(
                            in_sphere.size - np.count_nonzero(in_sphere)
                        )
                        c = int(np.argmin(child_pds))
                        if child_pds[c] < bound:
                            bound = float(child_pds[c])
                            incumbent = np.asarray(
                                (c,) + path[::-1], dtype=np.int64
                            )
                            stats.radius_updates += 1
                            stats.radius_trace.append(bound)
                            sync_events += 1  # broadcast to all PEs
                    else:
                        for c in np.argsort(child_pds, kind="stable")[::-1]:
                            if child_pds[c] >= bound:
                                stats.nodes_pruned += 1
                                continue
                            stack.append(
                                (float(child_pds[c]), seq, level - 1, path + (int(c),))
                            )
                            seq += 1
                    stats.max_list_size = max(
                        stats.max_list_size, sum(len(s) for s in stacks)
                    )
            if incumbent is None:
                incumbent, bound = babai_point(self._qr.r, ybar, self.constellation)
                stats.truncated = max(stats.truncated, 1)
            self.last_pe_expansions = pe_expansions
            self.last_sync_events = sync_events
        stats.wall_time_s = timer.elapsed
        return self._result(received, self._qr.unpermute(incumbent), stats)

    # ------------------------------------------------------------------

    def makespan_expansions(self) -> int:
        """Busiest PE's expansion count of the last decode.

        Lock-step cooperative execution means the parallel latency is
        proportional to this (plus the shared root expansion), so
        ``sequential_total / makespan`` is the latency speedup a
        replicated-pipeline implementation would see.
        """
        if not self.last_pe_expansions:
            raise RuntimeError("no decode has run yet")
        return max(self.last_pe_expansions)
