"""Multi-PE partitioned tree search (paper section V, future work).

The paper's conclusion proposes "further parallelizing the execution of
the SD algorithm by partitioning the search tree over multiple
Processing Entities (PEs)", citing the massively-parallel design of
Nikitopoulos et al. [4] (29x latency reduction with 32 PEs) as related
work. :class:`~repro.core.traversal.PartitionedPolicy` is that
schedule: sub-trees dealt best-first round-robin onto the PEs (so every
PE starts on a promising branch, [4]'s "tree of promise"), a sorted DFS
per PE, one shared bound whose every improvement is a radius broadcast
(cheap on the FPGA fabric, the costly part on GPUs), and one expansion
per live PE per lock-step round, as replicated FPGA pipelines run.

The result stays **exact ML**: the PEs cover the whole tree and the
shared bound only shrinks. The interesting output is the *makespan*,
the busiest PE's expansion count, which bounds the parallel latency;
its sub-linear scaling (radius updates arrive later when the best
branch is split away from the others' work) is what [4] engineer
around. As a leaf-first policy it runs on the
:class:`~repro.detectors.engine.EngineDetector` shell beside Best-FS
and the sorted DFS: the same QR prepare, radius schedule (an empty
noise-scaled sphere escalates; Babai fallback), spans, registry series
and frame-by-frame ``decode_batch``.
"""

from __future__ import annotations

from repro.core.radius import BabaiRadius, RadiusPolicy
from repro.core.traversal import PartitionedPolicy
from repro.detectors.engine import EngineDetector
from repro.mimo.constellation import Constellation


class PartitionedSphereDecoder(EngineDetector):
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
        exact and never erases).
    max_rounds:
        Optional cap on the cooperative rounds of each search round
        (safety valve, mirrors ``max_nodes`` of the sequential decoder).
    record_trace:
        Keep the per-expansion :class:`~repro.core.stats.BatchTrace`.

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
        super().__init__(
            constellation,
            PartitionedPolicy(n_pes=n_pes, max_rounds=max_rounds),
            radius_policy=radius_policy or BabaiRadius(),
            record_trace=record_trace,
        )

    @property
    def last_pe_expansions(self) -> list[int]:
        """Per-PE expansion counts of the last decoded frame."""
        return self.policy.last_pe_expansions

    @property
    def last_sync_events(self) -> int:
        """Radius-broadcast events of the last decoded frame."""
        return self.policy.last_sync_events

    def makespan_expansions(self) -> int:
        """Busiest PE's expansion count of the last decoded frame
        (see :meth:`PartitionedPolicy.makespan_expansions`)."""
        return self.policy.makespan_expansions()
