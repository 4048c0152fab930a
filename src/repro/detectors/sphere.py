"""GEMM-based sphere decoder with Best-First / sorted-DFS traversal.

This is the algorithm of the paper (Alg. 1 + section III): the SD search
tree is explored leaf-first — either globally best-first (a priority
queue on partial distance, the Geosphere-inspired strategy the paper
adopts) or depth-first with per-level PD-sorted child insertion (the LIFO
list of Fig. 3) — while same-level node pools are evaluated together,
the matrix-matrix products of the compute-bound refactor of Arfaoui et
al. that the FPGA model prices. On the host both searches compute
their partial distances in scalar loops with the channel kernel's
order of operations (:mod:`repro.core.traversal`).

The traversal loops themselves live in :mod:`repro.core.traversal`
(:class:`~repro.core.traversal.BestFirstPolicy` /
:class:`~repro.core.traversal.DfsPolicy`); this class is the detector
shell binding a policy choice to the QR preprocessing, the radius
schedule and the obs vocabulary (``sd.*`` spans and counters).

Exactness
---------
Partial distances are sums of non-negative terms, so PD never decreases
along a path. With an infinite initial radius (or a Babai-seeded
incumbent) the search is exact maximum likelihood:

* Best-FS pops nodes in ascending PD; once the best frontier PD reaches
  the incumbent metric no unexplored leaf can beat it — terminate.
* Sorted-DFS only discards nodes whose PD already meets/exceeds the
  incumbent metric, which no descendant leaf can undercut.

Both facts are property-tested against brute force in
``tests/test_sphere_decoder_exactness.py``.

Instrumentation
---------------
Every expansion appends its ``(level, pool)`` to the decode's
:class:`~repro.core.stats.BatchTrace` in
:class:`~repro.core.stats.DecodeStats`. The FPGA pipeline simulator
prices that trace through its module cycle models; the CPU/GPU models
consume the aggregate counters.

When an ambient :class:`repro.obs.Tracer` is installed
(:func:`repro.obs.use_tracer`), each decode additionally emits nested
spans (``sd.detect`` > ``sd.solve`` > ``sd.search``) and ``sd.batch``
instants sampling the expansion timeline (pooled expansions always
record; single-node expansions every ``mark_stride``-th). Exact counts
live in ``DecodeStats`` and, under an ambient metrics registry, its
``detector.*`` / ``traversal.*`` series. With neither installed the
hot path pays one local check per expansion — see
``docs/observability.md``.
"""

from __future__ import annotations

from repro.core.radius import BabaiRadius, RadiusPolicy
from repro.core.traversal import BestFirstPolicy, DfsPolicy
from repro.detectors.engine import EngineDetector
from repro.mimo.constellation import Constellation
from repro.util.validation import check_in


class SphereDecoder(EngineDetector):
    """The paper's GEMM-based leaf-first sphere decoder.

    Parameters
    ----------
    constellation:
        Symbol alphabet (4-QAM / 16-QAM in the paper's evaluation).
    strategy:
        ``"best-first"`` (global priority queue; default) or ``"dfs"``
        (LIFO with PD-sorted child insertion, Fig. 3). Both are exact.
    radius_policy:
        Initial-radius strategy; defaults to :class:`BabaiRadius`
        (exact, never erases, tight pruning).
    ordering:
        Column ordering for the QR step: ``"natural"`` (plain QR, as the
        paper) or ``"sqrd"`` (sorted QR, an ablation that tightens
        pruning further).
    pool_size:
        Best-FS only: up to this many same-level frontier nodes are
        popped together and evaluated as one batch, recorded as one
        ``(level, pool)`` GEMM event the FPGA/CPU/GPU models price. 1
        recovers pure best-first; larger pools trade a little search
        discipline for bigger (more FPGA/GPU-friendly) GEMMs. Never
        affects exactness — only nodes already inside the sphere are
        pooled.
    child_ordering:
        ``"sorted"`` (Best-FS/Geosphere behaviour) or ``"natural"``; only
        observable under ``"dfs"``, where it fixes the stack push order.
    max_nodes:
        Optional safety cap on expanded nodes; when hit, the best
        incumbent so far is returned and ``stats.truncated`` is set.
    metric:
        Partial-distance metric: ``"l2"`` (exact ML, default) or
        ``"linf"`` (Seethaler & Bölcskei max/compare kernel — cheaper
        NORM stage, bounded BER loss).
    lattice:
        Lattice representation: ``"complex"`` (default), ``"real"``
        (stacked real decomposition) or ``"real-reordered"`` (Azzam &
        Ayanoglu interleaving). Real lattices need square QAM.
    record_trace:
        Keep the per-expansion :class:`BatchTrace` in the stats.
    """

    name = "sphere-gemm"
    trace_root = "sd"

    def __init__(
        self,
        constellation: Constellation,
        *,
        strategy: str = "best-first",
        radius_policy: RadiusPolicy | None = None,
        ordering: str = "natural",
        pool_size: int = 8,
        child_ordering: str = "sorted",
        max_nodes: int | None = None,
        metric: str = "l2",
        lattice: str = "complex",
        record_trace: bool = True,
    ) -> None:
        # Both policies are built, so every argument is validated here
        # whichever strategy uses it.
        policies = {
            "best-first": BestFirstPolicy(pool_size=pool_size, max_nodes=max_nodes),
            "dfs": DfsPolicy(child_ordering=child_ordering, max_nodes=max_nodes),
        }
        super().__init__(
            constellation,
            policies[check_in(strategy, "strategy", tuple(policies))],
            radius_policy=radius_policy or BabaiRadius(),
            ordering=ordering,
            metric=metric,
            lattice=lattice,
            record_trace=record_trace,
        )

    def _detect_span_args(self) -> dict:
        return {"detector": self.name, "strategy": self.policy.strategy}
