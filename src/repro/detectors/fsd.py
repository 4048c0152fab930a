"""Fixed-complexity sphere decoder (FSD) — related-work baseline.

Barbero & Thompson's FSD (paper section II-C) trades ML optimality for a
*data-independent* schedule: the first ``rho`` tree levels are fully
enumerated (all ``P`` children) and every remaining level is decided by
successive interference cancellation (single best child). The workload
is therefore exactly ``P^rho`` root-to-leaf paths regardless of SNR —
"massively parallelizable with minimal dependencies", but resource-hungry
and sub-optimal, which is why the paper pursues the exact SD instead.

The schedule is :class:`~repro.core.traversal.FsdPolicy`: each level
processes the entire ``P^rho``-wide candidate block with one
:class:`ExpandRequest`, so FSD also serves as a stress test for the
batched partial-distance kernel. Running through the shared engine shell gives FSD
the cross-frame fused ``decode_batch`` path and ``fsd.*`` obs spans.
"""

from __future__ import annotations

import numpy as np

from repro.core.traversal import FsdPolicy
from repro.detectors.engine import EngineDetector
from repro.mimo.constellation import Constellation


class FixedComplexityDecoder(EngineDetector):
    """FSD: full enumeration on ``rho`` levels, SIC below.

    Parameters
    ----------
    constellation:
        Symbol alphabet.
    rho:
        Number of fully-enumerated levels (``P^rho`` candidate paths).
        The classic choice for square systems is small (1 or 2).
    metric:
        Partial-distance metric (``"l2"`` or ``"linf"``).
    lattice:
        Lattice representation (``"complex"``, ``"real"`` or
        ``"real-reordered"``).
    record_trace:
        Keep the per-level :class:`BatchTrace`.
    """

    name = "fsd"
    trace_root = "fsd"

    def __init__(
        self,
        constellation: Constellation,
        *,
        rho: int = 1,
        metric: str = "l2",
        lattice: str = "complex",
        record_trace: bool = True,
    ) -> None:
        # FSD conventionally uses an ordering that puts the *least*
        # reliable streams in the fully-enumerated levels; SQRD places
        # the weakest stream at the deepest (last-detected) level, and
        # its reverse property means the top tree levels hold strong
        # streams. We keep SQRD: it is the standard robustness ordering
        # and the detector stays sub-optimal either way.
        super().__init__(
            constellation,
            FsdPolicy(rho=rho),
            ordering="sqrd",
            metric=metric,
            lattice=lattice,
            record_trace=record_trace,
        )

    def _check_channel(self, channel: np.ndarray) -> None:
        rho = self.policy.rho
        if rho > channel.shape[1]:
            raise ValueError(
                f"rho={rho} exceeds the number of streams {channel.shape[1]}"
            )
