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
batched evaluator. Running through the shared engine shell gives FSD
the cross-frame fused ``decode_batch`` path and ``fsd.*`` obs spans.
"""

from __future__ import annotations

import numpy as np

from repro.core.compiled import ENGINES
from repro.core.traversal import FsdPolicy, TraversalPolicy
from repro.detectors.engine import EngineDetector
from repro.mimo.constellation import Constellation
from repro.util.validation import check_in, check_positive_int


class FixedComplexityDecoder(EngineDetector):
    """FSD: full enumeration on ``rho`` levels, SIC below.

    Parameters
    ----------
    constellation:
        Symbol alphabet.
    rho:
        Number of fully-enumerated levels (``P^rho`` candidate paths).
        The classic choice for square systems is small (1 or 2).
    record_trace:
        Keep the per-level :class:`BatchTrace`.
    """

    name = "fsd"
    trace_root = "fsd"
    # FSD conventionally uses an ordering that puts the *least*
    # reliable streams in the fully-enumerated levels; SQRD places the
    # weakest stream at the deepest (last-detected) level, and its
    # reverse property means the top tree levels hold strong streams.
    # We keep SQRD: it is the standard robustness ordering and the
    # detector stays sub-optimal either way.
    ordering = "sqrd"

    def __init__(
        self,
        constellation: Constellation,
        *,
        rho: int = 1,
        record_trace: bool = True,
        engine: str | None = None,
    ) -> None:
        self.constellation = constellation
        self.rho = check_positive_int(rho, "rho")
        self.record_trace = record_trace
        self.engine = (
            None if engine is None else check_in(engine, "engine", ENGINES)
        )
        self._qr = None
        self._channel = None
        self._noise_var = 0.0
        self._prepared = False

    def _check_channel(self, channel: np.ndarray) -> None:
        if self.rho > channel.shape[1]:
            raise ValueError(
                f"rho={self.rho} exceeds the number of streams {channel.shape[1]}"
            )

    def _policy(self) -> TraversalPolicy:
        return FsdPolicy(rho=self.rho)
