"""Detector interface and instrumentation records.

Every detector follows a two-phase protocol mirroring a real base-station
deployment (and the paper's FPGA host flow):

1. :meth:`Detector.prepare` — per-channel-realisation preprocessing (QR,
   filter matrices...). Channels change at fading-block rate, much slower
   than symbols, so this cost is amortised.
2. :meth:`Detector.detect` — per-received-vector decoding.

Tree-search detectors additionally emit a :class:`DecodeStats` record of
how much work the search performed: node counts, GEMM calls/FLOPs and the
per-expansion :class:`BatchTrace` (two int columns, level and pool size;
iterating it yields :class:`BatchEvent` records). The cycle-approximate
FPGA pipeline simulator prices that trace and the CPU/GPU cost models
price the counters — the *algorithm* produces the work schedule, the
*platform models* turn it into time.

:class:`BatchEvent`, :class:`BatchTrace` and :class:`DecodeStats` are
defined in :mod:`repro.core.stats` (the traversal engine produces them);
they are re-exported here unchanged since this is where the rest of the
codebase historically imports them from.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from repro.core.stats import BatchEvent, BatchTrace, DecodeStats

__all__ = [
    "BatchEvent",
    "BatchTrace",
    "DecodeStats",
    "DetectionResult",
    "Detector",
]


@dataclass
class DetectionResult:
    """Outcome of decoding one received vector.

    Attributes
    ----------
    indices:
        ``(n_tx,)`` decided constellation point indices, in the original
        antenna order.
    symbols:
        The corresponding complex points.
    bits:
        The corresponding hard bits (flat, ``n_tx * bits_per_symbol``).
    metric:
        ``||y - H s_hat||^2`` of the returned decision (the ML objective,
        eq. 2). ``inf`` if a detector failed to produce a candidate.
    stats:
        Search instrumentation; ``None`` for closed-form detectors.
    """

    indices: np.ndarray
    symbols: np.ndarray
    bits: np.ndarray
    metric: float
    stats: DecodeStats | None = None


class Detector(abc.ABC):
    """Abstract MIMO detector (two-phase: ``prepare`` then ``detect``)."""

    #: Short identifier used in reports and experiment tables.
    name: str = "detector"

    @abc.abstractmethod
    def prepare(self, channel: np.ndarray, noise_var: float = 0.0) -> None:
        """Absorb one channel realisation (and the noise variance).

        Must be called before :meth:`detect`; may be called repeatedly
        with new channels.
        """

    @abc.abstractmethod
    def detect(self, received: np.ndarray) -> DetectionResult:
        """Decode one received vector against the prepared channel."""

    def detect_batch(self, received: np.ndarray) -> list[DetectionResult]:
        """Decode each row of ``received`` (default: sequential loop)."""
        received = np.asarray(received)
        if received.ndim != 2:
            raise ValueError(f"received must be 2-D, got shape {received.shape}")
        return [self.detect(row) for row in received]

    def _require_prepared(self, attr: str = "_prepared") -> None:
        if not getattr(self, attr, False):
            raise RuntimeError(
                f"{type(self).__name__}.detect called before prepare()"
            )
