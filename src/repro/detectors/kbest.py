"""K-best sphere detection — the fixed-throughput hardware favourite.

A breadth-first sweep that keeps only the ``K`` lowest-PD nodes per
level. Unlike the exact SD its latency is data-independent (like the
FSD, section II-C), which is why commercial MIMO ASICs use it; unlike
the FSD its survivors are chosen adaptively per level, giving much
better BER for the same work. It is the natural middle point between
:class:`~repro.detectors.fsd.FixedComplexityDecoder` and the exact
:class:`~repro.detectors.sphere.SphereDecoder`, and — because each
level is one batched evaluation — it maps to the paper's GEMM engine
just as well as BFS does. The sweep is
:class:`~repro.core.traversal.KBestPolicy`; running through the shared
engine shell gives K-best the cross-frame fused ``decode_batch`` path
and ``kbest.*`` obs spans for free.
"""

from __future__ import annotations

from repro.core.compiled import ENGINES
from repro.core.traversal import KBestPolicy, TraversalPolicy
from repro.detectors.engine import EngineDetector
from repro.mimo.constellation import Constellation
from repro.util.validation import check_in, check_positive_int


class KBestDecoder(EngineDetector):
    """Per-level K-survivor breadth-first detector.

    Parameters
    ----------
    constellation:
        Symbol alphabet.
    k:
        Survivors kept per level. ``k >= P^M`` recovers exhaustive ML;
        small ``k`` trades BER for a hard workload bound. Typical
        hardware choices are 8–64.
    """

    name = "kbest"
    trace_root = "kbest"
    # SQRD ordering: detecting reliable streams first makes the
    # K-survivor truncation far less likely to drop the ML path.
    ordering = "sqrd"

    def __init__(
        self,
        constellation: Constellation,
        *,
        k: int = 16,
        metric: str = "l2",
        record_trace: bool = True,
        engine: str | None = None,
    ) -> None:
        self.constellation = constellation
        self.k = check_positive_int(k, "k")
        self.metric = metric
        self.record_trace = record_trace
        self.engine = (
            None if engine is None else check_in(engine, "engine", ENGINES)
        )
        self._resolve_axes()
        self._qr = None
        self._channel = None
        self._noise_var = 0.0
        self._prepared = False

    def _policy(self) -> TraversalPolicy:
        return KBestPolicy(k=self.k)
