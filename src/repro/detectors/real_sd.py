"""Real-valued-decomposition sphere decoding (the PAM-domain variant).

Most hardware sphere decoders (Geosphere included) work on the
equivalent real system rather than the complex one: the ``M``-level tree
with ``P`` children per node becomes a ``2M``-level tree with ``sqrt(P)``
children — same leaf count, but far narrower branching. For 16-QAM that
is 20 levels x 4 children instead of 10 levels x 16, which changes the
pruning dynamics (finer-grained PDs allow earlier cuts) and the GEMM
shapes (skinnier, twice as many).

Since the lattice representation became a first-class
:class:`~repro.detectors.engine.EngineDetector` axis
(:mod:`repro.core.lattice`), this class is a thin preset: a
:class:`~repro.detectors.sphere.SphereDecoder` pinned to
``lattice="real"`` with the historical DFS/noise-scaled-radius defaults.
The engine shell maps the channel through
:func:`~repro.mimo.preprocessing.real_decomposition`, searches the
per-dimension PAM alphabet, and folds the (I, Q) decision pair back to
QAM indices; exactness carries over — verified against brute-force ML in
``tests/test_real_sd.py`` — and the decode trace drives the same
platform models, enabling the complex-vs-real domain comparison. The
reordered (interleaved) variant of Azzam & Ayanoglu is the same decoder
with ``lattice="real-reordered"`` (registry kind ``sd-real-reordered``).
"""

from __future__ import annotations

from repro.core.radius import NoiseScaledRadius, RadiusPolicy
from repro.detectors.sphere import SphereDecoder
from repro.mimo.constellation import Constellation, pam_component

__all__ = ["RealSphereDecoder", "pam_component"]


class RealSphereDecoder(SphereDecoder):
    """Exact sphere decoding over the 2M-dimensional real lattice.

    Parameters mirror :class:`SphereDecoder`; the traversal runs on the
    real decomposition with the PAM alphabet. ``lattice`` selects the
    column layout (``"real"`` stacked — the default — or
    ``"real-reordered"`` interleaved).
    """

    name = "sphere-real"

    def __init__(
        self,
        constellation: Constellation,
        *,
        strategy: str = "dfs",
        radius_policy: RadiusPolicy | None = None,
        max_nodes: int | None = None,
        lattice: str = "real",
        record_trace: bool = True,
    ) -> None:
        super().__init__(
            constellation,
            strategy=strategy,
            radius_policy=radius_policy or NoiseScaledRadius(alpha=2.0),
            max_nodes=max_nodes,
            lattice=lattice,
            record_trace=record_trace,
        )
        #: The per-dimension PAM search alphabet (back-compat alias).
        self.pam = self.search_constellation
