"""The paper's core contribution: GEMM evaluation + traversal policies.

``repro.core`` holds the search machinery only — the per-channel
partial-distance kernel, the lockstep driver, traversal policies, radius
schedules, lattice tools. The detector classes built on top of them
live in :mod:`repro.detectors`.
"""

from repro.core.gemm import ChannelKernel
from repro.core.stats import BatchEvent, BatchTrace, DecodeStats
from repro.core.radius import (
    RadiusPolicy,
    InfiniteRadius,
    NoiseScaledRadius,
    FixedRadius,
    BabaiRadius,
    babai_point,
)
from repro.core.traversal import (
    TraversalPolicy,
    BestFirstPolicy,
    DfsPolicy,
    BfsPolicy,
    KBestPolicy,
    FsdPolicy,
    TraversalEngine,
    extend_paths,
)
from repro.core.lattice import lll_reduce, LLLResult, orthogonality_defect

__all__ = [
    "ChannelKernel",
    "extend_paths",
    "BatchEvent",
    "BatchTrace",
    "DecodeStats",
    "RadiusPolicy",
    "InfiniteRadius",
    "NoiseScaledRadius",
    "FixedRadius",
    "BabaiRadius",
    "babai_point",
    "TraversalPolicy",
    "BestFirstPolicy",
    "DfsPolicy",
    "BfsPolicy",
    "KBestPolicy",
    "FsdPolicy",
    "TraversalEngine",
    "lll_reduce",
    "LLLResult",
    "orthogonality_defect",
]

