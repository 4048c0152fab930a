"""The paper's core contribution: GEMM evaluation + traversal policies.

Since the policy/backend split, ``repro.core`` holds the search
machinery only — traversal policies, evaluators, radius schedules,
lattice tools. The detector classes built on top of them live in
:mod:`repro.detectors`; ``SphereDecoder`` and
``PartitionedSphereDecoder`` are still importable from here through a
deprecation shim.
"""

import warnings

from repro.core.gemm import ChannelKernel, GemmEvaluator
from repro.core.nodepool import NodePool, extend_paths
from repro.core.stats import BatchEvent, BatchTrace, DecodeStats
from repro.core.tree import SearchNode, path_symbols
from repro.core.radius import (
    RadiusPolicy,
    InfiniteRadius,
    NoiseScaledRadius,
    FixedRadius,
    BabaiRadius,
    babai_point,
)
from repro.core.enumeration import child_order
from repro.core.traversal import (
    TraversalPolicy,
    BestFirstPolicy,
    DfsPolicy,
    BfsPolicy,
    KBestPolicy,
    FsdPolicy,
    ScalarGemvBackend,
    FusedGemmBackend,
    TraversalEngine,
)
from repro.core.lattice import lll_reduce, LLLResult, orthogonality_defect

#: Detector classes that used to live here; resolved lazily with a
#: DeprecationWarning so ``from repro.core import SphereDecoder`` keeps
#: working without making core import the detector layer eagerly.
_MOVED_DETECTORS = {
    "SphereDecoder": ("repro.detectors.sphere", "SphereDecoder"),
    "PartitionedSphereDecoder": (
        "repro.detectors.partitioned",
        "PartitionedSphereDecoder",
    ),
}

__all__ = [
    "GemmEvaluator",
    "ChannelKernel",
    "NodePool",
    "extend_paths",
    "BatchEvent",
    "BatchTrace",
    "DecodeStats",
    "SearchNode",
    "path_symbols",
    "RadiusPolicy",
    "InfiniteRadius",
    "NoiseScaledRadius",
    "FixedRadius",
    "BabaiRadius",
    "babai_point",
    "child_order",
    "TraversalPolicy",
    "BestFirstPolicy",
    "DfsPolicy",
    "BfsPolicy",
    "KBestPolicy",
    "FsdPolicy",
    "ScalarGemvBackend",
    "FusedGemmBackend",
    "TraversalEngine",
    "SphereDecoder",
    "PartitionedSphereDecoder",
    "lll_reduce",
    "LLLResult",
    "orthogonality_defect",
]


def __getattr__(name: str):
    try:
        module_name, attr = _MOVED_DETECTORS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    warnings.warn(
        f"repro.core.{name} moved to {module_name}.{attr}; "
        "update the import (this shim will be removed)",
        DeprecationWarning,
        stacklevel=2,
    )
    import importlib

    return getattr(importlib.import_module(module_name), attr)
