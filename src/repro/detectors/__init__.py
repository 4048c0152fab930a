"""Detector zoo: linear baselines, ML ground truth and tree-search decoders.

Construction for experiments/CLI/Monte-Carlo goes through the
declarative registry (:mod:`repro.detectors.registry`): a
:class:`DetectorSpec` names a registered kind plus parameters and is
picklable across process pools. Direct class construction remains fine
for library use.
"""

from repro.detectors.base import (
    BatchEvent,
    BatchTrace,
    DecodeStats,
    DetectionResult,
    Detector,
)
from repro.detectors.engine import EngineDetector
from repro.detectors.linear import ZeroForcingDetector, MMSEDetector, MRCDetector
from repro.detectors.ml import MLDetector
from repro.detectors.sphere import SphereDecoder
from repro.detectors.sd_bfs import GemmBfsDecoder
from repro.detectors.geosphere import GeosphereDecoder
from repro.detectors.fsd import FixedComplexityDecoder
from repro.detectors.soft import SoftOutputSphereDetector, SoftDetectionResult
from repro.detectors.sic import SICDetector
from repro.detectors.kbest import KBestDecoder
from repro.detectors.lr import LRZFDetector
from repro.detectors.real_sd import RealSphereDecoder
from repro.detectors.partitioned import PartitionedSphereDecoder
from repro.detectors.registry import (
    DetectorEntry,
    DetectorSpec,
    detector_entries,
    detector_entry,
    spec,
)

__all__ = [
    "Detector",
    "DetectionResult",
    "DecodeStats",
    "BatchEvent",
    "BatchTrace",
    "EngineDetector",
    "ZeroForcingDetector",
    "MMSEDetector",
    "MRCDetector",
    "MLDetector",
    "SphereDecoder",
    "GemmBfsDecoder",
    "GeosphereDecoder",
    "FixedComplexityDecoder",
    "SoftOutputSphereDetector",
    "SoftDetectionResult",
    "SICDetector",
    "KBestDecoder",
    "LRZFDetector",
    "RealSphereDecoder",
    "PartitionedSphereDecoder",
    "DetectorEntry",
    "DetectorSpec",
    "detector_entries",
    "detector_entry",
    "spec",
]
