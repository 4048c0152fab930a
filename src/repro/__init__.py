"""repro — GEMM-based Best-First-Search sphere decoding for large MIMO.

Reproduction of *"Signal Detection for Large MIMO Systems Using Sphere
Decoding on FPGAs"* (Hassan, Dabah, Ltaief, Fahmy — IPPS 2023).

The package is organised in layers:

``repro.mimo``
    Link-level substrate: constellations, modulation, Rayleigh fading
    channel, QR preprocessing, Monte Carlo simulation, BER metrics.
``repro.detectors``
    Detector zoo: linear (MRC/ZF/MMSE), brute-force ML, the sphere
    decoder, GEMM-BFS (the GPU baseline of Arfaoui et al.), K-best and
    the fixed-complexity SD, plus SIC, LR-ZF, list and multi-PE
    decoders. Presets (Geosphere-style depth-first SD, the real-lattice
    decoders) are registry entries over ``SphereDecoder``.
``repro.core``
    The paper's contribution: the GEMM-based sphere decoder with
    Best-First / sorted-DFS traversal and batched BLAS-3 node evaluation.
``repro.fpga``
    Cycle-approximate simulator of the paper's FPGA dataflow pipeline
    (systolic GEMM engine, prefetch/double buffering, Meta State Table,
    resource and power models for the Alveo U280).
``repro.perfmodel``
    Calibrated CPU / GPU / WARP execution-time models used to regenerate
    the paper's comparison figures.
``repro.bench``
    Experiment harness that regenerates every table and figure.
``repro.obs``
    Observability layer: span/counter tracing, Chrome ``trace_event``
    and JSONL exporters, percentile metrics, structured logging.

Quickstart::

    import numpy as np
    from repro import MIMOSystem, SphereDecoder

    rng = np.random.default_rng(0)
    system = MIMOSystem(n_tx=8, n_rx=8, modulation="4qam")
    frame = system.random_frame(snr_db=8.0, rng=rng)
    decoder = SphereDecoder(system.constellation)
    decoder.prepare(frame.channel, noise_var=frame.noise_var)
    result = decoder.detect(frame.received)
    assert np.array_equal(result.indices, frame.symbol_indices)
"""

from repro.mimo.constellation import Constellation
from repro.mimo.channel import ChannelModel, snr_db_to_noise_var
from repro.mimo.system import MIMOSystem, Frame
from repro.mimo.montecarlo import MonteCarloEngine, SweepResult
from repro.detectors.sphere import SphereDecoder
from repro.core.radius import (
    InfiniteRadius,
    NoiseScaledRadius,
    FixedRadius,
    BabaiRadius,
)
from repro.detectors.base import Detector, DetectionResult, DecodeStats
from repro.detectors.linear import (
    ZeroForcingDetector,
    MMSEDetector,
    MRCDetector,
)
from repro.detectors.ml import MLDetector
from repro.detectors.sd_bfs import GemmBfsDecoder
from repro.detectors.fsd import FixedComplexityDecoder
from repro.detectors.soft import SoftOutputSphereDetector, SoftDetectionResult
from repro.detectors.partitioned import PartitionedSphereDecoder
from repro.detectors.sic import SICDetector
from repro.detectors.kbest import KBestDecoder
from repro.detectors.lr import LRZFDetector
from repro.mimo.correlation import KroneckerChannelModel
from repro.mimo.estimation import EstimatedChannelLink
from repro.coding import ConvolutionalCode, ViterbiDecoder
from repro.fpga.pipeline import FPGAPipeline, PipelineConfig
from repro.fpga.device import AlveoU280
from repro.obs import Tracer, current_tracer, use_tracer

__version__ = "1.0.0"

__all__ = [
    "Constellation",
    "ChannelModel",
    "snr_db_to_noise_var",
    "MIMOSystem",
    "Frame",
    "MonteCarloEngine",
    "SweepResult",
    "SphereDecoder",
    "InfiniteRadius",
    "NoiseScaledRadius",
    "FixedRadius",
    "BabaiRadius",
    "Detector",
    "DetectionResult",
    "DecodeStats",
    "ZeroForcingDetector",
    "MMSEDetector",
    "MRCDetector",
    "MLDetector",
    "GemmBfsDecoder",
    "FixedComplexityDecoder",
    "SoftOutputSphereDetector",
    "SoftDetectionResult",
    "PartitionedSphereDecoder",
    "SICDetector",
    "KBestDecoder",
    "LRZFDetector",
    "KroneckerChannelModel",
    "EstimatedChannelLink",
    "ConvolutionalCode",
    "ViterbiDecoder",
    "FPGAPipeline",
    "PipelineConfig",
    "AlveoU280",
    "Tracer",
    "current_tracer",
    "use_tracer",
    "__version__",
]
