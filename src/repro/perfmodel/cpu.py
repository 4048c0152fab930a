"""CPU (MKL multi-core) execution-time model."""

from __future__ import annotations

import numpy as np

from repro.detectors.base import DecodeStats
from repro.perfmodel.calibration import CPU_DEFAULTS, CpuParams
from repro.util.validation import check_positive_int


class CPUCostModel:
    """Time model for the paper's optimised CPU sphere decoder.

    Consumes the same decode statistics as the FPGA pipeline simulator, so
    CPU-vs-FPGA comparisons hold the algorithmic work constant and vary
    only the platform — matching the paper's statement that the hardware
    design "mimics the execution profile and operational sequence of the
    CPU execution".

    Parameters
    ----------
    n_rx:
        Receive antennas; sets the tree-state row length (``2 (N+1)``
        words per generated child) charged at the memory-bound rate.
    params:
        Calibrated constants (see :mod:`repro.perfmodel.calibration`).
    """

    name = "cpu"

    def __init__(self, n_rx: int = 10, params: CpuParams = CPU_DEFAULTS) -> None:
        self.n_rx = check_positive_int(n_rx, "n_rx")
        self.params = params

    @property
    def words_per_child(self) -> int:
        """Tree-state words touched per generated child."""
        return 2 * (self.n_rx + 1)

    def decode_seconds(self, stats: DecodeStats) -> float:
        """Execution time for one decode's work counters.

        One dispatch per expansion batch: ``stats.gemm_calls``, which
        equals the batch-trace length whenever a trace is recorded.
        """
        p = self.params
        per_child = p.child_s + p.word_s * self.words_per_child
        return (
            p.setup_s
            + stats.gemm_calls * p.dispatch_s
            + stats.nodes_generated * per_child
            + stats.gemm_flops / p.flop_rate
        )

    def mean_decode_seconds(self, stats_list: list[DecodeStats]) -> float:
        """Mean decode time over per-frame stats records."""
        if not stats_list:
            raise ValueError("stats_list must be non-empty")
        return float(np.mean([self.decode_seconds(st) for st in stats_list]))


def linear_detector_seconds(
    n_tx: int,
    n_rx: int,
    *,
    vectors_per_block: int = 1,
    params: CpuParams = CPU_DEFAULTS,
) -> float:
    """CPU time for a ZF/MMSE detection (Fig. 12 baselines).

    One filter computation (``O(M^2 N + M^3)`` flops, amortised over
    ``vectors_per_block`` uses) plus a matrix-vector application and a
    slicing pass per received vector.
    """
    n_tx = check_positive_int(n_tx, "n_tx")
    n_rx = check_positive_int(n_rx, "n_rx")
    vectors_per_block = check_positive_int(vectors_per_block, "vectors_per_block")
    # Complex flops (x8 real) for Gram + inversion + filter application.
    prep_flops = 8 * (n_tx * n_tx * n_rx + n_tx**3)
    apply_flops = 8 * n_tx * n_rx
    return (
        params.setup_s / vectors_per_block
        + (prep_flops / vectors_per_block + apply_flops) / params.flop_rate
        + params.dispatch_s
    )
