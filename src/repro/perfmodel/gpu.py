"""GPU (A100, GEMM-BFS of [1]) execution-time model.

The paper's argument (section IV-F): the SD radius update is a global
synchronisation, which is "very costly on GPUs", so the GPU
implementation runs breadth-first — one kernel + device synchronisation
per tree level — and pays for it by exploring orders of magnitude more
nodes. This model charges exactly those terms against the BFS decoder's
trace.
"""

from __future__ import annotations

import numpy as np

from repro.detectors.base import DecodeStats
from repro.perfmodel.calibration import GPU_DEFAULTS, GpuParams


class GPUCostModel:
    """Time model for the level-synchronous GPU sphere decoder."""

    name = "gpu-bfs"

    def __init__(self, params: GpuParams = GPU_DEFAULTS) -> None:
        self.params = params

    def decode_seconds(self, stats: DecodeStats) -> float:
        """Execution time for one decode's work counters.

        Each GEMM call of the BFS decoder is one tree level (one kernel
        launch + sync); radius escalations simply add more level calls,
        so they are charged automatically.
        """
        p = self.params
        return (
            p.setup_s
            + stats.gemm_calls * p.sync_per_level_s
            + stats.nodes_generated * p.node_s
            + stats.gemm_flops / p.flop_rate
        )

    def mean_decode_seconds(self, stats_list: list[DecodeStats]) -> float:
        """Mean decode time over per-frame stats records."""
        if not stats_list:
            raise ValueError("stats_list must be non-empty")
        return float(np.mean([self.decode_seconds(st) for st in stats_list]))
