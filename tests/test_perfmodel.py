"""Tests for the CPU / GPU / WARP execution-time models."""

import numpy as np
import pytest

from repro.detectors.base import BatchTrace, DecodeStats
from repro.perfmodel import (
    CPU_DEFAULTS,
    GPU_DEFAULTS,
    WARP_DEFAULTS,
    CPUCostModel,
    GPUCostModel,
    WARPCostModel,
    CpuParams,
    GpuParams,
    WarpParams,
)
from repro.perfmodel.cpu import linear_detector_seconds


def stats_with(batches=10, generated=40, flops=1000):
    return DecodeStats(
        nodes_expanded=batches,
        nodes_generated=generated,
        gemm_calls=batches,
        gemm_flops=flops,
        batches=BatchTrace([0] * batches, [1] * batches),
    )


class TestCpuModel:
    def test_more_work_more_time(self):
        cpu = CPUCostModel(n_rx=10)
        light = stats_with(batches=10, generated=40)
        heavy = stats_with(batches=100, generated=400)
        assert cpu.decode_seconds(heavy) > cpu.decode_seconds(light)

    def test_setup_floor(self):
        cpu = CPUCostModel(n_rx=10)
        assert cpu.decode_seconds(stats_with(1, 0, 0)) >= CPU_DEFAULTS.setup_s

    def test_n_rx_scaling(self):
        """Bigger systems pay more per generated child (tree-state rows)."""
        small = CPUCostModel(n_rx=10)
        big = CPUCostModel(n_rx=20)
        st = stats_with(batches=10, generated=10_000, flops=0)
        assert big.decode_seconds(st) > small.decode_seconds(st)

    def test_words_per_child(self):
        assert CPUCostModel(n_rx=10).words_per_child == 22

    def test_falls_back_to_gemm_calls_without_trace(self):
        cpu = CPUCostModel(n_rx=10)
        st = DecodeStats(nodes_generated=40, gemm_calls=10)
        with_trace = stats_with(batches=10, generated=40, flops=0)
        st.gemm_flops = 0
        assert cpu.decode_seconds(st) == pytest.approx(
            cpu.decode_seconds(with_trace)
        )

    def test_mean(self):
        cpu = CPUCostModel(n_rx=10)
        sts = [stats_with(10, 40), stats_with(20, 80)]
        mean = cpu.mean_decode_seconds(sts)
        assert mean == pytest.approx(
            np.mean([cpu.decode_seconds(s) for s in sts])
        )
        with pytest.raises(ValueError):
            cpu.mean_decode_seconds([])

    def test_anchor_ballpark(self):
        """~530 batches / ~2100 children (the 4 dB canonical trace) => ~7 ms."""
        cpu = CPUCostModel(n_rx=10)
        st = stats_with(batches=528, generated=2114, flops=200_000)
        assert cpu.decode_seconds(st) == pytest.approx(7e-3, rel=0.15)

    def test_params_validated(self):
        with pytest.raises(ValueError):
            CpuParams(setup_s=-1.0)


class TestGpuModel:
    def test_sync_dominates_small_problems(self):
        """The paper's point: per-level sync overhead floors GPU time."""
        gpu = GPUCostModel()
        tiny = stats_with(batches=10, generated=40, flops=100)
        assert gpu.decode_seconds(tiny) >= 10 * GPU_DEFAULTS.sync_per_level_s

    def test_node_cost_matters_at_scale(self):
        gpu = GPUCostModel()
        small = stats_with(batches=10, generated=1_000)
        huge = stats_with(batches=10, generated=1_000_000)
        assert gpu.decode_seconds(huge) > 2 * gpu.decode_seconds(small)

    def test_mean_and_validation(self):
        gpu = GPUCostModel()
        with pytest.raises(ValueError):
            gpu.mean_decode_seconds([])
        with pytest.raises(ValueError):
            GpuParams(sync_per_level_s=0.0)


class TestWarpModel:
    def test_linear_in_nodes(self):
        warp = WARPCostModel()
        a = DecodeStats(nodes_expanded=10)
        b = DecodeStats(nodes_expanded=20)
        da = warp.decode_seconds(a) - WARP_DEFAULTS.setup_s
        db = warp.decode_seconds(b) - WARP_DEFAULTS.setup_s
        assert db == pytest.approx(2 * da)

    def test_anchor_ballpark(self):
        """~14 expansions (20 dB trace) => ~11 ms (paper Fig. 12)."""
        warp = WARPCostModel()
        st = DecodeStats(nodes_expanded=14)
        assert warp.decode_seconds(st) == pytest.approx(11e-3, rel=0.15)

    def test_params_validated(self):
        with pytest.raises(ValueError):
            WarpParams(clock_hz=0.0)


class TestLinearDetectorModel:
    def test_faster_with_amortisation(self):
        once = linear_detector_seconds(10, 10, vectors_per_block=1)
        amortised = linear_detector_seconds(10, 10, vectors_per_block=100)
        assert amortised < once

    def test_grows_with_size(self):
        assert linear_detector_seconds(20, 20) > linear_detector_seconds(10, 10)

    def test_validation(self):
        with pytest.raises(ValueError):
            linear_detector_seconds(0, 10)
        with pytest.raises(ValueError):
            linear_detector_seconds(10, 10, vectors_per_block=0)

    def test_linear_far_faster_than_sd_at_low_snr(self):
        """ZF/MMSE time << SD time on a heavy trace (Fig. 12's contrast)."""
        cpu = CPUCostModel(n_rx=10)
        heavy = stats_with(batches=528, generated=2114, flops=200_000)
        assert linear_detector_seconds(10, 10, vectors_per_block=10) < 0.2 * (
            cpu.decode_seconds(heavy)
        )
