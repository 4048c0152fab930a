"""Tests for the FPGA dataflow pipeline simulator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from repro.core.radius import NoiseScaledRadius
from repro.detectors.base import BatchEvent, BatchTrace, DecodeStats
from repro.detectors.sphere import SphereDecoder
from repro.fpga.device import AlveoU280
from repro.fpga.pipeline import (
    OVERHEAD_BUCKETS,
    PIPELINE_STAGES,
    FPGAPipeline,
    PipelineConfig,
)
from repro.mimo.system import MIMOSystem


def realistic_stats(snr_db=8.0, seed=0, n=10):
    system = MIMOSystem(n, n, "4qam")
    frame = system.random_frame(snr_db, np.random.default_rng(seed))
    decoder = SphereDecoder(
        system.constellation,
        strategy="dfs",
        radius_policy=NoiseScaledRadius(alpha=2.0),
    )
    decoder.prepare(frame.channel, noise_var=frame.noise_var)
    return decoder.detect(frame.received).stats


class TestConfigs:
    def test_presets_valid(self):
        base = PipelineConfig.baseline(4)
        opt = PipelineConfig.optimized(4)
        assert base.freq_mhz == 253.0
        assert opt.freq_mhz == 300.0
        assert not base.prefetch.double_buffered
        assert opt.prefetch.double_buffered
        assert opt.gemm.initiation_interval == 1

    def test_mesh_scales_with_order(self):
        assert PipelineConfig.optimized(16).gemm.cols > PipelineConfig.optimized(
            4
        ).gemm.cols

    def test_negative_field_rejected(self):
        opt = PipelineConfig.optimized(4)
        from dataclasses import replace

        with pytest.raises(ValueError):
            replace(opt, control_overhead_cycles=-1)
        with pytest.raises(ValueError):
            replace(opt, freq_mhz=0.0)

    def test_clock_above_device_limit_rejected(self):
        from dataclasses import replace

        fast = replace(PipelineConfig.optimized(4), freq_mhz=500.0)
        with pytest.raises(ValueError, match="exceeds device limit"):
            FPGAPipeline(fast, n_tx=10, n_rx=10, order=4)


class TestBatchCycles:
    def make(self, config=None):
        return FPGAPipeline(
            config or PipelineConfig.optimized(4), n_tx=10, n_rx=10, order=4
        )

    def test_breakdown_keys(self):
        pipe = self.make()
        cycles = pipe.batch_cycles(BatchEvent(level=5, pool_size=2))
        assert set(cycles) == {
            "branch",
            "prefetch",
            "gemm",
            "evaluate",
            "norm",
            "prune",
            "control",
            "total",
        }
        assert cycles["total"] > 0

    def test_attribution_sums_to_batch_total(self):
        """Per-stage attribution of one batch sums exactly to its total."""
        pipe = self.make()
        for ev in (BatchEvent(5, 2), BatchEvent(0, 32), BatchEvent(9, 1)):
            cycles = pipe.batch_cycles(ev)
            attributed = pipe.batch_attribution(ev)
            assert sum(attributed.values()) == cycles["total"]

    def test_attribution_sums_without_overlap(self):
        """Same invariant on the baseline (no dataflow overlap)."""
        pipe = self.make(PipelineConfig.baseline(4))
        ev = BatchEvent(5, 4)
        assert sum(pipe.batch_attribution(ev).values()) == pipe.batch_cycles(ev)[
            "total"
        ]

    def test_bigger_pool_costs_more(self):
        pipe = self.make()
        small = pipe.batch_cycles(BatchEvent(5, 1))["total"]
        big = pipe.batch_cycles(BatchEvent(5, 32))["total"]
        assert big > small

    def test_deeper_levels_cost_more_eval(self):
        """Lower level => longer interference row => bigger GEMM."""
        pipe = self.make()
        shallow = pipe.batch_cycles(BatchEvent(9, 1))["evaluate"]
        deep = pipe.batch_cycles(BatchEvent(0, 1))["evaluate"]
        assert deep >= shallow

    def test_level_validated(self):
        pipe = self.make()
        with pytest.raises(ValueError):
            pipe.batch_cycles(BatchEvent(10, 1))

    def test_baseline_batch_slower(self):
        opt = self.make()
        base = self.make(PipelineConfig.baseline(4))
        ev = BatchEvent(5, 1)
        assert base.batch_cycles(ev)["total"] > opt.batch_cycles(ev)["total"]


class TestDecodeReport:
    def test_requires_trace(self):
        pipe = FPGAPipeline(PipelineConfig.optimized(4), n_tx=10, n_rx=10, order=4)
        with pytest.raises(ValueError, match="batch trace"):
            pipe.decode_report(DecodeStats())

    def test_report_fields(self):
        stats = realistic_stats()
        pipe = FPGAPipeline(PipelineConfig.optimized(4), n_tx=10, n_rx=10, order=4)
        report = pipe.decode_report(stats)
        assert report.total_cycles > 0
        assert report.batches == len(stats.batches)
        assert report.seconds == pytest.approx(
            report.total_cycles / 300e6, rel=1e-12
        )
        assert report.milliseconds == pytest.approx(report.seconds * 1e3)

    def test_breakdown_sums_reasonably(self):
        stats = realistic_stats()
        pipe = FPGAPipeline(PipelineConfig.optimized(4), n_tx=10, n_rx=10, order=4)
        report = pipe.decode_report(stats)
        assert set(report.breakdown) >= {
            "branch",
            "evaluate",
            "norm",
            "prune",
            "control",
            "radius",
            "setup",
            "transfer",
        }

    def test_stage_breakdown_sums_to_total(self):
        """Acceptance invariant: stage attribution covers every cycle."""
        stats = realistic_stats()
        for config in (PipelineConfig.optimized(4), PipelineConfig.baseline(4)):
            pipe = FPGAPipeline(config, n_tx=10, n_rx=10, order=4)
            report = pipe.decode_report(stats)
            breakdown = report.stage_breakdown()
            assert sum(breakdown.values()) == report.total_cycles
            assert all(v >= 0 for v in breakdown.values())

    def test_stage_breakdown_is_a_copy(self):
        stats = realistic_stats()
        pipe = FPGAPipeline(PipelineConfig.optimized(4), n_tx=10, n_rx=10, order=4)
        report = pipe.decode_report(stats)
        report.stage_breakdown()["gemm"] = -1
        assert report.stage_breakdown().get("gemm", 0) >= 0

    def test_format_stage_breakdown(self):
        stats = realistic_stats()
        pipe = FPGAPipeline(PipelineConfig.optimized(4), n_tx=10, n_rx=10, order=4)
        text = pipe.decode_report(stats).format_stage_breakdown()
        assert "cycles over" in text
        assert "gemm" in text
        assert "%" in text

    def test_decode_report_emits_stage_counters(self):
        from repro.obs import MetricsRegistry, Tracer, use_metrics, use_tracer

        stats = realistic_stats()
        pipe = FPGAPipeline(PipelineConfig.optimized(4), n_tx=10, n_rx=10, order=4)
        with use_tracer(Tracer()) as tracer, use_metrics(MetricsRegistry()) as m:
            report = pipe.decode_report(stats)
        snap = m.snapshot()
        assert snap.counter_total("fpga.cycles_total") == report.total_cycles
        assert tracer.spans("fpga.decode_report")
        # Charged cycles per stage plus the attributed overhead buckets
        # account for every cycle of the report.
        charged = {
            dict(key)["stage"]: v
            for (name, key), v in snap.counters.items()
            if name == "fpga.charged_cycles"
        }
        stalls = {
            dict(key)["bucket"]: v
            for (name, key), v in snap.counters.items()
            if name == "fpga.stall_cycles"
        }
        assert {**charged, **stalls} == report.attributed
        assert sum(charged.values()) + sum(stalls.values()) == report.total_cycles

    def test_transfer_under_three_percent(self):
        """The paper's <3% host->HBM staging claim on a realistic trace."""
        stats = realistic_stats(snr_db=8.0)
        pipe = FPGAPipeline(PipelineConfig.optimized(4), n_tx=10, n_rx=10, order=4)
        report = pipe.decode_report(stats)
        assert report.transfer_fraction < 0.03

    def test_optimized_faster_than_baseline_same_trace(self):
        stats = realistic_stats()
        opt = FPGAPipeline(PipelineConfig.optimized(4), n_tx=10, n_rx=10, order=4)
        base = FPGAPipeline(PipelineConfig.baseline(4), n_tx=10, n_rx=10, order=4)
        assert (
            base.decode_report(stats).total_cycles
            > opt.decode_report(stats).total_cycles
        )

    def test_more_work_more_cycles(self):
        low_snr = realistic_stats(snr_db=4.0, seed=1)
        high_snr = realistic_stats(snr_db=20.0, seed=1)
        pipe = FPGAPipeline(PipelineConfig.optimized(4), n_tx=10, n_rx=10, order=4)
        assert (
            pipe.decode_report(low_snr).total_cycles
            >= pipe.decode_report(high_snr).total_cycles
        )

    def test_mean_decode_seconds(self):
        stats = [realistic_stats(seed=s) for s in range(3)]
        pipe = FPGAPipeline(PipelineConfig.optimized(4), n_tx=10, n_rx=10, order=4)
        mean = pipe.mean_decode_seconds(stats)
        individuals = [pipe.decode_report(st).seconds for st in stats]
        assert mean == pytest.approx(np.mean(individuals))
        with pytest.raises(ValueError):
            pipe.mean_decode_seconds([])


class TestAnchorCalibration:
    """The calibrated model must land near the paper's 10x10 anchors."""

    def test_speedup_near_five_x(self):
        """CPU/FPGA-opt ~= 5x on the canonical trace (paper Fig. 6)."""
        from repro.perfmodel import CPUCostModel

        stats = [realistic_stats(snr_db=8.0, seed=s) for s in range(5)]
        cpu = CPUCostModel(n_rx=10)
        pipe = FPGAPipeline(PipelineConfig.optimized(4), n_tx=10, n_rx=10, order=4)
        cpu_t = cpu.mean_decode_seconds(stats)
        fpga_t = pipe.mean_decode_seconds(stats)
        assert 3.0 < cpu_t / fpga_t < 8.0

    def test_baseline_speedup_modest(self):
        """CPU/FPGA-baseline ~= 1.4x (paper Fig. 6)."""
        from repro.perfmodel import CPUCostModel

        stats = [realistic_stats(snr_db=4.0, seed=s) for s in range(5)]
        cpu = CPUCostModel(n_rx=10)
        base = FPGAPipeline(PipelineConfig.baseline(4), n_tx=10, n_rx=10, order=4)
        ratio = cpu.mean_decode_seconds(stats) / base.mean_decode_seconds(stats)
        assert 1.0 < ratio < 2.5


class TestStageBreakdownProperty:
    """stage_breakdown() must sum *exactly* to total_cycles — the
    attribution invariant — for any config, geometry and batch trace."""

    MODULATIONS = {"4qam": 4, "16qam": 16, "64qam": 64}

    def random_config(self, rng, order):
        from dataclasses import replace

        preset = (
            PipelineConfig.baseline(order)
            if rng.random() < 0.5
            else PipelineConfig.optimized(order)
        )
        return replace(
            preset,
            dataflow_overlap=bool(rng.random() < 0.5),
            prefetch=replace(
                preset.prefetch,
                double_buffered=bool(rng.random() < 0.5),
                address_setup_cycles=int(rng.integers(0, 12)),
                hbm_channels=int(rng.integers(1, 5)),
            ),
            gemm=replace(
                preset.gemm,
                pipeline_depth=int(rng.integers(1, 24)),
                initiation_interval=int(rng.integers(1, 5)),
            ),
            control_overhead_cycles=int(rng.integers(0, 128)),
            branch_ii=int(rng.integers(1, 5)),
            branch_latency=int(rng.integers(1, 20)),
            norm_ii=int(rng.integers(1, 5)),
            norm_latency=int(rng.integers(1, 24)),
            sorted_insertion=bool(rng.random() < 0.5),
            list_cycles_per_child=int(rng.integers(1, 20)),
            radius_update_cycles=int(rng.integers(0, 12)),
            pipeline_fill_cycles=int(rng.integers(0, 48)),
            node_roundtrip_cycles=int(rng.integers(0, 64)),
            setup_cycles=int(rng.integers(0, 120_000)),
        )

    def random_stats(self, rng, n_tx, depth):
        batches = [
            BatchEvent(
                level=int(rng.integers(0, n_tx)),
                pool_size=int(rng.integers(1, 65)),
            )
            for _ in range(depth)
        ]
        return DecodeStats(
            nodes_expanded=depth,
            nodes_generated=sum(b.pool_size for b in batches),
            radius_updates=int(rng.integers(0, 20)),
            batches=BatchTrace.from_events(batches),
        )

    @pytest.mark.parametrize("seed", range(20))
    def test_attribution_sums_exactly(self, seed):
        rng = np.random.default_rng(seed)
        mod = list(self.MODULATIONS)[seed % 3]
        order = self.MODULATIONS[mod]
        n_tx = int(rng.integers(2, 17))
        n_rx = n_tx + int(rng.integers(0, 5))
        config = self.random_config(rng, order)
        pipe = FPGAPipeline(config, n_tx=n_tx, n_rx=n_rx, order=order)
        stats = self.random_stats(rng, n_tx, depth=int(rng.integers(1, 400)))
        report = pipe.decode_report(stats)
        assert sum(report.stage_breakdown().values()) == report.total_cycles
        assert all(v >= 0 for v in report.stage_breakdown().values())
        assert report.batches == len(stats.batches)

    @pytest.mark.parametrize("mod,order", sorted(MODULATIONS.items()))
    def test_attribution_sums_on_real_traces(self, mod, order):
        system = MIMOSystem(6, 6, mod)
        frame = system.random_frame(12.0, np.random.default_rng(1))
        decoder = SphereDecoder(system.constellation)
        decoder.prepare(frame.channel, noise_var=frame.noise_var)
        stats = decoder.detect(frame.received).stats
        for config in (PipelineConfig.baseline(order), PipelineConfig.optimized(order)):
            report = FPGAPipeline(
                config, n_tx=6, n_rx=6, order=order
            ).decode_report(stats)
            assert sum(report.stage_breakdown().values()) == report.total_cycles


def _replay_reference(pipe, stats):
    """``(total, breakdown, attributed)`` by per-event replay.

    Sums :meth:`FPGAPipeline.batch_cycles` / ``batch_attribution`` over
    every event, then adds the radius, setup and transfer terms, with
    the key order the report has always had.
    """
    cfg = pipe.config
    breakdown = dict.fromkeys(
        ("branch", "prefetch", "gemm", "evaluate", "norm", "prune", "control"), 0
    )
    attributed = dict.fromkeys(PIPELINE_STAGES + OVERHEAD_BUCKETS, 0)
    total = 0
    for event in stats.batches:
        cycles = pipe.batch_cycles(event)
        total += cycles.pop("total")
        for key, value in cycles.items():
            breakdown[key] += value
        for key, value in pipe.batch_attribution(event).items():
            attributed[key] += value
    for bucket, value in (
        ("radius", stats.radius_updates * cfg.radius_update_cycles),
        ("setup", cfg.setup_cycles),
        ("transfer", pipe.transfer_cycles()),
    ):
        breakdown[bucket] = value
        attributed[bucket] = value
        total += value
    return total, breakdown, attributed


@hst.composite
def _traces(draw):
    """``(n_tx, events, radius_updates, bad_at)`` for one random decode."""
    n_tx = draw(hst.integers(min_value=4, max_value=20))
    events = draw(
        hst.lists(
            hst.tuples(
                hst.integers(min_value=0, max_value=n_tx - 1),
                hst.integers(min_value=1, max_value=64),
            ),
            min_size=1,
            max_size=400,
        )
    )
    radius = draw(hst.integers(min_value=0, max_value=50))
    bad_at = draw(hst.integers(min_value=0, max_value=len(events)))
    return n_tx, events, radius, bad_at


class TestTablePricing:
    """decode_report prices each distinct (level, pool) once from a
    table; the report must equal per-event replay exactly."""

    @pytest.mark.parametrize("order", [4, 16])
    @pytest.mark.parametrize("norm_kind", ["mac", "compare"])
    @pytest.mark.parametrize("preset", ["baseline", "optimized"])
    @given(case=_traces())
    @settings(max_examples=25, deadline=None)
    def test_equals_per_event_replay(self, preset, norm_kind, order, case):
        n_tx, events, radius, bad_at = case
        config = getattr(PipelineConfig, preset)(order, norm_kind=norm_kind)
        pipe = FPGAPipeline(config, n_tx=n_tx, n_rx=n_tx, order=order)
        stats = DecodeStats(
            radius_updates=radius, batches=BatchTrace.from_events(events)
        )
        total, breakdown, attributed = _replay_reference(pipe, stats)
        for _ in range(2):  # the second pass prices from the filled table
            report = pipe.decode_report(stats)
            assert report.total_cycles == total
            assert list(report.breakdown.items()) == list(breakdown.items())
            assert list(report.attributed.items()) == list(attributed.items())
            assert report.batches == len(events)
        with pytest.raises(ValueError):
            pipe.decode_report(DecodeStats())
        # Invalid events raise even once the table holds valid rows, and
        # stay rejected on a second try (a rejected key is never cached).
        for bad in ((n_tx, 1), (-1, 1), (events[0][0], 0)):
            poisoned = events[:bad_at] + [bad] + events[bad_at:]
            for _ in range(2):
                with pytest.raises(ValueError):
                    pipe.decode_report(
                        DecodeStats(batches=BatchTrace.from_events(poisoned))
                    )
        assert pipe.decode_report(stats).total_cycles == total
