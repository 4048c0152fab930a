"""The labelled metrics subsystem: registry, snapshots, exporters.

Covers the contracts the cross-process telemetry path leans on: exact
associative/commutative snapshot merges (shards flush in arbitrary
order), Prometheus-compatible histogram bucketing, the cardinality
guard, delta-style ``drain`` semantics, and the disabled registry being
a strict no-op.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    NULL_METRICS,
    HistogramData,
    MetricsRegistry,
    MetricsSnapshot,
    current_metrics,
    exponential_buckets,
    format_series_key,
    parse_series_key,
    to_prometheus,
    use_metrics,
)


class TestLabelledSeries:
    def test_counter_accumulates_per_label_set(self):
        m = MetricsRegistry()
        c = m.counter("mc.frames")
        c.inc(3, snr=8)
        c.inc(2, snr=8)
        c.inc(5, snr=12)
        c.inc(1)  # unlabelled series is distinct
        snap = m.snapshot()
        assert snap.counters[("mc.frames", (("snr", "8"),))] == 5
        assert snap.counters[("mc.frames", (("snr", "12"),))] == 5
        assert snap.counters[("mc.frames", ())] == 1
        assert snap.counter_total("mc.frames") == 11

    def test_label_order_does_not_split_series(self):
        m = MetricsRegistry()
        m.counter("x").inc(1, a="1", b="2")
        m.counter("x").inc(1, b="2", a="1")
        assert len(m.snapshot().counters) == 1

    def test_gauge_keeps_latest_value(self):
        m = MetricsRegistry()
        g = m.gauge("mc.shard.blocks_done")
        g.set(1, shard="0")
        g.set(4, shard="0")
        snap = m.snapshot()
        assert snap.gauge_series("mc.shard.blocks_done") == {
            (("shard", "0"),): 4.0
        }

    def test_series_key_round_trip(self):
        key = (("level", "3"), ("snr", "8"))
        rendered = format_series_key("traversal.nodes_expanded", key)
        assert rendered == "traversal.nodes_expanded{level=3,snr=8}"
        assert parse_series_key(rendered) == ("traversal.nodes_expanded", key)
        assert parse_series_key("plain") == ("plain", ())

    def test_same_name_cannot_be_two_kinds(self):
        m = MetricsRegistry()
        m.counter("x").inc(1)
        with pytest.raises(ValueError, match="already registered"):
            m.gauge("x")


class TestBoundSeries:
    """``handle.labels(...)`` binds one series: its label key is built
    once, and every call writes the same series ``inc``/``set``/
    ``observe`` would."""

    def test_bound_counter_handle(self):
        m = MetricsRegistry()
        nodes = m.counter("nodes").labels(detector="sd", level=3)
        nodes.inc()
        nodes.inc(9)
        m.counter("nodes").inc(5, level=3, detector="sd")
        snap = m.snapshot()
        assert snap.counters == {
            ("nodes", (("detector", "sd"), ("level", "3"))): 15.0
        }

    def test_binding_admits_nothing_until_written(self):
        m = MetricsRegistry(max_series=1)
        first = m.counter("x").labels(k="a")
        second = m.counter("x").labels(k="b")
        assert m.snapshot().empty
        first.inc(1)
        with pytest.raises(ValueError, match="max_series"):
            second.inc(1)

    def test_bound_series_survive_drain_and_clear(self):
        m = MetricsRegistry()
        c = m.counter("c").labels(snr=8)
        c.inc(3)
        assert m.drain().counter_total("c") == 3
        c.inc(2)
        assert m.drain().counter_total("c") == 2
        c.inc(4)
        m.clear()
        assert m.snapshot().empty
        c.inc(1)
        assert m.snapshot().counter_total("c") == 1

    def test_bound_gauge_and_histogram(self):
        m = MetricsRegistry()
        depth = m.gauge("q").labels(detector="sd")
        depth.set(4)
        depth.set(2)
        lat = m.histogram("lat", edges=(1.0, 2.0)).labels(detector="sd")
        lat.observe(0.5)
        lat.observe(1.5)
        snap = m.snapshot()
        assert snap.gauge_series("q") == {(("detector", "sd"),): 2.0}
        hist = snap.histograms[("lat", (("detector", "sd"),))]
        assert hist.count == 2 and hist.counts == [1, 1, 0]

    def test_disabled_registry_binds_noops(self):
        NULL_METRICS.counter("x").labels(detector="sd").inc(5)
        NULL_METRICS.gauge("x").labels(detector="sd").set(5)
        NULL_METRICS.histogram("x").labels(detector="sd").observe(5)
        assert NULL_METRICS.snapshot().empty


class TestCardinalityGuard:
    def test_admission_caps_distinct_series(self):
        m = MetricsRegistry(max_series=4)
        c = m.counter("runaway")
        for i in range(4):
            c.inc(1, frame=str(i))
        with pytest.raises(ValueError, match="max_series"):
            c.inc(1, frame="4")

    def test_existing_series_keep_working_at_cap(self):
        m = MetricsRegistry(max_series=1)
        c = m.counter("x")
        c.inc(1, k="a")
        c.inc(1, k="a")  # same series: no new admission
        assert m.snapshot().counter_total("x") == 2

    def test_drain_resets_the_cardinality_budget(self):
        m = MetricsRegistry(max_series=1)
        m.counter("x").inc(1, k="a")
        m.drain()
        m.counter("x").inc(1, k="b")  # would have exceeded without drain


class TestHistograms:
    def test_exponential_bucket_edges(self):
        assert exponential_buckets(1.0, 2.0, 4) == (1.0, 2.0, 4.0, 8.0)
        assert DEFAULT_BUCKETS[0] == pytest.approx(1e-6)
        assert len(DEFAULT_BUCKETS) == 26

    def test_observation_lands_in_prometheus_le_bucket(self):
        h = HistogramData(edges=(1.0, 2.0, 4.0))
        # `le` semantics: a value equal to an edge belongs to that bucket.
        for v, bucket in ((0.5, 0), (1.0, 0), (1.5, 1), (4.0, 2), (9.0, 3)):
            h.observe(v)
            assert h.counts[bucket] >= 1
        assert h.count == 5
        assert h.sum == pytest.approx(16.0)
        assert h.min == 0.5
        assert h.max == 9.0

    def test_quantile_is_bucket_upper_edge_clamped_by_max(self):
        h = HistogramData(edges=(1.0, 2.0, 4.0))
        for v in (0.5, 0.6, 0.7, 3.0):
            h.observe(v)
        assert h.quantile(0.5) == 1.0
        assert h.quantile(1.0) == 3.0  # clamped to observed max

    def test_round_trips_through_dict(self):
        h = HistogramData(edges=(1.0, 2.0))
        h.observe(0.5)
        h.observe(5.0)
        back = HistogramData.from_dict(h.to_dict())
        assert back == h
        empty = HistogramData(edges=(1.0,))
        assert HistogramData.from_dict(empty.to_dict()) == empty

    def test_merge_requires_matching_edges(self):
        a = HistogramData(edges=(1.0, 2.0))
        b = HistogramData(edges=(1.0, 3.0))
        with pytest.raises(ValueError, match="edges"):
            a.merge(b)


class TestSnapshotMerge:
    def _registry(self, counter_vals, gauge_val=None, t=1.0):
        m = MetricsRegistry(clock=SimpleNamespace(now=lambda: t))
        for labels, v in counter_vals:
            m.counter("c").inc(v, **labels)
        if gauge_val is not None:
            m.gauge("g").set(gauge_val)
        m.histogram("h", edges=(1.0, 2.0)).observe(sum(v for _, v in counter_vals))
        return m.snapshot()

    @staticmethod
    def _merged(*snaps):
        m = MetricsRegistry()
        for snap in snaps:
            m.merge_snapshot(snap)
        return m.snapshot()

    def test_merge_is_associative_and_commutative(self):
        a = self._registry([({"snr": 8}, 1)], gauge_val=10, t=1.0)
        b = self._registry([({"snr": 8}, 2)], gauge_val=20, t=2.0)
        c = self._registry([({"snr": 12}, 4)], t=3.0)
        left = self._merged(a, b, c)
        right = self._merged(a, self._merged(b, c))
        swapped = self._merged(c, a, b)
        for merged in (right, swapped):
            assert merged.counters == left.counters
            assert merged.histograms == left.histograms
            assert merged.gauges == left.gauges
        assert left.counter_total("c") == 7

    def test_gauges_merge_latest_timestamp_wins(self):
        early = self._registry([], gauge_val=10, t=1.0)
        late = self._registry([], gauge_val=99, t=5.0)
        assert self._merged(early, late).gauge_series("g") == {(): 99.0}
        assert self._merged(late, early).gauge_series("g") == {(): 99.0}

    def test_snapshot_dict_round_trip(self):
        snap = self._registry([({"snr": 8}, 3)], gauge_val=7)
        back = MetricsSnapshot.from_dict(snap.to_dict())
        assert back.counters == snap.counters
        assert back.gauges == snap.gauges
        assert back.histograms == snap.histograms

    def test_merge_snapshot_folds_into_live_registry(self):
        m = MetricsRegistry()
        m.counter("c").inc(1, snr="8")
        m.merge_snapshot(self._registry([({"snr": 8}, 5)]))
        assert m.snapshot().counter_total("c") == 6


class TestDrain:
    def test_drain_returns_deltas_and_clears(self):
        m = MetricsRegistry()
        m.counter("c").inc(3)
        first = m.drain()
        assert first.counter_total("c") == 3
        assert m.snapshot().empty
        m.counter("c").inc(2)
        assert m.drain().counter_total("c") == 2

    def test_repeated_drains_merge_to_exact_totals(self):
        worker = MetricsRegistry()
        parent = MetricsRegistry()
        for chunk in (3, 4, 5):
            worker.counter("c").inc(chunk, snr="8")
            parent.merge_snapshot(worker.drain())
        assert parent.snapshot().counter_total("c") == 12


class TestDisabledRegistry:
    def test_null_metrics_is_ambient_default_and_inert(self):
        assert current_metrics() is NULL_METRICS
        assert not NULL_METRICS.enabled
        NULL_METRICS.counter("x").inc(5, label="v")
        NULL_METRICS.gauge("y").set(1)
        NULL_METRICS.histogram("z").observe(2)
        NULL_METRICS.tick(force=True)
        assert NULL_METRICS.snapshot().empty

    def test_use_metrics_scopes_the_ambient_registry(self):
        m = MetricsRegistry()
        with use_metrics(m):
            assert current_metrics() is m
            current_metrics().counter("c").inc(1)
        assert current_metrics() is NULL_METRICS
        assert m.snapshot().counter_total("c") == 1


class TestPrometheusExport:
    def test_renders_types_labels_and_cumulative_buckets(self):
        m = MetricsRegistry()
        m.counter("mc.frames").inc(3, snr="8")
        m.gauge("mc.shard.blocks_done").set(2, shard="0")
        h = m.histogram("lat", edges=(1.0, 2.0))
        h.observe(0.5)
        h.observe(1.5)
        h.observe(9.0)
        text = to_prometheus(m.snapshot())
        assert '# TYPE repro_mc_frames counter' in text
        assert 'repro_mc_frames{snr="8"} 3' in text
        assert 'repro_mc_shard_blocks_done{shard="0"} 2' in text
        # +Inf bucket is cumulative over all observations.
        assert 'repro_lat_bucket{le="1"} 1' in text
        assert 'repro_lat_bucket{le="2"} 2' in text
        assert 'repro_lat_bucket{le="+Inf"} 3' in text
        assert "repro_lat_count 3" in text


class TestTraversalAccountingConsistency:
    """Registry traversal totals must equal DecodeStats exactly.

    DFS and best-first fold their per-level accumulator rows once per
    search round from the scalar loops' level/pool lists
    (``traversal._fold_levels``). Both must reproduce the search's own
    exact counters — the trace timeline is sampled, the metrics are
    not — and a ``decode_batch`` must book the same rows as a per-frame
    ``detect`` loop.
    """

    @staticmethod
    def _block(n=8, snr_db=6.0, frames=4, seed=11):
        import numpy as np

        from repro.mimo.system import MIMOSystem

        system = MIMOSystem(n, n, "4qam")
        rng = np.random.default_rng(seed)
        channel = system.channel_model.draw_channel(rng)
        received = np.stack(
            [
                system.random_frame(snr_db, rng, channel=channel).received
                for _ in range(frames)
            ]
        )
        return system, channel, system.noise_var(snr_db), received

    @pytest.mark.parametrize("strategy", ["dfs", "best-first"])
    def test_registry_totals_match_decode_stats(self, strategy):
        import numpy as np

        from repro.detectors.sphere import SphereDecoder
        from repro.mimo.system import MIMOSystem

        system = MIMOSystem(8, 8, "4qam")
        rng = np.random.default_rng(7)
        m = MetricsRegistry()
        totals = {"nodes_expanded": 0, "nodes_generated": 0, "nodes_pruned": 0}
        with use_metrics(m):
            for _ in range(3):
                frame = system.random_frame(6.0, rng)
                decoder = SphereDecoder(
                    system.constellation, strategy=strategy
                )
                decoder.prepare(frame.channel, noise_var=frame.noise_var)
                stats = decoder.detect(frame.received).stats
                for name in totals:
                    totals[name] += getattr(stats, name)
        assert totals["nodes_pruned"] > 0  # workload actually prunes
        snap = m.snapshot()
        for name, want in totals.items():
            assert snap.counter_total(f"traversal.{name}") == want, name

    @pytest.mark.parametrize("strategy", ["dfs", "best-first"])
    def test_batch_rows_match_detect_loop(self, strategy):
        from repro.detectors.sphere import SphereDecoder

        system, channel, noise_var, received = self._block()

        def rows(decode):
            m = MetricsRegistry()
            with use_metrics(m):
                decoder = SphereDecoder(system.constellation, strategy=strategy)
                decoder.prepare(channel, noise_var=noise_var)
                decode(decoder)
            snap = m.snapshot()
            levels = {
                key: value
                for key, value in snap.counters.items()
                if key[0].startswith("traversal.")
            }
            peaks = {
                key: hist.counts
                for key, hist in snap.histograms.items()
                if key[0] == "traversal.frontier_peak"
            }
            return levels, peaks

        per_frame = rows(lambda d: [d.detect(row) for row in received])
        batched = rows(lambda d: d.decode_batch(received))
        assert per_frame == batched
        levels, peaks = per_frame
        names = {name for name, _labels in levels}
        assert names == {
            "traversal.nodes_expanded",
            "traversal.expansions",
            "traversal.nodes_generated",
            "traversal.nodes_pruned",
            "traversal.leaves_reached",
            "traversal.gemm_flops",
        }
        assert len(levels) > len(names)  # one row per level, not totals
        assert sum(sum(counts) for counts in peaks.values()) == len(received)

    def test_dfs_never_reaches_the_expand_request_path(self, monkeypatch):
        """Neither leaf-first loop (DFS, best-first) reaches lockstep or
        a GEMM evaluator, under ``detect`` or ``decode_batch``."""
        import repro.core.lockstep as lockstep
        import repro.core.traversal as traversal
        from repro.core.gemm import BatchedGemmEvaluator, GemmEvaluator
        from repro.detectors.kbest import KBestDecoder
        from repro.detectors.sphere import SphereDecoder

        def forbidden(*args, **kwargs):
            raise AssertionError("reached the ExpandRequest path")

        for module in (lockstep, traversal):
            monkeypatch.setattr(module, "drive_lockstep", forbidden)
        for evaluator in (GemmEvaluator, BatchedGemmEvaluator):
            monkeypatch.setattr(evaluator, "expand_unchecked", forbidden)
        system, channel, noise_var, received = self._block(n=6)
        for strategy in ("dfs", "best-first"):
            decoder = SphereDecoder(system.constellation, strategy=strategy)
            decoder.prepare(channel, noise_var=noise_var)
            assert decoder.detect(received[0]).stats.nodes_expanded > 0
            assert len(decoder.decode_batch(received)) == len(received)
        # The patches bite: K-best still runs through both.
        kbest = KBestDecoder(system.constellation)
        kbest.prepare(channel, noise_var=noise_var)
        with pytest.raises(AssertionError, match="ExpandRequest"):
            kbest.detect(received[0])
        with pytest.raises(AssertionError, match="ExpandRequest"):
            kbest.decode_batch(received)


def _engine_kinds():
    from repro.detectors.engine import EngineDetector
    from repro.detectors.registry import detector_entries, spec
    from repro.mimo.constellation import Constellation

    qam4 = Constellation.qam(4)
    return tuple(
        entry.kind
        for entry in detector_entries()
        if isinstance(spec(entry.kind, qam4)(), EngineDetector)
    )


ENGINE_KINDS = _engine_kinds()


def _decode_block(kind, path, *, n=4, snr_db=10.0, frames=6, seed=5):
    """Decode one channel block of ``kind`` under a fresh registry."""
    import numpy as np

    from repro.detectors.registry import spec
    from repro.mimo.system import MIMOSystem

    system = MIMOSystem(n, n, "4qam")
    rng = np.random.default_rng(seed)
    channel = system.channel_model.draw_channel(rng)
    received = np.stack(
        [
            system.random_frame(snr_db, rng, channel=channel).received
            for _ in range(frames)
        ]
    )
    m = MetricsRegistry()
    with use_metrics(m):
        detector = spec(kind, system.constellation)()
        detector.prepare(channel, noise_var=system.noise_var(snr_db))
        if path == "detect":
            results = [detector.detect(row) for row in received]
        else:
            results = detector.decode_batch(received)
    return detector.name, results, m.snapshot()


class TestRegistryConformance:
    """Every engine kind books exactly its ``DecodeStats`` — one frame,
    one decode-time observation — under a ``detect`` loop and under
    ``decode_batch``."""

    def test_all_engine_kinds_covered(self):
        assert len(ENGINE_KINDS) == 11

    @pytest.mark.parametrize("path", ["detect", "decode_batch"])
    @pytest.mark.parametrize("kind", ENGINE_KINDS)
    def test_series_equal_decode_stats(self, kind, path):
        name, results, snap = _decode_block(kind, path)

        def total(series):
            return sum(
                v
                for (n, key), v in snap.counters.items()
                if n == series and dict(key)["detector"] == name
            )

        def stats_sum(field):
            return sum(getattr(r.stats, field) for r in results)

        for field in ("nodes_expanded", "nodes_generated", "nodes_pruned"):
            assert total(f"traversal.{field}") == stats_sum(field), field
        assert total("traversal.expansions") == stats_sum("gemm_calls")
        assert total("traversal.leaves_reached") == stats_sum("leaves_reached")
        assert total("traversal.gemm_flops") == stats_sum("gemm_flops")
        assert total("detector.frames") == len(results)
        # One decode-time observation per frame, a batch's split evenly.
        seconds = snap.histograms[("detector.decode_seconds", (("detector", name),))]
        assert seconds.count == len(results)
        assert seconds.sum == pytest.approx(stats_sum("wall_time_s"))
        peaks = snap.histograms[("traversal.frontier_peak", (("detector", name),))]
        assert peaks.count == len(results)


class TestDecodeTiming:
    @pytest.mark.parametrize("path", ["detect", "decode_batch"])
    def test_flush_stays_out_of_the_decode_timer(self, path, monkeypatch):
        """A registry flush that takes 50 ms adds nothing to
        ``wall_time_s`` or to the ``detector.decode_seconds`` series."""
        import time

        from repro.detectors.engine import EngineDetector

        flush = EngineDetector._flush_traversal_metrics
        calls = []

        def slow_flush(*args, **kwargs):
            calls.append(1)
            time.sleep(0.05)
            return flush(*args, **kwargs)

        monkeypatch.setattr(
            EngineDetector, "_flush_traversal_metrics", slow_flush
        )
        name, results, snap = _decode_block("sd", path, frames=2)
        assert calls
        assert all(r.stats.wall_time_s < 0.05 for r in results)
        seconds = snap.histograms[("detector.decode_seconds", (("detector", name),))]
        assert seconds.max < 0.05
