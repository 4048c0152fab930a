"""Tests for repro.obs.export and repro.obs.metrics."""

import json

import pytest

from repro.obs import (
    MetricsRegistry,
    Tracer,
    chrome_trace,
    chrome_trace_events,
    format_metrics,
    jsonl_lines,
    read_jsonl,
    span_metrics,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.log import configure, get_logger, verbosity_level
from repro.obs.metrics import counter_rows
from repro.util.timing import WallClock


class FakeClock(WallClock):
    def __init__(self) -> None:
        self.t = 0.0

    def now(self) -> float:
        return self.t


def sample_tracer() -> Tracer:
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    with tracer.span("decode", n_tx=10):
        clock.t += 0.002
        with tracer.span("search"):
            clock.t += 0.001
        tracer.instant("batch", level=3)
    return tracer


def sample_registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.counter("nodes").inc(7)
    registry.counter("nodes").inc(3)
    return registry


class TestChromeTrace:
    def test_valid_json_document(self, tmp_path):
        path = write_chrome_trace(sample_tracer(), tmp_path / "t.json")
        doc = json.loads(path.read_text())
        assert isinstance(doc["traceEvents"], list)
        assert doc["displayTimeUnit"] == "ms"
        assert doc["traceEvents"]

    def test_timestamps_monotonic_nondecreasing(self):
        events = chrome_trace_events(sample_tracer())
        ts = [e["ts"] for e in events]
        assert ts == sorted(ts)

    def test_span_becomes_complete_event(self):
        events = chrome_trace_events(sample_tracer())
        decode = next(e for e in events if e["name"] == "decode")
        assert decode["ph"] == "X"
        assert decode["dur"] == pytest.approx(3000.0)  # 3 ms in µs
        assert decode["args"] == {"n_tx": 10}

    def test_nested_span_contained_in_parent(self):
        events = chrome_trace_events(sample_tracer())
        decode = next(e for e in events if e["name"] == "decode")
        search = next(e for e in events if e["name"] == "search")
        assert decode["ts"] <= search["ts"]
        assert search["ts"] + search["dur"] <= decode["ts"] + decode["dur"]

    def test_instant_and_counter_phases(self):
        events = chrome_trace_events(sample_tracer())
        instant = next(e for e in events if e["name"] == "batch")
        assert instant["ph"] == "i"
        # Counts live in the metrics registry, never in the trace.
        assert {e["ph"] for e in events} <= {"M", "X", "i"}

    def test_all_events_share_pid(self):
        events = chrome_trace_events(sample_tracer())
        assert len({e["pid"] for e in events}) == 1

    def test_creates_parent_dirs(self, tmp_path):
        path = write_chrome_trace(sample_tracer(), tmp_path / "a" / "b" / "t.json")
        assert path.exists()

    def test_empty_tracer_exports_empty_list(self):
        doc = chrome_trace(Tracer(clock=FakeClock()))
        assert doc["traceEvents"] == []


class TestJsonl:
    def test_one_json_object_per_event(self, tmp_path):
        tracer = sample_tracer()
        path = write_jsonl(tracer, tmp_path / "events.jsonl")
        lines = path.read_text().splitlines()
        assert len(lines) == len(tracer.events)
        rows = [json.loads(line) for line in lines]
        assert {r["phase"] for r in rows} == {"span", "instant"}

    def test_counter_rows_of_old_logs_rejected(self, tmp_path):
        """An event log written when the tracer still kept counters has
        ``counter`` rows; the reader rejects them as an unknown phase."""
        path = tmp_path / "old.jsonl"
        path.write_text(
            '{"phase": "counter", "name": "sd.nodes_expanded", '
            '"ts": 0.1, "value": 97}\n'
        )
        with pytest.raises(ValueError, match="unknown phase 'counter'"):
            read_jsonl(path)

    def test_span_rows_have_dur_and_depth(self):
        rows = [json.loads(line) for line in jsonl_lines(sample_tracer())]
        span = next(r for r in rows if r["name"] == "search")
        assert "dur" in span and "depth" in span

    def test_empty_tracer_writes_empty_file(self, tmp_path):
        path = write_jsonl(Tracer(clock=FakeClock()), tmp_path / "e.jsonl")
        assert path.read_text() == ""

    def test_creates_parent_dirs(self, tmp_path):
        """Regression: a nested --jsonl path must not require mkdir -p."""
        path = write_jsonl(sample_tracer(), tmp_path / "a" / "b" / "events.jsonl")
        assert path.exists()
        assert path.read_text().splitlines()


class TestMetrics:
    def test_span_metrics_percentiles(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        for dt in (0.001, 0.003, 0.002):
            with tracer.span("step"):
                clock.t += dt
        summary = span_metrics(tracer)["step"]
        assert summary.count == 3
        assert summary.p50 == pytest.approx(0.002)

    def test_counter_totals(self):
        assert counter_rows(sample_registry().snapshot()) == {"nodes": 10.0}

    def test_format_metrics_table(self):
        text = format_metrics(
            sample_tracer(), sample_registry(), title="unit test"
        )
        assert "== unit test ==" in text
        assert "p95_ms" in text
        assert "decode" in text
        assert "counters:" in text
        assert "nodes" in text

    def test_format_metrics_without_registry_has_no_counters(self):
        assert "counters:" not in format_metrics(sample_tracer())

    def test_format_metrics_no_spans(self):
        tracer = Tracer(clock=FakeClock())
        assert "(no spans recorded)" in format_metrics(tracer)


class TestLogging:
    def test_verbosity_mapping(self):
        import logging

        assert verbosity_level(-1) == logging.ERROR
        assert verbosity_level(0) == logging.WARNING
        assert verbosity_level(1) == logging.INFO
        assert verbosity_level(2) == logging.DEBUG

    def test_configure_idempotent(self):
        import logging

        configure(1)
        configure(2)
        root = logging.getLogger("repro")
        marked = [
            h for h in root.handlers if getattr(h, "_repro_obs_handler", False)
        ]
        assert len(marked) == 1
        assert root.level == logging.DEBUG

    def test_get_logger_namespaced(self):
        assert get_logger("repro.fpga.pipeline").name == "repro.fpga.pipeline"
        assert get_logger("custom").name == "repro.custom"
