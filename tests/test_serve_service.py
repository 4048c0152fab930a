"""DetectionService behaviour: reports, telemetry, backpressure, the
threaded front end and the `repro-sd serve` CLI surface."""

import numpy as np
import pytest

from repro.bench.serving import (
    capacity_sweep,
    check_conformance,
    resolve_service_model,
)
from repro.cli import main
from repro.detectors.registry import spec
from repro.mimo.system import MIMOSystem
from repro.obs.metrics import MetricsRegistry, use_metrics
from repro.serve import (
    BackpressureError,
    DetectionService,
    LoadGenerator,
    SchedulerConfig,
    ThreadedDetectionService,
    fixed_service_model,
    serve_trace,
)
from repro.util.validation import NonFiniteInputError


@pytest.fixture(scope="module")
def system():
    return MIMOSystem(4, 4, "4qam")


def _trace(system, **overrides):
    kwargs = dict(
        n_streams=4,
        rate_hz=400.0,
        duration_s=0.04,
        seed=17,
        channel_blocks=2,
    )
    kwargs.update(overrides)
    return LoadGenerator(system, **kwargs).trace()


class TestServeTrace:
    def test_report_accounting(self, system):
        trace = _trace(system)
        service = DetectionService(
            spec("sd", system.constellation),
            config=SchedulerConfig(max_batch=8, max_delay_s=1e-3),
            service_model=fixed_service_model(50e-6),
        )
        report = serve_trace(service, trace, slo_s=10e-3)
        assert report.accepted == trace.n_events
        assert report.rejected == 0
        assert report.offered == trace.n_events
        assert len(report.latencies_s) == report.accepted
        assert all(lat > 0 for lat in report.latencies_s)
        # Queue wait is part of the sojourn.
        for fr in report.results:
            assert 0 <= fr.queue_wait_s <= fr.latency_s
        assert report.throughput_hz > 0
        assert report.mean_batch_fill >= 1.0
        assert 0 <= report.slo_attainment() <= 1

    def test_deadline_bounds_queue_wait(self, system):
        """No frame waits in the scheduler past max_delay_s."""
        trace = _trace(system)
        max_delay = 5e-4
        service = DetectionService(
            spec("zf", system.constellation),
            config=SchedulerConfig(max_batch=64, max_delay_s=max_delay),
            service_model=fixed_service_model(1e-6),
        )
        report = serve_trace(service, trace)
        for fr in report.results:
            assert fr.queue_wait_s <= max_delay + 1e-12

    def test_symbol_errors_counted_against_ground_truth(self, system):
        trace = _trace(system, duration_s=0.02)
        service = DetectionService(spec("sd", system.constellation))
        report = serve_trace(service, trace)
        errors = report.symbol_errors()
        assert errors >= 0
        # Recompute by hand from payload ground truth.
        expected = sum(
            int(np.sum(fr.result.indices != fr.request.payload.sent_indices))
            for fr in report.results
        )
        assert errors == expected

    def test_backpressure_rejects_and_reports(self, system):
        """A saturated stream sheds load instead of queueing unboundedly."""
        trace = _trace(system, n_streams=2, rate_hz=3000.0)
        service = DetectionService(
            spec("sd", system.constellation),
            config=SchedulerConfig(
                max_batch=8, max_delay_s=50e-3, max_queue=2
            ),
            service_model=fixed_service_model(5e-3),  # slow server
        )
        report = serve_trace(service, trace)
        assert report.rejected > 0
        assert report.accepted + report.rejected == trace.n_events
        assert service.undelivered == 0

    def test_unknown_channel_rejected(self, system):
        service = DetectionService(spec("sd", system.constellation))
        with pytest.raises(KeyError, match="unknown channel"):
            service.submit(
                "s0", np.zeros(4), channel_id="nope", now=0.0
            )

    def test_bad_frame_rejected_at_submit(self, system):
        """A NaN frame or one of the wrong length is refused at submit,
        before it takes a sequence number or joins another stream's
        fused batch; both streams' good frames are still delivered."""
        trace = _trace(system, duration_s=0.01)
        service = DetectionService(
            spec("sd", system.constellation),
            config=SchedulerConfig(max_batch=8, max_delay_s=1e-3),
        )
        service.register_trace_channels(trace)
        good = trace.events[0].received
        bad = good.copy()
        bad[1] = np.nan
        service.submit("a", good, channel_id="ch000", now=0.0)
        with pytest.raises(NonFiniteInputError):
            service.submit("b", bad, channel_id="ch000", now=0.0)
        with pytest.raises(ValueError, match="length"):
            service.submit("b", good[:3], channel_id="ch000", now=0.0)
        service.submit("b", good, channel_id="ch000", now=0.0)
        delivered = service.drain(1.0)
        assert sorted((fr.stream_id, fr.seq) for fr in delivered) == [
            ("a", 0), ("b", 0),
        ]
        assert service.undelivered == 0

    @pytest.mark.parametrize("channel_blocks", [2, 4])
    def test_nonfinite_frame_rejected_run_goes_on(self, system, channel_blocks):
        """One NaN arrival in a load trace is rejected and counted; every
        other frame is still served in per-stream order, bit-identical
        to direct ``detect``. Two blocks fuse streams into shared
        batches; four give each stream its own."""
        from dataclasses import replace

        from repro.serve import conformance_mismatches, direct_results

        trace = _trace(
            system, rate_hz=300.0, duration_s=0.05, seed=1,
            channel_blocks=channel_blocks,
        )
        bad = trace.events[5]
        received = bad.received.copy()
        received[2] = np.nan
        trace.events[5] = replace(bad, received=received)
        detector_spec = spec("sd", system.constellation)
        service = DetectionService(
            detector_spec,
            config=SchedulerConfig(max_batch=8, max_delay_s=1e-3),
            service_model=fixed_service_model(50e-6),
        )
        metrics = MetricsRegistry()
        with use_metrics(metrics):
            report = serve_trace(service, trace)
        assert report.rejected == 1
        assert report.accepted == trace.n_events - 1
        assert metrics.snapshot().counter_total("serve.rejected") == 1
        assert service.undelivered == 0
        served = {(fr.request.payload.stream_id, fr.request.payload.seq)
                  for fr in report.results}
        good = [ev for ev in trace.events if ev is not trace.events[5]]
        assert served == {(ev.stream_id, ev.seq) for ev in good}
        for stream in trace.stream_counts():
            mine = [fr for fr in report.results if fr.stream_id == stream]
            assert [fr.seq for fr in mine] == list(range(len(mine)))
            events = [fr.request.payload.seq for fr in mine]
            assert events == sorted(events)
        oracle = direct_results(detector_spec, replace(trace, events=good))
        assert conformance_mismatches(report, oracle) == []

    def test_serve_metrics_emitted(self, system):
        trace = _trace(system, duration_s=0.02)
        service = DetectionService(
            spec("sd", system.constellation),
            config=SchedulerConfig(max_batch=8, max_delay_s=1e-3),
        )
        metrics = MetricsRegistry()
        with use_metrics(metrics):
            report = serve_trace(service, trace)
        snap = metrics.snapshot()
        assert snap.counter_total("serve.frames") == report.accepted
        assert snap.counter_total("serve.batches") >= 1
        fills = [
            h for (name, _key), h in snap.histograms.items()
            if name == "serve.batch_fill"
        ]
        assert fills and sum(h.count for h in fills) == report.n_batches


class TestServiceModels:
    def test_fixed_model_validates(self):
        with pytest.raises(ValueError):
            fixed_service_model(0.0)

    def test_resolve_names(self, system):
        assert resolve_service_model("measured", system) is None
        assert resolve_service_model("fpga", system) is not None
        model = resolve_service_model("fixed:100", system)
        assert model is not None
        with pytest.raises(ValueError, match="unknown service model"):
            resolve_service_model("quantum", system)
        with pytest.raises(ValueError, match="fixed"):
            resolve_service_model("fixed:abc", system)

    def test_fpga_model_is_deterministic(self, system):
        trace = _trace(system, duration_s=0.02)

        def run():
            service = DetectionService(
                spec("sd", system.constellation),
                config=SchedulerConfig(max_batch=8, max_delay_s=1e-3),
                service_model=resolve_service_model("fpga", system),
            )
            return serve_trace(service, trace).latencies_s

        assert run() == run()


class TestThreadedService:
    def test_futures_resolve_in_stream_order(self, system):
        trace = _trace(system, duration_s=0.02)
        service = DetectionService(
            spec("sd", system.constellation),
            config=SchedulerConfig(max_batch=8, max_delay_s=2e-3),
        )
        service.register_trace_channels(trace)
        with ThreadedDetectionService(service) as srv:
            futures = [
                (ev.stream_id, ev.seq, srv.submit(
                    ev.stream_id,
                    ev.received,
                    channel_id=ev.channel_id,
                    payload=ev,
                ))
                for ev in trace.events
            ]
            results = [
                (sid, seq, f.result(timeout=10.0))
                for sid, seq, f in futures
            ]
        # Every future resolved to its own frame, in stream order.
        per_stream = {}
        for sid, seq, fr in results:
            assert fr.stream_id == sid
            assert fr.seq == per_stream.get(sid, -1) + 1
            per_stream[sid] = fr.seq
        assert service.undelivered == 0

    def test_close_is_idempotent_and_rejects_new_work(self, system):
        trace = _trace(system, duration_s=0.01)
        service = DetectionService(spec("zf", system.constellation))
        service.register_trace_channels(trace)
        srv = ThreadedDetectionService(service)
        srv.close()
        srv.close()
        with pytest.raises(RuntimeError, match="closed"):
            srv.submit("s0", np.zeros(4), channel_id="ch000")

    def test_bad_frame_rejected_at_submit(self, system):
        """A NaN frame raises at ``submit``; the flusher thread survives
        and the other stream's frame still resolves."""
        trace = _trace(system, duration_s=0.01)
        service = DetectionService(
            spec("sd", system.constellation),
            config=SchedulerConfig(max_batch=8, max_delay_s=1e-3),
        )
        service.register_trace_channels(trace)
        good = trace.events[0].received
        bad = good.copy()
        bad[0] = np.inf
        with ThreadedDetectionService(service) as srv:
            first = srv.submit("a", good, channel_id="ch000")
            with pytest.raises(NonFiniteInputError):
                srv.submit("b", bad, channel_id="ch000")
            second = srv.submit("b", good, channel_id="ch000")
            assert first.result(timeout=2.0).seq == 0
            assert second.result(timeout=2.0).seq == 0
        assert service.undelivered == 0

    def test_served_results_match_direct(self, system):
        """Threaded path conformance (wall-clock scheduling, same bits)."""
        from repro.serve import conformance_mismatches, direct_results

        trace = _trace(system, duration_s=0.02)
        detector_spec = spec("sd", system.constellation)
        service = DetectionService(
            detector_spec,
            config=SchedulerConfig(max_batch=8, max_delay_s=1e-3),
        )
        service.register_trace_channels(trace)
        results = []
        with ThreadedDetectionService(service) as srv:
            futures = [
                srv.submit(
                    ev.stream_id,
                    ev.received,
                    channel_id=ev.channel_id,
                    payload=ev,
                )
                for ev in trace.events
            ]
            results = [f.result(timeout=10.0) for f in futures]
        report_like = type("R", (), {"results": results})()
        oracle = direct_results(detector_spec, trace)
        assert conformance_mismatches(report_like, oracle) == []


class TestCapacitySweep:
    def test_sweep_rows_and_conformance(self, system):
        result = capacity_sweep(
            n_antennas=4,
            stream_counts=(2, 4),
            rate_hz=300.0,
            duration_s=0.03,
            seed=3,
            service="fpga",
            max_batch=8,
            max_delay_ms=1.0,
        )
        assert [row["streams"] for row in result.series.rows] == [2, 4]
        assert result.series.columns[0] == "streams"  # runs-diff key
        for row in result.series.rows:
            assert row["offered"] == row["accepted"] + row["rejected"]
        assert check_conformance(result.points[0], result.kind, result.system) == []

    def test_sweep_validation(self):
        with pytest.raises(ValueError):
            capacity_sweep(stream_counts=())
        with pytest.raises(ValueError):
            capacity_sweep(slo_ms=0.0)


class TestServeCli:
    ARGS = [
        "serve",
        "--mimo", "4x4",
        "--streams", "2",
        "--rate", "300",
        "--duration", "0.03",
        "--seed", "5",
        "--service", "fpga",
        "--max-delay-ms", "1.0",
    ]

    def test_serve_prints_capacity_table(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "serve-capacity" in out
        assert "p95_ms" in out

    def test_serve_check_passes_within_slo(self, capsys):
        assert main(self.ARGS + ["--check", "--slo-ms", "1000"]) == 0
        assert "serve check OK" in capsys.readouterr().out

    def test_serve_check_fails_on_impossible_slo(self, capsys):
        assert main(self.ARGS + ["--check", "--slo-ms", "0.0001"]) == 1
        assert "CHECK FAILED" in capsys.readouterr().err

    def test_serve_record_and_diff(self, tmp_path, capsys):
        runs = str(tmp_path / "runs")
        for _ in range(2):
            assert main(self.ARGS + ["--record", "--runs-dir", runs]) == 0
        assert main(["runs", "--dir", runs, "diff", "latest~1", "latest"]) == 0
        out = capsys.readouterr().out
        assert "per-streams series" in out

    def test_unknown_detector_exits_2(self, capsys):
        assert main(["serve", "--detector", "nope"]) == 2
        assert "error" in capsys.readouterr().err


def test_capacity_planning_example_smoke():
    """The example runs end to end and tells the whole chain's story."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, str(root / "examples" / "capacity_planning.py")],
        capture_output=True,
        text=True,
        env=env,
        timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    assert "Empirical queue replay" in proc.stdout
    assert "serve-capacity" in proc.stdout
    assert "Live metrics stream" in proc.stdout
