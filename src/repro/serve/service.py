"""Detection service: the serving front end over the detector registry.

:class:`DetectionService` binds a :class:`~repro.detectors.registry.
DetectorSpec` to a :class:`~repro.serve.scheduler.BatchScheduler` and a
set of channel blocks. Frames submitted per stream coalesce into one
``decode_batch`` call per batch (fused across frames for the sweeps),
and results are **delivered in per-stream submission order** through a reorder buffer — even when a
stream's frames land in different channel-block batches that complete
out of order.

The service itself owns no clock or thread. Three drivers sit on top:

* :func:`serve_trace` — a deterministic virtual-time event loop over a
  load trace (single decode server; batch service times come from the
  measured host decode or a pluggable deterministic model). This is
  what the capacity experiments and the CI gate run.
* :class:`ThreadedDetectionService` — a real-time front end: a flusher
  thread honours deadlines, ``submit`` returns a future and applies
  blocking backpressure.
* Direct ``submit``/``poll``/``drain`` calls — what the property tests
  drive on a fake clock.

Serving telemetry rides the ambient tracer/metrics exactly like the
decode path: ``serve.batch`` spans, and registry series bound once per
registry — ``serve.frames``/``serve.batches``/``serve.rejected``
counters, ``serve.batch_fill`` / ``serve.latency_seconds`` /
``serve.queue_wait_seconds`` histograms and a ``serve.queue_depth``
gauge.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from repro.detectors.base import DetectionResult, Detector
from repro.detectors.registry import DetectorSpec
from repro.obs.metrics import current_metrics, exponential_buckets
from repro.obs.tracer import current_tracer
from repro.serve.scheduler import (
    BackpressureError,
    Batch,
    BatchScheduler,
    SchedulerConfig,
)
from repro.util.timing import Timer, TimingSummary, WallClock, summarize
from repro.util.validation import NonFiniteInputError, check_finite, check_vector

__all__ = [
    "DetectionService",
    "FrameResult",
    "ServeReport",
    "ThreadedDetectionService",
    "conformance_mismatches",
    "direct_results",
    "fixed_service_model",
    "fpga_service_model",
    "serve_trace",
]

#: Batch-fill histogram buckets: 1, 2, 4, ... 1024 frames.
FILL_BUCKETS = exponential_buckets(1.0, 2.0, 11)

#: Latency histogram buckets: 1 us .. ~1 s.
LATENCY_BUCKETS = exponential_buckets(1e-6, 2.0, 21)


@dataclass(frozen=True)
class FrameResult:
    """One served frame: the decode outcome plus latency accounting.

    All timestamps live in the driver's clock domain (virtual seconds
    under :func:`serve_trace`, wall seconds under the threaded front
    end). ``service_s`` is the batch's service time attributed to this
    frame's batch (not split per frame).
    """

    request: Any  # FrameRequest
    result: DetectionResult
    batch_size: int
    reason: str
    flushed_s: float
    completed_s: float
    service_s: float

    @property
    def stream_id(self) -> str:
        return self.request.stream_id

    @property
    def seq(self) -> int:
        return self.request.seq

    @property
    def queue_wait_s(self) -> float:
        """Time spent in the scheduler before the batch flushed."""
        return self.flushed_s - self.request.arrival_s

    @property
    def latency_s(self) -> float:
        """Submission-to-delivery sojourn (the SLO quantity)."""
        return self.completed_s - self.request.arrival_s


@dataclass
class _Decoded:
    """Decode outcome of one batch before completion stamping."""

    results: list[DetectionResult]
    service_s: float
    measured_s: float


class _StreamDelivery:
    """Per-stream reorder buffer: releases results in seq order."""

    def __init__(self) -> None:
        self.next_seq = 0
        self._held: dict[int, FrameResult] = {}

    def push(self, fr: FrameResult) -> list[FrameResult]:
        self._held[fr.seq] = fr
        released: list[FrameResult] = []
        while self.next_seq in self._held:
            released.append(self._held.pop(self.next_seq))
            self.next_seq += 1
        return released

    @property
    def holding(self) -> int:
        return len(self._held)


def fixed_service_model(per_frame_s: float) -> Callable:
    """A deterministic service model: ``per_frame_s`` per frame."""
    if per_frame_s <= 0:
        raise ValueError("per_frame_s must be positive")

    def model(batch: Batch, results, measured_s: float) -> float:
        return per_frame_s * len(batch)

    return model


def fpga_service_model(pipeline) -> Callable:
    """Deterministic service model from the FPGA pipeline simulator.

    Batch service time = sum of each frame's modelled pipeline seconds
    (the fleet model serialises frames through one pipeline). Frames
    without search stats (closed-form detectors) fall back to the
    measured host share, so mixed workloads stay well-defined.
    """

    def model(batch: Batch, results, measured_s: float) -> float:
        total = 0.0
        for res in results:
            if res.stats is not None:
                total += pipeline.decode_report(res.stats).seconds
            else:
                total += measured_s / max(len(results), 1)
        return total

    return model


class _ServeSeries:
    """The registry series a service writes, bound once per registry and
    detector kind (:meth:`MetricsRegistry.bundle`)."""

    def __init__(self, metrics, detector: str) -> None:
        counter, histogram = metrics.counter, metrics.histogram
        self._batches = counter("serve.batches")
        self._detector = detector
        self._by_reason: dict = {}
        self.frames = counter("serve.frames").labels(detector=detector)
        self.rejected = counter("serve.rejected").labels(detector=detector)
        self.batch_fill = histogram("serve.batch_fill", edges=FILL_BUCKETS).labels(
            detector=detector
        )
        self.latency, self.wait = (
            histogram(name, edges=LATENCY_BUCKETS).labels(detector=detector)
            for name in ("serve.latency_seconds", "serve.queue_wait_seconds")
        )
        self.queue_depth = metrics.gauge("serve.queue_depth").labels(
            detector=detector
        )

    def batches(self, reason: str):
        """The ``serve.batches`` series of one flush reason."""
        series = self._by_reason.get(reason)
        if series is None:
            series = self._by_reason[reason] = self._batches.labels(
                detector=self._detector, reason=reason
            )
        return series


class DetectionService:
    """Serving shell: registry spec + scheduler + channel blocks.

    Parameters
    ----------
    spec:
        Registry :class:`DetectorSpec`; one fresh detector is built and
        prepared per registered channel block (the amortised
        ``prepare`` of the two-phase protocol).
    config:
        Scheduler tuning (:class:`SchedulerConfig`).
    service_model:
        Optional ``model(batch, results, measured_s) -> seconds``
        deterministic service-time model; ``None`` uses the measured
        host wall time. Dynamic batch sizing always feeds on the
        *modelled* time when a model is present (it is the time the
        virtual server charges).
    """

    def __init__(
        self,
        spec: DetectorSpec,
        *,
        config: SchedulerConfig | None = None,
        service_model: Callable | None = None,
    ) -> None:
        self.spec = spec
        self.scheduler = BatchScheduler(config)
        self.service_model = service_model
        self._detectors: dict[str, Detector] = {}
        self._channels: dict[str, tuple[np.ndarray, float]] = {}
        self._delivery: dict[str, _StreamDelivery] = {}

    def _metric_series(self) -> _ServeSeries | None:
        """Series bound for the ambient registry; ``None`` when it is off."""
        metrics = current_metrics()
        if not metrics.enabled:
            return None
        return metrics.bundle(_ServeSeries, self.spec.kind)

    # ------------------------------------------------------------------
    # Channel registration
    # ------------------------------------------------------------------

    def register_channel(
        self, channel_id: str, channel: np.ndarray, noise_var: float = 0.0
    ) -> None:
        """Register one channel block (prepared lazily on first use)."""
        self._channels[channel_id] = (np.asarray(channel), float(noise_var))
        self._detectors.pop(channel_id, None)

    def register_trace_channels(self, trace) -> None:
        """Register every channel block of a load trace."""
        for channel_id, (channel, noise_var) in trace.channels.items():
            self.register_channel(channel_id, channel, noise_var)

    def _detector(self, channel_id: str) -> Detector:
        detector = self._detectors.get(channel_id)
        if detector is None:
            try:
                channel, noise_var = self._channels[channel_id]
            except KeyError:
                raise KeyError(
                    f"unknown channel block {channel_id!r}; "
                    f"registered: {sorted(self._channels)}"
                ) from None
            detector = self.spec()
            detector.prepare(channel, noise_var=noise_var)
            self._detectors[channel_id] = detector
        return detector

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------

    def submit(
        self,
        stream_id: str,
        received: np.ndarray,
        *,
        channel_id: str,
        now: float,
        payload: Any = None,
    ):
        """Admit one frame (propagates :class:`BackpressureError`).

        A frame without the block's ``n_rx`` entries raises
        ``ValueError``, and one holding NaN or Inf raises
        :class:`~repro.util.validation.NonFiniteInputError`, before the
        scheduler assigns it a sequence number — so, like a
        backpressured frame, it leaves no gap in its stream. In a fused
        batch it would fail the other streams' frames with it. A
        backpressured or non-finite frame counts in ``serve.rejected``.
        """
        block = self._channels.get(channel_id)
        if block is None:
            raise KeyError(
                f"unknown channel block {channel_id!r}; "
                f"registered: {sorted(self._channels)}"
            )
        received = check_vector(received, "received", length=block[0].shape[0])
        try:
            return self.scheduler.submit(
                stream_id,
                check_finite(received, "received"),
                channel_id=channel_id,
                now=now,
                payload=payload,
            )
        except (BackpressureError, NonFiniteInputError):
            series = self._metric_series()
            if series is not None:
                series.rejected.inc()
            raise

    def process(self, batch: Batch) -> _Decoded:
        """Decode one batch with the detector's ``decode_batch``.

        Returns the per-frame results in batch order plus the service
        time the driver should charge (modelled or measured).
        """
        detector = self._detector(batch.channel_id)
        tracer = current_tracer()
        timer = Timer()
        with tracer.span(
            "serve.batch",
            detector=self.spec.kind,
            frames=len(batch),
            reason=batch.reason,
        ):
            with timer:
                results = detector.decode_batch(batch.received_matrix)
        measured_s = timer.elapsed
        service_s = (
            self.service_model(batch, results, measured_s)
            if self.service_model is not None
            else measured_s
        )
        self.scheduler.observe_service(len(batch), service_s)
        series = self._metric_series()
        if series is not None:
            series.frames.inc(len(batch))
            series.batches(batch.reason).inc()
            series.batch_fill.observe(len(batch))
        return _Decoded(
            results=list(results), service_s=service_s, measured_s=measured_s
        )

    def finish(
        self, batch: Batch, decoded: _Decoded, completed_s: float
    ) -> list[FrameResult]:
        """Stamp completion and deliver in per-stream seq order.

        Returns the results *released* by the reorder buffers (possibly
        fewer or more than the batch's own frames, as earlier-seq
        stragglers unblock later-seq holds).
        """
        delivered: list[FrameResult] = []
        for frame, result in zip(batch.frames, decoded.results):
            fr = FrameResult(
                request=frame,
                result=result,
                batch_size=len(batch),
                reason=batch.reason,
                flushed_s=batch.created_s,
                completed_s=completed_s,
                service_s=decoded.service_s,
            )
            buffer = self._delivery.setdefault(
                frame.stream_id, _StreamDelivery()
            )
            delivered.extend(buffer.push(fr))
        series = self._metric_series()
        if series is not None:
            latency, wait = series.latency, series.wait
            for fr in delivered:
                latency.observe(fr.latency_s)
                wait.observe(fr.queue_wait_s)
            series.queue_depth.set(self.scheduler.pending)
        return delivered

    def complete(self, batch: Batch, now: float) -> list[FrameResult]:
        """Synchronous decode + delivery (completion time = ``now``)."""
        return self.finish(batch, self.process(batch), now)

    def poll(self, now: float) -> list[FrameResult]:
        """Flush and synchronously serve everything due at ``now``."""
        delivered: list[FrameResult] = []
        for batch in self.scheduler.poll(now):
            delivered.extend(self.complete(batch, now))
        return delivered

    def drain(self, now: float) -> list[FrameResult]:
        """Flush and serve every pending frame (shutdown path)."""
        delivered: list[FrameResult] = []
        for batch in self.scheduler.drain(now):
            delivered.extend(self.complete(batch, now))
        return delivered

    @property
    def undelivered(self) -> int:
        """Results held by reorder buffers awaiting earlier sequences."""
        return sum(d.holding for d in self._delivery.values())


# ---------------------------------------------------------------------------
# Virtual-time driver
# ---------------------------------------------------------------------------


@dataclass
class ServeReport:
    """Outcome of serving one load trace.

    ``results`` is in delivery order (per-stream seq order is
    guaranteed within each stream). All times are in the driver's
    clock domain.
    """

    results: list[FrameResult]
    rejected: int
    n_batches: int
    start_s: float
    end_s: float
    slo_s: float | None = None

    @property
    def accepted(self) -> int:
        return len(self.results)

    @property
    def offered(self) -> int:
        return self.accepted + self.rejected

    @property
    def latencies_s(self) -> list[float]:
        return [fr.latency_s for fr in self.results]

    def latency_summary(self) -> TimingSummary:
        """p50/p95/p99 etc. over per-frame sojourn times."""
        return summarize(self.latencies_s)

    def slo_attainment(self, slo_s: float | None = None) -> float:
        """Fraction of accepted frames delivered within the SLO."""
        slo = self.slo_s if slo_s is None else slo_s
        if slo is None:
            raise ValueError("no SLO configured on this report")
        if not self.results:
            return 1.0
        met = sum(1 for fr in self.results if fr.latency_s <= slo)
        return met / len(self.results)

    @property
    def duration_s(self) -> float:
        """Makespan: first arrival to last completion."""
        return max(self.end_s - self.start_s, 0.0)

    @property
    def throughput_hz(self) -> float:
        """Accepted frames per second of makespan."""
        if self.duration_s <= 0:
            return 0.0
        return self.accepted / self.duration_s

    @property
    def mean_batch_fill(self) -> float:
        """Average frames per decoded batch."""
        if not self.n_batches:
            return 0.0
        return self.accepted / self.n_batches

    def symbol_errors(self) -> int:
        """Symbol errors vs the ground truth carried in payloads.

        Counts mismatched antenna decisions for every frame whose
        payload exposes ``sent_indices``; frames without ground truth
        contribute zero.
        """
        errors = 0
        for fr in self.results:
            truth = getattr(fr.request.payload, "sent_indices", None)
            if truth is not None:
                errors += int(np.sum(fr.result.indices != np.asarray(truth)))
        return errors


def serve_trace(
    service: DetectionService,
    trace,
    *,
    slo_s: float | None = None,
) -> ServeReport:
    """Serve a load trace in deterministic virtual time.

    A discrete-event loop over the trace's arrivals and the scheduler's
    deadlines, with one decode server: a flushed batch starts service
    at ``max(flush time, server free time)`` and completes after its
    service time (measured host decode, or the service's deterministic
    model). Per-frame sojourn = arrival to completion — queueing ahead
    of a busy server is what turns overload into latency, exactly the
    M/G/1 story of :mod:`repro.bench.realtime` made empirical.

    Every admitted frame is served: arrivals drive size triggers and
    the scheduler's ``next_deadline_s`` drives deadline flushes, so the
    loop terminates with an empty scheduler and no drain flush. A frame
    that ``submit`` refuses under backpressure or for holding NaN/Inf
    counts in :attr:`ServeReport.rejected` and the run goes on; any
    other submit error propagates.
    """
    events = sorted(trace.events, key=lambda ev: ev.arrival_s)
    service.register_trace_channels(trace)
    series = service._metric_series()
    results: list[FrameResult] = []
    rejected = 0
    n_batches = 0
    busy_until = 0.0
    end_s = 0.0
    start_s = events[0].arrival_s if events else 0.0
    tracer = current_tracer()

    def run(batches: Sequence[Batch], flush_t: float) -> None:
        nonlocal busy_until, n_batches, end_s
        for batch in batches:
            decoded = service.process(batch)
            begin = max(flush_t, busy_until)
            done = begin + decoded.service_s
            busy_until = done
            end_s = max(end_s, done)
            n_batches += 1
            results.extend(service.finish(batch, decoded, done))

    with tracer.span("serve.trace", events=len(events)):
        i = 0
        while i < len(events) or service.scheduler.pending:
            next_arrival = (
                events[i].arrival_s if i < len(events) else float("inf")
            )
            deadline = service.scheduler.next_deadline_s()
            next_deadline = deadline if deadline is not None else float("inf")
            if next_arrival <= next_deadline:
                event = events[i]
                i += 1
                now = event.arrival_s
                try:
                    service.submit(
                        event.stream_id,
                        event.received,
                        channel_id=event.channel_id,
                        now=now,
                        payload=event,
                    )
                except (BackpressureError, NonFiniteInputError):
                    rejected += 1
            else:
                now = next_deadline
            run(service.scheduler.poll(now), now)
            if series is not None:
                series.queue_depth.set(service.scheduler.pending)
    if service.undelivered:
        raise AssertionError(
            f"{service.undelivered} result(s) stuck in reorder buffers"
        )
    return ServeReport(
        results=results,
        rejected=rejected,
        n_batches=n_batches,
        start_s=start_s,
        end_s=max(end_s, start_s),
        slo_s=slo_s,
    )


# ---------------------------------------------------------------------------
# Conformance against the direct per-frame path
# ---------------------------------------------------------------------------


def direct_results(
    spec: DetectorSpec, trace
) -> dict[tuple[str, int], DetectionResult]:
    """Decode every trace frame through the direct per-frame path.

    One fresh detector per channel block, ``detect`` per frame — the
    oracle the served results must match bit-for-bit. Keyed by the
    *trace* identity ``(stream_id, event seq)`` (not the scheduler's
    admission seq, which skips rejected frames).
    """
    detectors: dict[str, Detector] = {}
    out: dict[tuple[str, int], DetectionResult] = {}
    for event in trace.events:
        detector = detectors.get(event.channel_id)
        if detector is None:
            channel, noise_var = trace.channels[event.channel_id]
            detector = spec()
            detector.prepare(channel, noise_var=noise_var)
            detectors[event.channel_id] = detector
        out[(event.stream_id, event.seq)] = detector.detect(event.received)
    return out


def conformance_mismatches(
    report: ServeReport,
    oracle: Mapping[tuple[str, int], DetectionResult],
) -> list[str]:
    """Bit-identity check: served results vs the direct-decode oracle.

    Compares decided indices, hard bits and the exact float metric for
    every served frame whose payload is a trace event. Returns one
    human-readable line per mismatch (empty list = conformant).
    """
    mismatches: list[str] = []
    for fr in report.results:
        event = fr.request.payload
        key = (
            getattr(event, "stream_id", fr.stream_id),
            getattr(event, "seq", fr.seq),
        )
        direct = oracle.get(key)
        if direct is None:
            mismatches.append(f"{key}: no direct-decode oracle entry")
            continue
        if not np.array_equal(fr.result.indices, direct.indices):
            mismatches.append(
                f"{key}: indices {fr.result.indices.tolist()} != "
                f"{direct.indices.tolist()}"
            )
        elif not np.array_equal(fr.result.bits, direct.bits):
            mismatches.append(f"{key}: bit decisions differ")
        elif fr.result.metric != direct.metric:
            mismatches.append(
                f"{key}: metric {fr.result.metric!r} != {direct.metric!r}"
            )
    return mismatches


# ---------------------------------------------------------------------------
# Real-time (threaded) front end
# ---------------------------------------------------------------------------


class ThreadedDetectionService:
    """Always-on front end: deadline-honouring flusher thread + futures.

    ``submit`` returns a :class:`concurrent.futures.Future` resolving to
    a :class:`FrameResult`; per-stream futures resolve in submission
    order (the service's reorder buffer runs under the lock). When a
    stream's queue is full, ``submit`` *blocks* until the flusher frees
    space — bounded by ``submit_timeout_s``, after which
    :class:`BackpressureError` propagates to the caller. The flusher
    always wakes by the earliest pending deadline, so blocked producers
    are guaranteed progress: backpressure throttles, it cannot
    deadlock.

    Use as a context manager; exit drains pending frames.
    """

    def __init__(
        self,
        service: DetectionService,
        *,
        clock: WallClock | None = None,
        submit_timeout_s: float = 5.0,
    ) -> None:
        self.service = service
        self.clock = clock if clock is not None else WallClock()
        self.submit_timeout_s = submit_timeout_s
        self._lock = threading.Lock()
        self._wake = threading.Condition(self._lock)
        self._space = threading.Condition(self._lock)
        self._futures: dict[tuple[str, int], Future] = {}
        self._stopping = False
        self._thread = threading.Thread(
            target=self._run, name="repro-serve-flusher", daemon=True
        )
        self._thread.start()

    def __enter__(self) -> "ThreadedDetectionService":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def submit(
        self,
        stream_id: str,
        received: np.ndarray,
        *,
        channel_id: str,
        payload: Any = None,
    ) -> Future:
        """Admit one frame; blocks briefly under backpressure."""
        deadline = self.clock.now() + self.submit_timeout_s
        with self._wake:
            if self._stopping:
                raise RuntimeError("service is closed")
            while (
                self.service.scheduler.stream_depth(stream_id)
                >= self.service.scheduler.config.max_queue
            ):
                remaining = deadline - self.clock.now()
                if remaining <= 0:
                    raise BackpressureError(
                        f"stream {stream_id!r} full for "
                        f"{self.submit_timeout_s}s"
                    )
                self._space.wait(timeout=remaining)
            request = self.service.submit(
                stream_id,
                received,
                channel_id=channel_id,
                now=self.clock.now(),
                payload=payload,
            )
            future: Future = Future()
            self._futures[request.key] = future
            self._wake.notify()
        return future

    def close(self) -> None:
        """Stop the flusher, drain pending frames, resolve all futures."""
        with self._wake:
            if self._stopping:
                return
            self._stopping = True
            self._wake.notify()
        self._thread.join()
        with self._wake:
            self._deliver(self.service.drain(self.clock.now()))

    def _deliver(self, delivered: Sequence[FrameResult]) -> None:
        for fr in delivered:
            future = self._futures.pop((fr.stream_id, fr.seq), None)
            if future is not None:
                future.set_result(fr)
        if delivered:
            self._space.notify_all()

    def _run(self) -> None:
        while True:
            with self._wake:
                if self._stopping:
                    return
                deadline = self.service.scheduler.next_deadline_s()
                if deadline is None:
                    self._wake.wait()
                else:
                    self._wake.wait(
                        timeout=max(deadline - self.clock.now(), 0.0)
                    )
                if self._stopping:
                    return
                self._deliver(self.service.poll(self.clock.now()))
