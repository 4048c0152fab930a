"""Span/instant tracer for the decoder and FPGA-pipeline hot paths.

Design constraints (see ``docs/observability.md``):

* **Near-zero overhead when disabled.** Instrumented code fetches the
  ambient tracer once per decode (``current_tracer()``) and uses the
  no-op span the disabled tracer hands out. No string formatting, no
  dict building, no clock reads happen on the disabled path.
* **Boundaries, not expansions.** Spans open at decode, solve and
  search-round boundaries, so a traced decode's event count does not
  grow with the nodes it expands; that keeps fully-enabled telemetry
  under the ≤5 % decode-overhead budget enforced by
  ``benchmarks/bench_obs_overhead.py``. The exact per-expansion record
  is the decode's :class:`~repro.core.stats.BatchTrace`.
* **Events, not counts.** The tracer records spans and instants only;
  exact counts live in ``DecodeStats`` and the metrics registry
  (:mod:`repro.obs.metrics`).
* **Nesting via contextvars.** Span depth lives in a
  :class:`contextvars.ContextVar`, so nesting is correct across
  threads and ``asyncio`` tasks without locks on the hot path.
* **Exporter-agnostic records.** The tracer stores plain
  :class:`TraceEvent` rows; :mod:`repro.obs.export` turns them into
  Chrome ``trace_event`` JSON or a JSONL log, and
  :mod:`repro.obs.metrics` into a percentile summary.
* **Cross-process propagation.** A :class:`TraceContext` captured in
  the parent ships the *enabled* flags and the parent's clock epoch to
  Monte Carlo shard workers (it rides in
  :class:`~repro.mimo.parallel_mc.ShardSpec`). Workers build their own
  tracer against that epoch (``perf_counter`` is CLOCK_MONOTONIC on
  Linux — system-wide, so timestamps stay comparable), stamp events
  with their OS pid, and :meth:`Tracer.drain` / :meth:`Tracer.absorb`
  move the event buffers back through the existing progress queue. The
  merged trace renders one lane per worker process.

Usage::

    from repro.obs import Tracer, use_tracer

    tracer = Tracer()
    with use_tracer(tracer):
        decoder.detect(received)        # instrumented internally
    write_chrome_trace(tracer, "decode.trace.json")
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from time import perf_counter as _perf_counter
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Mapping, NamedTuple

from repro.util.timing import WallClock

_get_ident = threading.get_ident

#: Event phases, mirroring the Chrome trace_event vocabulary.
PHASE_SPAN = "span"
PHASE_INSTANT = "instant"


class TraceEvent(NamedTuple):
    """One recorded event (a completed span or an instant).

    ``ts`` and ``dur`` are seconds relative to the tracer's epoch (its
    construction, or the last :meth:`Tracer.clear`). ``depth`` is the
    span-nesting depth at emission; ``tid`` the OS thread ident;
    ``pid`` the *origin process* (0 = the process that owns the tracer,
    a real OS pid for events absorbed from shard workers). A
    ``NamedTuple`` rather than a frozen dataclass: events are built on
    hot paths and tuple construction is several times cheaper.
    """

    phase: str
    name: str
    ts: float
    dur: float = 0.0
    depth: int = 0
    tid: int = 0
    args: Mapping[str, Any] | None = None
    pid: int = 0


class Span:
    """Context manager recording one timed region on a tracer.

    Created via :meth:`Tracer.span`; the event is appended on exit so a
    crash inside the region leaves no half-open record.
    """

    __slots__ = ("_tracer", "name", "args", "_start", "_token")

    def __init__(self, tracer: "Tracer", name: str, args: Mapping | None) -> None:
        self._tracer = tracer
        self.name = name
        self.args = args
        self._start: float | None = None
        self._token = None

    def __enter__(self) -> "Span":
        hook = self._tracer.on_span_enter
        if hook is not None:
            hook(self.name)
        self._token = _DEPTH.set(_DEPTH.get() + 1)
        self._start = self._tracer._now()
        return self

    def __exit__(self, *exc: object) -> None:
        tracer = self._tracer
        end = tracer._now()
        hook = tracer.on_span_exit
        if hook is not None:
            hook(self.name)
        depth = _DEPTH.get()
        _DEPTH.reset(self._token)
        start = self._start if self._start is not None else end
        tracer._events.append(
            TraceEvent(
                phase=PHASE_SPAN,
                name=self.name,
                ts=start,
                dur=end - start,
                depth=depth,
                tid=_get_ident(),
                args=self.args,
                pid=tracer.pid,
            )
        )


class _NullSpan:
    """Shared no-op span handed out by disabled tracers."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> None:
        return None


_NULL_SPAN = _NullSpan()

#: Current span-nesting depth for the running execution context.
_DEPTH: ContextVar[int] = ContextVar("repro_obs_depth", default=0)


class Tracer:
    """Collects spans and instants for one observed run.

    Parameters
    ----------
    enabled:
        When False every API is a no-op; :data:`NULL_TRACER` is the
        canonical disabled instance that ``current_tracer()`` returns
        when nothing was installed.
    clock:
        Injectable monotonic clock (deterministic tests).
    epoch:
        Absolute clock reading to measure timestamps from. ``None``
        (default) takes the clock's *now*; shard workers pass the
        parent's epoch (via :class:`TraceContext`) so their events land
        on the parent's timeline.
    pid:
        Origin-process stamp for every event this tracer records.
        ``0`` means "the owning process" (the exporter maps it to the
        primary lane); workers pass ``os.getpid()``.
    """

    def __init__(
        self,
        *,
        enabled: bool = True,
        clock: WallClock | None = None,
        epoch: float | None = None,
        pid: int = 0,
    ) -> None:
        self.enabled = enabled
        #: Optional callables invoked with the span *name* at every span
        #: boundary (enter fires before the start timestamp is taken,
        #: exit after the end timestamp — hook cost never lands inside
        #: the span it brackets). ``repro.obs.profile.SpanProfiler``
        #: attaches here to scope cProfile capture to tracer spans; the
        #: cost when unset is one attribute load + None check per span.
        self.on_span_enter = None
        self.on_span_exit = None
        self._clock = clock or WallClock()
        # The default WallClock reads perf_counter: call it directly.
        self._perf_clock = clock is None
        self._epoch = self._clock.now() if epoch is None else float(epoch)
        self.pid = pid
        self._events: list[TraceEvent] = []

    # -- recording ------------------------------------------------------

    def _now(self) -> float:
        if self._perf_clock:
            return _perf_counter() - self._epoch
        return self._clock.now() - self._epoch

    @property
    def events(self) -> list[TraceEvent]:
        """All recorded events, in emission order."""
        return self._events

    def span(self, name: str, **args: Any):
        """A context manager timing one named region.

        Keyword arguments become the span's ``args`` payload (visible in
        the Chrome trace viewer). Disabled tracers return a shared no-op
        span: no allocation beyond the call itself.
        """
        if not self.enabled:
            return _NULL_SPAN
        return Span(self, name, args or None)

    def instant(self, name: str, **args: Any) -> None:
        """Record a point-in-time event (Chrome ``i`` phase)."""
        if not self.enabled:
            return
        self._events.append(
            TraceEvent(
                phase=PHASE_INSTANT,
                name=name,
                ts=self._now(),
                depth=_DEPTH.get(),
                tid=threading.get_ident(),
                args=args or None,
                pid=self.pid,
            )
        )

    # -- cross-process propagation --------------------------------------

    def drain(self) -> list[TraceEvent]:
        """Pop every event buffered since the last drain.

        The worker-side half of shard telemetry: called after every
        channel block (and from the crash path, so a dying shard still
        ships its partial trace), the returned list is small enough to
        ride the existing Manager progress queue.
        """
        events, self._events = self._events, []
        return events

    def absorb(self, events: Iterable[TraceEvent]) -> None:
        """Fold a worker's drained events into this tracer.

        Events are appended as-is: they already carry the worker's
        ``pid`` stamp and share this tracer's epoch (see
        :class:`TraceContext`).
        """
        if not self.enabled:
            return
        self._events.extend(events)

    # -- inspection ------------------------------------------------------

    def spans(self, name: str | None = None) -> list[TraceEvent]:
        """All completed span events, optionally filtered by name."""
        return [
            e
            for e in self.events
            if e.phase == PHASE_SPAN and (name is None or e.name == name)
        ]

    def span_durations(self) -> dict[str, list[float]]:
        """Span durations (seconds) grouped by span name."""
        grouped: dict[str, list[float]] = {}
        for e in self.events:
            if e.phase == PHASE_SPAN:
                grouped.setdefault(e.name, []).append(e.dur)
        return grouped

    def clear(self) -> None:
        """Drop all recorded events and restart the epoch."""
        self._events = []
        self._epoch = self._clock.now()


#: Canonical disabled tracer; what ``current_tracer()`` yields when no
#: tracer has been installed. Never record on it.
NULL_TRACER = Tracer(enabled=False)

_CURRENT: ContextVar[Tracer] = ContextVar("repro_obs_tracer", default=NULL_TRACER)


def current_tracer() -> Tracer:
    """The tracer installed for this execution context (never None)."""
    return _CURRENT.get()


def set_tracer(tracer: Tracer):
    """Install ``tracer`` for this context; returns a reset token."""
    return _CURRENT.set(tracer)


def reset_tracer(token) -> None:
    """Undo a :func:`set_tracer` with its token."""
    _CURRENT.reset(token)


@contextmanager
def use_tracer(tracer: Tracer) -> Iterator[Tracer]:
    """Scope ``tracer`` as the ambient tracer for a ``with`` block."""
    token = set_tracer(tracer)
    try:
        yield tracer
    finally:
        reset_tracer(token)


@dataclass(frozen=True)
class TraceContext:
    """Telemetry propagation record carried across process boundaries.

    Contextvars don't cross processes, so the parent captures *what is
    observed* (trace / metrics enabled) plus its tracer's absolute
    clock epoch, and ships this frozen record inside every
    :class:`~repro.mimo.parallel_mc.ShardSpec`. Workers rebuild a
    :class:`Tracer` (same epoch, own pid) and a
    :class:`~repro.obs.metrics.MetricsRegistry` from it, so their
    events land directly on the parent's timeline and their metric
    snapshots merge exactly.

    ``time.perf_counter`` is CLOCK_MONOTONIC on Linux (and QPC on
    Windows) — a system-wide clock, so a shared epoch yields aligned
    cross-process timestamps. On platforms where it is per-process the
    lanes still render; only their relative offset is approximate.
    """

    trace_enabled: bool = False
    metrics_enabled: bool = False
    #: Parent tracer's absolute ``perf_counter`` epoch.
    epoch: float = 0.0

    @classmethod
    def capture(cls) -> "TraceContext | None":
        """The ambient observability state, or None when nothing is on."""
        from repro.obs.metrics import current_metrics

        tracer = current_tracer()
        metrics = current_metrics()
        if not tracer.enabled and not metrics.enabled:
            return None
        return cls(
            trace_enabled=tracer.enabled,
            metrics_enabled=metrics.enabled,
            epoch=tracer._epoch if tracer.enabled else 0.0,
        )
