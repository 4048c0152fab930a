"""repro.obs — structured tracing, metrics and diagnostics.

Cooperating pieces (see ``docs/observability.md``):

``repro.obs.tracer``
    :class:`Tracer` / :class:`Span` — a lightweight span & instant
    collector, nested via ``contextvars``, with near-zero overhead when
    disabled. The decoder, the detectors, the
    Monte Carlo engine and the FPGA pipeline simulator are all
    instrumented against the *ambient* tracer (``current_tracer()``).
    :class:`TraceContext` propagates the observed state into Monte
    Carlo shard workers, whose buffers flow back over the progress
    queue into one merged per-process-lane trace.
``repro.obs.metrics``
    The labelled metrics subsystem and the package's only counter
    store — :class:`MetricsRegistry` hands out counters, gauges and
    exponential-bucket histograms against the ambient registry
    (``current_metrics()``), snapshots merge exactly across processes,
    and exporters render Prometheus text — plus the run summaries
    (span percentiles, counter totals, traversal rates).
``repro.obs.export`` / ``repro.obs.stream``
    Exporters: Chrome ``trace_event`` JSON (``chrome://tracing`` /
    Perfetto) with one lane per worker process, a JSONL event log that
    round-trips (``read_jsonl``), and the live metrics stream
    (``metrics.stream.jsonl``) behind ``repro-sd obs tail`` / ``top``.
``repro.obs.log``
    ``logging``-based diagnostics channel with a single
    :func:`~repro.obs.log.configure` entry point; the CLI's ``-v``/
    ``-q`` flags map onto it.
``repro.obs.profile``
    Performance attribution: fold a tracer's spans into a call-tree
    with **self vs total time**, scope :mod:`cProfile` to spans
    (:class:`SpanProfiler`), export collapsed-stack / speedscope
    flamegraphs, and diff two recorded runs' per-span self-times
    (``repro-sd profile run|flame|diff``).
``repro.obs.registry`` / ``repro.obs.report``
    Persistent run registry: every recorded harness / benchmark /
    ``repro-sd experiment`` invocation becomes a ``runs/<id>/``
    directory (manifest + series + metrics + stream + optional trace),
    and ``repro-sd runs list|show|diff|report`` renders and compares
    them.

Quickstart::

    from repro.obs import MetricsRegistry, Tracer, use_metrics, use_tracer

    tracer, metrics = Tracer(), MetricsRegistry()
    with use_tracer(tracer), use_metrics(metrics):
        decoder.detect(received)
    write_chrome_trace(tracer, "decode.trace.json")
    print(format_metrics(tracer, metrics))
    print(to_prometheus(metrics.snapshot()))
"""

from repro.obs.export import (
    chrome_trace,
    chrome_trace_events,
    events_from_chrome,
    jsonl_lines,
    read_jsonl,
    tracer_from_events,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.log import configure as configure_logging
from repro.obs.log import get_logger
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    NULL_METRICS,
    HistogramData,
    MetricsRegistry,
    MetricsSnapshot,
    current_metrics,
    exponential_buckets,
    format_metrics,
    reset_metrics,
    set_metrics,
    span_metrics,
    to_prometheus,
    traversal_rates,
    use_metrics,
)
from repro.obs.profile import (
    ProfileDiff,
    ProfileNode,
    ProfileTree,
    SpanProfiler,
    build_profile_tree,
    collapsed_stack_lines,
    diff_profiles,
    format_profile,
    format_profile_diff,
    load_profile,
    parse_collapsed,
    profile_callable,
    profile_experiment,
    self_by_name,
    speedscope_document,
    write_collapsed,
    write_speedscope,
)
from repro.obs.registry import (
    NULL_RECORDER,
    RunManifest,
    RunRecorder,
    RunRegistry,
)
from repro.obs.stream import (
    STREAM_FILE,
    MetricsStreamWriter,
    follow_stream,
    format_stream_line,
    format_top,
    read_stream,
)
from repro.obs.tracer import (
    NULL_TRACER,
    PHASE_INSTANT,
    PHASE_SPAN,
    Span,
    TraceContext,
    TraceEvent,
    Tracer,
    current_tracer,
    reset_tracer,
    set_tracer,
    use_tracer,
)

__all__ = [
    "Tracer",
    "Span",
    "TraceEvent",
    "TraceContext",
    "NULL_TRACER",
    "PHASE_SPAN",
    "PHASE_INSTANT",
    "current_tracer",
    "set_tracer",
    "reset_tracer",
    "use_tracer",
    "MetricsRegistry",
    "MetricsSnapshot",
    "HistogramData",
    "NULL_METRICS",
    "DEFAULT_BUCKETS",
    "exponential_buckets",
    "current_metrics",
    "set_metrics",
    "reset_metrics",
    "use_metrics",
    "to_prometheus",
    "chrome_trace",
    "chrome_trace_events",
    "jsonl_lines",
    "read_jsonl",
    "tracer_from_events",
    "write_chrome_trace",
    "write_jsonl",
    "MetricsStreamWriter",
    "STREAM_FILE",
    "read_stream",
    "follow_stream",
    "format_stream_line",
    "format_top",
    "span_metrics",
    "traversal_rates",
    "format_metrics",
    "events_from_chrome",
    "ProfileNode",
    "ProfileTree",
    "ProfileDiff",
    "SpanProfiler",
    "build_profile_tree",
    "self_by_name",
    "collapsed_stack_lines",
    "parse_collapsed",
    "speedscope_document",
    "write_collapsed",
    "write_speedscope",
    "diff_profiles",
    "format_profile",
    "format_profile_diff",
    "load_profile",
    "profile_callable",
    "profile_experiment",
    "RunRegistry",
    "RunRecorder",
    "RunManifest",
    "NULL_RECORDER",
    "configure_logging",
    "get_logger",
]
