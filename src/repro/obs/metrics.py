"""Metrics: labelled counters / gauges / histograms plus the run
summaries built on them.

Two surfaces live here:

* The **metrics registry** — :class:`MetricsRegistry` hands out
  labelled counter / gauge / exponential-bucket-histogram instruments,
  the only store of counts in the package. Snapshots merge exactly
  across processes (order-independent, exact aggregates), and
  exporters render Prometheus text or JSON documents.
  The ambient-instance pattern mirrors the tracer:
  :func:`current_metrics` returns :data:`NULL_METRICS` (every method a
  no-op) unless :func:`use_metrics` installed a live registry, so
  instrumented code pays one attribute check when observability is off.
  Hot paths bind a series once (``handle.labels(detector="sd")``) and
  write it with the value alone (``.inc(n)``), skipping the per-call
  label-key build.
* **Run summaries** (:func:`span_metrics`, :func:`traversal_rates`,
  :func:`format_metrics`) — percentile tables over a
  :class:`~repro.obs.tracer.Tracer`'s recorded spans, plus the counter
  totals and derived rates of a registry snapshot.

Label values are kept as strings in snapshots so JSON round trips are
exact; series keys render Prometheus-style: ``mc.frames{snr=8}``.

Cardinality is guarded: a registry admits at most ``max_series``
distinct (name, labels) series and raises :class:`ValueError` beyond
that — an instrumentation bug (e.g. a per-frame label) should fail
loudly rather than silently eat memory.
"""

from __future__ import annotations

from bisect import bisect_left
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field, replace
from time import time as _wall_time
from typing import Any, Iterator, Mapping

from repro.obs.tracer import Tracer
from repro.util.timing import TimingSummary, summarize

# ---------------------------------------------------------------------------
# Run summaries (spans from a tracer, counts from a registry snapshot)
# ---------------------------------------------------------------------------


def span_metrics(tracer: Tracer) -> dict[str, TimingSummary]:
    """Per-span-name duration summary (seconds), insertion-ordered."""
    return {
        name: summarize(durs) for name, durs in tracer.span_durations().items()
    }


def counter_rows(snapshot: "MetricsSnapshot") -> dict[str, float]:
    """Counter totals by series, per-level series summed.

    The ``level`` label is the vocabulary's only per-tree-level label;
    folding it keeps a summary table to one row per detector and
    counter (``traversal.nodes_expanded{detector=sd}``). Sorted by key.
    """
    rows: dict[str, float] = {}
    for (name, key), value in snapshot.counters.items():
        flat = format_series_key(name, tuple(kv for kv in key if kv[0] != "level"))
        rows[flat] = rows.get(flat, 0.0) + value
    return dict(sorted(rows.items()))


def traversal_rates(snapshot: "MetricsSnapshot") -> dict[str, float]:
    """Nodes expanded per decode second, by detector.

    Divides each detector's ``traversal.nodes_expanded`` total (all
    levels) by the sum of its ``detector.decode_seconds`` histogram —
    the host-throughput figure the traversal loops optimise. Detectors
    without recorded decode time are omitted.
    """
    nodes: dict[str, float] = {}
    for (name, key), value in snapshot.counters.items():
        if name == "traversal.nodes_expanded":
            det = dict(key).get("detector", "")
            nodes[det] = nodes.get(det, 0.0) + value
    rates: dict[str, float] = {}
    for (name, key), hist in snapshot.histograms.items():
        if name != "detector.decode_seconds" or hist.sum <= 0:
            continue
        det = dict(key).get("detector", "")
        if det in nodes:
            rates[f"{det}.nodes_per_sec"] = nodes[det] / hist.sum
    return rates


def format_metrics(
    tracer: Tracer,
    metrics: "MetricsRegistry | None" = None,
    *,
    title: str = "metrics",
) -> str:
    """Render spans (ms percentiles), counters and rates as aligned tables.

    Spans come from ``tracer``; counters (:func:`counter_rows`) and
    derived rates (:func:`traversal_rates`) from ``metrics``, when an
    enabled registry is given.
    """
    lines = [f"== {title} =="]
    spans = span_metrics(tracer)
    if spans:
        header = ("span", "count", "total_ms", "mean_ms", "p50_ms", "p95_ms", "p99_ms")
        rows = [
            (
                name,
                str(s.count),
                f"{s.total * 1e3:.3f}",
                f"{s.mean * 1e3:.3f}",
                f"{s.p50 * 1e3:.3f}",
                f"{s.p95 * 1e3:.3f}",
                f"{s.p99 * 1e3:.3f}",
            )
            for name, s in spans.items()
        ]
        widths = [
            max(len(header[i]), *(len(r[i]) for r in rows)) for i in range(len(header))
        ]
        lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(header)))
        lines.append("  ".join("-" * w for w in widths))
        for r in rows:
            lines.append("  ".join(r[i].ljust(widths[i]) for i in range(len(r))))
    else:
        lines.append("(no spans recorded)")
    if metrics is not None and metrics.enabled:
        snapshot = metrics.snapshot()
        for heading, table, shown in (
            ("counters:", counter_rows(snapshot),
             lambda v: f"{int(v)}" if float(v).is_integer() else f"{v:.3f}"),
            ("derived:", traversal_rates(snapshot), lambda v: f"{v:,.0f}"),
        ):
            if table:
                width = max(len(name) for name in table)
                lines += ["", heading]
                lines += [f"  {k.ljust(width)}  {shown(v)}" for k, v in table.items()]
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Series keys
# ---------------------------------------------------------------------------

#: Internal label key: sorted ``(label, value)`` pairs, values stringified.
LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: Mapping[str, Any]) -> LabelKey:
    """Canonical hashable key for one label set (values stringified).

    Hot paths build it once per series (:meth:`_Instrument.labels`).
    """
    return tuple(
        sorted((k, v if type(v) is str else _label_str(v)) for k, v in labels.items())
    )


def _label_str(value: Any) -> str:
    """Stable string form for a label value (``8.0`` renders as ``8``)."""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, (int, float)):
        return format(value, "g")
    return str(value)


def format_series_key(name: str, key: LabelKey) -> str:
    """Prometheus-style flat key: ``mc.frames{snr=8,shard=0}``."""
    if not key:
        return name
    inner = ",".join(f"{k}={v}" for k, v in key)
    return f"{name}{{{inner}}}"


def parse_series_key(flat: str) -> tuple[str, LabelKey]:
    """Inverse of :func:`format_series_key` (raises ValueError)."""
    if "{" not in flat:
        return flat, ()
    if not flat.endswith("}"):
        raise ValueError(f"malformed series key {flat!r}")
    name, _, inner = flat[:-1].partition("{")
    pairs = []
    for part in inner.split(","):
        k, sep, v = part.partition("=")
        if not sep or not k:
            raise ValueError(f"malformed series key {flat!r}")
        pairs.append((k, v))
    return name, tuple(sorted(pairs))


# ---------------------------------------------------------------------------
# Histogram buckets
# ---------------------------------------------------------------------------


def exponential_buckets(
    start: float, factor: float, count: int
) -> tuple[float, ...]:
    """``count`` exponentially spaced upper bounds from ``start``.

    ``exponential_buckets(1e-6, 2, 4)`` → ``(1e-6, 2e-6, 4e-6, 8e-6)``;
    observations above the last edge land in the implicit overflow
    bucket. Geometric spacing keeps relative quantile error bounded by
    ``factor`` across any dynamic range, which is what latency-style
    metrics need.
    """
    if start <= 0:
        raise ValueError("bucket start must be positive")
    if factor <= 1.0:
        raise ValueError("bucket growth factor must exceed 1")
    if count < 1:
        raise ValueError("need at least one bucket edge")
    edges = []
    edge = float(start)
    for _ in range(count):
        edges.append(edge)
        edge *= factor
    return tuple(edges)


#: Default edges: 1 µs .. ~33 s in powers of two — covers everything
#: from a single expansion batch to a whole sweep.
DEFAULT_BUCKETS = exponential_buckets(1e-6, 2.0, 26)


@dataclass(slots=True)
class HistogramData:
    """One histogram series: exponential buckets plus exact aggregates.

    ``counts`` has ``len(edges) + 1`` slots — the last is the overflow
    bucket for observations above the largest edge. Bucket semantics
    are Prometheus ``le``: an observation lands in the first bucket
    whose upper edge is >= the value. ``count``/``sum``/``min``/``max``
    are exact regardless of bucket resolution.
    """

    edges: tuple[float, ...]
    counts: list[int] = field(default_factory=list)
    count: int = 0
    sum: float = 0.0
    min: float = float("inf")
    max: float = float("-inf")

    def __post_init__(self) -> None:
        if not self.counts:
            self.counts = [0] * (len(self.edges) + 1)

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.edges, value)] += 1
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def merge(self, other: "HistogramData") -> "HistogramData":
        """Exact, order-independent merge (bucket-wise addition)."""
        if self.edges != other.edges:
            raise ValueError(
                "cannot merge histograms with different bucket edges"
            )
        return HistogramData(
            edges=self.edges,
            counts=[a + b for a, b in zip(self.counts, other.counts)],
            count=self.count + other.count,
            sum=self.sum + other.sum,
            min=min(self.min, other.min),
            max=max(self.max, other.max),
        )

    def copy(self) -> "HistogramData":
        return replace(self, counts=list(self.counts))

    def quantile(self, q: float) -> float:
        """Upper-edge estimate of the ``q``-quantile (0..1).

        Resolution is one bucket; exact ``min``/``max`` clamp the ends.
        Returns NaN for an empty histogram.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if not self.count:
            return float("nan")
        target = q * self.count
        cum = 0
        for i, c in enumerate(self.counts):
            cum += c
            if cum >= target and c:
                if i >= len(self.edges):
                    return self.max
                return min(self.edges[i], self.max)
        return self.max

    def to_dict(self) -> dict[str, Any]:
        return {
            "edges": list(self.edges),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.sum,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
        }

    @classmethod
    def from_dict(cls, doc: Mapping[str, Any]) -> "HistogramData":
        return cls(
            edges=tuple(doc["edges"]),
            counts=list(doc["counts"]),
            count=int(doc["count"]),
            sum=float(doc["sum"]),
            min=float("inf") if doc.get("min") is None else float(doc["min"]),
            max=float("-inf") if doc.get("max") is None else float(doc["max"]),
        )


# ---------------------------------------------------------------------------
# Snapshots
# ---------------------------------------------------------------------------


@dataclass
class MetricsSnapshot:
    """A point-in-time (or delta) copy of a registry's series.

    Snapshots merge through :meth:`MetricsRegistry.merge_snapshot`, the
    one cross-process merge path.
    """

    t: float = 0.0
    counters: dict[tuple[str, LabelKey], float] = field(default_factory=dict)
    gauges: dict[tuple[str, LabelKey], tuple[float, float]] = field(
        default_factory=dict
    )
    histograms: dict[tuple[str, LabelKey], HistogramData] = field(
        default_factory=dict
    )

    @property
    def empty(self) -> bool:
        return not (self.counters or self.gauges or self.histograms)

    def counter_total(self, name: str) -> float:
        """Sum of one counter across all of its label sets."""
        return sum(v for (n, _), v in self.counters.items() if n == name)

    def gauge_series(self, name: str) -> dict[LabelKey, float]:
        """Current value of one gauge per label set."""
        return {key: v for (n, key), (v, _) in self.gauges.items() if n == name}

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready document (flat Prometheus-style series keys)."""
        return {
            "t": self.t,
            "counters": {
                format_series_key(n, k): v for (n, k), v in self.counters.items()
            },
            "gauges": {
                format_series_key(n, k): [v, ts]
                for (n, k), (v, ts) in self.gauges.items()
            },
            "histograms": {
                format_series_key(n, k): h.to_dict()
                for (n, k), h in self.histograms.items()
            },
        }

    @classmethod
    def from_dict(cls, doc: Mapping[str, Any]) -> "MetricsSnapshot":
        snap = cls(t=float(doc.get("t", 0.0)))
        for flat, value in (doc.get("counters") or {}).items():
            snap.counters[parse_series_key(flat)] = float(value)
        for flat, (value, ts) in (doc.get("gauges") or {}).items():
            snap.gauges[parse_series_key(flat)] = (float(value), float(ts))
        for flat, h in (doc.get("histograms") or {}).items():
            snap.histograms[parse_series_key(flat)] = HistogramData.from_dict(h)
        return snap


def to_prometheus(snapshot: MetricsSnapshot, *, prefix: str = "repro_") -> str:
    """Render a snapshot in the Prometheus text exposition format.

    Metric names swap ``.`` for ``_`` and gain ``prefix``; histograms
    emit cumulative ``_bucket{le=...}`` series plus ``_sum``/``_count``,
    exactly as a Prometheus client library would.
    """

    def prom_name(name: str) -> str:
        return prefix + name.replace(".", "_").replace("-", "_")

    def labels(key: LabelKey, extra: tuple[tuple[str, str], ...] = ()) -> str:
        pairs = key + extra
        if not pairs:
            return ""
        inner = ",".join(f'{k}="{v}"' for k, v in pairs)
        return "{" + inner + "}"

    lines: list[str] = []
    seen_counters: set[str] = set()
    for (name, key), value in sorted(snapshot.counters.items()):
        pname = prom_name(name)
        if pname not in seen_counters:
            lines.append(f"# TYPE {pname} counter")
            seen_counters.add(pname)
        lines.append(f"{pname}{labels(key)} {value:g}")
    seen_gauges: set[str] = set()
    for (name, key), (value, _ts) in sorted(snapshot.gauges.items()):
        pname = prom_name(name)
        if pname not in seen_gauges:
            lines.append(f"# TYPE {pname} gauge")
            seen_gauges.add(pname)
        lines.append(f"{pname}{labels(key)} {value:g}")
    seen_hists: set[str] = set()
    for (name, key), hist in sorted(snapshot.histograms.items()):
        pname = prom_name(name)
        if pname not in seen_hists:
            lines.append(f"# TYPE {pname} histogram")
            seen_hists.add(pname)
        cum = 0
        for edge, c in zip(hist.edges, hist.counts):
            cum += c
            lines.append(
                f"{pname}_bucket{labels(key, (('le', format(edge, 'g')),))} {cum}"
            )
        lines.append(f"{pname}_bucket{labels(key, (('le', '+Inf'),))} {hist.count}")
        lines.append(f"{pname}_sum{labels(key)} {hist.sum:g}")
        lines.append(f"{pname}_count{labels(key)} {hist.count}")
    return "\n".join(lines) + ("\n" if lines else "")


# ---------------------------------------------------------------------------
# Instruments
# ---------------------------------------------------------------------------


class _NullInstrument:
    """Shared no-op instrument handed out by a disabled registry."""

    __slots__ = ()

    def inc(self, value: float = 1.0, **labels: Any) -> None:
        return None

    def set(self, value: float, **labels: Any) -> None:
        return None

    def observe(self, value: float, **labels: Any) -> None:
        return None

    def labels(self, **labels: Any) -> "_NullInstrument":
        return self


_NULL_INSTRUMENT = _NullInstrument()


class _Series:
    """One labelled series of an instrument, kept per label key for good.

    ``handle.labels(...)`` hands it out bound, so a write builds and
    hashes no label key. It is *live* from its first write (which admits
    it against the cardinality guard) until the registry's ``clear`` or
    ``drain``; snapshots hold live series only.
    """

    __slots__ = ("_handle", "_key", "value", "live")

    def __init__(self, handle: "_Instrument", key: LabelKey) -> None:
        self._handle = handle
        self._key = key
        self.value: Any = None
        self.live = False

    def _admit(self) -> None:
        handle = self._handle
        handle._registry._admit(handle.name, self._key)
        self.live = True


class _CounterSeries(_Series):
    __slots__ = ()

    def inc(self, value: float = 1.0) -> None:
        if self.live:
            self.value += value
        else:
            self._admit()
            self.value = float(value)


class _GaugeSeries(_Series):
    __slots__ = ()

    def set(self, value: float) -> None:
        if not self.live:
            self._admit()
        self.value = (float(value), self._handle._registry._now())


class _HistogramSeries(_Series):
    __slots__ = ()

    def observe(self, value: float) -> None:
        if not self.live:
            self._admit()
            self.value = HistogramData(edges=self._handle.edges)
        self.value.observe(value)


def inc_each(series, values) -> None:
    """``series[i].inc(values[i])`` for each pair (stops at the shorter):
    one call for a row of bound counters written together."""
    for one, value in zip(series, values):
        if one.live:
            one.value += value
        else:
            one.inc(value)


def set_each(series, values) -> None:
    """``series[i].set(values[i])`` for each pair, with one clock read."""
    if not series:
        return
    now = series[0]._handle._registry._now()
    for one, value in zip(series, values):
        if not one.live:
            one._admit()
        one.value = (float(value), now)


class _Instrument:
    """Shared shape of the three instruments: a name and its series,
    one :class:`_Series` per label key."""

    __slots__ = ("name", "_registry", "_series")
    _kind: type = _Series

    def __init__(self, name: str, registry: "MetricsRegistry") -> None:
        self.name = name
        self._registry = registry
        self._series: dict[LabelKey, _Series] = {}

    def labels(self, **labels: Any) -> _Series:
        """The series of one label set, bound once and written with the
        value alone (``.inc(n)``, ``.set(v)``, ``.observe(x)``)."""
        return self._get(_label_key(labels))

    def _get(self, key: LabelKey) -> _Series:
        series = self._series.get(key)
        if series is None:
            series = self._series[key] = self._kind(self, key)
        return series

    def _live(self) -> Iterator[tuple[LabelKey, Any]]:
        """``(key, value)`` of every live series."""
        return (
            (key, series.value)
            for key, series in self._series.items()
            if series.live
        )


class CounterHandle(_Instrument):
    """Monotonically increasing, labelled counter."""

    __slots__ = ()
    _kind = _CounterSeries

    def inc(self, value: float = 1.0, **labels: Any) -> None:
        self._get(_label_key(labels)).inc(value)


class GaugeHandle(_Instrument):
    """Last-observation-wins, labelled gauge, timestamped for merges."""

    __slots__ = ()
    _kind = _GaugeSeries

    def set(self, value: float, **labels: Any) -> None:
        self._get(_label_key(labels)).set(value)


class HistogramHandle(_Instrument):
    """Labelled exponential-bucket histogram."""

    __slots__ = ("edges",)
    _kind = _HistogramSeries

    def __init__(
        self,
        name: str,
        registry: "MetricsRegistry",
        edges: tuple[float, ...],
    ) -> None:
        super().__init__(name, registry)
        self.edges = edges

    def observe(self, value: float, **labels: Any) -> None:
        self._get(_label_key(labels)).observe(value)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

#: Series-count ceiling; far above legitimate use (detector × SNR ×
#: level × shard for a large sweep is a few thousand) but low enough to
#: catch a per-frame label before it eats the heap.
DEFAULT_MAX_SERIES = 50_000


class MetricsRegistry:
    """Get-or-create home for counters, gauges and histograms.

    Mirrors the tracer's enabled/ambient design: a disabled registry
    (``NULL_METRICS``) hands out a shared no-op instrument, so
    instrumented code never branches beyond ``metrics.enabled`` or the
    no-op call itself. Instrument handles are cheap to re-request; hot
    paths hold series bound with ``handle.labels(...)`` instead, which
    stay valid across :meth:`drain` and :meth:`clear`.

    ``stream`` may be set to a
    :class:`~repro.obs.stream.MetricsStreamWriter` (anything with
    ``maybe_write(registry)`` / ``write(registry)``); :meth:`tick`
    forwards to it, which is how live snapshots reach
    ``runs/<id>/metrics.stream.jsonl`` without the engine knowing about
    files.
    """

    def __init__(
        self,
        *,
        enabled: bool = True,
        max_series: int = DEFAULT_MAX_SERIES,
        clock=None,
    ) -> None:
        self.enabled = enabled
        self.max_series = max_series
        self._clock = clock
        self._counters: dict[str, CounterHandle] = {}
        self._gauges: dict[str, GaugeHandle] = {}
        self._histograms: dict[str, HistogramHandle] = {}
        self._n_series = 0
        #: Bound-series bundles (see :meth:`bundle`).
        self._bundles: dict[tuple, Any] = {}
        #: Optional live-snapshot sink (see :meth:`tick`).
        self.stream = None

    def _now(self) -> float:
        clock = self._clock
        return _wall_time() if clock is None else clock.now()

    def _admit(self, name: str, key: LabelKey) -> None:
        self._n_series += 1
        if self._n_series > self.max_series:
            raise ValueError(
                f"metrics registry exceeded max_series={self.max_series} "
                f"admitting {format_series_key(name, key)!r}; "
                "a label with unbounded cardinality is almost certainly "
                "being used (frame index, timestamp, ...)"
            )

    # -- instrument access ---------------------------------------------

    def counter(self, name: str):
        """The named counter (shared no-op when disabled)."""
        if not self.enabled:
            return _NULL_INSTRUMENT
        handle = self._counters.get(name)
        if handle is None:
            self._check_unique(name, self._counters)
            handle = self._counters[name] = CounterHandle(name, self)
        return handle

    def gauge(self, name: str):
        """The named gauge (shared no-op when disabled)."""
        if not self.enabled:
            return _NULL_INSTRUMENT
        handle = self._gauges.get(name)
        if handle is None:
            self._check_unique(name, self._gauges)
            handle = self._gauges[name] = GaugeHandle(name, self)
        return handle

    def histogram(self, name: str, *, edges: tuple[float, ...] | None = None):
        """The named histogram (shared no-op when disabled).

        ``edges`` applies on first creation only; re-requesting with
        different edges raises (silently diverging buckets would make
        merges impossible).
        """
        if not self.enabled:
            return _NULL_INSTRUMENT
        handle = self._histograms.get(name)
        if handle is None:
            self._check_unique(name, self._histograms)
            handle = self._histograms[name] = HistogramHandle(
                name, self, tuple(edges) if edges is not None else DEFAULT_BUCKETS
            )
        elif edges is not None and tuple(edges) != handle.edges:
            raise ValueError(
                f"histogram {name!r} already registered with different edges"
            )
        return handle

    def bundle(self, build, *args):
        """``build(self, *args)``, built once per registry and arguments:
        bound series that short-lived writers (a detector per channel
        block, say) share instead of binding their own."""
        key = (build, *args)
        bundle = self._bundles.get(key)
        if bundle is None:
            bundle = self._bundles[key] = build(self, *args)
        return bundle

    def _check_unique(self, name: str, own: dict) -> None:
        for kind, table in (
            ("counter", self._counters),
            ("gauge", self._gauges),
            ("histogram", self._histograms),
        ):
            if table is not own and name in table:
                raise ValueError(
                    f"metric {name!r} is already registered as a {kind}"
                )

    # -- snapshots ------------------------------------------------------

    def snapshot(self) -> MetricsSnapshot:
        """A deep point-in-time copy of every series."""
        snap = MetricsSnapshot(t=self._now())
        for name, c in self._counters.items():
            for key, value in c._live():
                snap.counters[(name, key)] = value
        for name, g in self._gauges.items():
            for key, pair in g._live():
                snap.gauges[(name, key)] = pair
        for name, h in self._histograms.items():
            for key, hist in h._live():
                snap.histograms[(name, key)] = hist.copy()
        return snap

    def drain(self) -> MetricsSnapshot:
        """Snapshot every series, then clear them (delta semantics).

        The worker-side flush: repeated drains ship disjoint deltas, so
        the parent's :meth:`merge_snapshot` reconstructs exact totals no
        matter how many flushes each shard makes. Gauges are shipped
        as-is (their merge is latest-wins, so re-shipping is harmless).
        """
        snap = self.snapshot()
        self.clear()
        return snap

    def merge_snapshot(self, snap: MetricsSnapshot) -> None:
        """Fold a (delta) snapshot into the live series — the parent-side
        half of :meth:`drain`.

        Associative and commutative: counters and histograms add
        exactly; gauges keep the latest observation by timestamp (ties
        broken by value, so the order stays irrelevant). That is what
        lets shard deltas arrive in any interleaving and still produce
        the exact totals the serial run would have.
        """
        if not self.enabled:
            return
        for (name, key), value in snap.counters.items():
            self.counter(name)._get(key).inc(value)
        for (name, key), (value, ts) in snap.gauges.items():
            series = self.gauge(name)._get(key)
            if not series.live:
                series._admit()
                series.value = (value, ts)
            elif (ts, value) > (series.value[1], series.value[0]):
                series.value = (value, ts)
        for (name, key), hist in snap.histograms.items():
            series = self.histogram(name, edges=hist.edges)._get(key)
            if not series.live:
                series._admit()
                series.value = hist.copy()
            else:
                series.value = series.value.merge(hist)

    def clear(self) -> None:
        """Drop every series' value.

        Instruments and their series objects stay registered, so
        handles and bound series keep writing into this registry; a
        series is admitted again at its next write.
        """
        for table in (self._counters, self._gauges, self._histograms):
            for handle in table.values():
                for series in handle._series.values():
                    series.live = False
                    series.value = None
        self._n_series = 0

    # -- live stream ----------------------------------------------------

    def tick(self, *, force: bool = False) -> None:
        """Offer the attached stream writer a chance to snapshot.

        Call at natural cadence points (block boundaries, queue drains).
        No-op without a stream; ``force`` flushes regardless of the
        writer's interval throttle (end-of-run).
        """
        stream = self.stream
        if stream is None or not self.enabled:
            return
        if force:
            stream.write(self)
        else:
            stream.maybe_write(self)


#: Canonical disabled registry, the ``current_metrics()`` default.
NULL_METRICS = MetricsRegistry(enabled=False)

_CURRENT_METRICS: ContextVar[MetricsRegistry] = ContextVar(
    "repro_obs_metrics", default=NULL_METRICS
)


def current_metrics() -> MetricsRegistry:
    """The registry installed for this execution context (never None)."""
    return _CURRENT_METRICS.get()


def set_metrics(registry: MetricsRegistry):
    """Install ``registry`` for this context; returns a reset token."""
    return _CURRENT_METRICS.set(registry)


def reset_metrics(token) -> None:
    """Undo a :func:`set_metrics` with its token."""
    _CURRENT_METRICS.reset(token)


@contextmanager
def use_metrics(registry: MetricsRegistry) -> Iterator[MetricsRegistry]:
    """Scope ``registry`` as the ambient metrics sink for a ``with`` block."""
    token = set_metrics(registry)
    try:
        yield registry
    finally:
        reset_metrics(token)
