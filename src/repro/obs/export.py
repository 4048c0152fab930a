"""Trace exporters: Chrome ``trace_event`` JSON and a JSONL event log.

The Chrome format (one ``{"traceEvents": [...]}`` object) loads directly
in ``chrome://tracing`` or https://ui.perfetto.dev; spans become
complete events (``ph: "X"``) and instants ``ph: "i"``. Timestamps are
microseconds from the tracer epoch and are emitted in monotonically
non-decreasing order. Counts are not trace events: they live in the
metrics registry (:mod:`repro.obs.metrics`).

Events absorbed from Monte Carlo shard workers carry their origin OS
pid (see :class:`~repro.obs.tracer.TraceContext`); the exporter renders
one process lane per origin — the parent as ``pid 1`` (``repro (main)``),
each worker under its real pid with a ``shard worker`` process-name
metadata row — so a merged sharded sweep reads as one timeline with a
track per process.

The JSONL log is one JSON object per recorded event, in emission order —
convenient for ad-hoc ``jq``/pandas post-processing. It round-trips:
:func:`read_jsonl` + :func:`tracer_from_events` rebuild a tracer good
enough for ``repro-sd stats --from-jsonl`` and
``repro-sd trace --from-jsonl``.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.obs.tracer import PHASE_INSTANT, PHASE_SPAN, TraceEvent, Tracer

#: Synthetic process id for events recorded by the owning process
#: (``TraceEvent.pid == 0``); worker events keep their real OS pid.
TRACE_PID = 1


def _tid_map(tracer: Tracer) -> dict[tuple[int, int], int]:
    """Map (origin pid, OS thread ident) to small per-process tids."""
    mapping: dict[tuple[int, int], int] = {}
    per_pid: dict[int, int] = {}
    for event in tracer.events:
        key = (event.pid, event.tid)
        if key not in mapping:
            per_pid[event.pid] = per_pid.get(event.pid, 0) + 1
            mapping[key] = per_pid[event.pid]
    return mapping


def _process_metadata(tracer: Tracer) -> list[dict]:
    """Chrome ``process_name``/``process_sort_index`` metadata rows —
    one lane per origin process, parent first."""
    pids: list[int] = []
    for event in tracer.events:
        if event.pid not in pids:
            pids.append(event.pid)
    rows: list[dict] = []
    for order, pid in enumerate(sorted(pids, key=lambda p: (p != 0, p))):
        lane = TRACE_PID if pid == 0 else pid
        name = "repro (main)" if pid == 0 else f"shard worker {pid}"
        rows.append(
            {
                "ph": "M",
                "name": "process_name",
                "pid": lane,
                "tid": 0,
                "ts": 0,
                "args": {"name": name},
            }
        )
        rows.append(
            {
                "ph": "M",
                "name": "process_sort_index",
                "pid": lane,
                "tid": 0,
                "ts": 0,
                "args": {"sort_index": order},
            }
        )
    return rows


def chrome_trace_events(tracer: Tracer) -> list[dict]:
    """The tracer's events as Chrome ``trace_event`` dicts, ts-sorted,
    prefixed with per-process metadata rows."""
    tids = _tid_map(tracer)
    rows: list[dict] = []
    for event in tracer.events:
        base = {
            "name": event.name,
            "ts": round(event.ts * 1e6, 3),
            "pid": TRACE_PID if event.pid == 0 else event.pid,
            "tid": tids.get((event.pid, event.tid), 0),
        }
        if event.phase == PHASE_SPAN:
            base["ph"] = "X"
            base["dur"] = round(event.dur * 1e6, 3)
            if event.args:
                base["args"] = dict(event.args)
        elif event.phase == PHASE_INSTANT:
            base["ph"] = "i"
            base["s"] = "t"
            if event.args:
                base["args"] = dict(event.args)
        else:  # pragma: no cover - defensive
            raise ValueError(f"unknown event phase {event.phase!r}")
        rows.append(base)
    rows.sort(key=lambda r: r["ts"])
    return _process_metadata(tracer) + rows


def chrome_trace(tracer: Tracer) -> dict:
    """The full Chrome trace document for one tracer."""
    return {
        "traceEvents": chrome_trace_events(tracer),
        "displayTimeUnit": "ms",
        "otherData": {"producer": "repro.obs"},
    }


def write_chrome_trace(tracer: Tracer, path: str | Path) -> Path:
    """Serialise :func:`chrome_trace` to ``path``; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(chrome_trace(tracer)))
    return path


def jsonl_lines(tracer: Tracer) -> list[str]:
    """One compact JSON object per event, in emission order."""
    lines = []
    for event in tracer.events:
        row = {
            "phase": event.phase,
            "name": event.name,
            "ts": event.ts,
        }
        if event.phase == PHASE_SPAN:
            row["dur"] = event.dur
            row["depth"] = event.depth
        if event.args:
            row["args"] = dict(event.args)
        if event.pid:
            row["pid"] = event.pid
        lines.append(json.dumps(row))
    return lines


def write_jsonl(tracer: Tracer, path: str | Path) -> Path:
    """Write the JSONL event log to ``path``; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    text = "\n".join(jsonl_lines(tracer))
    path.write_text(text + "\n" if text else "")
    return path


def read_jsonl(path: str | Path) -> list[TraceEvent]:
    """Parse a JSONL event log back into :class:`TraceEvent` rows.

    Strict: raises :class:`FileNotFoundError` for a missing file and
    :class:`ValueError` (with the line number) for an empty log, a
    malformed line — including the truncated final line a killed writer
    leaves behind — or a row missing the required fields. The CLI error
    contract maps both to exit 2.
    """
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"no JSONL event log at {path}")
    events: list[TraceEvent] = []
    with path.open() as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"{path}: malformed JSONL line {lineno}: {exc.msg} "
                    "(truncated write?)"
                ) from exc
            if not isinstance(row, dict) or "phase" not in row or "name" not in row:
                raise ValueError(
                    f"{path}: JSONL line {lineno} is not a trace event"
                )
            if row["phase"] not in (PHASE_SPAN, PHASE_INSTANT):
                raise ValueError(
                    f"{path}: JSONL line {lineno} has unknown phase "
                    f"{row['phase']!r}"
                )
            try:
                events.append(
                    TraceEvent(
                        phase=row["phase"],
                        name=row["name"],
                        ts=float(row.get("ts", 0.0)),
                        dur=float(row.get("dur", 0.0)),
                        depth=int(row.get("depth", 0)),
                        args=row.get("args"),
                        pid=int(row.get("pid", 0)),
                    )
                )
            except (TypeError, ValueError) as exc:
                raise ValueError(
                    f"{path}: JSONL line {lineno} has bad field types: {exc}"
                ) from exc
    if not events:
        raise ValueError(f"{path}: JSONL event log is empty")
    return events


def events_from_chrome(doc: dict) -> list[TraceEvent]:
    """Parse a Chrome ``trace_event`` document back into trace events.

    The inverse of :func:`chrome_trace` for the phases the tracer emits:
    complete spans (``ph: "X"``) and instants (``"i"``). Metadata rows
    (``"M"``) and every other phase are skipped.
    Timestamps come back in seconds; the exporter's synthetic main-lane
    pid (:data:`TRACE_PID`) maps back to ``0``. This is what lets
    ``repro-sd profile`` rebuild a span tree from a recorded run's
    ``trace.json``. Raises :class:`ValueError` when the document has no
    ``traceEvents`` list or no convertible events.
    """
    rows = doc.get("traceEvents")
    if not isinstance(rows, list):
        raise ValueError("not a Chrome trace document (no traceEvents list)")
    events: list[TraceEvent] = []
    for row in rows:
        if not isinstance(row, dict):
            continue
        ph = row.get("ph")
        if ph not in ("X", "i"):
            continue
        pid = int(row.get("pid", TRACE_PID))
        base = {
            "name": str(row.get("name", "")),
            "ts": float(row.get("ts", 0.0)) / 1e6,
            "tid": int(row.get("tid", 0)),
            "pid": 0 if pid == TRACE_PID else pid,
        }
        if ph == "X":
            events.append(
                TraceEvent(
                    phase=PHASE_SPAN,
                    dur=float(row.get("dur", 0.0)) / 1e6,
                    args=row.get("args"),
                    **base,
                )
            )
        else:
            events.append(
                TraceEvent(phase=PHASE_INSTANT, args=row.get("args"), **base)
            )
    if not events:
        raise ValueError("Chrome trace document holds no convertible events")
    return events


def tracer_from_events(events: list[TraceEvent]) -> Tracer:
    """A tracer wrapping pre-recorded events.

    Good enough for every read-side consumer (``stats``, ``trace``,
    exporters): spans and instants are replayed verbatim.
    """
    tracer = Tracer(enabled=True, epoch=0.0)
    tracer._events = list(events)
    return tracer
