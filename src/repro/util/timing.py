"""Timing helpers used by the benchmark harness and Monte Carlo engine."""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence


class WallClock:
    """Monotonic wall clock; injectable for deterministic tests."""

    def now(self) -> float:
        """Current time in seconds (monotonic)."""
        return time.perf_counter()


@dataclass(frozen=True)
class TimingSummary:
    """Distribution summary of a sample of durations (or any scalars).

    Produced by :func:`summarize`; the observability metrics exporter
    (:mod:`repro.obs.metrics`) renders one of these per span name.
    """

    count: int
    total: float
    mean: float
    minimum: float
    maximum: float
    p50: float
    p95: float
    p99: float

    @property
    def empty(self) -> bool:
        """True when the summary was built from no samples."""
        return self.count == 0


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100) with linear interpolation.

    Matches ``numpy.percentile``'s default behaviour but stays pure
    Python so callers need no array round trip for small samples.
    """
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    if not values:
        raise ValueError("cannot take a percentile of no samples")
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    rank = (q / 100.0) * (len(ordered) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    frac = rank - lo
    return float(ordered[lo] * (1.0 - frac) + ordered[hi] * frac)


def summarize(values: Sequence[float]) -> TimingSummary:
    """Count/total/mean/min/max/p50/p95/p99 of a sample.

    An empty sample yields an all-zero summary (``empty`` is True)
    rather than raising, so exporters can render sparse traces.
    """
    vals = [float(v) for v in values]
    if not vals:
        return TimingSummary(0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    total = sum(vals)
    return TimingSummary(
        count=len(vals),
        total=total,
        mean=total / len(vals),
        minimum=min(vals),
        maximum=max(vals),
        p50=percentile(vals, 50.0),
        p95=percentile(vals, 95.0),
        p99=percentile(vals, 99.0),
    )


class Timer:
    """Accumulating stopwatch.

    Usage::

        timer = Timer()
        with timer:
            work()
        print(timer.elapsed)

    :attr:`elapsed` sums the seconds of every timed section. Per-call
    distributions live where they are read: each frame's
    ``DecodeStats.wall_time_s`` and the metrics registry's histograms.
    """

    def __init__(self, clock: WallClock | None = None) -> None:
        self.clock = clock if clock is not None else WallClock()
        self.elapsed = 0.0
        self._start: float | None = None

    def __enter__(self) -> "Timer":
        if self._start is not None:
            raise RuntimeError("Timer is not reentrant")
        self._start = self.clock.now()
        return self

    def __exit__(self, *exc: object) -> None:
        if self._start is None:  # pragma: no cover - defensive
            raise RuntimeError("Timer.__exit__ without __enter__")
        self.elapsed += self.clock.now() - self._start
        self._start = None
