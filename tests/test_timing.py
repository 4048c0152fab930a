"""Tests for repro.util.timing."""

import numpy as np
import pytest

from repro.util.timing import Timer, WallClock, percentile, summarize


class FakeClock(WallClock):
    """Deterministic clock advancing only when told."""

    def __init__(self) -> None:
        self.t = 0.0

    def now(self) -> float:
        return self.t


class TestTimer:
    def test_accumulates_elapsed(self):
        clock = FakeClock()
        timer = Timer(clock=clock)
        with timer:
            clock.t += 2.0
        assert timer.elapsed == pytest.approx(2.0)

    def test_accumulates_across_calls(self):
        clock = FakeClock()
        timer = Timer(clock=clock)
        for _ in range(3):
            with timer:
                clock.t += 1.0
        assert timer.elapsed == pytest.approx(3.0)

    def test_not_reentrant(self):
        timer = Timer(clock=FakeClock())
        with pytest.raises(RuntimeError):
            with timer:
                with timer:
                    pass

    def test_real_clock_monotonic(self):
        timer = Timer()
        with timer:
            pass
        assert timer.elapsed >= 0.0


class TestPercentile:
    def test_matches_numpy(self):
        rng = np.random.default_rng(7)
        values = list(rng.uniform(0, 10, size=37))
        for q in (0.0, 25.0, 50.0, 95.0, 99.0, 100.0):
            assert percentile(values, q) == pytest.approx(
                float(np.percentile(values, q))
            )

    def test_single_sample(self):
        assert percentile([4.2], 95.0) == 4.2

    def test_validates_inputs(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101.0)
        with pytest.raises(ValueError):
            percentile([], 50.0)


class TestSummarize:
    def test_empty_is_all_zero(self):
        summary = summarize([])
        assert summary.empty
        assert summary.count == 0
        assert summary.total == 0.0
        assert summary.p99 == 0.0

    def test_basic_stats(self):
        summary = summarize([1.0, 2.0, 3.0, 4.0])
        assert not summary.empty
        assert summary.count == 4
        assert summary.total == pytest.approx(10.0)
        assert summary.mean == pytest.approx(2.5)
        assert summary.minimum == 1.0
        assert summary.maximum == 4.0
        assert summary.p50 == pytest.approx(2.5)

    def test_percentiles_ordered(self):
        values = list(range(101))
        summary = summarize(values)
        assert summary.p50 <= summary.p95 <= summary.p99 <= summary.maximum
