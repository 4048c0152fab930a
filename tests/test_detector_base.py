"""Tests for repro.detectors.base: stats records and the Detector ABC."""

import pickle

import numpy as np
import pytest

from repro.detectors.base import (
    BatchEvent,
    BatchTrace,
    DecodeStats,
    DetectionResult,
    Detector,
)


class TestBatchEvent:
    def test_fields(self):
        ev = BatchEvent(level=3, pool_size=8)
        assert ev.level == 3
        assert ev.pool_size == 8

    def test_is_tuple(self):
        assert tuple(BatchEvent(1, 2)) == (1, 2)


class TestBatchTrace:
    def test_append_extend_len_and_iteration(self):
        trace = BatchTrace()
        trace.append(3, 8)
        trace.extend([2, 1], [4, 1])
        assert len(trace) == 3
        assert trace.levels == [3, 2, 1]
        assert trace.pools == [8, 4, 1]
        assert list(trace) == [BatchEvent(3, 8), BatchEvent(2, 4), BatchEvent(1, 1)]
        assert all(type(ev) is BatchEvent for ev in trace)

    def test_equality_and_from_events(self):
        events = [BatchEvent(3, 8), BatchEvent(2, 4)]
        assert BatchTrace.from_events(events) == BatchTrace([3, 2], [8, 4])
        assert BatchTrace.from_events([(3, 8), (2, 4)]) == BatchTrace([3, 2], [8, 4])
        assert BatchTrace([3], [8]) != BatchTrace([3], [7])
        assert BatchTrace([3], [8]) != BatchTrace([3, 3], [8, 8])
        assert not BatchTrace()

    def test_columns_must_match(self):
        with pytest.raises(ValueError, match="differ in length"):
            BatchTrace([1, 2], [1])
        with pytest.raises(ValueError, match="differ in length"):
            BatchTrace().extend([1], [])

    def test_pickle_round_trip(self):
        st = DecodeStats(nodes_expanded=3, batches=BatchTrace([2, 1, 0], [1, 2, 1]))
        back = pickle.loads(pickle.dumps(st))
        assert back == st
        assert back.batches == st.batches
        assert back.batches is not st.batches


class TestDecodeStats:
    def test_defaults_zero(self):
        st = DecodeStats()
        assert st.nodes_expanded == 0
        assert len(st.batches) == 0
        assert st.truncated == 0


class _DummyDetector(Detector):
    name = "dummy"

    def __init__(self):
        self._prepared = False

    def prepare(self, channel, noise_var=0.0):
        self._prepared = True

    def detect(self, received):
        self._require_prepared()
        received = np.asarray(received)
        return DetectionResult(
            indices=np.zeros(2, dtype=int),
            symbols=np.zeros(2, dtype=complex),
            bits=np.zeros(2, dtype=bool),
            metric=0.0,
        )


class TestDetectorABC:
    def test_require_prepared(self):
        det = _DummyDetector()
        with pytest.raises(RuntimeError, match="before prepare"):
            det.detect(np.zeros(2))

    def test_detect_after_prepare(self):
        det = _DummyDetector()
        det.prepare(np.eye(2))
        result = det.detect(np.zeros(2))
        assert result.metric == 0.0

    def test_decode_batch(self):
        det = _DummyDetector()
        det.prepare(np.eye(2))
        results = det.decode_batch(np.zeros((3, 2)))
        assert len(results) == 3

    def test_decode_batch_requires_2d(self):
        det = _DummyDetector()
        det.prepare(np.eye(2))
        with pytest.raises(ValueError):
            det.decode_batch(np.zeros(2))
