"""Sweep-path helper and registry-wide bit-identity regression.

* :func:`repro.core.traversal.extend_paths`, the BFS/K-best/FSD
  survivor-path step, against the concatenation it replaced.
* A golden-output sweep: every FPGA-replayable detector kind in the
  registry decodes fixed deterministic frames (per-frame ``detect`` and,
  where supported, fused ``decode_batch``) and the decisions, exact
  float-hex metrics, batch schedules, radius traces and search counters
  must match ``tests/data/golden_decodes.json``, which was recorded by
  the pre-refactor per-node implementation (``tools/record_golden.py``).
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.traversal import extend_paths

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_decodes.json"


class TestExtendPaths:
    def test_matches_concatenate(self):
        rng = np.random.default_rng(0)
        paths = rng.integers(0, 4, size=(6, 2)).astype(np.int64)
        keep_n = np.array([5, 0, 0, 3], dtype=np.int64)
        keep_c = np.array([1, 2, 3, 0], dtype=np.int64)
        legacy = np.concatenate(
            [paths[keep_n], keep_c[:, None]], axis=1
        ).astype(np.int64)
        np.testing.assert_array_equal(
            extend_paths(paths, keep_n, keep_c), legacy
        )

    def test_root_expansion_zero_depth(self):
        paths = np.empty((1, 0), dtype=np.int64)
        out = extend_paths(
            paths, np.zeros(3, dtype=np.int64), np.array([2, 0, 1])
        )
        np.testing.assert_array_equal(out, [[2], [0], [1]])
        assert out.dtype == np.int64


# ----------------------------------------------------------------------
# Registry-wide bit-identity against pre-refactor golden outputs
# ----------------------------------------------------------------------

COUNTER_FIELDS = (
    "nodes_expanded",
    "nodes_generated",
    "nodes_pruned",
    "leaves_reached",
    "radius_updates",
    "gemm_calls",
    "gemm_flops",
    "max_list_size",
    "truncated",
)


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


def _assert_matches_golden(result, rec, ctx: str) -> None:
    stats = result.stats
    assert [int(i) for i in result.indices] == rec["indices"], ctx
    assert float(result.metric).hex() == rec["metric_hex"], ctx
    got_batches = [[int(ev.level), int(ev.pool_size)] for ev in stats.batches]
    assert got_batches == rec["batches"], ctx
    got_radius = [float(v).hex() for v in stats.radius_trace]
    assert got_radius == rec["radius_trace_hex"], ctx
    for name in COUNTER_FIELDS:
        assert int(getattr(stats, name)) == rec[name], f"{ctx}: {name}"


def _scenario_frames(scenario):
    from repro.mimo.system import MIMOSystem

    system = MIMOSystem(
        scenario["n_antennas"], scenario["n_antennas"], scenario["modulation"]
    )
    rng = np.random.default_rng(scenario["seed"])
    frames = [
        system.random_frame(scenario["snr_db"], rng)
        for _ in range(scenario["frames"])
    ]
    return system, frames


def test_golden_covers_every_replayable_kind(golden):
    from repro.detectors.registry import detector_entries

    replayable = {e.kind for e in detector_entries() if e.fpga_replayable}
    for label, scenario in golden["scenarios"].items():
        assert set(scenario["detectors"]) == replayable, label


def test_registry_bit_identity_vs_golden(golden, traversal_engine):
    """Every replayable kind reproduces pre-refactor decodes exactly.

    Parameterized over both traversal engines: the compiled engine must
    reproduce the very same golden records — paths, metrics, radius
    traces and all nine counters — bit for bit.
    """
    from repro.detectors.registry import detector_entries, spec

    entries = {e.kind: e for e in detector_entries() if e.fpga_replayable}
    for label, scenario in golden["scenarios"].items():
        system, frames = _scenario_frames(scenario)
        for kind, rec in scenario["detectors"].items():
            if traversal_engine not in entries[kind].engines:
                continue  # e.g. partitioned has no compiled path
            params = (
                {"engine": traversal_engine}
                if "engine" in entries[kind].defaults
                else {}
            )
            detector = spec(kind, system.constellation, **params)()
            detector.prepare(
                frames[0].channel, noise_var=frames[0].noise_var
            )
            for i, frame in enumerate(frames):
                _assert_matches_golden(
                    detector.detect(frame.received),
                    rec["per_frame"][i],
                    f"{label}/{kind}/detect[{i}]",
                )
            if entries[kind].batch:
                assert "batch" in rec, f"{label}/{kind}"
                received = np.stack([f.received for f in frames])
                results = detector.decode_batch(received)
                for i, result in enumerate(results):
                    _assert_matches_golden(
                        result,
                        rec["batch"][i],
                        f"{label}/{kind}/batch[{i}]",
                    )


def test_golden_batch_traces_replayable(golden):
    """Recorded batch schedules still drive the FPGA pipeline model."""
    from repro.core.stats import BatchTrace, DecodeStats
    from repro.fpga.pipeline import FPGAPipeline, PipelineConfig

    for label, scenario in golden["scenarios"].items():
        n = scenario["n_antennas"]
        rec = scenario["detectors"]["sd"]["per_frame"][0]
        stats = DecodeStats(batches=BatchTrace.from_events(rec["batches"]))
        pipe = FPGAPipeline(
            PipelineConfig.optimized(4), n_tx=n, n_rx=n, order=4
        )
        report = pipe.decode_report(stats)
        assert report.total_cycles > 0, label
        # Stage attribution must account for every cycle of the total.
        assert sum(report.attributed.values()) == report.total_cycles, label
