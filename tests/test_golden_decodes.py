"""Golden decodes: bit-identity against recorded outputs.

Both data files are written by ``tools/record_golden.py``.

* A registry sweep: every FPGA-replayable detector kind decodes fixed
  deterministic frames (per-frame ``detect`` and one ``decode_batch``
  of the same frames) and the decisions, exact float-hex metrics,
  batch schedules, radius traces and search counters must match
  ``tests/data/golden_decodes.json``.
* The leaf-first cases: 200 seeded Best-FS / sorted-DFS configurations
  (pool size, metric, child order, lattice, node cap, radius policy,
  antennas, alphabet) must reproduce ``tests/data/leaf_first_cases.json``
  through ``detect`` and ``decode_batch``, ``traversal.*`` registry
  series included. A hypothesis test over the same space (ℓ₂, up to
  five antennas) holds every untruncated decode to brute-force ML.
* The sweep cases: 150 seeded BFS / K-best / FSD configurations
  (radius policy and escalation, ``max_frontier``, ``k``, ``rho``,
  metric, lattice, antennas, alphabet), 50 list (soft-output)
  detections and 50 partitioned multi-PE decodes must reproduce
  ``tests/data/sweep_cases.json``: decisions, counters and traces, the
  sweeps through ``detect`` and ``decode_batch`` with their registry
  series, the list detector's LLRs and list sizes, the partitioned
  decoder's per-PE expansions and radius broadcasts. Every recorded
  sweep and list frame, and live BFS (capped and not), K-best, FSD and
  list decodes, book each generated child that does not survive in
  ``nodes_pruned``.
* :func:`repro.core.traversal.extend_paths`, the BFS/K-best/FSD
  survivor-path step, against the concatenation it replaced.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.traversal import extend_paths
from repro.detectors.ml import MLDetector
from repro.detectors.sphere import SphereDecoder
from repro.mimo.system import MIMOSystem

TOOLS_DIR = Path(__file__).resolve().parent.parent / "tools"
if str(TOOLS_DIR) not in sys.path:
    sys.path.insert(0, str(TOOLS_DIR))

import record_golden  # noqa: E402

DATA_DIR = Path(__file__).parent / "data"
GOLDEN_PATH = DATA_DIR / "golden_decodes.json"
LEAF_FIRST_PATH = DATA_DIR / "leaf_first_cases.json"
SWEEP_PATH = DATA_DIR / "sweep_cases.json"


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
# Registry-wide bit-identity against the recorded golden outputs
# ----------------------------------------------------------------------

COUNTER_FIELDS = record_golden.COUNTER_FIELDS


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


def test_registry_bit_identity_vs_golden(golden):
    """Every replayable kind reproduces the recorded decodes exactly:
    paths, metrics, radius traces and all nine counters."""
    from repro.detectors.registry import spec

    for label, scenario in golden["scenarios"].items():
        system, frames = _scenario_frames(scenario)
        for kind, rec in scenario["detectors"].items():
            detector = spec(kind, system.constellation)()
            detector.prepare(
                frames[0].channel, noise_var=frames[0].noise_var
            )
            for i, frame in enumerate(frames):
                _assert_matches_golden(
                    detector.detect(frame.received),
                    rec["per_frame"][i],
                    f"{label}/{kind}/detect[{i}]",
                )
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


# ----------------------------------------------------------------------
# Leaf-first cases: the Best-FS and sorted-DFS loops
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def leaf_first():
    return json.loads(LEAF_FIRST_PATH.read_text())


def test_leaf_first_cases_replay(leaf_first):
    """Every recorded case decodes bit-identically, by ``detect`` and by
    ``decode_batch``, with the same ``traversal.*`` registry series."""
    for i, recorded in enumerate(leaf_first["cases"]):
        fresh = record_golden.leaf_first_record(recorded["case"])
        for key in ("detect", "batch", "series"):
            assert fresh[key] == recorded[key], f"case {i} {key}: {recorded['case']}"


# ----------------------------------------------------------------------
# Sweep cases: BFS / K-best / FSD, list detection, partitioned search
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def sweep_cases():
    return json.loads(SWEEP_PATH.read_text())


@pytest.mark.parametrize("family", sorted(record_golden.SWEEP_FAMILIES))
def test_sweep_cases_replay(sweep_cases, family):
    """Every recorded case of a family decodes bit-identically."""
    record = record_golden.SWEEP_FAMILIES[family]
    assert sweep_cases[family], family
    for i, recorded in enumerate(sweep_cases[family]):
        fresh = record(recorded["case"])
        for key, value in fresh.items():
            assert value == recorded[key], (
                f"{family} case {i} {key}: {recorded['case']}"
            )


def test_sweep_cases_agree_between_detect_and_batch(sweep_cases):
    """The recorded sweeps decode the same through both entry points."""
    assert record_golden.sweep_disagreements(sweep_cases) == []


def _books_every_drop(batches, generated, pruned, leaves) -> bool:
    """A sweep's children either survive or are booked as pruned.

    Survivors of one level are the next level's batch (a restarted
    sweep begins again at the root) or, at level 0, the leaves, so
    ``generated - pruned`` must equal the non-root pools plus
    ``leaves``.
    """
    root = max(level for level, _pool in batches)
    survivors = sum(pool for level, pool in batches if level != root)
    return generated - pruned == survivors + leaves


def test_recorded_sweeps_book_every_dropped_child(sweep_cases):
    """Every recorded BFS / K-best / FSD and list frame keeps the
    prune invariant, capped frontiers and FSD's SIC phase included."""
    frames = [
        rec
        for family in ("sweep", "soft")
        for case in sweep_cases[family]
        for entry in ("detect", "batch")
        for rec in case.get(entry, ())
    ]
    assert len(frames) == 1000
    broken = [
        i for i, rec in enumerate(frames)
        if not _books_every_drop(
            rec["batches"], rec["nodes_generated"], rec["nodes_pruned"],
            rec["leaves_reached"],
        )
    ]
    assert broken == []


def _sweep_detectors(constellation):
    from repro.core.radius import NoiseScaledRadius
    from repro.detectors.fsd import FixedComplexityDecoder
    from repro.detectors.kbest import KBestDecoder
    from repro.detectors.sd_bfs import GemmBfsDecoder
    from repro.detectors.soft import SoftOutputSphereDetector

    wide = NoiseScaledRadius(alpha=8.0)
    return {
        "bfs": GemmBfsDecoder(constellation, radius_policy=wide),
        "bfs-capped": GemmBfsDecoder(
            constellation, radius_policy=wide, max_frontier=3
        ),
        "kbest": KBestDecoder(constellation, k=4),
        "fsd": FixedComplexityDecoder(constellation, rho=1),
        "list": SoftOutputSphereDetector(
            constellation, radius_policy=wide, max_list=3
        ),
    }


@pytest.mark.parametrize(
    "name", ["bfs", "bfs-capped", "kbest", "fsd", "list"]
)
def test_live_sweeps_book_every_dropped_child(name):
    """The prune invariant on live decodes, through ``detect`` and, for
    the engine detectors, ``decode_batch``."""
    system = MIMOSystem(6, 6, "4qam")
    rng = np.random.default_rng(1)
    channel = system.channel_model.draw_channel(rng)
    received = np.stack(
        [system.random_frame(10.0, rng, channel=channel).received for _ in range(3)]
    )
    detector = _sweep_detectors(system.constellation)[name]
    detector.prepare(channel, noise_var=system.noise_var(10.0))
    results = [detector.detect(row) for row in received]
    if name != "list":
        results += detector.decode_batch(received)
    for result in results:
        st_ = result.stats
        assert _books_every_drop(
            [(ev.level, ev.pool_size) for ev in st_.batches],
            st_.nodes_generated, st_.nodes_pruned, st_.leaves_reached,
        ), name
    if name in ("bfs-capped", "list"):
        # The frontier cap was hit, so its drops were exercised.
        assert any(r.stats.truncated for r in results), name


@settings(max_examples=100, deadline=None)
@given(
    strategy=st.sampled_from(["dfs", "best-first"]),
    pool_size=st.integers(1, 64),
    n_tx=st.integers(1, 5),
    modulation=st.sampled_from(["bpsk", "4qam", "16qam"]),
    child_ordering=st.sampled_from(["sorted", "natural"]),
    lattice=st.sampled_from(["complex", "real-reordered"]),
    max_nodes=st.one_of(st.none(), st.integers(1, 64)),
    radius=st.sampled_from(sorted(record_golden.radius_policies())),
    snr_db=st.sampled_from([6.0, 14.0, 30.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_untruncated_l2_decodes_are_ml(
    strategy, pool_size, n_tx, modulation, child_ordering, lattice,
    max_nodes, radius, snr_db, seed,
):
    """An l2 leaf-first decode that was not truncated is the ML point.

    16-QAM stops at four antennas: brute force over 16^5 points costs
    ~0.7 s a frame.
    """
    if modulation == "bpsk":
        lattice = "complex"  # real lattices need square QAM
    if modulation == "16qam":
        n_tx = min(n_tx, 4)
    system = MIMOSystem(n_tx, n_tx, modulation)
    rng = np.random.default_rng(seed)
    channel = system.channel_model.draw_channel(rng)
    received = np.stack(
        [
            system.random_frame(snr_db, rng, channel=channel).received
            for _ in range(2)
        ]
    )
    noise_var = system.noise_var(snr_db)
    decoder = SphereDecoder(
        system.constellation,
        strategy=strategy,
        radius_policy=record_golden.radius_policies()[radius](),
        pool_size=pool_size,
        child_ordering=child_ordering,
        max_nodes=max_nodes,
        lattice=lattice,
    )
    decoder.prepare(channel, noise_var=noise_var)
    oracle = MLDetector(system.constellation)
    oracle.prepare(channel, noise_var=noise_var)
    truths = [oracle.detect(row) for row in received]
    results = [decoder.detect(row) for row in received]
    results += decoder.decode_batch(received)
    for truth, result in zip(truths + truths, results):
        if result.stats.truncated:
            continue
        np.testing.assert_array_equal(result.indices, truth.indices)
        assert np.isclose(result.metric, truth.metric, rtol=1e-10, atol=1e-12)
