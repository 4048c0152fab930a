#!/usr/bin/env python
"""Record golden decode outputs for the bit-identity regression suite.

Writes two files, both replayed by ``tests/test_golden_decodes.py``,
which requires bit-identical results:

``tests/data/golden_decodes.json``
    Every FPGA-replayable detector kind in the registry over fixed
    deterministic frames (per-frame ``detect`` and one ``decode_batch``
    of the same frames): decisions, metrics (as exact float hex),
    batch and radius traces and the nine search counters.
``tests/data/leaf_first_cases.json``
    200 seeded draws over the Best-FS / sorted-DFS configuration space
    (:func:`draw_leaf_first_cases`), each decoded by ``detect`` and by
    ``decode_batch``: the same per-frame fields plus the ``traversal.*``
    metrics-registry series. These cases were first recorded when the
    scalar loops and a second, kernel-based implementation of both
    searches (since deleted) agreed on every one of them.
``tests/data/sweep_cases.json``
    Seeded draws over the GEMM-evaluated searches: 150 BFS / K-best /
    FSD sweeps (:func:`draw_sweep_cases`, recorded like the leaf-first
    cases and written only when ``detect`` and ``decode_batch`` agree on
    every one), 50 list (soft-output) detections with their LLRs and
    list sizes, and 50 partitioned multi-PE decodes with their per-PE
    expansions and radius-broadcast counts.

Regenerate (only when *intentionally* changing decode behaviour) with::

    PYTHONPATH=src python tools/record_golden.py

Regeneration is merge-guarded: every record already in the committed
files — each (scenario, kind) pair and each leaf-first case — must come
out byte-identical from the fresh run, so adding a newly registered
replayable kind can never silently change an existing recording. Pass
``--force`` to override when a decode-behaviour change *is* the point
of the regen.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
GOLDEN_PATH = REPO_ROOT / "tests" / "data" / "golden_decodes.json"
LEAF_FIRST_PATH = REPO_ROOT / "tests" / "data" / "leaf_first_cases.json"
SWEEP_PATH = REPO_ROOT / "tests" / "data" / "sweep_cases.json"

#: (label, n_antennas, modulation, snr_db, frames, seed)
SCENARIOS = (
    ("6x6-4qam-8db", 6, "4qam", 8.0, 4, 7),
    ("6x6-4qam-12db", 6, "4qam", 12.0, 4, 7),
    ("4x4-16qam-14db", 4, "16qam", 14.0, 3, 11),
)

#: Stats counters that must match exactly across implementations.
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


def frame_record(result) -> dict:
    stats = result.stats
    rec = {
        "indices": [int(i) for i in result.indices],
        "metric_hex": float(result.metric).hex(),
        "batches": [[int(ev.level), int(ev.pool_size)] for ev in stats.batches],
        "radius_trace_hex": [float(v).hex() for v in stats.radius_trace],
    }
    for name in COUNTER_FIELDS:
        rec[name] = int(getattr(stats, name))
    return rec


def record() -> dict:
    from repro.detectors.registry import detector_entries, spec
    from repro.mimo.system import MIMOSystem

    doc: dict = {"schema": 1, "scenarios": {}}
    replayable = [e for e in detector_entries() if e.fpga_replayable]
    for label, n, modulation, snr_db, n_frames, seed in SCENARIOS:
        system = MIMOSystem(n, n, modulation)
        rng = np.random.default_rng(seed)
        frames = [system.random_frame(snr_db, rng) for _ in range(n_frames)]
        scenario = {
            "n_antennas": n,
            "modulation": modulation,
            "snr_db": snr_db,
            "frames": n_frames,
            "seed": seed,
            "detectors": {},
        }
        for entry in replayable:
            detector = spec(entry.kind, system.constellation)()
            detector.prepare(frames[0].channel, noise_var=frames[0].noise_var)
            per_frame = [
                frame_record(detector.detect(f.received)) for f in frames
            ]
            received = np.stack([f.received for f in frames])
            scenario["detectors"][entry.kind] = {
                "per_frame": per_frame,
                "batch": [
                    frame_record(r) for r in detector.decode_batch(received)
                ],
            }
        doc["scenarios"][label] = scenario
    return doc


# ----------------------------------------------------------------------
# Leaf-first cases: seeded draws over the Best-FS / sorted-DFS axes
# ----------------------------------------------------------------------

#: Number of leaf-first draws and the seed of the generator drawing them.
LEAF_FIRST_CASES = 200
LEAF_FIRST_SEED = 20230517
#: Frames per case, decoded by ``detect`` and by one ``decode_batch``.
LEAF_FIRST_FRAMES = 2
LEAF_FIRST_SNRS = (6.0, 14.0, 30.0)


def radius_policies() -> dict:
    """The five radius policies a case may draw, by name.

    Exact seeds (Babai, infinite) and tiny radii that force escalation
    rounds (noise-scaled, fixed) or, when escalation is off, the Babai
    fallback.
    """
    from repro.core.radius import (
        BabaiRadius,
        FixedRadius,
        InfiniteRadius,
        NoiseScaledRadius,
    )

    class NoEscalationRadius(FixedRadius):
        """A fixed radius that never grows: an empty sphere falls back
        to the Babai point."""

        def can_escalate(self) -> bool:
            return False

    return {
        "babai": BabaiRadius,
        "infinite": InfiniteRadius,
        "noise-tiny-alpha": lambda: NoiseScaledRadius(alpha=1e-3),
        "fixed-tiny": lambda: FixedRadius(radius_sq=1e-4),
        "fixed-no-escalation": lambda: NoEscalationRadius(radius_sq=1e-4),
    }


def draw_leaf_first_cases(
    n: int = LEAF_FIRST_CASES, seed: int = LEAF_FIRST_SEED
) -> list[dict]:
    """``n`` seeded case configurations over the leaf-first axes.

    Strategy, pool size 1-64, l2/linf, sorted/natural child order,
    complex/real-reordered lattice, an optional node cap, the radius
    policy, 1-8 antennas, BPSK/4-/16-QAM, the SNR and the channel seed.
    Real lattices need square QAM, so BPSK cases stay complex.
    """
    rng = np.random.default_rng(seed)
    radii = sorted(radius_policies())

    def pick(options):
        return options[int(rng.integers(len(options)))]

    cases = []
    for _ in range(n):
        case = {
            "strategy": pick(("dfs", "best-first")),
            "pool_size": int(rng.integers(1, 65)),
            "n_tx": int(rng.integers(1, 9)),
            "modulation": pick(("bpsk", "4qam", "16qam")),
            "metric": pick(("l2", "linf")),
            "child_ordering": pick(("sorted", "natural")),
            "lattice": pick(("complex", "real-reordered")),
            "max_nodes": (
                None if rng.integers(2) else int(rng.integers(1, 65))
            ),
            "radius": pick(radii),
            "snr_db": pick(LEAF_FIRST_SNRS),
            "seed": int(rng.integers(2**32)),
        }
        if case["modulation"] == "bpsk":
            case["lattice"] = "complex"
        cases.append(case)
    return cases


def leaf_first_record(case: dict) -> dict:
    """Decode one case: per-frame ``detect``, then one ``decode_batch``.

    Both run under one fresh metrics registry; the record holds every
    frame's :func:`frame_record` and the registry's ``traversal.*``
    series.
    """
    from repro.detectors.sphere import SphereDecoder
    from repro.obs.metrics import MetricsRegistry, use_metrics

    system, channel, noise_var, received = _case_link(case, LEAF_FIRST_FRAMES)
    metrics = MetricsRegistry()
    with use_metrics(metrics):
        decoder = SphereDecoder(
            system.constellation,
            strategy=case["strategy"],
            radius_policy=radius_policies()[case["radius"]](),
            pool_size=case["pool_size"],
            child_ordering=case["child_ordering"],
            max_nodes=case["max_nodes"],
            metric=case["metric"],
            lattice=case["lattice"],
        )
        decoder.prepare(channel, noise_var=noise_var)
        detect = [frame_record(decoder.detect(row)) for row in received]
        batch = [frame_record(r) for r in decoder.decode_batch(received)]
    return {"detect": detect, "batch": batch, "series": _registry_series(metrics)}


def _case_link(case: dict, frames: int):
    """The system, channel, noise variance and received rows of a case."""
    from repro.mimo.system import MIMOSystem

    system = MIMOSystem(case["n_tx"], case["n_tx"], case["modulation"])
    rng = np.random.default_rng(case["seed"])
    channel = system.channel_model.draw_channel(rng)
    received = np.stack(
        [
            system.random_frame(case["snr_db"], rng, channel=channel).received
            for _ in range(frames)
        ]
    )
    return system, channel, system.noise_var(case["snr_db"]), received


def _registry_series(metrics) -> dict:
    """The ``traversal.*`` counters and histograms of a registry."""
    snapshot = metrics.snapshot().to_dict()
    return {
        table: {
            key: value
            for key, value in snapshot[table].items()
            if key.startswith("traversal.")
        }
        for table in ("counters", "histograms")
    }


def record_leaf_first() -> dict:
    """Every leaf-first case with its record."""
    return {
        "schema": 1,
        "seed": LEAF_FIRST_SEED,
        "frames": LEAF_FIRST_FRAMES,
        "cases": [
            {"case": case, **leaf_first_record(case)}
            for case in draw_leaf_first_cases()
        ],
    }


# ----------------------------------------------------------------------
# Sweep, list and partitioned cases: the GEMM-evaluated searches
# ----------------------------------------------------------------------

#: Case counts per family and the seed of the generator drawing them.
SWEEP_CASES = 150
SOFT_CASES = 50
PARTITIONED_CASES = 50
SWEEP_SEED = 20231018
#: Frames per sweep case (one ``decode_batch`` of them mixes levels in
#: lockstep rounds whenever the frames escalate differently) and per
#: list / partitioned case (``detect`` only).
SWEEP_FRAMES = 3
OTHER_FRAMES = 2
#: BFS keeps every in-sphere node only on trees of at most this many
#: leaves; larger trees draw a small ``max_frontier`` instead.
UNCAPPED_BFS_LEAVES = 4096


def draw_sweep_cases(seed: int = SWEEP_SEED) -> dict[str, list[dict]]:
    """Seeded configurations of the BFS / K-best / FSD sweeps, the list
    detector and the partitioned decoder.

    Every case draws 1-8 antennas, BPSK/4-/16-QAM, the SNR and the
    channel seed. Sweeps add the policy and its parameter (BFS radius
    policy and ``max_frontier`` None or 1-64, K-best ``k``, FSD ``rho``),
    the metric and the lattice; list cases a fixed or noise-scaled
    radius and ``max_list``; partitioned cases ``n_pes`` 1-32, the
    noise-scaled ``alpha`` (None for the Babai seed) and ``max_rounds``.
    The list and partitioned detectors search the complex lattice with
    the l2 metric only.
    """
    rng = np.random.default_rng(seed)
    radii = sorted(radius_policies())

    def pick(options):
        return options[int(rng.integers(len(options)))]

    def link():
        return {
            "n_tx": int(rng.integers(1, 9)),
            "modulation": pick(("bpsk", "4qam", "16qam")),
            "snr_db": pick(LEAF_FIRST_SNRS),
            "seed": int(rng.integers(2**32)),
        }

    order = {"bpsk": 2, "4qam": 4, "16qam": 16}
    sweeps = []
    for _ in range(SWEEP_CASES):
        case = {
            "policy": pick(("bfs", "kbest", "fsd")),
            "metric": pick(("l2", "linf")),
            "lattice": pick(("complex", "real-reordered")),
            **link(),
        }
        radius, uncapped = pick(radii), bool(rng.integers(2))
        frontier, k, rho = (int(v) for v in rng.integers(1, 65, size=3))
        if case["modulation"] == "bpsk":
            case["lattice"] = "complex"
        if case["policy"] == "bfs":
            leaves = order[case["modulation"]] ** case["n_tx"]
            case["radius"] = radius
            case["max_frontier"] = (
                None if uncapped and leaves <= UNCAPPED_BFS_LEAVES else frontier
            )
        elif case["policy"] == "kbest":
            case["k"] = k
        else:
            case["rho"] = 1 + rho % min(case["n_tx"], 3)
        sweeps.append(case)
    soft = []
    for _ in range(SOFT_CASES):
        case = link()
        case["radius"] = pick(("fixed", "noise"))
        case["radius_sq"] = pick((1e-3, 0.1, 1.0, 10.0))
        case["alpha"] = pick((0.5, 2.0, 4.0, 16.0))
        case["max_list"] = int(rng.integers(1, 513))
        soft.append(case)
    partitioned = []
    for _ in range(PARTITIONED_CASES):
        case = link()
        case["n_pes"] = int(rng.integers(1, 33))
        case["alpha"] = pick((None, 2.0))
        case["max_rounds"] = None if rng.integers(2) else int(rng.integers(1, 65))
        partitioned.append(case)
    return {"sweep": sweeps, "soft": soft, "partitioned": partitioned}


def sweep_decoder(case: dict, constellation):
    """The BFS, K-best or FSD detector of a sweep case."""
    from repro.detectors.fsd import FixedComplexityDecoder
    from repro.detectors.kbest import KBestDecoder
    from repro.detectors.sd_bfs import GemmBfsDecoder

    axes = {"metric": case["metric"], "lattice": case["lattice"]}
    if case["policy"] == "bfs":
        return GemmBfsDecoder(
            constellation,
            radius_policy=radius_policies()[case["radius"]](),
            max_frontier=case["max_frontier"],
            **axes,
        )
    if case["policy"] == "kbest":
        return KBestDecoder(constellation, k=case["k"], **axes)
    return FixedComplexityDecoder(constellation, rho=case["rho"], **axes)


def sweep_record(case: dict) -> dict:
    """Decode one sweep case by ``detect`` and by one ``decode_batch``,
    as :func:`leaf_first_record` does."""
    from repro.obs.metrics import MetricsRegistry, use_metrics

    system, channel, noise_var, received = _case_link(case, SWEEP_FRAMES)
    metrics = MetricsRegistry()
    with use_metrics(metrics):
        decoder = sweep_decoder(case, system.constellation)
        decoder.prepare(channel, noise_var=noise_var)
        detect = [frame_record(decoder.detect(row)) for row in received]
        batch = [frame_record(r) for r in decoder.decode_batch(received)]
    return {"detect": detect, "batch": batch, "series": _registry_series(metrics)}


def soft_record(case: dict) -> dict:
    """List detection of one case: the hard decision's record plus the
    LLRs (float hex) and the list size, per frame."""
    from repro.core.radius import FixedRadius, NoiseScaledRadius
    from repro.detectors.soft import SoftOutputSphereDetector

    system, channel, noise_var, received = _case_link(case, OTHER_FRAMES)
    radius_policy = (
        FixedRadius(radius_sq=case["radius_sq"])
        if case["radius"] == "fixed"
        else NoiseScaledRadius(alpha=case["alpha"])
    )
    detector = SoftOutputSphereDetector(
        system.constellation,
        radius_policy=radius_policy,
        max_list=case["max_list"],
    )
    detector.prepare(channel, noise_var=noise_var)
    detect = []
    for row in received:
        soft = detector.detect_soft(row)
        rec = frame_record(soft.hard)
        rec["llrs_hex"] = [float(v).hex() for v in soft.llrs]
        rec["list_size"] = int(soft.list_size)
        detect.append(rec)
    return {"detect": detect}


def partitioned_record(case: dict) -> dict:
    """Partitioned decode of one case: each frame's record plus its
    per-PE expansions and radius-broadcast events."""
    from repro.core.radius import BabaiRadius, NoiseScaledRadius
    from repro.detectors.partitioned import PartitionedSphereDecoder

    system, channel, noise_var, received = _case_link(case, OTHER_FRAMES)
    decoder = PartitionedSphereDecoder(
        system.constellation,
        n_pes=case["n_pes"],
        radius_policy=(
            BabaiRadius()
            if case["alpha"] is None
            else NoiseScaledRadius(alpha=case["alpha"])
        ),
        max_rounds=case["max_rounds"],
    )
    decoder.prepare(channel, noise_var=noise_var)
    detect = []
    for row in received:
        rec = frame_record(decoder.detect(row))
        rec["pe_expansions"] = [int(n) for n in decoder.last_pe_expansions]
        rec["sync_events"] = int(decoder.last_sync_events)
        detect.append(rec)
    return {"detect": detect}


#: Per family: the record function of one case.
SWEEP_FAMILIES = {
    "sweep": sweep_record,
    "soft": soft_record,
    "partitioned": partitioned_record,
}


def record_sweeps() -> dict:
    """Every sweep, list and partitioned case with its record."""
    doc = {
        "schema": 1,
        "seed": SWEEP_SEED,
        "frames": {"sweep": SWEEP_FRAMES, "other": OTHER_FRAMES},
    }
    for family, cases in draw_sweep_cases().items():
        doc[family] = [
            {"case": case, **SWEEP_FAMILIES[family](case)} for case in cases
        ]
    return doc


def sweep_disagreements(sweeps: dict) -> list[int]:
    """Sweep cases whose ``detect`` and ``decode_batch`` records differ."""
    return [
        i for i, rec in enumerate(sweeps["sweep"]) if rec["detect"] != rec["batch"]
    ]


def check_preserves_existing(
    doc: dict, leaf_first: dict, sweeps: dict
) -> list[str]:
    """Names of committed records the fresh run changed."""
    changed = []
    if GOLDEN_PATH.is_file():
        old = json.loads(GOLDEN_PATH.read_text())
        for label, old_scenario in old.get("scenarios", {}).items():
            new_scenario = doc["scenarios"].get(label, {"detectors": {}})
            for kind, old_record in old_scenario["detectors"].items():
                new_record = new_scenario["detectors"].get(kind)
                if new_record != old_record:
                    changed.append(f"{label}/{kind}")
    if LEAF_FIRST_PATH.is_file():
        new_cases = leaf_first["cases"]
        old_cases = json.loads(LEAF_FIRST_PATH.read_text())["cases"]
        for i, old_case in enumerate(old_cases):
            if i >= len(new_cases) or new_cases[i] != old_case:
                changed.append(f"leaf-first case {i}")
    if SWEEP_PATH.is_file():
        old = json.loads(SWEEP_PATH.read_text())
        for family in SWEEP_FAMILIES:
            new_cases = sweeps[family]
            for i, old_case in enumerate(old.get(family, [])):
                if i >= len(new_cases) or new_cases[i] != old_case:
                    changed.append(f"{family} case {i}")
    return changed


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--force",
        action="store_true",
        help="allow overwriting existing records that changed (an "
        "intentional decode-behaviour change)",
    )
    args = parser.parse_args(argv)
    doc = record()
    leaf_first = record_leaf_first()
    sweeps = record_sweeps()
    disagree = sweep_disagreements(sweeps)
    if disagree:
        print(
            "refusing to write: detect and decode_batch disagree on sweep "
            f"cases {disagree}"
        )
        return 1
    changed = check_preserves_existing(doc, leaf_first, sweeps)
    if changed and not args.force:
        print(
            "refusing to overwrite: existing golden records changed "
            f"({', '.join(changed)}); rerun with --force if intentional"
        )
        return 1
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(
        json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    )
    n_kinds = len(next(iter(doc["scenarios"].values()))["detectors"])
    print(
        f"golden decodes written: {GOLDEN_PATH} "
        f"({len(doc['scenarios'])} scenarios x {n_kinds} detector kinds)"
    )
    LEAF_FIRST_PATH.write_text(
        json.dumps(leaf_first, sort_keys=True, separators=(",", ":")) + "\n"
    )
    print(
        f"leaf-first cases written: {LEAF_FIRST_PATH} "
        f"({len(leaf_first['cases'])} cases)"
    )
    SWEEP_PATH.write_text(
        json.dumps(sweeps, sort_keys=True, separators=(",", ":")) + "\n"
    )
    counts = ", ".join(f"{len(sweeps[f])} {f}" for f in SWEEP_FAMILIES)
    print(f"sweep cases written: {SWEEP_PATH} ({counts})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
