#!/usr/bin/env python
"""Benchmark-regression gate: fresh smoke run vs ``BENCH_baseline.json``.

Runs the ``smoke`` experiment (a tiny deterministic 6x6 sweep, seconds
of wall time — see ``repro.bench.experiments.smoke_experiment``),
flattens its series into named metrics, and compares each against the
committed baseline with a per-metric-class *relative* tolerance:

===========  ======================================  ================
class        metrics                                 default tolerance
===========  ======================================  ================
``time``     ``host_ms@*`` (measured wall time)      +60 %
``model``    ``cpu_model_ms@*``, ``fpga_opt_ms@*``   +2 %
``nodes``    ``mean_nodes[_linf|_rr]@*``             +2 %
``rate``     ``mean_nodes_per_sec[_linf|_rr]@*``     -60 %
``ber``      ``ber@*``                               +0 (abs 1e-9)
===========  ======================================  ================

``rate`` metrics are *higher-is-better*: they regress when the current
value falls **below** ``baseline * (1 - tol)`` (a throughput collapse),
the mirror image of every other class. Everything except ``host_ms``
and ``mean_nodes_per_sec`` is bit-deterministic for a fixed seed, so
those classes catch *algorithmic* regressions machine-independently;
the loose ``time``/``rate`` classes catch real slowdowns (an injected
2x is flagged) while absorbing run-to-run noise. Exit status: 0 = no
regression, 1 = regression(s), 2 = usage error.

Usage:
    python tools/check_regression.py                      # gate vs baseline
    python tools/check_regression.py --update             # refresh baseline
    python tools/check_regression.py --trajectory runs/smoke_trajectory.json
    python tools/check_regression.py --runs-dir runs      # also record a run
    python tools/check_regression.py --tol-time 5.0       # CI: noisy hosts

``tools/generate_report.py --baseline-out`` refreshes the same file as
part of a full report regeneration.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

#: Baseline/trajectory schema version.
SCHEMA = 1

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_BASELINE = REPO_ROOT / "BENCH_baseline.json"

#: Metric-class defaults: relative headroom before a higher-is-worse
#: metric counts as a regression (``ber`` also gets an absolute floor
#: so an exact-zero baseline stays comparable).
DEFAULT_TOLERANCES = {
    "time": 0.60,
    "model": 0.02,
    "nodes": 0.02,
    "rate": 0.60,
    "ber": 0.0,
}

#: Classes where *larger* is better — regression = falling below
#: ``baseline * (1 - tol)`` instead of exceeding ``baseline * (1 + tol)``.
HIGHER_IS_BETTER = frozenset({"rate"})

#: Absolute slack applied on top of the relative ``ber`` tolerance.
BER_ABS_SLACK = 1e-9

#: Metric-name prefix -> tolerance class. The ``_linf`` / ``_rr``
#: variants are the smoke sweep's per-metric/per-lattice series
#: (sd-linf and sd-real-reordered decoding their own deterministic
#: frame set) — same classes as the canonical decoder's columns.
METRIC_CLASSES = {
    "host_ms": "time",
    "cpu_model_ms": "model",
    "fpga_opt_ms": "model",
    "mean_nodes": "nodes",
    "mean_nodes_per_sec": "rate",
    "mean_nodes_linf": "nodes",
    "mean_nodes_per_sec_linf": "rate",
    "mean_nodes_rr": "nodes",
    "mean_nodes_per_sec_rr": "rate",
    "ber": "ber",
}


def metric_class(name: str) -> str | None:
    """The tolerance class of one flattened metric (None = uncompared)."""
    prefix = name.split("@", 1)[0]
    return METRIC_CLASSES.get(prefix)


def collect_metrics(
    *,
    channels: int = 2,
    frames_per_channel: int = 3,
    seed: int = 2023,
    workers: int = 1,
) -> tuple[dict[str, float], object]:
    """Run the smoke experiment; returns (flat metrics, SeriesResult)."""
    from repro.bench.experiments import smoke_experiment

    series = smoke_experiment(
        channels=channels,
        frames_per_channel=frames_per_channel,
        seed=seed,
        workers=workers,
    )
    metrics: dict[str, float] = {}
    for row in series.rows:
        snr = row["snr_db"]
        for column in (
            "host_ms",
            "cpu_model_ms",
            "fpga_opt_ms",
            "ber",
            "mean_nodes",
            "mean_nodes_per_sec",
            "mean_nodes_linf",
            "mean_nodes_per_sec_linf",
            "mean_nodes_rr",
            "mean_nodes_per_sec_rr",
        ):
            value = row.get(column)
            if isinstance(value, (int, float)) and value == value:
                metrics[f"{column}@{snr:g}"] = float(value)
    return metrics, series


def compare(
    baseline: dict[str, float],
    current: dict[str, float],
    tolerances: dict[str, float] | None = None,
) -> list[dict]:
    """All regressions of ``current`` against ``baseline``.

    A metric regresses when ``current > baseline * (1 + tol)`` for its
    class (plus :data:`BER_ABS_SLACK` for BERs). Missing metrics on
    either side are reported as regressions too — a silently vanished
    metric must not pass the gate.
    """
    tols = dict(DEFAULT_TOLERANCES)
    tols.update(tolerances or {})
    violations: list[dict] = []
    for name, base in sorted(baseline.items()):
        cls = metric_class(name)
        if cls is None:
            continue
        if name not in current:
            violations.append(
                {"metric": name, "baseline": base, "current": None,
                 "tolerance": tols[cls], "reason": "metric missing from current run"}
            )
            continue
        cur = current[name]
        if cls in HIGHER_IS_BETTER:
            limit = base * (1.0 - tols[cls])
            if cur < limit:
                ratio = cur / base if base else float("inf")
                violations.append(
                    {"metric": name, "baseline": base, "current": cur,
                     "tolerance": tols[cls],
                     "reason": f"{ratio:.2f}x baseline "
                     f"(floor {1 - tols[cls]:.2f}x, higher is better)"}
                )
            continue
        limit = base * (1.0 + tols[cls])
        if cls == "ber":
            limit += BER_ABS_SLACK
        if cur > limit:
            ratio = cur / base if base else float("inf")
            violations.append(
                {"metric": name, "baseline": base, "current": cur,
                 "tolerance": tols[cls],
                 "reason": f"{ratio:.2f}x baseline (limit {1 + tols[cls]:.2f}x)"}
            )
    for name in sorted(set(current) - set(baseline)):
        if metric_class(name) is not None:
            violations.append(
                {"metric": name, "baseline": None, "current": current[name],
                 "tolerance": None, "reason": "metric missing from baseline"}
            )
    return violations


def _git_sha() -> str | None:
    from repro.obs.registry import _git_sha as sha

    return sha()


def print_attribution_hint(runs_dir, tracer, run_path) -> None:
    """Best-effort perf attribution printed under a failed gate.

    With ``--runs-dir`` the fresh smoke run recorded a trace, so a
    *regressed* gate can name the spans whose self-time grew the most
    against the previous recorded smoke run in the same registry (or,
    for a first recording, simply the biggest self-time spans). Purely
    advisory: any failure here is swallowed and the gate's exit code
    never changes.
    """
    try:
        from repro.obs.profile import (
            build_profile_tree,
            diff_profiles,
            load_profile,
        )
        from repro.obs.registry import MANIFEST_FILE, RunRegistry

        current = build_profile_tree(tracer.events)
        if not current.roots:
            return
        previous = None
        for run_dir in reversed(RunRegistry(runs_dir).run_dirs()):
            if run_path is not None and run_dir == Path(run_path):
                continue
            try:
                manifest = json.loads((run_dir / MANIFEST_FILE).read_text())
                if manifest.get("experiment") != "smoke":
                    continue
                previous = (run_dir.name, load_profile(run_dir))
                break
            except (OSError, ValueError, KeyError):
                continue
        if previous is not None:
            name, base_tree = previous
            rows = [
                r
                for r in diff_profiles(base_tree, current).rows
                if r.delta_s > 0
            ][:3]
            if not rows:
                return
            print(f"attribution hint (span self-time vs run {name}):")
            for r in rows:
                pct = (
                    f" ({100.0 * r.delta_s / base_tree.wall_s:+.1f}% of wall)"
                    if base_tree.wall_s
                    else ""
                )
                print(
                    f"  {r.span}: {r.self_a_s * 1e3:.3f} -> "
                    f"{r.self_b_s * 1e3:.3f} ms "
                    f"[{r.delta_s * 1e3:+.3f} ms]{pct}"
                )
        else:
            from repro.obs.profile import self_by_name

            flat = sorted(
                self_by_name(current).items(),
                key=lambda kv: kv[1]["self_s"],
                reverse=True,
            )[:3]
            print("attribution hint (top spans by self-time, no prior run):")
            for span, row in flat:
                print(f"  {span}: {row['self_s'] * 1e3:.3f} ms self")
    except Exception:  # noqa: BLE001 - advisory output must never gate
        pass


def write_baseline(
    path: Path, metrics: dict[str, float], config: dict
) -> None:
    payload = {
        "schema": SCHEMA,
        "experiment": "smoke",
        "generated_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "git_sha": _git_sha(),
        "config": config,
        "metrics": metrics,
    }
    path.write_text(json.dumps(payload, indent=1) + "\n")


def append_trajectory(path: Path, metrics: dict[str, float]) -> None:
    """Append one (timestamp, git SHA, metrics) point to the trajectory."""
    if path.is_file():
        doc = json.loads(path.read_text())
    else:
        doc = {"schema": SCHEMA, "experiment": "smoke", "points": []}
    doc["points"].append(
        {
            "recorded_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "git_sha": _git_sha(),
            "metrics": metrics,
        }
    )
    path.write_text(json.dumps(doc, indent=1) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="compare a fresh smoke run against the committed benchmark baseline"
    )
    parser.add_argument(
        "--baseline", type=Path, default=DEFAULT_BASELINE,
        help=f"baseline file (default: {DEFAULT_BASELINE.name})",
    )
    parser.add_argument(
        "--update", action="store_true",
        help="write the fresh metrics as the new baseline and exit 0",
    )
    parser.add_argument(
        "--trajectory", type=Path, default=None, metavar="PATH",
        help="append this run's metrics to a smoke trajectory file "
        "(CI: runs/smoke_trajectory.json)",
    )
    parser.add_argument(
        "--runs-dir", default=None, metavar="DIR",
        help="also record the smoke run into this run registry",
    )
    parser.add_argument("--channels", type=int, default=2)
    parser.add_argument("--frames", type=int, default=3)
    parser.add_argument("--seed", type=int, default=2023)
    parser.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="run the smoke sweep sharded over N processes; deterministic "
        "metrics are bit-identical to serial, so the same baseline "
        "applies (CI uses this to gate the pool path)",
    )
    for cls, default in sorted(DEFAULT_TOLERANCES.items()):
        parser.add_argument(
            f"--tol-{cls}", type=float, default=None, metavar="REL",
            help=f"relative tolerance for the {cls} class (default {default})",
        )
    args = parser.parse_args(argv)

    config = {
        "channels": args.channels,
        "frames_per_channel": args.frames,
        "seed": args.seed,
    }
    from repro.obs import (
        MetricsRegistry,
        RunRegistry,
        Tracer,
        use_metrics,
        use_tracer,
    )

    recorder = RunRegistry(args.runs_dir).new_run(
        "smoke", seed=args.seed, config=config
    )
    tracer = Tracer(enabled=recorder.enabled)
    metrics = MetricsRegistry(enabled=recorder.enabled)
    metrics.stream = recorder.stream_writer()
    with use_tracer(tracer), use_metrics(metrics):
        current, series = collect_metrics(
            channels=args.channels,
            frames_per_channel=args.frames,
            seed=args.seed,
            workers=args.workers,
        )
    metrics.tick(force=True)
    print(series.format())
    recorder.record_series(series)
    recorder.record_metrics(tracer, metrics)
    recorder.record_trace(tracer)
    recorder.record_profile(tracer)
    run_path = recorder.finalize()

    if args.trajectory is not None:
        append_trajectory(args.trajectory, current)
        print(f"trajectory point appended to {args.trajectory}")

    if args.update:
        write_baseline(args.baseline, current, config)
        print(f"baseline refreshed: {args.baseline}")
        return 0

    if not args.baseline.is_file():
        print(
            f"error: no baseline at {args.baseline}; run with --update first",
            file=sys.stderr,
        )
        return 2
    doc = json.loads(args.baseline.read_text())
    if doc.get("config") != config:
        print(
            f"error: baseline config {doc.get('config')} does not match "
            f"requested {config}; refresh with --update",
            file=sys.stderr,
        )
        return 2
    tolerances = {
        cls: value
        for cls in DEFAULT_TOLERANCES
        if (value := getattr(args, f"tol_{cls}")) is not None
    }
    violations = compare(doc["metrics"], current, tolerances)
    if violations:
        print(f"\nREGRESSION: {len(violations)} metric(s) beyond tolerance")
        for v in violations:
            print(
                f"  {v['metric']}: baseline={v['baseline']} "
                f"current={v['current']} ({v['reason']})"
            )
        if recorder.enabled:
            print_attribution_hint(args.runs_dir, tracer, run_path)
        return 1
    print(f"\nno regression: {len(current)} metric(s) within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
