"""Layer-budget benchmark: end-to-end metrics plus a traced per-layer table.

Run from the repository root::

    python3 perfbench/run.py                      # all three workloads
    python3 perfbench/run.py --workload mc-fig6 --seed 7 --seconds 30 --trace 0

Each workload builds its inputs from ``--seed``, then decodes them in
timed passes for about ``--seconds`` (at least one pass), with the
program's telemetry as the workload defines it (``workloads.py``). The
end-to-end metrics come from these untraced passes: ``frames_per_s`` is
frames completed per second of the timed units, ``frame_p50_ms`` and
``frame_p95_ms`` are percentiles of the per-frame decode time. With ``--trace 1``
the first pass's inputs are decoded once more with spans around every
layer's entry points (``layers.py``), and the per-layer table comes
from that run. Output checks run outside every timed region; a frame
that fails one counts in ``failed``. The exact counts of every pass,
and of every earlier run of the same seed and code, must agree, or the
run fails.

Host times (set-up included) are printed as measured and scaled by the
run's host slowdown (``hostspeed.py``); the JSON line carries the
scaled ones.
Times marked *modelled* come from the FPGA pipeline model, not the
host. The run uses at most two threads, OpenBLAS's pool included.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Must precede the first numpy import: OpenBLAS sizes its pool at load.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "2"
MAX_THREADS = 2

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 2023
#: Set-up (imports; input and object building) is repeated this many
#: times and the median is reported.
SETUP_REPEATS = 3
#: Share of ``--seconds`` one pass is sized to fill on the reference host.
PASS_FILL = 0.8


def _parse_args(argv, spec, workloads):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=("all", *workloads))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1)
    parser.add_argument(
        "--out", type=Path, default=HERE / "out",
        help="directory for Chrome traces and count records",
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _threads() -> int | None:
    try:
        status = Path("/proc/self/status").read_text()
    except OSError:
        return None
    for line in status.splitlines():
        if line.startswith("Threads:"):
            return int(line.split()[1])
    return None


def _code_hash() -> str:
    """Hash of every source file the counts depend on."""
    h = hashlib.sha1()
    for base in (ROOT / "src" / "repro", HERE):
        for path in sorted(base.rglob("*.py")):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def _repeat_check(out_dir: Path, key: str, counts: dict) -> str | None:
    """Compare ``counts`` with an earlier run of the same key, or store them."""
    path = out_dir / "counts" / f"{key}.json"
    if path.exists():
        earlier = json.loads(path.read_text())
        if earlier != counts:
            diff = sorted(k for k in counts if earlier.get(k) != counts[k])
            return f"counts differ from an earlier run of this seed: {diff}"
        return None
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(counts, sort_keys=True, indent=1))
    return None


def _import_seconds() -> float:
    """Import time of the program and benchmark modules, fresh interpreter."""
    code = (
        "import sys, time\n"
        "t = time.perf_counter()\n"
        f"sys.path[:0] = [{str(ROOT / 'src')!r}, {str(HERE)!r}]\n"
        "import layers, workloads\n"
        "print(time.perf_counter() - t)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    return float(out.stdout)


def _percentile_ms(values, q) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] * 1e3


def _fmt(value) -> str:
    if isinstance(value, (str, int)):
        return str(value)
    if value == 0:
        return "0"
    if abs(value) >= 1e5 or abs(value) < 1e-3:
        return f"{value:.4g}"
    return f"{value:.4f}"


def _print_rows(title, rows) -> None:
    """rows: (name, value, unit, note)."""
    print(title)
    width = max(len(r[0]) for r in rows)
    for name, value, unit, note in rows:
        line = f"  {name.ljust(width)}  {_fmt(value):>14}  {unit:<9}"
        print((line + f"  {note}").rstrip())


def run_workload(args, spec) -> dict:
    """Run one workload in this process; returns the JSON result."""
    import hostspeed
    from layers import MODELLED, MOVES, LayerTracer, layer_metrics
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    units = max(1, int(PASS_FILL * args.seconds / wl.UNIT_COST_S))
    perf = time.perf_counter
    problems: list[str] = []

    # Set-up = importing the program + building inputs, specs, pipelines
    # and services; each half is repeated and its median taken.
    build_s, import_s = [], []
    for _ in range(SETUP_REPEATS):
        t0 = perf()
        state = wl.build(args.seed, units)
        build_s.append(perf() - t0)
        import_s.append(_import_seconds())
    setup_s = statistics.median(import_s) + statistics.median(build_s)

    # Timed passes over the same inputs while the budget allows. Pass 1
    # is kept for the checks; a later pass is compared with it and its
    # results dropped, so memory does not grow with the pass count.
    passes = []
    spent = 0.0
    while True:
        wl.fresh(state)
        gc.collect()
        t0 = perf()
        p = wl.run_pass(state, {}, hostspeed.probe)
        p.seconds = perf() - t0
        spent += p.seconds
        if not passes:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            counts = wl.counts(state, p)
        elif wl.counts(state, p) != counts:
            problems.append(f"pass {len(passes) + 1} counts differ from pass 1")
        if passes:
            p.results, p.extra = [], {}
        passes.append(p)
        if spent + p.seconds > args.seconds:
            break
    first = passes[0]

    traced = None
    if args.trace:
        wl.fresh(state)
        gc.collect()
        lt = LayerTracer()
        with lt.installed():
            t0 = perf()
            tp = wl.run_pass(state, lt.ids, float)
            wall = perf() - t0
        if wl.counts(state, tp) != counts:
            problems.append("traced pass counts differ from pass 1")
        if lt.counts.priced_events != counts.get("priced_events", 0):
            problems.append(
                f"traced pricing saw {lt.counts.priced_events} events, the "
                f"decodes recorded {counts.get('priced_events', 0)}"
            )
        try:
            seconds = lt.fold(
                wall_s=wall,
                gemm_s=sum(res.stats.gemm_time_s for res in tp.results),
            )
        except ValueError as exc:
            problems.append(f"layer table: {exc}")
            seconds = None
        path = lt.write(args.out / f"{wl.name}-seed{args.seed}.trace.json")
        traced = (tp, lt, wall, seconds, path)

    checked = wl.check(state, first)
    threads = _threads()
    if threads is not None and threads > MAX_THREADS:
        problems.append(f"{threads} threads running, cap is {MAX_THREADS}")
    record = dict(counts)
    if traced is not None:
        record.update(
            {f"trace.{k}": v for k, v in dataclasses.asdict(traced[1].counts).items()}
        )
    key = hashlib.sha1(
        f"{wl.name}|{args.seed}|{units}|{args.trace}|{_code_hash()}".encode()
    ).hexdigest()[:16]
    repeat = _repeat_check(args.out, key, record)
    if repeat:
        problems.append(repeat)

    # Host times are scaled by the slowdown the reference probes saw
    # over the run (hostspeed.py); the measured values are printed too.
    slow = hostspeed.slowdown([x for p in passes for x in p.probes])
    raw_times = [t for p in passes for t in p.frame_times_s]
    raw_rate = sum(n for p in passes for n, _ in p.cells) / sum(
        s for p in passes for _, s in p.cells
    )
    measured = {
        "setup_s": setup_s,
        "frames_per_s": raw_rate,
        "frame_p50_ms": _percentile_ms(raw_times, 50),
        "frame_p95_ms": _percentile_ms(raw_times, 95),
    }
    e2e = {
        "setup_s": (setup_s / slow, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "frames_per_s": (raw_rate * slow, "frames/s"),
        "frame_p50_ms": (measured["frame_p50_ms"] / slow, "ms"),
        "frame_p95_ms": (measured["frame_p95_ms"] / slow, "ms"),
        "nodes_per_frame": (counts["nodes_expanded"] / first.frames, "nodes"),
    }
    in_json = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    for name, unit in in_json.items():
        if e2e[name][1] != unit:
            problems.append(f"{name}: unit {e2e[name][1]} != {unit}")

    why = {w["name"]: w["why"] for w in spec["workloads"]}[wl.name]
    print(f"== {wl.name}: {why} ==")
    print(
        f"seed {args.seed}, {units} units, {len(passes)} pass(es) of "
        f"{first.frames} frames / {first.blocks} channel blocks, telemetry "
        f"{'on' if wl.telemetry else 'off'}, threads {threads}, "
        f"host slowdown {slow:.3f}"
    )
    rows = []
    for name, (value, unit) in e2e.items():
        notes = [f"measured {_fmt(measured[name])}"] if name in measured else []
        if name.startswith("frame_p"):
            notes.append(f"{len(raw_times)} samples")
        if name not in in_json:
            notes.append("(table only)")
        rows.append((name, value, unit, ", ".join(notes)))
    rows.append(("failed_frac", checked.failed / checked.attempted, "fraction", ""))
    rows.append((
        "ber", counts["bit_errors"] / counts["bits"], "fraction",
        f"{counts['bit_errors']} of {counts['bits']} bits",
    ))
    for name, (value, unit, note) in wl.extra_metrics(state, first).items():
        rows.append((name, value, unit, note))
    _print_rows("end-to-end (untraced passes; host times scaled)", rows)
    _print_rows(
        "exact counts (pass 1; every pass and run of this seed repeats them)",
        [(k, v, "", "") for k, v in counts.items()],
    )
    print(f"checks: attempted {checked.attempted}, failed {checked.failed}")
    for note in checked.notes:
        print(f"  - {note}")

    layer_json = {}
    if traced is not None and traced[3] is not None:
        tp, lt, wall, seconds, path = traced
        untraced_s = sum(s for _n, s in first.cells)
        traced_s = sum(s for _n, s in tp.cells)
        summary = getattr(wl, "serve_summary", None)
        serve = summary(first) if summary else None
        lm = layer_metrics(
            seconds, wall=wall, overhead=traced_s / untraced_s, frames=tp.frames,
            blocks=tp.blocks, counts=counts, trace_counts=lt.counts, serve=serve,
        )
        print(
            f"per-layer (traced pass: wall {wall:.3f} s, "
            f"{traced_s / untraced_s:.3f}x untraced; "
            f"trace {path.relative_to(ROOT)})"
        )
        width = max(len(layer) for layer in seconds)
        print(f"  {'layer'.ljust(width)}  {'self_s':>10}  {'share':>7}")
        for layer, s in seconds.items():
            print(f"  {layer.ljust(width)}  {s:10.4f}  {s / wall:7.2%}")
        print(f"  {'total'.ljust(width)}  {sum(seconds.values()):10.4f}")
        in_layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
        _print_rows(
            "per-layer metrics",
            [
                (name, value, unit,
                 " ".join(
                     (["modelled"] if name in MODELLED else [])
                     + ([] if name in in_layers else ["(table only)"])
                 ))
                for name, (value, unit) in lm.items()
            ],
        )
        for name, unit in in_layers.items():
            if lm[name][1] != unit:
                problems.append(f"{name}: unit {lm[name][1]} != {unit}")
            layer_json[name] = {"value": lm[name][0], "unit": unit}
        print("layer -> end-to-end metric it should move | most work in | flat in")
        for layers_, moves, most, flat in MOVES:
            print(f"  {layers_} -> {moves} | {most} | {flat}")

    for problem in problems:
        print(f"  ! {problem}")
    if args.trace:
        metrics = layer_json
    else:
        metrics = {
            name: {"value": e2e[name][0], "unit": unit}
            for name, unit in in_json.items()
        }
    return {
        "correct": checked.failed == 0 and not problems and bool(metrics),
        "attempted": checked.attempted,
        "failed": checked.failed,
        "metrics": metrics,
    }


def run_all(args, workloads) -> dict:
    """Each workload in its own process, so set-up and memory are its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads:
        cmd = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--out", str(args.out),
        ]
        last = ""
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            for line in proc.stdout:
                print(line, end="", flush=True)
                last = line
        try:
            result = json.loads(last)
        except json.JSONDecodeError:
            result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
        combined["correct"] &= proc.returncode == 0 and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
        print()
    return combined


def main(argv=None) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    # Workloads, metric names and units, and the run length, come from
    # BENCHMARK.json; the JSON line reports exactly the metrics it lists.
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = _parse_args(argv, spec, WORKLOADS)
    if args.workload == "all":
        result = run_all(args, WORKLOADS)
    else:
        result = run_workload(args, spec)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
