"""Command-line interface: ``repro-sd`` (or ``python -m repro``).

Subcommands
-----------
``list``
    Show the available experiments (tables/figures/ablations).
``detectors``
    Show the detector registry: every registered kind with its
    parameters, capability flags (exact ML, fused batch decoding,
    FPGA trace replay), partial-distance metric / lattice
    representation axes and the paper figures that use it.
    ``--exact-only`` hides the approximate kinds.
``experiment NAME``
    Run one experiment and print its table. ``--channels`` and
    ``--frames`` trade Monte Carlo depth for wall time.
``decode``
    Decode one random frame and print the decision, the search
    statistics and the modelled platform times — a minimal end-to-end
    demonstration.
``ber``
    Run a quick BER sweep for a chosen detector.
``trace``
    Decode one frame under the tracer; emit a Chrome ``trace_event``
    JSON (loadable in ``chrome://tracing`` / Perfetto) plus the FPGA
    pipeline's per-stage cycle breakdown.
``stats``
    Replay an experiment under the tracer and print the metrics
    summary (span percentiles + counters).
``profile``
    Performance attribution (see ``docs/observability.md`` §7):
    ``profile run`` executes an experiment under the tracer with
    cProfile scoped to spans and prints the self/total-time call-tree
    plus per-span function hotspots (optionally recording the run and
    writing flamegraph artifacts); ``profile flame`` exports a
    recorded run's tree as collapsed-stack / speedscope flamegraphs;
    ``profile diff A B`` ranks per-span Δself-time between two
    recorded runs so a perf regression names its culprit span.
``serve``
    Streaming detection service capacity sweep: seeded multi-stream
    load through the coalescing batch scheduler
    (:mod:`repro.serve`), reporting p50/p95/p99 sojourn latency,
    throughput, batch fill and SLO attainment per stream count.
    ``--check`` turns it into a CI gate (exit 1 when the lightest
    point misses its p95 SLO or served results diverge from direct
    per-frame decoding); ``--record`` persists the capacity curve to
    the run registry so sweeps diff like any other experiment.
``runs``
    Inspect the persistent run registry: ``runs list``, ``runs show``,
    ``runs diff A B`` (per-SNR comparison tables) and ``runs report``
    (a self-contained markdown document). Record runs with
    ``experiment NAME --record``.
``obs``
    Live telemetry: ``obs tail RUN`` prints a run's metrics stream one
    line per snapshot (``--follow`` keeps polling until the run
    finishes) and ``obs top RUN`` renders a top-style table of the
    latest snapshot (totals, rates, per-shard progress and lag).

Global ``-v``/``-q`` flags raise/lower the ``repro`` logging channel's
verbosity (see :mod:`repro.obs.log`). Argument and configuration errors
(unknown experiment ids, malformed modulations, missing runs) exit with
code 2 and a one-line message instead of a traceback.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

import numpy as np


def _parse_snrs(text: str) -> list[float]:
    """Parse ``"4:20:4"`` (start:stop:step, inclusive) or ``"4,8,12"``.

    Rejects inputs that parse to *no* SNR points (empty string, bare
    commas, an empty range) — otherwise an experiment would silently
    run over zero SNRs and report nothing.
    """
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise argparse.ArgumentTypeError(
                "range SNR must be start:stop:step, e.g. 4:20:4"
            )
        start, stop, step = (float(p) for p in parts)
        if step <= 0:
            raise argparse.ArgumentTypeError("SNR step must be positive")
        snrs = [float(s) for s in np.arange(start, stop + step / 2, step)]
    else:
        snrs = [float(p) for p in text.split(",") if p.strip()]
    if not snrs:
        raise argparse.ArgumentTypeError(
            f"no SNR values in {text!r}; expected e.g. 4:20:4 or 4,8,12"
        )
    return snrs


def _parse_modulation(text: str) -> str:
    """Normalise a modulation name; bare QAM orders like ``4`` work too."""
    name = text.strip().lower()
    if name.isdigit():
        name = f"{name}qam"
    return name


def _parse_stream_counts(text: str) -> list[int]:
    """Parse ``"2,8,32"`` into ascending positive stream counts."""
    try:
        counts = [int(p) for p in text.split(",") if p.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bad stream counts {text!r}; expected e.g. 2,8,32"
        ) from None
    if not counts or any(c < 1 for c in counts):
        raise argparse.ArgumentTypeError(
            f"stream counts must be positive integers, got {text!r}"
        )
    return counts


def _parse_mimo(text: str) -> tuple[int, int]:
    """Parse ``"10x10"`` into (n_tx, n_rx)."""
    try:
        tx, rx = text.lower().split("x")
        return int(tx), int(rx)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            "MIMO size must look like 10x10"
        ) from exc


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro-sd",
        description=(
            "GEMM-based Best-FS sphere decoding for large MIMO "
            "(reproduction of Hassan et al., IPPS 2023)"
        ),
    )
    parser.add_argument(
        "-v",
        "--verbose",
        action="count",
        default=0,
        help="raise diagnostics verbosity (-v: INFO, -vv: DEBUG)",
    )
    parser.add_argument(
        "-q",
        "--quiet",
        action="count",
        default=0,
        help="lower diagnostics verbosity (errors only)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments")

    det = sub.add_parser(
        "detectors",
        help="list the detector registry (kinds, params, capabilities)",
    )
    det.add_argument(
        "--exact-only",
        action="store_true",
        help="only kinds whose decisions are exact maximum likelihood "
        "(hides approximate detectors such as kbest or the linf-metric "
        "variants)",
    )

    exp = sub.add_parser("experiment", help="run a paper experiment")
    exp.add_argument("name", help="experiment id, e.g. fig6, table1")
    exp.add_argument("--channels", type=int, default=None, help="channel realisations per SNR")
    exp.add_argument("--frames", type=int, default=None, help="frames per channel")
    exp.add_argument("--seed", type=int, default=2023)
    exp.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="shard Monte Carlo channel blocks over N processes "
        "(bit-identical to serial; sweeps only)",
    )
    exp.add_argument(
        "--plot",
        action="store_true",
        help="also render an ASCII chart of the main series",
    )
    exp.add_argument(
        "--record",
        action="store_true",
        help="persist this run (manifest, series, metrics) to the run registry",
    )
    exp.add_argument(
        "--runs-dir",
        default="runs",
        metavar="DIR",
        help="run-registry root used with --record (default: runs/)",
    )

    dec = sub.add_parser("decode", help="decode one random frame end to end")
    dec.add_argument("--mimo", type=_parse_mimo, default=(10, 10))
    dec.add_argument("--mod", type=_parse_modulation, default="4qam")
    dec.add_argument("--snr", type=float, default=8.0)
    dec.add_argument("--seed", type=int, default=0)
    dec.add_argument(
        "--strategy", choices=("best-first", "dfs"), default="best-first"
    )

    ber = sub.add_parser("ber", help="quick BER sweep")
    ber.add_argument("--mimo", type=_parse_mimo, default=(10, 10))
    ber.add_argument("--mod", type=_parse_modulation, default="4qam")
    ber.add_argument("--snr", type=_parse_snrs, default=[4, 8, 12, 16, 20])
    ber.add_argument(
        "--detector",
        choices=("sd", "zf", "mmse", "mrc", "fsd", "bfs"),
        default="sd",
    )
    ber.add_argument("--channels", type=int, default=5)
    ber.add_argument("--frames", type=int, default=10)
    ber.add_argument("--seed", type=int, default=0)
    ber.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="shard channel blocks over N worker processes "
        "(bit-identical to --workers 1 for the same seed)",
    )
    ber.add_argument(
        "--batch",
        action="store_true",
        help="decode each block's frames with one decode_batch call "
        "(fused GEMMs for BFS/K-best/FSD; bit-identical)",
    )

    trc = sub.add_parser(
        "trace",
        help="decode one frame under the tracer; emit a Chrome trace "
        "and the FPGA per-stage cycle breakdown",
    )
    trc.add_argument(
        "--size", type=int, default=10, help="N for an NxN MIMO system"
    )
    trc.add_argument(
        "--mimo",
        type=_parse_mimo,
        default=None,
        help="explicit TXxRX geometry (overrides --size)",
    )
    trc.add_argument(
        "--mod",
        type=_parse_modulation,
        default="4qam",
        help="modulation (e.g. 4qam, 16qam; a bare QAM order like 4 works)",
    )
    trc.add_argument("--snr", type=float, default=8.0)
    trc.add_argument("--seed", type=int, default=0)
    trc.add_argument(
        "--strategy", choices=("best-first", "dfs"), default="best-first"
    )
    trc.add_argument(
        "--design", choices=("optimized", "baseline"), default="optimized"
    )
    trc.add_argument(
        "--out", default="trace.json", help="Chrome trace output path"
    )
    trc.add_argument(
        "--jsonl", default=None, help="also write a JSONL event log here"
    )
    trc.add_argument(
        "--from-jsonl",
        dest="from_jsonl",
        default=None,
        metavar="PATH",
        help="re-render a saved JSONL event log as a Chrome trace "
        "instead of decoding",
    )

    st = sub.add_parser(
        "stats",
        help="replay an experiment under the tracer and print the "
        "metrics summary",
    )
    st.add_argument(
        "name", nargs="?", default="fig6", help="experiment id (see `list`)"
    )
    st.add_argument("--channels", type=int, default=2)
    st.add_argument("--frames", type=int, default=3)
    st.add_argument("--seed", type=int, default=2023)
    st.add_argument(
        "--trace", default=None, metavar="PATH", help="also write a Chrome trace"
    )
    st.add_argument(
        "--from-jsonl",
        dest="from_jsonl",
        default=None,
        metavar="PATH",
        help="summarise a saved JSONL event log instead of running "
        "an experiment",
    )
    st.add_argument(
        "--json",
        dest="json_out",
        default=None,
        metavar="PATH",
        help="also write the span/counter summary as machine-readable "
        "JSON to PATH ('-' for stdout), mirroring bench_kernels.py "
        "--json",
    )

    prof = sub.add_parser(
        "profile",
        help="performance attribution: span self-time trees, "
        "flamegraphs and run-to-run perf diffs",
    )
    prof.add_argument(
        "--dir",
        dest="runs_dir",
        default="runs",
        metavar="DIR",
        help="run-registry root (default: runs/)",
    )
    prof_sub = prof.add_subparsers(dest="profile_command", required=True)
    prun = prof_sub.add_parser(
        "run",
        help="run an experiment under span-scoped cProfile and print "
        "the self/total-time attribution",
    )
    prun.add_argument(
        "name", nargs="?", default="smoke", help="experiment id (see `list`)"
    )
    prun.add_argument("--channels", type=int, default=None)
    prun.add_argument("--frames", type=int, default=None)
    prun.add_argument("--seed", type=int, default=2023)
    prun.add_argument(
        "--top",
        type=int,
        default=10,
        metavar="N",
        help="functions per span in the hotspot tables (default: 10)",
    )
    prun.add_argument(
        "--out",
        default=None,
        metavar="BASE",
        help="write BASE.profile.json, BASE.pstats, BASE.collapsed.txt "
        "and BASE.speedscope.json",
    )
    prun.add_argument(
        "--record",
        action="store_true",
        help="persist the profiled run (manifest, series, metrics, "
        "trace, profile) to the run registry",
    )
    prun.add_argument(
        "--by",
        action="append",
        default=None,
        metavar="ARG",
        help="split the attribution by a span argument (repeatable): "
        "--by snr_db gives per-SNR subtrees (mc.point[snr_db=8]), "
        "--by level per-BFS-level ones",
    )
    pflame = prof_sub.add_parser(
        "flame",
        help="export a recorded run's span tree as flamegraph files",
    )
    pflame.add_argument("run", help="run id, unique prefix, latest[~N], or path")
    pflame.add_argument(
        "--out",
        default=None,
        metavar="BASE",
        help="output base path (default: artifacts/flame/<run id>); "
        "writes BASE.collapsed.txt and/or BASE.speedscope.json",
    )
    pflame.add_argument(
        "--format",
        choices=("collapsed", "speedscope", "both"),
        default="both",
        help="which flamegraph format(s) to write (default: both)",
    )
    pdiff = prof_sub.add_parser(
        "diff",
        help="ranked per-span Δself-time between two recorded runs",
    )
    pdiff.add_argument("run_a", help="base run (id, prefix, latest[~N], path)")
    pdiff.add_argument("run_b", help="compared run")
    pdiff.add_argument(
        "--top",
        type=int,
        default=None,
        metavar="N",
        help="show only the N largest movements",
    )
    pdiff.add_argument(
        "--check",
        action="store_true",
        help="exit 1 when any span regressed beyond the thresholds "
        "(CI self-diff gate)",
    )
    pdiff.add_argument(
        "--min-delta-ms",
        type=float,
        default=0.0,
        metavar="MS",
        help="with --check: ignore regressions smaller than MS "
        "milliseconds (default: 0)",
    )
    pdiff.add_argument(
        "--min-pct",
        type=float,
        default=0.0,
        metavar="PCT",
        help="with --check: ignore regressions below PCT%% of the base "
        "run's wall (default: 0)",
    )

    srv = sub.add_parser(
        "serve",
        help="streaming detection service: capacity sweep under a "
        "latency SLO (p50/p95/p99, throughput, batch fill)",
    )
    srv.add_argument("--mimo", type=_parse_mimo, default=(6, 6))
    srv.add_argument("--mod", type=_parse_modulation, default="4qam")
    srv.add_argument("--snr", type=float, default=8.0)
    srv.add_argument(
        "--streams",
        type=_parse_stream_counts,
        default=[2, 8, 32],
        metavar="N,N,...",
        help="stream counts to sweep (default: 2,8,32)",
    )
    srv.add_argument(
        "--rate",
        type=float,
        default=200.0,
        metavar="HZ",
        help="mean arrival rate per stream (default: 200 Hz)",
    )
    srv.add_argument(
        "--duration", type=float, default=0.25, help="trace horizon in seconds"
    )
    srv.add_argument(
        "--profile",
        choices=("poisson", "bursty", "uniform"),
        default="poisson",
        help="arrival process per stream",
    )
    srv.add_argument(
        "--detector",
        default="sd",
        metavar="KIND",
        help="registry detector kind (default: sd)",
    )
    srv.add_argument("--seed", type=int, default=2023)
    srv.add_argument(
        "--slo-ms",
        type=float,
        default=10.0,
        metavar="MS",
        help="latency SLO on arrival-to-delivery sojourn (default: 10)",
    )
    srv.add_argument(
        "--max-batch",
        type=int,
        default=32,
        help="scheduler batch-size flush trigger",
    )
    srv.add_argument(
        "--max-delay-ms",
        type=float,
        default=2.0,
        metavar="MS",
        help="scheduler deadline flush trigger (coalescing window)",
    )
    srv.add_argument(
        "--max-queue",
        type=int,
        default=64,
        help="per-stream queue bound (backpressure threshold)",
    )
    srv.add_argument(
        "--dynamic",
        action="store_true",
        help="size batches from the measured-cost EWMA instead of "
        "always waiting for max-batch",
    )
    srv.add_argument(
        "--streams-per-block",
        type=int,
        default=4,
        metavar="N",
        help="streams sharing one channel block (coalescing degree)",
    )
    srv.add_argument(
        "--service",
        default="measured",
        metavar="MODEL",
        help="service-time model: measured | fpga (deterministic "
        "pipeline seconds) | fixed:<us>",
    )
    srv.add_argument(
        "--check",
        action="store_true",
        help="exit 1 when the lightest point misses the p95 SLO or "
        "served results diverge from direct decoding (CI gate)",
    )
    srv.add_argument(
        "--record",
        action="store_true",
        help="persist the capacity curve to the run registry",
    )
    srv.add_argument(
        "--runs-dir",
        default="runs",
        metavar="DIR",
        help="run-registry root used with --record (default: runs/)",
    )

    obs = sub.add_parser(
        "obs",
        help="live telemetry: tail a run's metrics stream or show a "
        "top-style snapshot",
    )
    obs.add_argument(
        "--dir",
        dest="runs_dir",
        default="runs",
        metavar="DIR",
        help="run-registry root (default: runs/)",
    )
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)
    tail = obs_sub.add_parser(
        "tail", help="print a run's metrics stream, one line per snapshot"
    )
    tail.add_argument("run", help="run id, unique prefix, latest[~N], or path")
    tail.add_argument(
        "-f",
        "--follow",
        action="store_true",
        help="keep following the stream until the run finishes",
    )
    tail.add_argument(
        "--poll",
        type=float,
        default=0.5,
        metavar="SECONDS",
        help="poll interval in follow mode (default: 0.5)",
    )
    top = obs_sub.add_parser(
        "top", help="one top-style snapshot table of a run's latest metrics"
    )
    top.add_argument("run", help="run id, unique prefix, latest[~N], or path")

    runs = sub.add_parser(
        "runs",
        help="inspect the persistent run registry (list/show/diff/report)",
    )
    runs.add_argument(
        "--dir",
        dest="runs_dir",
        default="runs",
        metavar="DIR",
        help="run-registry root (default: runs/)",
    )
    runs_sub = runs.add_subparsers(dest="runs_command", required=True)
    runs_sub.add_parser("list", help="list recorded runs, oldest first")
    show = runs_sub.add_parser("show", help="render one recorded run")
    show.add_argument("run", help="run id, unique prefix, latest[~N], or path")
    show.add_argument("--markdown", action="store_true", help="emit markdown")
    diff = runs_sub.add_parser(
        "diff", help="per-SNR / per-span comparison of two runs"
    )
    diff.add_argument("run_a", help="base run (id, prefix, latest[~N], path)")
    diff.add_argument("run_b", help="compared run")
    diff.add_argument("--markdown", action="store_true", help="emit markdown")
    rep = runs_sub.add_parser(
        "report", help="self-contained markdown report of one run"
    )
    rep.add_argument("run", help="run id, unique prefix, latest[~N], or path")
    rep.add_argument(
        "--out", default=None, metavar="PATH", help="write the report here"
    )
    return parser


def _cmd_list() -> int:
    from repro.bench.experiments import EXPERIMENTS

    width = max(len(name) for name in EXPERIMENTS)
    for name, (_fn, description) in EXPERIMENTS.items():
        print(f"{name.ljust(width)}  {description}")
    return 0


def _cmd_detectors(args: argparse.Namespace | None = None) -> int:
    from repro.detectors.registry import detector_entries

    exact_only = bool(args is not None and getattr(args, "exact_only", False))
    for entry in detector_entries():
        if exact_only and not entry.exact:
            continue
        caps = [
            label
            for flag, label in (
                (entry.exact, "exact-ML"),
                (entry.fpga_replayable, "fpga-replay"),
            )
            if flag
        ]
        print(f"{entry.kind}: {entry.summary}")
        print(f"    capabilities : {', '.join(caps) if caps else '-'}")
        print(f"    metric       : {entry.metric}")
        print(f"    lattice      : {entry.lattice}")
        params = ", ".join(f"{k}={v!r}" for k, v in entry.defaults.items())
        print(f"    params       : {params if params else '-'}")
        figures = ", ".join(entry.figures)
        print(f"    figures      : {figures if figures else '-'}")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro.bench.experiments import EXPERIMENTS

    if args.name not in EXPERIMENTS:
        print(
            f"unknown experiment {args.name!r}; run `repro-sd list`",
            file=sys.stderr,
        )
        return 2
    fn, _description = EXPERIMENTS[args.name]
    kwargs = {}
    if args.channels is not None:
        kwargs["channels"] = args.channels
    if args.frames is not None:
        kwargs["frames_per_channel"] = args.frames
    if args.name not in ("table1",):
        kwargs["seed"] = args.seed
    if args.workers is not None:
        import inspect

        if "workers" not in inspect.signature(fn).parameters:
            print(
                f"experiment {args.name!r} does not support --workers",
                file=sys.stderr,
            )
            return 2
        kwargs["workers"] = args.workers
    if args.name == "table1":
        kwargs = {}
    if args.record:
        from repro.obs import (
            MetricsRegistry,
            RunRegistry,
            Tracer,
            use_metrics,
            use_tracer,
        )

        recorder = RunRegistry(args.runs_dir).new_run(
            args.name, seed=kwargs.get("seed"), config=dict(kwargs)
        )
        tracer = Tracer()
        metrics = MetricsRegistry()
        metrics.stream = recorder.stream_writer()
        try:
            with use_tracer(tracer), use_metrics(metrics):
                result = fn(**kwargs)
        except BaseException:
            metrics.tick(force=True)
            recorder.record_metrics(tracer, metrics)
            recorder.record_trace(tracer)
            recorder.record_profile(tracer)
            recorder.finalize("failed")
            raise
        metrics.tick(force=True)
        recorder.record_series(result)
        recorder.record_metrics(tracer, metrics)
        recorder.record_trace(tracer)
        recorder.record_profile(tracer)
        path = recorder.finalize()
        print(result.format())
        print(f"[obs] run recorded: {path}")
    else:
        result = fn(**kwargs)
        print(result.format())
    if args.plot:
        chart = _plot_experiment(result)
        if chart:
            print()
            print(chart)
        else:
            print("(no chartable series for this experiment)")
    return 0


#: Chart configuration per experiment family: (x column, y columns, log_y).
_PLOT_SPECS = {
    "fig6": ("snr_db", ["cpu_ms", "fpga_baseline_ms", "fpga_optimized_ms"], True),
    "fig8": ("snr_db", ["cpu_ms", "fpga_baseline_ms", "fpga_optimized_ms"], True),
    "fig9": ("snr_db", ["cpu_ms", "fpga_baseline_ms", "fpga_optimized_ms"], True),
    "fig10": ("snr_db", ["cpu_ms", "fpga_baseline_ms", "fpga_optimized_ms"], True),
    "fig7": ("snr_db", ["sd_ber", "zf_ber", "mmse_ber"], True),
    "fig11": ("snr_db", ["gpu_bfs_ms", "fpga_opt_ms"], True),
    "fig12": ("snr_db", ["zf_ms", "geosphere_warp_ms", "fpga_opt_ms"], True),
    "ablation-search": ("snr_db", ["bestfs_nodes", "bfs_nodes"], True),
    "ablation-csi": ("pilot_snr_db", ["mean_nodes"], True),
    "ablation-correlation": ("rho", ["mean_nodes"], True),
    "ablation-parallel": ("n_pes", ["latency_speedup"], False),
}


def _plot_experiment(result):
    from repro.bench.plotting import plot_series_result

    spec = _PLOT_SPECS.get(result.experiment)
    if spec is None:
        return None
    x_col, y_cols, log_y = spec
    try:
        return plot_series_result(result, x_col, y_cols, log_y=log_y)
    except (KeyError, ValueError):
        return None


#: CLI ``--strategy`` choice -> registry kind (Babai-seeded exploration
#: variants, matching ``SphereDecoder``'s own defaults per strategy).
_STRATEGY_KINDS = {"best-first": "sd-bestfs", "dfs": "sd-dfs"}


def _cmd_decode(args: argparse.Namespace) -> int:
    from repro.detectors.registry import spec
    from repro.fpga.pipeline import FPGAPipeline, PipelineConfig
    from repro.mimo.system import MIMOSystem
    from repro.perfmodel import CPUCostModel

    n_tx, n_rx = args.mimo
    system = MIMOSystem(n_tx, n_rx, args.mod)
    rng = np.random.default_rng(args.seed)
    frame = system.random_frame(args.snr, rng)
    decoder = spec(_STRATEGY_KINDS[args.strategy], system.constellation)()
    decoder.prepare(frame.channel, noise_var=frame.noise_var)
    result = decoder.detect(frame.received)
    correct = bool(np.array_equal(result.indices, frame.symbol_indices))
    stats = result.stats
    print(f"system        : {system!r} @ {args.snr:g} dB")
    print(f"sent indices  : {frame.symbol_indices.tolist()}")
    print(f"decoded       : {result.indices.tolist()}  ({'OK' if correct else 'symbol errors'})")
    print(f"metric        : {result.metric:.4f}")
    print(
        "search        : "
        f"{stats.nodes_expanded} expanded, {stats.nodes_generated} generated, "
        f"{stats.nodes_pruned} pruned, {stats.leaves_reached} leaves, "
        f"{stats.radius_updates} radius updates"
    )
    if stats.wall_time_s > 0:
        print(
            "host          : "
            f"{stats.nodes_per_sec:,.0f} nodes/s over "
            f"{stats.wall_time_s * 1e3:.3f} ms wall "
            f"(GEMM {stats.gemm_fraction:.0%}, "
            f"overhead {stats.host_overhead_s * 1e3:.3f} ms)"
        )
    order = system.constellation.order
    cpu_ms = CPUCostModel(n_rx=n_rx).decode_seconds(stats) * 1e3
    pipe = FPGAPipeline(
        PipelineConfig.optimized(order), n_tx=n_tx, n_rx=n_rx, order=order
    )
    fpga_ms = pipe.decode_report(stats).milliseconds
    print(f"modelled time : CPU {cpu_ms:.3f} ms | FPGA-optimized {fpga_ms:.3f} ms "
          f"({cpu_ms / fpga_ms:.1f}x)")
    return 0


def _cmd_ber(args: argparse.Namespace) -> int:
    from repro.bench.harness import bfs_gpu_decoder_factory, canonical_decoder_factory
    from repro.detectors.registry import spec
    from repro.mimo.montecarlo import MonteCarloEngine
    from repro.mimo.system import MIMOSystem

    n_tx, n_rx = args.mimo
    system = MIMOSystem(n_tx, n_rx, args.mod)
    const = system.constellation
    # DetectorSpecs (not lambdas) so every factory stays picklable for
    # --workers process sharding.
    factories = {
        "sd": canonical_decoder_factory(const),
        "zf": spec("zf", const),
        "mmse": spec("mmse", const),
        "mrc": spec("mrc", const),
        "fsd": spec("fsd", const),
        "bfs": bfs_gpu_decoder_factory(const),
    }
    engine = MonteCarloEngine(
        system,
        channels=args.channels,
        frames_per_channel=args.frames,
        seed=args.seed,
        keep_traces=False,
        workers=args.workers,
        batch_frames=args.batch,
    )
    sweep = engine.run(factories[args.detector], args.snr, detector_name=args.detector)
    print(f"{'SNR(dB)':>8}  {'BER':>10}  {'bits':>8}")
    for point in sweep.points:
        print(f"{point.snr_db:8.1f}  {point.ber:10.6f}  {point.errors.bits:8d}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.detectors.registry import spec
    from repro.fpga.pipeline import FPGAPipeline, PipelineConfig
    from repro.mimo.system import MIMOSystem
    from repro.obs import (
        MetricsRegistry,
        Tracer,
        format_metrics,
        use_metrics,
        use_tracer,
        write_chrome_trace,
        write_jsonl,
    )

    if args.from_jsonl:
        from repro.obs import read_jsonl, tracer_from_events

        tracer = tracer_from_events(read_jsonl(args.from_jsonl))
        path = write_chrome_trace(tracer, args.out)
        print(
            f"Chrome trace written to {path} "
            f"({len(tracer.events)} events from {args.from_jsonl})"
        )
        return 0

    n_tx, n_rx = args.mimo if args.mimo is not None else (args.size, args.size)
    system = MIMOSystem(n_tx, n_rx, args.mod)
    rng = np.random.default_rng(args.seed)
    frame = system.random_frame(args.snr, rng)
    decoder = spec(_STRATEGY_KINDS[args.strategy], system.constellation)()
    order = system.constellation.order
    config = (
        PipelineConfig.optimized(order)
        if args.design == "optimized"
        else PipelineConfig.baseline(order)
    )
    pipe = FPGAPipeline(config, n_tx=n_tx, n_rx=n_rx, order=order)
    tracer, metrics = Tracer(), MetricsRegistry()
    with use_tracer(tracer), use_metrics(metrics):
        decoder.prepare(frame.channel, noise_var=frame.noise_var)
        result = decoder.detect(frame.received)
        report = pipe.decode_report(result.stats)
    correct = bool(np.array_equal(result.indices, frame.symbol_indices))
    print(f"system   : {system!r} @ {args.snr:g} dB, {args.strategy}")
    print(
        f"decoded  : {'OK' if correct else 'symbol errors'} "
        f"(metric {result.metric:.4f}, "
        f"{result.stats.nodes_expanded} nodes expanded)"
    )
    print()
    print(report.format_stage_breakdown())
    print()
    print(format_metrics(tracer, metrics, title="decode metrics"))
    path = write_chrome_trace(tracer, args.out)
    print()
    print(f"Chrome trace written to {path} (open in chrome://tracing or Perfetto)")
    if args.jsonl:
        print(f"JSONL event log written to {write_jsonl(tracer, args.jsonl)}")
    return 0


def _emit_stats_json(tracer, metrics, source: str, target: str) -> None:
    """Write the machine-readable span/registry summary (`stats --json`).

    Mirrors ``benchmarks/bench_kernels.py --json``: a single JSON
    document another tool can diff or plot — per-span count/total/
    percentiles in seconds, the registry snapshot under
    ``instruments`` (as in a run's ``metrics.json``; absent for a saved
    event log, which holds no counts), and derived nodes-per-second
    rates. ``target`` is a path or ``-`` for stdout.
    """
    import json as _json
    from pathlib import Path

    from repro.obs import traversal_rates
    from repro.obs.registry import metrics_to_dict

    doc: dict = {"schema": 2, "source": source}
    doc.update(metrics_to_dict(tracer, metrics))
    doc["rates"] = (
        traversal_rates(metrics.snapshot()) if metrics is not None else {}
    )
    if target == "-":
        print(_json.dumps(doc, indent=1))
        return
    path = Path(target)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(_json.dumps(doc, indent=1) + "\n")
    print(f"JSON summary written to {path}")


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro.bench.experiments import EXPERIMENTS
    from repro.obs import (
        MetricsRegistry,
        Tracer,
        format_metrics,
        use_metrics,
        use_tracer,
        write_chrome_trace,
    )

    if args.from_jsonl:
        from repro.obs import read_jsonl, tracer_from_events

        tracer = tracer_from_events(read_jsonl(args.from_jsonl))
        if args.json_out == "-":
            _emit_stats_json(tracer, None, args.from_jsonl, args.json_out)
        else:
            print(format_metrics(tracer, title=f"metrics: {args.from_jsonl}"))
            if args.json_out:
                _emit_stats_json(tracer, None, args.from_jsonl, args.json_out)
        if args.trace:
            path = write_chrome_trace(tracer, args.trace)
            print()
            print(f"Chrome trace written to {path}")
        return 0

    if args.name not in EXPERIMENTS:
        print(
            f"unknown experiment {args.name!r}; run `repro-sd list`",
            file=sys.stderr,
        )
        return 2
    fn, _description = EXPERIMENTS[args.name]
    kwargs = {}
    if args.name != "table1":
        kwargs = {
            "channels": args.channels,
            "frames_per_channel": args.frames,
            "seed": args.seed,
        }
    tracer, metrics = Tracer(), MetricsRegistry()
    with use_tracer(tracer), use_metrics(metrics):
        result = fn(**kwargs)
    if args.json_out == "-":
        _emit_stats_json(tracer, metrics, args.name, args.json_out)
    else:
        print(result.format())
        print()
        print(format_metrics(tracer, metrics, title=f"metrics: {args.name}"))
        if args.json_out:
            _emit_stats_json(tracer, metrics, args.name, args.json_out)
    if args.trace:
        from repro.bench.harness import resolve_trace_path

        path = write_chrome_trace(
            tracer, resolve_trace_path(args.trace, args.name)
        )
        print()
        print(f"Chrome trace written to {path}")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.obs.profile import (
        diff_profiles,
        format_profile,
        format_profile_diff,
        load_profile,
        profile_experiment,
        write_collapsed,
        write_speedscope,
    )

    if args.profile_command == "run":
        result = profile_experiment(
            args.name,
            channels=args.channels,
            frames_per_channel=args.frames,
            seed=args.seed,
            functions_top=args.top,
            label_args=tuple(args.by or ()),
        )
        tree = result.tree
        print(
            format_profile(
                tree, title=f"profile: {args.name}", functions_top=args.top
            )
        )
        if args.out:
            base = Path(args.out)
            base.parent.mkdir(parents=True, exist_ok=True)
            profile_path = base.with_suffix(".profile.json")
            profile_path.write_text(_json_dumps(tree.to_dict()))
            pstats_path = base.with_suffix(".pstats")
            result.profiler.combined_stats().dump_stats(pstats_path)
            collapsed = write_collapsed(tree, base.with_suffix(".collapsed.txt"))
            speedscope = write_speedscope(
                tree, base.with_suffix(".speedscope.json"), name=args.name
            )
            print()
            print(
                f"profile artifacts: {profile_path}, {pstats_path}, "
                f"{collapsed}, {speedscope}"
            )
        if args.record:
            from repro.obs import RunRegistry

            recorder = RunRegistry(args.runs_dir).new_run(
                args.name,
                seed=args.seed,
                config={"channels": args.channels, "frames": args.frames,
                        "profiled": True},
            )
            if result.series is not None and hasattr(result.series, "columns"):
                recorder.record_series(result.series)
            recorder.record_metrics(result.tracer)
            recorder.record_trace(result.tracer)
            recorder.record_profile(tree)
            path = recorder.finalize()
            print(f"[obs] run recorded: {path}")
        return 0

    from repro.obs.registry import RunRegistry

    registry = RunRegistry(args.runs_dir)
    if args.profile_command == "flame":
        run_dir = registry.resolve(args.run)
        tree = load_profile(run_dir)
        base = Path(args.out) if args.out else Path("artifacts/flame") / run_dir.name
        written = []
        if args.format in ("collapsed", "both"):
            written.append(write_collapsed(tree, base.with_suffix(".collapsed.txt")))
        if args.format in ("speedscope", "both"):
            written.append(
                write_speedscope(
                    tree, base.with_suffix(".speedscope.json"), name=run_dir.name
                )
            )
        for path in written:
            print(f"flamegraph written: {path}")
        return 0
    if args.profile_command == "diff":
        dir_a = registry.resolve(args.run_a)
        dir_b = registry.resolve(args.run_b)
        diff = diff_profiles(load_profile(dir_a), load_profile(dir_b))
        print(
            format_profile_diff(
                diff,
                top=args.top,
                title=f"profile diff {dir_a.name} -> {dir_b.name}",
            )
        )
        if args.check:
            regressed = diff.regressions(
                min_delta_s=args.min_delta_ms * 1e-3, min_pct=args.min_pct
            )
            if regressed:
                print(
                    f"CHECK FAILED: {len(regressed)} span(s) regressed "
                    "beyond thresholds",
                    file=sys.stderr,
                )
                return 1
            print("check OK: no span regressed beyond thresholds")
        return 0
    raise AssertionError(
        f"unhandled profile command {args.profile_command}"
    )  # pragma: no cover


def _json_dumps(doc: dict) -> str:
    import json

    return json.dumps(doc, indent=1)


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.bench.serving import capacity_sweep, check_conformance
    from repro.detectors.registry import detector_entry

    entry = detector_entry(args.detector)  # KeyError -> exit 2 in main()
    n_tx, n_rx = args.mimo
    kwargs = dict(
        n_antennas=n_tx,
        n_rx=n_rx,
        modulation=args.mod,
        snr_db=args.snr,
        stream_counts=tuple(args.streams),
        rate_hz=args.rate,
        duration_s=args.duration,
        slo_ms=args.slo_ms,
        kind=args.detector,
        seed=args.seed,
        profile=args.profile,
        streams_per_block=args.streams_per_block,
        max_batch=args.max_batch,
        max_delay_ms=args.max_delay_ms,
        max_queue=args.max_queue,
        dynamic=args.dynamic,
        service=args.service,
    )
    if args.record:
        from repro.obs import (
            MetricsRegistry,
            RunRegistry,
            Tracer,
            use_metrics,
            use_tracer,
        )

        recorder = RunRegistry(args.runs_dir).new_run(
            "serve-capacity", seed=args.seed, config=dict(kwargs)
        )
        tracer = Tracer()
        metrics = MetricsRegistry()
        metrics.stream = recorder.stream_writer()
        try:
            with use_tracer(tracer), use_metrics(metrics):
                result = capacity_sweep(**kwargs)
        except BaseException:
            metrics.tick(force=True)
            recorder.record_metrics(tracer, metrics)
            recorder.record_trace(tracer)
            recorder.record_profile(tracer)
            recorder.finalize("failed")
            raise
        metrics.tick(force=True)
        recorder.record_series(result.series)
        recorder.record_metrics(tracer, metrics)
        recorder.record_trace(tracer)
        recorder.record_profile(tracer)
        path = recorder.finalize()
        print(result.format())
        print(f"[obs] run recorded: {path}")
    else:
        result = capacity_sweep(**kwargs)
        print(result.format())
    if args.check:
        failures: list[str] = []
        lightest = result.points[0]
        p95_ms = result.series.rows[0]["p95_ms"]
        if p95_ms > args.slo_ms:
            failures.append(
                f"p95 {p95_ms:.3f} ms exceeds the {args.slo_ms:g} ms SLO "
                f"at the lightest point ({lightest.n_streams} streams)"
            )
        if entry.exact and entry.fpga_replayable:
            mismatches = check_conformance(
                lightest, result.kind, result.system
            )
            for line in mismatches[:5]:
                failures.append(f"conformance: {line}")
            if len(mismatches) > 5:
                failures.append(
                    f"conformance: ... {len(mismatches) - 5} more"
                )
        for line in failures:
            print(f"CHECK FAILED: {line}", file=sys.stderr)
        if failures:
            return 1
        print(
            "serve check OK: p95 within SLO at the lightest point"
            + (
                ", served == direct"
                if entry.exact and entry.fpga_replayable
                else ""
            )
        )
    return 0


def _cmd_runs(args: argparse.Namespace) -> int:
    from repro.obs.registry import RunRegistry
    from repro.obs.report import (
        diff_runs,
        format_diff,
        format_report,
        format_run,
        format_run_list,
        load_run,
    )

    registry = RunRegistry(args.runs_dir)
    if args.runs_command == "list":
        print(format_run_list(load_run(p) for p in registry.run_dirs()))
        return 0
    if args.runs_command == "show":
        run = load_run(registry.resolve(args.run))
        print(format_run(run, markdown=args.markdown))
        return 0
    if args.runs_command == "diff":
        run_a = load_run(registry.resolve(args.run_a))
        run_b = load_run(registry.resolve(args.run_b))
        print(format_diff(diff_runs(run_a, run_b), markdown=args.markdown))
        return 0
    if args.runs_command == "report":
        text = format_report(load_run(registry.resolve(args.run)))
        if args.out:
            from pathlib import Path

            out = Path(args.out)
            out.parent.mkdir(parents=True, exist_ok=True)
            out.write_text(text + "\n")
            print(f"report written to {out}")
        else:
            print(text)
        return 0
    raise AssertionError(
        f"unhandled runs command {args.runs_command}"
    )  # pragma: no cover


def _cmd_obs(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from repro.obs.registry import MANIFEST_FILE, STREAM_FILE, RunRegistry
    from repro.obs.stream import (
        follow_stream,
        format_stream_line,
        format_top,
        read_stream,
    )

    registry = RunRegistry(args.runs_dir)
    run_dir = registry.resolve(args.run, include_unfinished=True)
    stream_path = run_dir / STREAM_FILE

    def run_finished() -> bool:
        manifest = run_dir / MANIFEST_FILE
        if not manifest.exists():
            return False
        try:
            status = json.loads(manifest.read_text()).get("status")
        except (OSError, ValueError):
            return False
        return status in ("complete", "failed")

    if args.obs_command == "tail":
        if not args.follow:
            prev = None
            for doc in read_stream(stream_path):
                print(format_stream_line(doc, prev))
                prev = doc
            return 0
        prev = None
        try:
            for doc in follow_stream(
                stream_path, poll_s=args.poll, stop=run_finished
            ):
                print(format_stream_line(doc, prev), flush=True)
                prev = doc
        except KeyboardInterrupt:
            pass
        return 0
    if args.obs_command == "top":
        docs = read_stream(stream_path)
        print(format_top(docs, run=Path(run_dir).name))
        return 0
    raise AssertionError(
        f"unhandled obs command {args.obs_command}"
    )  # pragma: no cover


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "list":
        return _cmd_list()
    if args.command == "detectors":
        return _cmd_detectors(args)
    if args.command == "experiment":
        return _cmd_experiment(args)
    if args.command == "decode":
        return _cmd_decode(args)
    if args.command == "ber":
        return _cmd_ber(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "stats":
        return _cmd_stats(args)
    if args.command == "profile":
        return _cmd_profile(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "runs":
        return _cmd_runs(args)
    if args.command == "obs":
        return _cmd_obs(args)
    raise AssertionError(f"unhandled command {args.command}")  # pragma: no cover


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code.

    Configuration errors (unknown experiment/run ids, malformed
    modulations or geometries) exit with code 2 and a single
    ``error: ...`` line on stderr — no tracebacks for user mistakes.
    """
    from repro.obs.log import configure

    args = build_parser().parse_args(argv)
    configure(args.verbose - args.quiet)
    try:
        return _dispatch(args)
    except (ValueError, KeyError, FileNotFoundError) as exc:
        message = exc.args[0] if exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
