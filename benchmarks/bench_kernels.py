"""Micro-benchmarks of the hot kernels (repeated-measurement timings).

These are the classic pytest-benchmark entries: statistically meaningful
timings of the operations the decode loop lives in — useful when tuning
the NumPy implementation (the guides' "no optimisation without
measuring").

Besides the pytest-benchmark entries, this module doubles as a
standalone traversal-throughput reporter::

    PYTHONPATH=src python benchmarks/bench_kernels.py [--json OUT.json]

which times full decodes per strategy and pool size and emits
nodes-expanded-per-second figures — the numbers the leaf-first scalar
loops (Best-FS at pools 1/8/64, sorted DFS and its metric/lattice
variants) are judged by (see ``EXPERIMENTS.md``).
"""

import argparse
import json
import time

import numpy as np

from repro.core.gemm import ChannelKernel
from repro.core.radius import NoiseScaledRadius, babai_point
from repro.core.traversal import extend_paths
from repro.detectors.sphere import SphereDecoder
from repro.detectors.sd_bfs import GemmBfsDecoder
from repro.mimo.constellation import Constellation
from repro.mimo.preprocessing import effective_receive, qr_decompose, sorted_qr
from repro.mimo.system import MIMOSystem


def _fixture(n=10, modulation="4qam", snr_db=8.0, seed=0):
    system = MIMOSystem(n, n, modulation)
    frame = system.random_frame(snr_db, np.random.default_rng(seed))
    return system, frame


def bench_qr_decompose(benchmark):
    _, frame = _fixture(n=20)
    benchmark(qr_decompose, frame.channel)


def bench_sorted_qr(benchmark):
    _, frame = _fixture(n=20)
    benchmark(sorted_qr, frame.channel)


def bench_babai_point(benchmark):
    system, frame = _fixture(n=20)
    qr = qr_decompose(frame.channel)
    ybar = effective_receive(qr, frame.received)
    benchmark(babai_point, qr.r, ybar, system.constellation)


def bench_gemm_expand_pool64(benchmark):
    """One batched evaluation of 64 nodes x 16 children (the BLAS-3 core)."""
    system, frame = _fixture(n=10, modulation="16qam")
    qr = qr_decompose(frame.channel)
    ybar = effective_receive(qr, frame.received)
    kernel = ChannelKernel(qr.r, system.constellation)
    rng = np.random.default_rng(0)
    pool = rng.integers(0, 16, size=(64, 5)).astype(np.int64)
    pds = rng.uniform(0, 1, 64)
    benchmark(kernel.expand, 4, pool, pds, ybar[4])


def bench_decode_10x10_4qam_8db(benchmark):
    """Full per-vector decode with the canonical configuration."""
    system, frame = _fixture(n=10, snr_db=8.0)
    decoder = SphereDecoder(
        system.constellation,
        strategy="dfs",
        radius_policy=NoiseScaledRadius(alpha=2.0),
        record_trace=False,
    )
    decoder.prepare(frame.channel, noise_var=frame.noise_var)
    benchmark(decoder.detect, frame.received)


def bench_decode_bestfirst_pooled(benchmark):
    """Best-FS with pool batching (the GEMM-friendly variant)."""
    system, frame = _fixture(n=10, snr_db=8.0)
    decoder = SphereDecoder(
        system.constellation, strategy="best-first", pool_size=16, record_trace=False
    )
    decoder.prepare(frame.channel, noise_var=frame.noise_var)
    benchmark(decoder.detect, frame.received)


def bench_decode_linf_10x10_8db(benchmark):
    """Full decode under the ℓ∞ partial-distance metric (compare kernel)."""
    system, frame = _fixture(n=10, snr_db=8.0)
    decoder = SphereDecoder(
        system.constellation,
        strategy="dfs",
        radius_policy=NoiseScaledRadius(alpha=2.0),
        metric="linf",
        record_trace=False,
    )
    decoder.prepare(frame.channel, noise_var=frame.noise_var)
    benchmark(decoder.detect, frame.received)


def bench_decode_real_reordered_10x10_8db(benchmark):
    """Full decode on the interleaved (reordered) real lattice."""
    system, frame = _fixture(n=10, snr_db=8.0)
    decoder = SphereDecoder(
        system.constellation,
        strategy="dfs",
        radius_policy=NoiseScaledRadius(alpha=2.0),
        lattice="real-reordered",
        record_trace=False,
    )
    decoder.prepare(frame.channel, noise_var=frame.noise_var)
    benchmark(decoder.detect, frame.received)


def bench_bfs_sweep_12db(benchmark):
    """One level-synchronous BFS decode (the GPU baseline's workload)."""
    system, frame = _fixture(n=10, snr_db=12.0)
    decoder = GemmBfsDecoder(
        system.constellation,
        radius_policy=NoiseScaledRadius(alpha=4.0),
        max_frontier=2**17,
        record_trace=False,
    )
    decoder.prepare(frame.channel, noise_var=frame.noise_var)
    benchmark(decoder.detect, frame.received)


def bench_constellation_slicing(benchmark):
    const = Constellation.qam(16)
    rng = np.random.default_rng(0)
    values = rng.standard_normal(4096) + 1j * rng.standard_normal(4096)
    benchmark(const.nearest_indices, values)


def bench_extend_paths_frontier(benchmark):
    """One BFS-level survivor-path extension at a 4096-node frontier."""
    rng = np.random.default_rng(2)
    paths = rng.integers(0, 16, size=(4096, 5)).astype(np.int64)
    keep_n = rng.integers(0, 4096, 8192)
    keep_c = rng.integers(0, 16, 8192)
    benchmark(extend_paths, paths, keep_n, keep_c)


# ----------------------------------------------------------------------
# Standalone traversal-throughput reporter (JSON for EXPERIMENTS.md)
# ----------------------------------------------------------------------

#: Best-FS pool sizes the throughput report sweeps (pure best-first,
#: the default pool, and a BFS-scale pool).
TRAVERSAL_POOL_SIZES = (1, 8, 64)


def _decode_throughput(
    strategy,
    pool_size,
    *,
    n=10,
    snr_db=8.0,
    repeats=5,
    metric="l2",
    lattice="complex",
):
    """Best-of-``repeats`` nodes/s for one full-decode configuration."""
    system, frame = _fixture(n=n, snr_db=snr_db)
    kwargs = {"record_trace": False, "metric": metric, "lattice": lattice}
    if strategy == "best-first":
        kwargs["pool_size"] = pool_size
    else:
        kwargs["radius_policy"] = NoiseScaledRadius(alpha=2.0)
    decoder = SphereDecoder(system.constellation, strategy=strategy, **kwargs)
    decoder.prepare(frame.channel, noise_var=frame.noise_var)
    best = 0.0
    nodes = 0
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = decoder.detect(frame.received)
        dt = time.perf_counter() - t0
        nodes = result.stats.nodes_expanded
        best = max(best, nodes / dt if dt > 0 else 0.0)
    return {"nodes_expanded": int(nodes), "nodes_per_sec": best}


def traversal_report(repeats=5):
    """Nodes/s per (strategy, pool size) — the refactor's scoreboard."""
    entries = {}
    for b in TRAVERSAL_POOL_SIZES:
        entries[f"best-first/pool{b}"] = _decode_throughput(
            "best-first", b, repeats=repeats
        )
    entries["dfs"] = _decode_throughput("dfs", 1, repeats=repeats)
    # The evaluation-layer axes: ℓ∞ compare kernel and the interleaved
    # real lattice, both on the DFS reference configuration.
    entries["dfs/linf"] = _decode_throughput(
        "dfs", 1, repeats=repeats, metric="linf"
    )
    entries["dfs/real-reordered"] = _decode_throughput(
        "dfs", 1, repeats=repeats, lattice="real-reordered"
    )
    rates = [e["nodes_per_sec"] for e in entries.values()]
    return {
        "schema": 1,
        "workload": "10x10 4-QAM @ 8 dB, single frame, best of repeats",
        "repeats": repeats,
        "entries": entries,
        "mean_nodes_per_sec": float(np.mean(rates)),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="traversal throughput microbenchmark (nodes/s per strategy)"
    )
    parser.add_argument(
        "--json", type=str, default=None, metavar="PATH",
        help="also write the report as JSON",
    )
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args(argv)
    report = traversal_report(repeats=args.repeats)
    width = max(len(k) for k in report["entries"])
    print(f"workload: {report['workload']}")
    for name, entry in report["entries"].items():
        print(
            f"  {name.ljust(width)}  {entry['nodes_per_sec']:12,.0f} nodes/s"
            f"  ({entry['nodes_expanded']} nodes)"
        )
    print(f"  {'mean'.ljust(width)}  {report['mean_nodes_per_sec']:12,.0f} nodes/s")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(report, fh, indent=1)
        print(f"report written to {args.json}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
