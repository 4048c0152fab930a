"""A guided tour of the FPGA accelerator model (paper section III).

Decodes one frame, then walks the decode trace through the pipeline
simulator, showing:

* the per-module cycle breakdown (branch / prefetch+GEMM / NORM / prune),
* what each of the paper's optimisations buys (double buffering, II=1
  GEMM, specialised control) on the *same* trace,
* the resource bill of the design (Table I's estimator) and the MST's
  occupancy for this decode.

Run:  python examples/fpga_pipeline_walkthrough.py
"""

from dataclasses import replace

import numpy as np

from repro import MIMOSystem, NoiseScaledRadius, SphereDecoder
from repro.fpga import (
    FPGAPipeline,
    MetaStateTable,
    PipelineConfig,
    estimate_resources,
)
from repro.fpga.prefetch import PrefetchUnit
from repro.fpga.resources import mst_capacity


def main() -> None:
    system = MIMOSystem(10, 10, "4qam")
    frame = system.random_frame(6.0, np.random.default_rng(1))
    decoder = SphereDecoder(
        system.constellation,
        strategy="dfs",
        radius_policy=NoiseScaledRadius(alpha=2.0),
    )
    decoder.prepare(frame.channel, noise_var=frame.noise_var)
    stats = decoder.detect(frame.received).stats
    print(
        f"decode trace: {len(stats.batches)} expansion batches, "
        f"{stats.nodes_generated} children, {stats.radius_updates} radius updates\n"
    )

    # --- per-module cycle breakdown on the optimised pipeline ---------
    opt = PipelineConfig.optimized(4)
    pipe = FPGAPipeline(opt, n_tx=10, n_rx=10, order=4)
    report = pipe.decode_report(stats)
    print(f"optimized pipeline @ {opt.freq_mhz:g} MHz -> {report.milliseconds:.3f} ms")
    for module, cycles in sorted(report.breakdown.items(), key=lambda kv: -kv[1]):
        print(f"  {module:<10} {cycles:>10,} cycles")
    print(f"  host->HBM staging is {report.transfer_fraction * 100:.2f}% (paper: <3%)\n")

    # --- optimisation ablation on the same trace ----------------------
    variants = {
        "optimized (all on)": opt,
        "- double buffering": replace(
            opt, prefetch=PrefetchUnit(double_buffered=False, hbm_channels=4)
        ),
        "- dataflow overlap": replace(opt, dataflow_overlap=False),
        "- specialised control": replace(opt, control_overhead_cycles=96),
        "baseline (direct port)": PipelineConfig.baseline(4),
    }
    print("what each optimisation buys (same workload):")
    for name, config in variants.items():
        ms = FPGAPipeline(config, n_tx=10, n_rx=10, order=4).decode_report(
            stats
        ).milliseconds
        print(f"  {name:<24} {ms:8.3f} ms")

    # --- resource bill (Table I estimator) ----------------------------
    print("\nresource bill (10x10, % of Alveo U280):")
    for order in (4, 16):
        rep = estimate_resources(PipelineConfig.optimized(order), order=order)
        util = rep.utilization()
        cells = ", ".join(f"{k} {v * 100:.1f}%" for k, v in util.items())
        dup = "fits twice" if rep.can_duplicate() else "single pipeline only"
        print(f"  optimized {order:>2}-QAM: {cells}  ({dup})")

    # --- MST occupancy -------------------------------------------------
    capacity = mst_capacity(4, optimized=True)
    mst = MetaStateTable(n_levels=10, capacity=capacity)
    peak = max(stats.batches.pools)
    print(
        f"\nMST: provisioned {capacity} slots/level "
        f"({mst.storage_bits(10, 4) / 8 / 1024:.0f} KiB total); this decode "
        f"generated {stats.nodes_generated} nodes, peak list {stats.max_list_size}, "
        f"peak batch {peak} — comfortably within capacity."
    )


if __name__ == "__main__":
    main()
