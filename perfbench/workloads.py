"""The benchmark's three workloads: inputs, one timed pass, output checks.

Each workload builds its inputs from the seed before any timing starts,
runs one *pass* over them (the timed unit; ``run.py`` repeats passes
while its time budget allows), and checks the pass's outputs outside
the timed region. A pass is sized in *units* (a set of channel blocks,
a served load trace, a fused block); ``UNIT_COST_S`` is what one unit
costs on the reference host (2-vCPU x86-64 container, OpenBLAS), so
that one pass fills most of ``--seconds`` there.

* ``mc-fig6`` — one Monte Carlo point of Figs. 6/7: 10x10 4-QAM, one
  channel block per unit at each of 4/8/12/16/20 dB, 4 frames per
  block, the canonical ``sd`` kind (sorted DFS, trace recording on).
  Each block runs ``spec()`` + ``prepare``; each frame runs ``detect``,
  an error count and three pricings (FPGA baseline and optimized
  ``decode_report``, ``CPUCostModel.decode_seconds``), as
  ``repro.bench.harness.time_rows`` prices a sweep. The block seeds
  follow ``MonteCarloEngine``'s seed tree, so a pass decodes exactly the
  frames of ``MonteCarloEngine(channels=units, frames_per_channel=4)``,
  one unit (a block at each SNR) after another.
* ``serve-6x6`` — served requests: each unit is one Poisson load trace
  (32 streams on 2 channel blocks, 90 Hz per stream, about 60 % of the
  FPGA-optimized service model's capacity) served open-loop in virtual
  time by ``serve_trace`` through a fresh ``DetectionService`` with the
  default ``SchedulerConfig``, with a ``MetricsRegistry`` active.
* ``batch-20x20`` — offline fused detection at Fig. 9's size: 20x20
  4-QAM 12 dB, ``sd-bestfs`` (pool 8, trace recording off), one
  ``decode_batch`` call per 64-frame channel block. The channel
  matrices come from a fixed seed (:data:`BATCH_CHANNEL_SEED`) and the
  workload seed draws the symbols and the noise: with a dozen channels
  drawn per seed, frames/s moved by ~17 % (IQR over median) from seed
  to seed, because one ill-conditioned 20x20 channel costs 4x another.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np

import repro.serve.service as service_mod
from repro.detectors.registry import spec
from repro.fpga.pipeline import FPGAPipeline, PipelineConfig
from repro.mimo.metrics import ErrorCounter
from repro.mimo.system import MIMOSystem
from repro.obs.metrics import MetricsRegistry, use_metrics
from repro.perfmodel import CPUCostModel
from repro.serve import (
    DetectionService,
    LoadGenerator,
    SchedulerConfig,
    conformance_mismatches,
    direct_results,
    fpga_service_model,
)

#: SNR grid of Figs. 6/7 (and every execution-time figure).
FIG6_SNRS = (4.0, 8.0, 12.0, 16.0, 20.0)

#: Seed of the fixed channel set ``batch-20x20`` decodes.
BATCH_CHANNEL_SEED = 2023

#: The paper's real-time bound (section I).
REAL_TIME_MS = 10.0


@dataclass
class Pass:
    """What one pass produced; ``seconds`` is filled in by the timer."""

    frames: int
    blocks: int
    results: list  # DetectionResult per frame, in input order
    frame_times_s: list[float]
    #: ``(frames, seconds)`` of each unit, timed as it ran.
    cells: list[tuple[int, float]]
    #: Host-speed probe seconds before each unit and after the last one.
    probes: list[float]
    seconds: float = 0.0
    extra: dict[str, Any] = field(default_factory=dict)


@dataclass
class Checked:
    """Outcome of the output checks on one pass."""

    attempted: int
    failed: int
    notes: list[str]


def _digest(results) -> str:
    """SHA-1 over every decision and metric, in frame order."""
    h = hashlib.sha1()
    for res in results:
        h.update(np.ascontiguousarray(res.indices, dtype=np.int64).tobytes())
        h.update(np.float64(res.metric).tobytes())
    return h.hexdigest()


def _search_counts(results) -> dict[str, int]:
    """Exact ``DecodeStats`` totals over a pass."""
    totals = dict.fromkeys(
        (
            "nodes_expanded",
            "nodes_generated",
            "nodes_pruned",
            "leaves_reached",
            "radius_updates",
            "gemm_calls",
            "gemm_flops",
        ),
        0,
    )
    truncated = 0
    for res in results:
        st = res.stats
        for key in totals:
            totals[key] += getattr(st, key)
        truncated += st.truncated > 0
    totals["truncated_frames"] = truncated
    return totals


def _decision_failures(results, truths, channels, order):
    """``(frame, reason)`` for decisions malformed or worse than the truth.

    Every kind the workloads run is exact, so an untruncated decision
    can never have a larger metric than the transmitted vector (the ML
    point is at least as close as any candidate). ``truths`` (the
    transmitted vector's metric) and ``channels`` are per frame.
    """
    failed = []
    for f, (res, truth, channel) in enumerate(zip(results, truths, channels)):
        idx = np.asarray(res.indices)
        if (
            idx.shape != (channel.shape[1],)
            or idx.min() < 0
            or idx.max() >= order
            or not np.isfinite(res.metric)
        ):
            failed.append((f, "malformed decision"))
        elif res.stats.truncated == 0 and res.metric > truth * (1 + 1e-9) + 1e-12:
            failed.append((f, f"metric {res.metric!r} > truth {truth!r}"))
    return failed


def _truth_metric(received, channel, symbols) -> float:
    residual = received - channel @ symbols
    return float(np.real(np.vdot(residual, residual)))


# ---------------------------------------------------------------------------
# mc-fig6
# ---------------------------------------------------------------------------


class McFig6:
    name = "mc-fig6"
    telemetry = False
    frames_per_block = 4
    #: One unit = one 4-frame block at each SNR (20 frames).
    UNIT_COST_S = 0.25

    def build(self, seed: int, units: int):
        system = MIMOSystem(10, 10, "4qam")
        order = system.constellation.order
        n = system.n_tx
        state = {
            "system": system,
            "spec": spec("sd", system.constellation),
            "fpga_base": FPGAPipeline(
                PipelineConfig.baseline(order), n_tx=n, n_rx=n, order=order
            ),
            "fpga_opt": FPGAPipeline(
                PipelineConfig.optimized(order), n_tx=n, n_rx=n, order=order
            ),
            "cpu": CPUCostModel(n_rx=n),
        }
        by_snr = []
        seqs = np.random.SeedSequence(seed).spawn(len(FIG6_SNRS))
        for snr, seq in zip(FIG6_SNRS, seqs):
            blocks = []
            for bseq in seq.spawn(units):
                rng = np.random.default_rng(bseq)
                channel = system.channel_model.draw_channel(rng)
                frames = [
                    system.random_frame(snr, rng, channel=channel)
                    for _ in range(self.frames_per_block)
                ]
                blocks.append((snr, channel, frames))
            by_snr.append(blocks)
        # Unit u is block u of every SNR point.
        state["units"] = [list(unit) for unit in zip(*by_snr)]
        return state

    def fresh(self, state) -> None:
        """Nothing carries over between passes."""

    def run_pass(self, state, ids: dict, probe) -> Pass:
        perf = time.perf_counter
        system, make = state["system"], state["spec"]
        fpga_base, fpga_opt, cpu = (
            state["fpga_base"], state["fpga_opt"], state["cpu"]
        )
        results, times, cells, probes, reports, cpu_s = [], [], [], [], [], []
        errors = {snr: ErrorCounter() for snr in FIG6_SNRS}
        block = 0
        for unit in state["units"]:
            probes.append(probe())
            started = perf()
            for snr, channel, frames in unit:
                ids.clear()
                ids["block"] = block
                block += 1
                counter = errors[snr]
                detector = make()
                detector.prepare(channel, noise_var=system.noise_var(snr))
                for fr in frames:
                    ids["frame"] = len(results)
                    t0 = perf()
                    result = detector.detect(fr.received)
                    times.append(perf() - t0)
                    counter.update(
                        fr.bits, result.bits, fr.symbol_indices, result.indices
                    )
                    stats = result.stats
                    reports.append(
                        (
                            fpga_base.decode_report(stats),
                            fpga_opt.decode_report(stats),
                        )
                    )
                    cpu_s.append(cpu.decode_seconds(stats))
                    results.append(result)
            cells.append(
                (len(unit) * self.frames_per_block, perf() - started)
            )
        probes.append(probe())
        ids.clear()
        return Pass(
            frames=len(results),
            blocks=block,
            results=results,
            frame_times_s=times,
            cells=cells,
            probes=probes,
            extra={"errors": errors, "reports": reports, "cpu_s": cpu_s},
        )

    def counts(self, state, p: Pass) -> dict:
        out = _search_counts(p.results)
        reports = p.extra["reports"]
        out["priced_events"] = 2 * sum(len(r.stats.batches) for r in p.results)
        out["fpga_base_cycles"] = sum(base.total_cycles for base, _ in reports)
        out["fpga_opt_cycles"] = sum(opt.total_cycles for _, opt in reports)
        out["cpu_model_s"] = float(sum(p.extra["cpu_s"]))
        errors = p.extra["errors"].values()
        out["bit_errors"] = sum(c.bit_errors for c in errors)
        out["bits"] = sum(c.bits for c in errors)
        out["decisions_sha1"] = _digest(p.results)
        return out

    def check(self, state, p: Pass) -> Checked:
        truths, channels = [], []
        for _snr, channel, frames in (b for u in state["units"] for b in u):
            for fr in frames:
                truths.append(_truth_metric(fr.received, channel, fr.symbols))
                channels.append(channel)
        order = state["system"].constellation.order
        failed = dict(_decision_failures(p.results, truths, channels, order))
        for f, (base, opt) in enumerate(p.extra["reports"]):
            for rep in (base, opt):
                if sum(rep.stage_breakdown().values()) != rep.total_cycles:
                    failed.setdefault(f, f"{rep.config_name} stages != total")
        notes = [
            "decisions in range with finite metrics",
            "no untruncated decision worse than the transmitted vector",
            "every priced stage_breakdown() sums to total_cycles",
        ]
        notes += [f"frame {f}: {why}" for f, why in sorted(failed.items())[:5]]
        return Checked(attempted=p.frames, failed=len(failed), notes=notes)

    def extra_metrics(self, state, p: Pass) -> dict:
        reports = p.extra["reports"]
        opt_s = sum(opt.seconds for _, opt in reports)
        return {
            "fpga_us_per_frame": (opt_s / p.frames * 1e6, "us", "modelled"),
        }


# ---------------------------------------------------------------------------
# serve-6x6
# ---------------------------------------------------------------------------


class Serve6x6:
    name = "serve-6x6"
    telemetry = True
    n_streams = 32
    rate_hz = 90.0
    #: Virtual seconds per load trace: short traces, so that a pass
    #: spreads its frames over many channel draws.
    trace_s = 0.125
    #: Traces re-decoded frame by frame by the conformance check.
    conformance_every = 4
    snr_db = 12.0
    #: One unit = one load trace (~360 frames).
    UNIT_COST_S = 0.33

    def build(self, seed: int, units: int):
        system = MIMOSystem(6, 6, "4qam")
        order = system.constellation.order
        pipeline = FPGAPipeline(
            PipelineConfig.optimized(order),
            n_tx=system.n_tx,
            n_rx=system.n_rx,
            order=order,
        )
        trace_seeds = np.random.SeedSequence(seed).generate_state(units)
        traces = [
            LoadGenerator(
                system,
                n_streams=self.n_streams,
                rate_hz=self.rate_hz,
                duration_s=self.trace_s,
                snr_db=self.snr_db,
                seed=int(s),
                channel_blocks=2,
            ).trace()
            for s in trace_seeds
        ]
        state = {
            "system": system,
            "spec": spec("sd", system.constellation),
            "model": fpga_service_model(pipeline),
            "traces": traces,
        }
        self.fresh(state)
        return state

    def fresh(self, state) -> None:
        """New services (clean scheduler clocks and reorder buffers) and a
        new registry for the next pass."""
        state["services"] = [
            DetectionService(
                state["spec"],
                config=SchedulerConfig(),
                service_model=state["model"],
            )
            for _ in state["traces"]
        ]
        state["registry"] = MetricsRegistry()

    def run_pass(self, state, ids: dict, probe) -> Pass:
        perf = time.perf_counter
        reports, cells, probes = [], [], []
        with use_metrics(state["registry"]):
            for k, (trace, service) in enumerate(
                zip(state["traces"], state["services"])
            ):
                ids["trace"] = k
                probes.append(probe())
                started = perf()
                report = service_mod.serve_trace(service, trace)
                cells.append((report.accepted, perf() - started))
                reports.append(report)
        probes.append(probe())
        ids.clear()
        results = [fr.result for rep in reports for fr in rep.results]
        return Pass(
            frames=len(results),
            blocks=2 * len(reports),
            results=results,
            # serve_trace makes the decode calls, so the per-frame time is
            # the program's own timer (a fused batch's share per frame).
            frame_times_s=[res.stats.wall_time_s for res in results],
            cells=cells,
            probes=probes,
            extra={"reports": reports, "registry": state["registry"]},
        )

    @staticmethod
    def _served(p: Pass):
        return [fr for rep in p.extra["reports"] for fr in rep.results]

    def serve_summary(self, p: Pass) -> dict:
        """Deterministic (modelled) serving figures of one pass."""
        reports = p.extra["reports"]
        served = self._served(p)
        offered = sum(rep.offered for rep in reports)
        rejected = sum(rep.rejected for rep in reports)
        batches = sum(rep.n_batches for rep in reports)
        # A rejected frame misses every latency limit.
        latency = np.array(
            [fr.latency_s for fr in served] + [np.inf] * rejected
        )
        busy = sum(fr.service_s / fr.batch_size for fr in served)
        makespan = sum(rep.duration_s for rep in reports)
        waits = np.array([fr.queue_wait_s for fr in served])
        service = np.array([fr.service_s for fr in served])
        return {
            "offered": offered,
            "rejected": rejected,
            "batches": batches,
            "latency_p50_ms": float(np.percentile(latency, 50)) * 1e3,
            "latency_p99_ms": float(np.percentile(latency, 99)) * 1e3,
            "slo_attainment": float(np.mean(latency <= REAL_TIME_MS / 1e3)),
            "queue_wait_p50_ms": float(np.percentile(waits, 50)) * 1e3,
            "queue_wait_p99_ms": float(np.percentile(waits, 99)) * 1e3,
            "service_p50_ms": float(np.percentile(service, 50)) * 1e3,
            "batch_fill": len(served) / batches,
            "modelled_util": busy / makespan,
        }

    def counts(self, state, p: Pass) -> dict:
        out = _search_counts(p.results)
        sent = [fr.request.payload.sent_bits for fr in self._served(p)]
        out["bit_errors"] = sum(
            int(np.count_nonzero(res.bits != bits))
            for res, bits in zip(p.results, sent)
        )
        out["bits"] = sum(bits.size for bits in sent)
        out["priced_events"] = sum(len(res.stats.batches) for res in p.results)
        summary = self.serve_summary(p)
        for key in ("offered", "rejected", "batches"):
            out[key] = summary[key]
        for key in ("latency_p50_ms", "latency_p99_ms", "modelled_util"):
            out[key] = summary[key]
        out["decisions_sha1"] = _digest(p.results)
        return out

    def check(self, state, p: Pass) -> Checked:
        const = state["system"].constellation
        # Failed frames keyed by (trace, "(stream, seq)"), the key format
        # conformance_mismatches starts its lines with.
        failed: dict[tuple[int, str], str] = {}
        attempted = 0
        for k, (trace, rep) in enumerate(zip(state["traces"], p.extra["reports"])):
            attempted += trace.n_events
            truths, channels, keys = [], [], []
            for fr in rep.results:
                event = fr.request.payload
                channel = trace.channels[event.channel_id][0]
                symbols = const.map_indices(event.sent_indices)
                truths.append(_truth_metric(event.received, channel, symbols))
                channels.append(channel)
                keys.append(str((event.stream_id, event.seq)))
            results = [fr.result for fr in rep.results]
            for f, why in _decision_failures(results, truths, channels, const.order):
                failed.setdefault((k, keys[f]), why)
            if k % self.conformance_every == 0:
                oracle = direct_results(state["spec"], trace)
                for line in conformance_mismatches(rep, oracle):
                    failed.setdefault((k, line.split(": ", 1)[0]), line)
            for n in range(trace.n_events - len(rep.results)):
                failed[(k, f"unserved {n}")] = "rejected or lost"
        notes = [
            "decisions in range with finite metrics",
            "no untruncated decision worse than the transmitted vector",
            f"served == direct per-frame detect, bit for bit "
            f"(every {self.conformance_every}th trace)",
            "no frame rejected or lost",
            "registry serve.frames / traversal.nodes_expanded == DecodeStats",
        ]
        counters = p.extra["registry"].snapshot().counters
        served = sum(v for (name, _), v in counters.items() if name == "serve.frames")
        nodes = sum(
            v for (name, _), v in counters.items()
            if name == "traversal.nodes_expanded"
        )
        expected = sum(res.stats.nodes_expanded for res in p.results)
        if served != len(p.results) or nodes != expected:
            failed[(-1, "registry")] = (
                f"registry serve.frames {served} vs {len(p.results)}, "
                f"nodes {nodes} vs {expected}"
            )
        notes += [
            f"trace {k} {key}: {why}" for (k, key), why in list(failed.items())[:5]
        ]
        return Checked(attempted=attempted, failed=len(failed), notes=notes)

    def extra_metrics(self, state, p: Pass) -> dict:
        s = self.serve_summary(p)
        return {
            "latency_p50_ms": (s["latency_p50_ms"], "ms", "modelled"),
            "latency_p99_ms": (s["latency_p99_ms"], "ms", "modelled"),
            "slo_attainment": (s["slo_attainment"], "fraction", "modelled"),
        }


# ---------------------------------------------------------------------------
# batch-20x20
# ---------------------------------------------------------------------------


class Batch20x20:
    name = "batch-20x20"
    telemetry = False
    frames_per_block = 64
    snr_db = 12.0
    #: One unit = one 64-frame block.
    UNIT_COST_S = 1.6

    def build(self, seed: int, units: int):
        system = MIMOSystem(20, 20, "4qam")
        channel_seqs = np.random.SeedSequence(BATCH_CHANNEL_SEED).spawn(units)
        frame_seqs = np.random.SeedSequence(seed).spawn(units)
        blocks = []
        for cseq, fseq in zip(channel_seqs, frame_seqs):
            channel = system.channel_model.draw_channel(np.random.default_rng(cseq))
            rng = np.random.default_rng(fseq)
            frames = [
                system.random_frame(self.snr_db, rng, channel=channel)
                for _ in range(self.frames_per_block)
            ]
            blocks.append(
                (channel, np.stack([fr.received for fr in frames]), frames)
            )
        return {
            "system": system,
            "spec": spec(
                "sd-bestfs", system.constellation, pool_size=8, record_trace=False
            ),
            "noise_var": system.noise_var(self.snr_db),
            "blocks": blocks,
        }

    def fresh(self, state) -> None:
        """Nothing carries over between passes."""

    def run_pass(self, state, ids: dict, probe) -> Pass:
        perf = time.perf_counter
        make, noise_var = state["spec"], state["noise_var"]
        results, times, cells, probes = [], [], [], []
        for b, (channel, received, _frames) in enumerate(state["blocks"]):
            ids["block"] = b
            probes.append(probe())
            started = perf()
            detector = make()
            detector.prepare(channel, noise_var=noise_var)
            t0 = perf()
            decoded = detector.decode_batch(received)
            done = perf()
            times.extend([(done - t0) / len(decoded)] * len(decoded))
            cells.append((len(decoded), done - started))
            results.extend(decoded)
        probes.append(probe())
        ids.clear()
        return Pass(
            frames=len(results),
            blocks=len(state["blocks"]),
            results=results,
            frame_times_s=times,
            cells=cells,
            probes=probes,
        )

    def counts(self, state, p: Pass) -> dict:
        out = _search_counts(p.results)
        errors = bits = 0
        f = 0
        for _channel, _received, frames in state["blocks"]:
            for fr in frames:
                errors += int(np.count_nonzero(p.results[f].bits != fr.bits))
                bits += fr.bits.size
                f += 1
        out["bit_errors"] = errors
        out["bits"] = bits
        out["decisions_sha1"] = _digest(p.results)
        return out

    def check(self, state, p: Pass) -> Checked:
        order = state["system"].constellation.order
        truths, channels = [], []
        for channel, _received, frames in state["blocks"]:
            for fr in frames:
                truths.append(_truth_metric(fr.received, channel, fr.symbols))
                channels.append(channel)
        failed = dict(_decision_failures(p.results, truths, channels, order))
        blocks = state["blocks"]
        # The first and last blocks are re-decoded frame by frame.
        sample = sorted({0, len(blocks) - 1})
        for b in sample:
            channel, received, _frames = blocks[b]
            detector = state["spec"]()
            detector.prepare(channel, noise_var=state["noise_var"])
            for i, row in enumerate(received):
                f = b * self.frames_per_block + i
                direct = detector.detect(row)
                fused = p.results[f]
                if not (
                    np.array_equal(direct.indices, fused.indices)
                    and np.array_equal(direct.bits, fused.bits)
                    and direct.metric == fused.metric
                ):
                    failed.setdefault(f, "fused != per-frame detect")
        notes = [
            "decisions in range with finite metrics",
            "no untruncated decision worse than the transmitted vector",
            f"blocks {sample}: fused == per-frame detect, bit for bit",
        ]
        notes += [f"frame {f}: {why}" for f, why in sorted(failed.items())[:5]]
        return Checked(attempted=p.frames, failed=len(failed), notes=notes)

    def extra_metrics(self, state, p: Pass) -> dict:
        return {}


WORKLOADS = {w.name: w for w in (McFig6(), Serve6x6(), Batch20x20())}
