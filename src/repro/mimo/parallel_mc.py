"""Process-sharded Monte Carlo sweeps (frame-parallel BER simulation).

The serial :class:`~repro.mimo.montecarlo.MonteCarloEngine` decodes
channel blocks one after another. This module shards those blocks across
a :class:`~concurrent.futures.ProcessPoolExecutor` while keeping the
result **bit-identical** to the serial sweep for the same master seed:

* Seeding is reproduced exactly: the same
  ``SeedSequence(seed).spawn(len(snrs))`` / ``seq.spawn(channels)``
  tree the serial loop walks is built up front, and each shard ships the
  ``SeedSequence`` objects of its contiguous block range. Every block
  therefore draws from the identical generator stream no matter which
  worker runs it.
* Shards are contiguous ``[start, stop)`` block ranges dispatched in
  chunks (:func:`plan_chunks`), and outcomes are merged in ascending
  ``shard_id`` order — so concatenated per-frame stats, radius traces
  and error counters reproduce the serial frame order exactly.
  ``tests/test_parallel_mc.py`` enforces the equivalence.
* Telemetry crosses the process boundary explicitly: the parent's
  observability state rides into each shard as a
  :class:`~repro.obs.tracer.TraceContext` (contextvars themselves do
  not cross processes). Workers rebuild a tracer against the parent's
  clock epoch — stamping events with their OS pid — and a metrics
  registry, and flush both through the same manager queue as
  :class:`ShardTelemetry` messages after every block *and* from the
  crash path, so a dying shard still ships its partial trace. The
  parent absorbs them live: the merged Chrome trace renders one lane
  per worker process, aligned with the parent's ``mc.heartbeat``
  instants, and the parent registry's totals (and its attached metrics
  stream) advance block by block. Workers also report per-block
  :class:`BlockProgress`, from which the parent emits ``mc.heartbeat``
  instants carrying the sourcing shard id and a per-shard-aware ETA
  (the max of pool-throughput extrapolation and the slowest started
  shard's own pace), honouring ``heartbeat_every``.

Failure forensics: a worker that raises writes a full traceback to
``crash_dir`` (``REPRO_MC_CRASH_DIR`` or the engine's ``crash_dir``)
before re-raising, so CI can upload crash logs as artifacts even though
the parent only sees the pickled exception.
"""

from __future__ import annotations

import logging
import math
import os
import time
import traceback
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field, replace
from multiprocessing import Manager
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from repro.detectors.base import DecodeStats, Detector
from repro.mimo.metrics import ErrorCounter
from repro.mimo.system import MIMOSystem
from repro.obs.log import get_logger
from repro.obs.metrics import (
    MetricsRegistry,
    MetricsSnapshot,
    current_metrics,
    reset_metrics,
    set_metrics,
)
from repro.obs.tracer import (
    TraceContext,
    TraceEvent,
    Tracer,
    current_tracer,
    reset_tracer,
    set_tracer,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.mimo.montecarlo import MonteCarloEngine, SweepResult

DetectorFactory = Callable[[], Detector]

_log = get_logger(__name__)

#: Default shards per worker: small enough to amortise process start-up,
#: large enough that a slow shard cannot serialise the tail of the sweep.
CHUNKS_PER_WORKER = 4


def plan_chunks(
    n_blocks: int,
    workers: int,
    chunk_blocks: int | None = None,
) -> list[tuple[int, int]]:
    """Contiguous ``[start, stop)`` block ranges for one SNR point.

    Deterministic in its inputs (no dependence on worker timing): the
    same ``(n_blocks, workers, chunk_blocks)`` always yields the same
    plan, which is what makes shard merging reproducible. When
    ``chunk_blocks`` is ``None`` the chunk size targets
    ``workers * CHUNKS_PER_WORKER`` shards per point.
    """
    if n_blocks <= 0:
        raise ValueError(f"n_blocks must be positive, got {n_blocks}")
    if workers <= 0:
        raise ValueError(f"workers must be positive, got {workers}")
    if chunk_blocks is None:
        chunk_blocks = max(1, math.ceil(n_blocks / (workers * CHUNKS_PER_WORKER)))
    elif chunk_blocks <= 0:
        raise ValueError(f"chunk_blocks must be positive, got {chunk_blocks}")
    return [
        (start, min(start + chunk_blocks, n_blocks))
        for start in range(0, n_blocks, chunk_blocks)
    ]


@dataclass(frozen=True)
class ShardSpec:
    """One contiguous run of channel blocks belonging to one SNR point."""

    shard_id: int
    point_index: int
    snr_db: float
    block_start: int
    block_stop: int
    #: The exact per-block ``SeedSequence`` objects the serial loop would
    #: have used for blocks ``[block_start, block_stop)``.
    seed_seqs: tuple[np.random.SeedSequence, ...]
    #: Parent observability state (trailing, defaulted: existing shard
    #: construction and pickles stay valid). ``None`` = unobserved.
    telemetry: TraceContext | None = None

    @property
    def n_blocks(self) -> int:
        return self.block_stop - self.block_start


@dataclass(frozen=True)
class ShardTelemetry:
    """Telemetry flush a worker posts alongside its progress messages.

    Carries the worker tracer's drained events (already stamped with the
    worker pid, timed against the parent's epoch) plus the worker
    registry's drained metrics delta. Separate from
    :class:`BlockProgress` so unobserved sweeps ship zero extra bytes.
    """

    shard_id: int
    pid: int
    events: tuple[TraceEvent, ...] = ()
    metrics: MetricsSnapshot | None = None


@dataclass(frozen=True)
class BlockProgress:
    """Per-block progress message a worker posts to the parent's queue."""

    point_index: int
    snr_db: float
    shard_id: int
    frames: int
    bit_errors: int
    bits: int
    nodes_expanded: int
    decode_time_s: float


@dataclass
class ShardOutcome:
    """Aggregated result of one shard, merged by the parent in id order."""

    shard_id: int
    point_index: int
    counter: ErrorCounter
    frame_stats: list[DecodeStats] = field(default_factory=list)
    #: Sum of the shard's block decode times.
    decode_time_s: float = 0.0
    frames: int = 0


@dataclass(frozen=True)
class _ShardConfig:
    """Picklable, shard-invariant worker configuration."""

    system: MIMOSystem
    factory: DetectorFactory
    frames_per_channel: int
    keep_traces: bool
    batch_frames: bool
    crash_dir: str | None


def _write_crash_log(crash_dir: str, spec: ShardSpec, exc: BaseException) -> None:
    try:
        directory = Path(crash_dir)
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / f"shard-{spec.shard_id:04d}.log"
        path.write_text(
            f"shard {spec.shard_id} (snr {spec.snr_db} dB, blocks "
            f"[{spec.block_start}, {spec.block_stop})) failed in pid "
            f"{os.getpid()}\n\n"
            + "".join(traceback.format_exception(exc)),
            encoding="utf-8",
        )
    except OSError:  # pragma: no cover - forensics must never mask the error
        pass


def _flush_shard_telemetry(queue, spec: ShardSpec, tracer, metrics) -> None:
    """Drain the worker's tracer/metrics and post one flush message.

    Skips empty flushes; swallows queue failures (telemetry must never
    mask the shard's result or its crash).
    """
    if queue is None or (tracer is None and metrics is None):
        return
    events = tuple(tracer.drain()) if tracer is not None else ()
    snap = metrics.drain() if metrics is not None else None
    if not events and (snap is None or snap.empty):
        return
    try:
        queue.put(
            ShardTelemetry(
                shard_id=spec.shard_id,
                pid=os.getpid(),
                events=events,
                metrics=snap,
            )
        )
    except Exception:  # pragma: no cover - manager teardown race
        pass


def _run_shard(spec: ShardSpec, config: _ShardConfig, queue) -> ShardOutcome:
    """Worker entry point: run one shard's blocks and report progress.

    Runs in a separate process. When the spec carries a
    :class:`~repro.obs.tracer.TraceContext`, a worker-local tracer
    (parent epoch, this pid) and metrics registry are installed as the
    ambient observability for the shard's blocks, and both are flushed
    back through ``queue`` after every block — and from the crash path,
    so a partial trace of a dying shard still reaches the parent. Any
    exception is written to ``config.crash_dir`` before propagating.
    """
    from repro.mimo.montecarlo import _run_block

    ctx = spec.telemetry
    tracer = metrics = None
    tracer_token = metrics_token = None
    if ctx is not None and ctx.trace_enabled:
        tracer = Tracer(epoch=ctx.epoch, pid=os.getpid())
        tracer_token = set_tracer(tracer)
    if ctx is not None and ctx.metrics_enabled:
        metrics = MetricsRegistry()
        metrics_token = set_metrics(metrics)
    try:
        outcome = ShardOutcome(
            shard_id=spec.shard_id,
            point_index=spec.point_index,
            counter=ErrorCounter(),
        )
        for seed_seq in spec.seed_seqs:
            rng = np.random.default_rng(seed_seq)
            counter, stats, decode_s = _run_block(
                config.system,
                config.factory,
                spec.snr_db,
                config.frames_per_channel,
                rng,
                config.keep_traces,
                batch_frames=config.batch_frames,
            )
            outcome.counter = outcome.counter.merge(counter)
            outcome.frame_stats.extend(stats)
            outcome.decode_time_s += decode_s
            outcome.frames += config.frames_per_channel
            if queue is not None:
                queue.put(
                    BlockProgress(
                        point_index=spec.point_index,
                        snr_db=spec.snr_db,
                        shard_id=spec.shard_id,
                        frames=config.frames_per_channel,
                        bit_errors=counter.bit_errors,
                        bits=counter.bits,
                        nodes_expanded=sum(
                            st.nodes_expanded for st in stats
                        ),
                        decode_time_s=decode_s,
                    )
                )
            _flush_shard_telemetry(queue, spec, tracer, metrics)
        return outcome
    except BaseException as exc:
        # Partial-trace flush first: the crash log and the re-raise must
        # not lose whatever the shard observed before dying.
        _flush_shard_telemetry(queue, spec, tracer, metrics)
        if config.crash_dir:
            _write_crash_log(config.crash_dir, spec, exc)
        raise
    finally:
        if metrics_token is not None:
            reset_metrics(metrics_token)
        if tracer_token is not None:
            reset_tracer(tracer_token)


@dataclass
class _ShardProgress:
    """Parent-side per-shard progress (feeds the ETA and the lag gauges)."""

    blocks_total: int
    blocks_done: int = 0
    decode_time_s: float = 0.0


@dataclass
class _PointProgress:
    """Parent-side live accumulator for one SNR point's heartbeats."""

    snr_db: float
    blocks_total: int
    blocks_done: int = 0
    frames: int = 0
    bit_errors: int = 0
    bits: int = 0
    nodes_expanded: int = 0
    decode_time_s: float = 0.0
    #: Per-shard progress for this point's shards (shard_id keyed).
    shards: dict[int, _ShardProgress] = field(default_factory=dict)

    @property
    def ber(self) -> float:
        return self.bit_errors / self.bits if self.bits else float("nan")

    def eta_s(self, elapsed: float) -> float:
        """Remaining-wall estimate from **per-shard** progress.

        The max of two estimates: pool-throughput extrapolation
        (remaining blocks at the observed aggregate rate — tight when
        shards progress evenly) and the slowest *started* shard's own
        pace over its own remaining blocks (the straggler tail the
        aggregate misses — one shard at 10 % done bounds the point's
        finish no matter how fast the rest are going). NaN until the
        first block lands.
        """
        if not self.blocks_done or elapsed <= 0:
            return float("nan")
        remaining = self.blocks_total - self.blocks_done
        pool_eta = elapsed / self.blocks_done * remaining
        tail_eta = 0.0
        for shard in self.shards.values():
            if shard.blocks_done and shard.blocks_done < shard.blocks_total:
                shard_eta = (
                    elapsed
                    / shard.blocks_done
                    * (shard.blocks_total - shard.blocks_done)
                )
                tail_eta = max(tail_eta, shard_eta)
        return max(pool_eta, tail_eta)


def _emit_heartbeat(
    tracer,
    progress: _PointProgress,
    *,
    workers: int,
    wall_started: float,
    shard_id: int | None = None,
) -> None:
    """Parent-side ``mc.heartbeat`` with the serial engine's payload.

    Same keys as :meth:`MonteCarloEngine._heartbeat` plus ``workers``
    and ``shard`` (the shard whose block report triggered this re-emit);
    the ETA comes from :meth:`_PointProgress.eta_s` — per-shard-aware,
    so one straggling shard is reflected honestly (documented in
    ``docs/observability.md``).
    """
    if not tracer.enabled and not _log.isEnabledFor(logging.INFO):
        return
    elapsed = time.perf_counter() - wall_started
    eta_s = progress.eta_s(elapsed)
    nodes_per_s = (
        progress.nodes_expanded / progress.decode_time_s
        if progress.decode_time_s
        else 0.0
    )
    _log.info(
        "mc heartbeat %.1f dB: block %d/%d (shard %s), %d frames, "
        "ber=%.3g, %.0f nodes/s, eta %.1f s (%d workers)",
        progress.snr_db,
        progress.blocks_done,
        progress.blocks_total,
        "?" if shard_id is None else shard_id,
        progress.frames,
        progress.ber,
        nodes_per_s,
        eta_s,
        workers,
    )
    tracer.instant(
        "mc.heartbeat",
        snr_db=progress.snr_db,
        blocks_done=progress.blocks_done,
        blocks_total=progress.blocks_total,
        frames=progress.frames,
        ber=progress.ber,
        nodes_per_s=nodes_per_s,
        eta_s=eta_s,
        workers=workers,
        shard=shard_id,
    )


def plan_shards(
    snrs: Sequence[float],
    seed: int | None,
    channels: int,
    *,
    workers: int,
    chunk_blocks: int | None = None,
) -> list[ShardSpec]:
    """Build the full shard plan for a sweep, point-major in block order.

    Walks exactly the seeding tree the serial engine walks —
    ``SeedSequence(seed).spawn(len(snrs))`` then ``seq.spawn(channels)``
    per point — so each shard carries the serial per-block streams.
    """
    seqs = np.random.SeedSequence(seed).spawn(len(snrs))
    shards: list[ShardSpec] = []
    for point_index, (snr_db, seq) in enumerate(zip(snrs, seqs)):
        block_seqs = seq.spawn(channels)
        for start, stop in plan_chunks(channels, workers, chunk_blocks):
            shards.append(
                ShardSpec(
                    shard_id=len(shards),
                    point_index=point_index,
                    snr_db=float(snr_db),
                    block_start=start,
                    block_stop=stop,
                    seed_seqs=tuple(block_seqs[start:stop]),
                )
            )
    return shards


def run_sweep_sharded(
    engine: "MonteCarloEngine",
    detector_factory: DetectorFactory,
    snrs: Sequence[float],
    *,
    workers: int,
    detector_name: str | None = None,
) -> "SweepResult":
    """Run the engine's sweep with blocks sharded over a process pool.

    Bit-identical to ``engine.run(..., n_workers=1)`` in every decode
    outcome: BERs, per-frame stats (except ``wall_time_s``), node
    counts and traces. ``detector_factory`` must be picklable.
    """
    from repro.mimo.montecarlo import SnrPoint, SweepResult

    snr_list = [float(s) for s in snrs]
    if not snr_list:
        raise ValueError("snrs must be non-empty")
    tracer = current_tracer()
    metrics = current_metrics()
    shards = plan_shards(
        snr_list,
        engine.seed,
        engine.channels,
        workers=workers,
        chunk_blocks=engine.chunk_blocks,
    )
    ctx = TraceContext.capture()
    if ctx is not None:
        # plan_shards stays a pure function of the seeding tree; the
        # observability payload is attached afterwards.
        shards = [replace(spec, telemetry=ctx) for spec in shards]
    config = _ShardConfig(
        system=engine.system,
        factory=detector_factory,
        frames_per_channel=engine.frames_per_channel,
        keep_traces=engine.keep_traces,
        batch_frames=engine.batch_frames,
        crash_dir=str(engine.crash_dir) if engine.crash_dir else None,
    )
    progress = {
        i: _PointProgress(snr_db=snr_db, blocks_total=engine.channels)
        for i, snr_db in enumerate(snr_list)
    }
    for spec in shards:
        progress[spec.point_index].shards[spec.shard_id] = _ShardProgress(
            blocks_total=spec.n_blocks
        )
    if metrics.enabled:
        blocks_total_gauge = metrics.gauge("mc.shard.blocks_total")
        for spec in shards:
            blocks_total_gauge.set(spec.n_blocks, shard=str(spec.shard_id))
    outcomes: dict[int, ShardOutcome] = {}
    wall_started = time.perf_counter()

    def drain(queue) -> None:
        while True:
            try:
                msg = queue.get_nowait()
            except Exception:  # queue.Empty via the manager proxy
                return
            if isinstance(msg, ShardTelemetry):
                if tracer.enabled:
                    tracer.absorb(msg.events)
                if metrics.enabled and msg.metrics is not None:
                    metrics.merge_snapshot(msg.metrics)
                    metrics.tick()
                continue
            p = progress[msg.point_index]
            p.blocks_done += 1
            p.frames += msg.frames
            p.bit_errors += msg.bit_errors
            p.bits += msg.bits
            p.nodes_expanded += msg.nodes_expanded
            p.decode_time_s += msg.decode_time_s
            shard = p.shards.get(msg.shard_id)
            if shard is not None:
                shard.blocks_done += 1
                shard.decode_time_s += msg.decode_time_s
                if metrics.enabled:
                    metrics.gauge("mc.shard.blocks_done").set(
                        shard.blocks_done, shard=str(msg.shard_id)
                    )
            if (
                engine.heartbeat_every
                and p.blocks_done % engine.heartbeat_every == 0
            ):
                _emit_heartbeat(
                    tracer,
                    p,
                    workers=workers,
                    wall_started=wall_started,
                    shard_id=msg.shard_id,
                )

    with Manager() as manager:
        queue = manager.Queue()
        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                futures = {
                    pool.submit(_run_shard, spec, config, queue): spec
                    for spec in shards
                }
                pending = set(futures)
                while pending:
                    done, pending = wait(
                        pending, timeout=0.1, return_when=FIRST_COMPLETED
                    )
                    drain(queue)
                    for future in done:
                        outcome = future.result()  # re-raises worker crashes
                        outcomes[outcome.shard_id] = outcome
        finally:
            # Also on the crash path: absorb whatever telemetry (incl. a
            # dying shard's partial flush) reached the queue before the
            # manager goes down, so failed runs keep their trace.
            drain(queue)
            metrics.tick(force=True)

    points: list[SnrPoint] = []
    for point_index, snr_db in enumerate(snr_list):
        with tracer.span(
            "mc.point", snr_db=snr_db, workers=workers, sharded=True
        ):
            point = SnrPoint(snr_db=snr_db, errors=ErrorCounter())
            for shard_id in sorted(outcomes):
                outcome = outcomes[shard_id]
                if outcome.point_index != point_index:
                    continue
                point.errors = point.errors.merge(outcome.counter)
                point.frame_stats.extend(outcome.frame_stats)
                point.decode_time_s += outcome.decode_time_s
                point.frames += outcome.frames
        _log.info(
            "mc point %.1f dB: ber=%.3g over %d frames (%.3f s decode, "
            "%d workers)",
            snr_db,
            point.ber,
            point.frames,
            point.decode_time_s,
            workers,
        )
        points.append(point)
    probe = detector_factory()
    return SweepResult(
        detector_name=detector_name or probe.name,
        system_label=repr(engine.system),
        points=points,
    )
