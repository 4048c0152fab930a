"""Monte Carlo link-level simulation engine.

Reproduces the paper's methodology (section IV-A): "the testing data set
is randomly generated using Monte Carlo simulations to emulate the MIMO
system". For each SNR point the engine draws block-fading channel
realisations, runs a number of frames through each, and accumulates error
counters plus the detector's :class:`~repro.detectors.base.DecodeStats`
(the work traces later consumed by the FPGA/CPU/GPU time models).

Work is optionally sharded over processes (``workers > 1``, via
:mod:`repro.mimo.parallel_mc`): every channel block owns its own
``SeedSequence``-derived generator, so results are bit-identical to the
serial sweep for the same master seed regardless of worker count.
Frames within a block can additionally be decoded as one fused batch
(``batch_frames=True``) on detectors exposing ``decode_batch`` — also
bit-identical, just a different GEMM schedule.
"""

from __future__ import annotations

import logging
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from repro.detectors.base import BatchTrace, DecodeStats, Detector
from repro.mimo.metrics import ErrorCounter
from repro.mimo.system import MIMOSystem
from repro.obs.log import get_logger
from repro.obs.metrics import current_metrics
from repro.obs.tracer import current_tracer
from repro.util.timing import Timer
from repro.util.validation import check_positive_int

DetectorFactory = Callable[[], Detector]

_log = get_logger(__name__)


@dataclass
class SnrPoint:
    """Aggregated Monte Carlo outcome at one SNR.

    ``decode_time_s`` sums the point's block decode times, serially and
    across shards alike; each frame's own time is its
    ``DecodeStats.wall_time_s``.
    """

    snr_db: float
    errors: ErrorCounter
    frame_stats: list[DecodeStats] = field(default_factory=list)
    decode_time_s: float = 0.0
    frames: int = 0

    @property
    def ber(self) -> float:
        """Bit error rate at this SNR."""
        return self.errors.ber

    @property
    def mean_decode_time_s(self) -> float:
        """Mean wall-clock decode time per frame (this host, not the FPGA)."""
        return self.decode_time_s / self.frames if self.frames else float("nan")

    def aggregate_stats(self) -> DecodeStats:
        """Sum of all per-frame search statistics at this point."""
        total = DecodeStats()
        for st in self.frame_stats:
            total = total.merge(st)
        return total

    def mean_nodes_expanded(self) -> float:
        """Average tree nodes expanded per frame (NaN for linear detectors)."""
        if not self.frame_stats:
            return float("nan")
        return float(
            np.mean([st.nodes_expanded for st in self.frame_stats])
        )


@dataclass
class SweepResult:
    """Result of an SNR sweep for one detector."""

    detector_name: str
    system_label: str
    points: list[SnrPoint]

    @property
    def snrs_db(self) -> np.ndarray:
        """SNR grid of the sweep."""
        return np.array([p.snr_db for p in self.points])

    @property
    def bers(self) -> np.ndarray:
        """BER at each SNR point."""
        return np.array([p.errors.ber for p in self.points])

    def point_at(self, snr_db: float) -> SnrPoint:
        """The :class:`SnrPoint` matching ``snr_db`` exactly."""
        for p in self.points:
            if p.snr_db == snr_db:
                return p
        raise KeyError(f"no point at {snr_db} dB in sweep {self.detector_name}")


def _run_block(
    system: MIMOSystem,
    factory: DetectorFactory,
    snr_db: float,
    frames: int,
    rng: np.random.Generator,
    keep_traces: bool,
    *,
    batch_frames: bool = False,
) -> tuple[ErrorCounter, list[DecodeStats], float]:
    """Run ``frames`` transmissions over one fresh channel realisation.

    Returns the block's error counter, its per-frame stats and its
    decode seconds (the timer encloses every ``detect``). With
    ``batch_frames`` the block's frames are drawn up front (the
    generator stream is identical — detectors consume no randomness) and
    decoded in one ``decode_batch`` call. Decisions are bit-identical
    either way; only the per-frame ``wall_time_s`` changes, to an even
    share of the batch's time.
    """
    detector = factory()
    counter = ErrorCounter()
    stats: list[DecodeStats] = []
    tracer = current_tracer()
    timer = Timer()
    with tracer.span("mc.block", snr_db=snr_db, frames=frames):
        channel = system.channel_model.draw_channel(rng)
        detector.prepare(channel, noise_var=system.noise_var(snr_db))
        if batch_frames:
            drawn = [
                system.random_frame(snr_db, rng, channel=channel)
                for _ in range(frames)
            ]
            received = np.stack([frame.received for frame in drawn])
            with timer:
                results = detector.decode_batch(received)
            frame_results = zip(drawn, results)
        else:
            def _detect_serially():
                for _ in range(frames):
                    frame = system.random_frame(snr_db, rng, channel=channel)
                    with tracer.span("mc.frame", snr_db=snr_db):
                        with timer:
                            result = detector.detect(frame.received)
                    yield frame, result

            frame_results = _detect_serially()
        for frame, result in frame_results:
            counter.update(
                frame.bits, result.bits, frame.symbol_indices, result.indices
            )
            if result.stats is not None:
                st = result.stats
                if not keep_traces:
                    st.batches = BatchTrace()
                stats.append(st)
    metrics = current_metrics()
    if metrics.enabled:
        _record_block_metrics(
            metrics, snr_db, frames, counter, stats, timer.elapsed
        )
    return counter, stats, timer.elapsed


def _record_block_metrics(
    metrics, snr_db, frames, counter, stats, decode_s
) -> None:
    """Fold one channel block's outcome into the labelled counters.

    Runs in whichever process decoded the block (the worker, in sharded
    mode — its registry drains back to the parent per block), and ticks
    the registry's live stream at block cadence.
    """
    snr = format(snr_db, "g")
    metrics.counter("mc.blocks").inc(1, snr=snr)
    metrics.counter("mc.frames").inc(frames, snr=snr)
    metrics.counter("mc.bits").inc(counter.bits, snr=snr)
    metrics.counter("mc.bit_errors").inc(counter.bit_errors, snr=snr)
    metrics.counter("mc.nodes_expanded").inc(
        sum(st.nodes_expanded for st in stats), snr=snr
    )
    metrics.counter("mc.decode_seconds").inc(decode_s, snr=snr)
    metrics.tick()


class MonteCarloEngine:
    """Drives BER / workload sweeps over an SNR grid.

    Parameters
    ----------
    system:
        The MIMO link to simulate.
    channels:
        Block-fading channel realisations per SNR point.
    frames_per_channel:
        Received vectors decoded per channel realisation.
    seed:
        Root seed; all randomness derives from it reproducibly.
    keep_traces:
        Keep the per-expansion :class:`BatchTrace` in the stats (needed
        by the FPGA pipeline simulator; disable to save memory on very
        long BER runs).
    heartbeat_every:
        Emit a live progress heartbeat every N channel blocks: an INFO
        log line and, under an enabled tracer, an ``mc.heartbeat``
        instant event carrying frames done, running BER, nodes/s and the
        point's ETA. ``0`` disables heartbeats. With ``workers > 1``
        the workers report per-block progress over a queue and the
        parent emits the same events (plus a ``workers`` field).
    workers:
        Default process count for :meth:`run`. ``1`` decodes serially in
        this process; ``N > 1`` shards channel blocks over a process
        pool (:mod:`repro.mimo.parallel_mc`) with bit-identical results
        for the same seed.
    batch_frames:
        Decode each block's frames as one fused batch via the detector's
        ``decode_batch`` (bit-identical; falls back to the per-frame
        loop for detectors without one).
    chunk_blocks:
        Blocks per shard when sharding (``None``: auto, see
        :func:`repro.mimo.parallel_mc.plan_chunks`).
    crash_dir:
        Directory where crashing workers write tracebacks before the
        error propagates (default: the ``REPRO_MC_CRASH_DIR``
        environment variable, if set).
    """

    def __init__(
        self,
        system: MIMOSystem,
        *,
        channels: int = 10,
        frames_per_channel: int = 10,
        seed: int | None = 0,
        keep_traces: bool = True,
        heartbeat_every: int = 1,
        workers: int = 1,
        batch_frames: bool = False,
        chunk_blocks: int | None = None,
        crash_dir: str | Path | None = None,
    ) -> None:
        self.system = system
        self.channels = check_positive_int(channels, "channels")
        self.frames_per_channel = check_positive_int(
            frames_per_channel, "frames_per_channel"
        )
        self.seed = seed
        self.keep_traces = keep_traces
        if heartbeat_every < 0:
            raise ValueError("heartbeat_every must be >= 0")
        self.heartbeat_every = heartbeat_every
        self.workers = check_positive_int(workers, "workers")
        self.batch_frames = batch_frames
        self.chunk_blocks = (
            None
            if chunk_blocks is None
            else check_positive_int(chunk_blocks, "chunk_blocks")
        )
        if crash_dir is None:
            crash_dir = os.environ.get("REPRO_MC_CRASH_DIR") or None
        self.crash_dir = crash_dir

    def _heartbeat(
        self,
        tracer,
        point: SnrPoint,
        *,
        blocks_done: int,
        wall_started: float,
    ) -> None:
        """One live progress event for a long-running SNR point.

        Cheap by construction: runs once per channel *block* (hundreds
        of decodes), and skips all arithmetic when neither the logging
        channel nor the tracer would observe it.
        """
        if not tracer.enabled and not _log.isEnabledFor(logging.INFO):
            return
        elapsed = time.perf_counter() - wall_started
        remaining = self.channels - blocks_done
        eta_s = elapsed / blocks_done * remaining if blocks_done else float("nan")
        nodes = sum(st.nodes_expanded for st in point.frame_stats)
        nodes_per_s = nodes / point.decode_time_s if point.decode_time_s else 0.0
        _log.info(
            "mc heartbeat %.1f dB: block %d/%d, %d frames, ber=%.3g, "
            "%.0f nodes/s, eta %.1f s",
            point.snr_db,
            blocks_done,
            self.channels,
            point.frames,
            point.ber,
            nodes_per_s,
            eta_s,
        )
        tracer.instant(
            "mc.heartbeat",
            snr_db=point.snr_db,
            blocks_done=blocks_done,
            blocks_total=self.channels,
            frames=point.frames,
            ber=point.ber,
            nodes_per_s=nodes_per_s,
            eta_s=eta_s,
        )

    def run(
        self,
        detector_factory: DetectorFactory,
        snrs_db: Sequence[float],
        *,
        n_workers: int | None = None,
        detector_name: str | None = None,
    ) -> SweepResult:
        """Sweep the SNR grid and return aggregated results.

        ``detector_factory`` is called once per channel block (so each
        block gets a fresh detector — important for process workers); it
        must be picklable when work is sharded over workers.
        ``n_workers`` overrides the engine's ``workers`` default; any
        value above 1 delegates to
        :func:`repro.mimo.parallel_mc.run_sweep_sharded`, which is
        bit-identical to the serial path for the same seed.
        """
        snrs = [float(s) for s in snrs_db]
        if not snrs:
            raise ValueError("snrs_db must be non-empty")
        if n_workers is None:
            n_workers = self.workers
        n_workers = check_positive_int(n_workers, "n_workers")
        if n_workers > 1:
            # NOTE: contextvars don't cross process boundaries, so worker
            # blocks run untraced; the parent still emits mc.point spans
            # and queue-fed mc.heartbeat instants (see parallel_mc).
            from repro.mimo.parallel_mc import run_sweep_sharded

            return run_sweep_sharded(
                self,
                detector_factory,
                snrs,
                workers=n_workers,
                detector_name=detector_name,
            )
        tracer = current_tracer()
        seqs = np.random.SeedSequence(self.seed).spawn(len(snrs))
        points: list[SnrPoint] = []
        for snr_db, seq in zip(snrs, seqs):
            block_seqs = seq.spawn(self.channels)
            point = SnrPoint(snr_db=snr_db, errors=ErrorCounter())
            wall_started = time.perf_counter()
            with tracer.span("mc.point", snr_db=snr_db):
                for block_index, bseq in enumerate(block_seqs, start=1):
                    rng = np.random.default_rng(bseq)
                    counter, stats, decode_s = _run_block(
                        self.system,
                        detector_factory,
                        snr_db,
                        self.frames_per_channel,
                        rng,
                        self.keep_traces,
                        batch_frames=self.batch_frames,
                    )
                    point.errors = point.errors.merge(counter)
                    point.frame_stats.extend(stats)
                    point.decode_time_s += decode_s
                    point.frames += self.frames_per_channel
                    if (
                        self.heartbeat_every
                        and block_index % self.heartbeat_every == 0
                    ):
                        self._heartbeat(
                            tracer,
                            point,
                            blocks_done=block_index,
                            wall_started=wall_started,
                        )
            _log.info(
                "mc point %.1f dB: ber=%.3g over %d frames (%.3f s decode)",
                snr_db,
                point.ber,
                point.frames,
                point.decode_time_s,
            )
            points.append(point)
        # End-of-sweep flush so the live stream always carries the final
        # totals even when the last block landed inside the throttle
        # interval (no-op without an attached stream).
        current_metrics().tick(force=True)
        probe = detector_factory()
        return SweepResult(
            detector_name=detector_name or probe.name,
            system_label=repr(self.system),
            points=points,
        )
