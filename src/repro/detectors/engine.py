"""Detector shell around :class:`repro.core.traversal.TraversalEngine`.

Every tree-search detector in the zoo is the same machine: QR-prepare a
channel, map each received vector into the triangular domain, run a
search policy on the channel's partial-distance kernel, and fold the
winning path back to antenna order. :class:`EngineDetector` implements that shell
once — the constructor, ``prepare`` / ``detect`` / ``solve`` /
``decode_batch``, obs spans and registry series, per-frame wall-time
accounting — and the concrete detectors
(:class:`~repro.detectors.sphere.SphereDecoder`,
:class:`~repro.detectors.partitioned.PartitionedSphereDecoder`,
:class:`~repro.detectors.sd_bfs.GemmBfsDecoder`,
:class:`~repro.detectors.kbest.KBestDecoder`,
:class:`~repro.detectors.fsd.FixedComplexityDecoder`) only build their
policy and pass it on. Presets such as Geosphere or the real-lattice
decoders are registry entries over :class:`SphereDecoder`.

A consequence the registry relies on: every engine detector gets
``decode_batch`` (cross-frame fused GEMMs for the BFS/K-best/FSD
sweeps, frame by frame for the leaf-first Best-FS, sorted DFS and
partitioned search) and emits the uniform
:class:`~repro.core.stats.BatchTrace` the FPGA pipeline simulator
prices.
"""

from __future__ import annotations

import numpy as np

from repro.core.gemm import ChannelKernel
from repro.core.lattice import LatticeRepresentation, resolve_lattice
from repro.core.metric import PartialDistanceMetric
from repro.core.radius import RadiusPolicy
from repro.core.traversal import TraversalEngine, TraversalPolicy
from repro.detectors.base import DecodeStats, DetectionResult, Detector
from repro.mimo.constellation import Constellation
from repro.mimo.preprocessing import (
    QRResult,
    effective_receive,
    qr_decompose,
    sorted_qr,
)
from repro.obs.metrics import current_metrics, exponential_buckets, inc_each
from repro.obs.tracer import current_tracer
from repro.util.timing import Timer
from repro.util.validation import check_finite, check_in


#: Column orderings of the QR step: plain QR or sorted QR (SQRD).
ORDERINGS = ("natural", "sqrd")

#: Buckets for the frontier-peak histogram: frontier sizes are node
#: counts, so edges run 1, 2, 4, ... ~=1M rather than the default
#: seconds-scaled buckets.
FRONTIER_BUCKETS = exponential_buckets(1.0, 2.0, 21)


class _DetectorSeries:
    """The registry series a detector writes, bound once per registry
    and detector name (:meth:`MetricsRegistry.bundle`).

    Every series is bound with ``labels(...)``, so a flush builds no
    label key.
    """

    def __init__(self, metrics, detector: str) -> None:
        counter, histogram = metrics.counter, metrics.histogram
        #: ``detector.frames`` and the six ``traversal.*`` counters, in
        #: the order :meth:`EngineDetector._flush_traversal_metrics`
        #: writes them.
        self.counts = tuple(
            counter(name).labels(detector=detector)
            for name in (
                "detector.frames",
                "traversal.nodes_expanded",
                "traversal.expansions",
                "traversal.nodes_generated",
                "traversal.nodes_pruned",
                "traversal.leaves_reached",
                "traversal.gemm_flops",
            )
        )
        self.seconds = histogram("detector.decode_seconds").labels(detector=detector)
        self.frontier = histogram(
            "traversal.frontier_peak", edges=FRONTIER_BUCKETS
        ).labels(detector=detector)


class EngineDetector(Detector):
    """Shared two-phase shell for traversal-engine detectors.

    The one constructor of every tree-search detector: the concrete
    classes build their :class:`TraversalPolicy` from their own keywords
    and pass it on. The metric, the lattice and the search alphabet are
    resolved here, and the :class:`TraversalEngine` is built once, so
    a bad argument raises at construction.

    Parameters
    ----------
    constellation:
        Symbol alphabet.
    policy:
        The search schedule.
    radius_policy:
        Initial-radius strategy of the radius-driven policies (Best-FS,
        DFS, BFS); ``None`` for K-best and FSD, which consult none.
    ordering:
        Column ordering for the QR step: ``"natural"`` (plain QR) or
        ``"sqrd"`` (sorted QR).
    metric:
        Partial-distance metric (name or instance) threaded to the
        channel kernel, the flop accounting and the radius policy.
    lattice:
        Lattice representation the search runs over (name or instance).
    record_trace:
        Keep the per-expansion :class:`~repro.core.stats.BatchTrace`.

    A NaN or Inf in the channel, the noise variance or a received
    vector raises :class:`~repro.util.validation.NonFiniteInputError`
    before any search starts (``prepare``, ``detect``, ``decode_batch``).
    """

    #: Prefix of every span this detector emits (``sd``, ``bfs``…).
    trace_root = "sd"

    def __init__(
        self,
        constellation: Constellation,
        policy: TraversalPolicy,
        *,
        radius_policy: RadiusPolicy | None = None,
        ordering: str = "natural",
        metric: str | PartialDistanceMetric = "l2",
        lattice: str | LatticeRepresentation = "complex",
        record_trace: bool = True,
    ) -> None:
        self.constellation = constellation
        self.policy = policy
        self.ordering = check_in(ordering, "ordering", ORDERINGS)
        self.lattice = resolve_lattice(lattice)
        self.engine = TraversalEngine(
            self.lattice.search_constellation(constellation),
            policy,
            radius_policy=radius_policy,
            metric=metric,
            record_trace=record_trace,
        )
        self._prepared = False

    def _detect_span_args(self) -> dict:
        return {"detector": self.name}

    def _check_channel(self, channel: np.ndarray) -> None:
        """Subclass hook for extra channel validation (e.g. FSD's rho)."""

    # ------------------------------------------------------------------
    # Detector protocol
    # ------------------------------------------------------------------

    def prepare(self, channel: np.ndarray, noise_var: float = 0.0) -> None:
        channel = self._checked_channel(channel, noise_var)
        self._check_channel(channel)
        self._channel = channel
        # The lattice representation decides which system the QR (and
        # therefore the whole tree search) runs on: the complex channel
        # itself, or its 2N x 2M real decomposition. The complex
        # representation is a strict identity — same arrays, same ops.
        search_channel = self.lattice.map_channel(channel)
        self._qr: QRResult = (
            sorted_qr(search_channel)
            if self.ordering == "sqrd"
            else qr_decompose(search_channel)
        )
        # One per-channel kernel for the whole fading block: R is shared
        # by every frame, so triangularity validation and the per-level
        # tables are computed here once instead of per frame — for a
        # leaf-first search, its scalar lookup tables too.
        engine = self.engine
        self._kernel = ChannelKernel(
            self._qr.r, engine.constellation, metric=engine.metric
        )
        if engine.leaf_first:
            self._kernel.scalar_tables()
        self._noise_var = self.lattice.scale_noise(noise_var)
        self._prepared = True

    def detect(self, received: np.ndarray) -> DetectionResult:
        self._require_prepared()
        received = self._checked_received(received)
        series = self._metric_series()
        timer = Timer()
        with current_tracer().span(
            f"{self.trace_root}.detect", **self._detect_span_args()
        ):
            with timer:
                ybar = effective_receive(
                    self._qr, self.lattice.map_received(received)
                )
                incumbent, _bound, stats = self.solve(
                    self._qr.r, ybar, self._noise_var
                )
        stats.wall_time_s = timer.elapsed
        if series is not None:
            self._flush_traversal_metrics(series, [stats], timer.elapsed)
        return self._fold_back(received, incumbent, stats)

    def solve(
        self,
        r: np.ndarray,
        ybar: np.ndarray,
        noise_var: float = 0.0,
    ) -> tuple[np.ndarray, float, DecodeStats]:
        """Decode a pre-triangularised system ``min ||ybar - R s||^2``.

        Lower-level entry point than :meth:`detect`: no QR, no
        permutation handling — useful when the caller owns the
        preprocessing (e.g. the reduced-precision ablation quantises R
        and ybar itself). It writes nothing to the metrics registry:
        :meth:`detect` and :meth:`decode_batch` do.

        Returns ``(indices_by_level, reduced_metric, stats)`` where
        ``indices_by_level[k]`` is the constellation index of level ``k``.
        """
        stats = DecodeStats()
        # Reuse the prepare-time channel kernel only when the caller is
        # decoding against the prepared factor itself (detect does);
        # external callers may pass a different R (e.g. the quantised-R
        # ablation), which gets its own validated kernel.
        kernel = self._kernel if self._prepared and r is self._qr.r else None
        incumbent, bound = self.engine.solve(
            r, ybar, noise_var, stats, current_tracer(), kernel=kernel
        )
        return incumbent, bound, stats

    def decode_batch(self, received: np.ndarray) -> list[DetectionResult]:
        """Decode ``B`` received vectors against the prepared channel.

        All rows are decoded against the *prepared* channel (the
        block-fading assumption), so every frame shares the triangular
        factor. For the sweeps (BFS, K-best, FSD) their same-level
        frontiers stack into single
        :meth:`~repro.core.gemm.ChannelKernel.expand` calls — the
        paper's BLAS-2 -> BLAS-3 refactor applied across frames — with
        each frame's search running its own unmodified schedule in
        lockstep (:func:`~repro.core.lockstep.drive_lockstep`). The
        leaf-first searches (Best-FS, sorted DFS, partitioned) expand a
        node or a few at a time, evaluated by their scalar loops, and
        decode the frames one after another.
        Either way the returned decisions, metrics and per-frame search
        statistics are **bit-identical** to calling :meth:`detect` per
        row; only ``wall_time_s`` differs (the batch's wall time split
        evenly across its frames).
        """
        self._require_prepared()
        received = np.asarray(received)
        if received.ndim != 2 or received.shape[1] != self._channel.shape[0]:
            raise ValueError(
                f"received must have shape (B, {self._channel.shape[0]}), "
                f"got {received.shape}"
            )
        if received.shape[0] == 0:
            return []
        check_finite(received, "received")
        n_frames = received.shape[0]
        series = self._metric_series()
        timer = Timer()
        stats_list = [DecodeStats() for _ in range(n_frames)]
        with current_tracer().span(
            f"{self.trace_root}.decode_batch",
            detector=self.name,
            frames=n_frames,
        ):
            with timer:
                lattice = self.lattice
                ybars = np.stack(
                    [
                        effective_receive(self._qr, lattice.map_received(row))
                        for row in received
                    ]
                )
                outcomes, _info = self.engine.solve_batch(
                    self._qr.r, ybars, self._noise_var, stats_list,
                    kernel=self._kernel,
                )
        per_frame_s = timer.elapsed / n_frames
        if series is not None:
            self._flush_traversal_metrics(series, stats_list, per_frame_s)
        results: list[DetectionResult] = []
        for row, (incumbent, _bound), stats in zip(received, outcomes, stats_list):
            stats.wall_time_s = per_frame_s
            results.append(self._fold_back(row, incumbent, stats))
        return results

    # ------------------------------------------------------------------

    def _metric_series(self) -> _DetectorSeries | None:
        """Series bound for the ambient registry; ``None`` when it is off."""
        metrics = current_metrics()
        if not metrics.enabled:
            return None
        return metrics.bundle(_DetectorSeries, self.name)

    def _flush_traversal_metrics(
        self, series, stats_list, frame_seconds: float
    ) -> None:
        """Copy one ``detect``'s or ``decode_batch``'s counts into the registry.

        The single place a decode's :class:`DecodeStats` reach the
        metrics registry, run once per call after the decode timer has
        stopped: the frame count and six ``traversal.*`` totals, one
        series each per detector (``expansions`` sums ``gemm_calls``;
        per-level work stays readable from ``DecodeStats.batches``).
        Each frame adds one frontier-peak and one ``frame_seconds``
        decode-time observation.
        """
        frontier, seconds = series.frontier, series.seconds
        nodes = exps = generated = pruned = leaves = flops = 0
        for stats in stats_list:
            frontier.observe(stats.max_list_size)
            seconds.observe(frame_seconds)
            nodes += stats.nodes_expanded
            exps += stats.gemm_calls
            generated += stats.nodes_generated
            pruned += stats.nodes_pruned
            leaves += stats.leaves_reached
            flops += stats.gemm_flops
        inc_each(
            series.counts,
            (len(stats_list), nodes, exps, generated, pruned, leaves, flops),
        )

    def _fold_back(
        self,
        received: np.ndarray,
        incumbent: np.ndarray,
        stats: DecodeStats,
    ) -> DetectionResult:
        """Map a tree-level decision back to antenna order + true metric."""
        # ``incumbent`` is indexed by tree level == factorised column;
        # map back to the original antenna order (still in the lattice
        # representation's column layout), then fold real-lattice PAM
        # pairs back to one QAM index per antenna (identity for the
        # complex representation).
        indices = self.lattice.fold_indices(
            self._qr.unpermute(incumbent), self._channel.shape[1],
            self.constellation,
        )
        return self._result(received, indices, stats)
