"""Detector shell around :class:`repro.core.traversal.TraversalEngine`.

Every tree-search detector in the zoo is the same machine: QR-prepare a
channel, map each received vector into the triangular domain, run a
search policy against an evaluation backend, and fold the winning path
back to antenna order. :class:`EngineDetector` implements that shell
once — ``prepare`` / ``detect`` / ``solve`` / ``decode_batch``, obs
spans and registry series, per-frame wall-time accounting — and the concrete
detectors (:class:`~repro.detectors.sphere.SphereDecoder`,
:class:`~repro.detectors.sd_bfs.GemmBfsDecoder`,
:class:`~repro.detectors.geosphere.GeosphereDecoder`,
:class:`~repro.detectors.kbest.KBestDecoder`,
:class:`~repro.detectors.fsd.FixedComplexityDecoder`) reduce to a
policy choice plus a handful of class attributes.

A consequence the registry relies on: every engine detector gets
``decode_batch`` (cross-frame fused GEMMs for the BFS/K-best/FSD
sweeps, frame by frame for the leaf-first Best-FS and sorted DFS) and
emits the uniform
:class:`~repro.core.stats.BatchTrace` the FPGA pipeline simulator
prices — including K-best and FSD, which previously had neither.
"""

from __future__ import annotations

from contextlib import ExitStack

import numpy as np

from repro.core.compiled import resolve_engine, warmup_kernels
from repro.core.gemm import ChannelKernel
from repro.core.lattice import resolve_lattice
from repro.core.metric import resolve_metric
from repro.core.traversal import (
    LevelAccumulator,
    TraversalEngine,
    TraversalPolicy,
    build_engine,
)
from repro.detectors.base import DecodeStats, DetectionResult, Detector
from repro.mimo.preprocessing import (
    QRResult,
    effective_receive,
    qr_decompose,
    sorted_qr,
)
from repro.obs.metrics import current_metrics, exponential_buckets, inc_each
from repro.obs.tracer import current_tracer
from repro.util.timing import Timer
from repro.util.validation import check_in, check_matrix, check_vector


#: Buckets for the frontier-peak histogram: frontier sizes are node
#: counts, so edges run 1, 2, 4, ... ~=1M rather than the default
#: seconds-scaled buckets.
FRONTIER_BUCKETS = exponential_buckets(1.0, 2.0, 21)

#: Per-level ``traversal.*`` counters, in the order the flush writes them.
_LEVEL_COUNTERS = ("nodes_expanded", "expansions", "nodes_generated", "nodes_pruned")


class _DetectorSeries:
    """The registry series a detector writes, bound once per registry
    and detector name (:meth:`MetricsRegistry.bundle`).

    Every series is bound with ``labels(...)``, so a flush builds no
    label key; per-level series are bound the first time a level shows
    up.
    """

    def __init__(self, metrics, detector: str) -> None:
        self.registry, self.detector = metrics, detector
        counter, histogram = metrics.counter, metrics.histogram
        self.frames = counter("detector.frames").labels(detector=detector)
        self.leaves = counter("traversal.leaves_reached").labels(detector=detector)
        self.flops = counter("traversal.gemm_flops").labels(detector=detector)
        self.seconds = histogram("detector.decode_seconds").labels(detector=detector)
        self.frontier = histogram(
            "traversal.frontier_peak", edges=FRONTIER_BUCKETS
        ).labels(detector=detector)
        #: Per tree level, its ``traversal.*`` series in
        #: :data:`_LEVEL_COUNTERS` order.
        self.levels: list[tuple] = []

    def bind_levels(self, n_levels: int) -> list[tuple]:
        """The per-level series of levels ``0 .. n_levels - 1``."""
        levels = self.levels
        for level in range(len(levels), n_levels):
            levels.append(
                tuple(
                    self.registry.counter(f"traversal.{name}").labels(
                        detector=self.detector, level=str(level)
                    )
                    for name in _LEVEL_COUNTERS
                )
            )
        return levels


class EngineDetector(Detector):
    """Shared two-phase shell for traversal-engine detectors.

    Subclasses implement :meth:`_policy` (a fresh
    :class:`TraversalPolicy` built from current instance attributes, so
    post-construction attribute tweaks — e.g. tests setting
    ``decoder.max_nodes`` — keep working) and set the class attributes
    below to fix their trace vocabulary.
    """

    #: Prefix of every span this detector emits (``sd``, ``bfs``…).
    trace_root = "sd"
    #: Extra outer span prefix for re-badged configurations (Geosphere
    #: wraps the inherited ``sd.*`` spans in ``geosphere.*`` ones so its
    #: time stays attributable in mixed-detector traces).
    wrapper_span: str | None = None
    #: Column ordering for the QR step: ``"natural"`` (plain QR) or
    #: ``"sqrd"`` (sorted QR). May be overridden per instance.
    ordering = "natural"
    #: Partial-distance metric (name or instance) threaded to the
    #: evaluators, flop accounting and radius policy. May be overridden
    #: per instance.
    metric = "l2"
    #: Lattice representation the search runs over (name or instance);
    #: applied at :meth:`prepare` time. May be overridden per instance.
    lattice = "complex"
    #: Traversal engine (``"numpy"`` | ``"compiled"``); ``None`` defers
    #: to the ambient default (:func:`repro.core.compiled.use_engine`).
    #: May be overridden per instance or via :meth:`prepare`.
    engine: str | None = None

    constellation = None
    radius_policy = None
    record_trace = True
    #: Per-level accumulator the last :meth:`solve` fed (``None`` when no
    #: registry was live); :meth:`detect` flushes it.
    _level_acc: LevelAccumulator | None = None

    @property
    def engine_name(self) -> str:
        """The engine that will actually run (availability-resolved).

        Resolved fresh on every access: a detector constructed with
        ``engine=None`` follows the ambient default, and a ``"compiled"``
        request degrades to ``"numpy"`` (with one warning) when Numba is
        unavailable — see :func:`repro.core.compiled.resolve_engine`.
        """
        return resolve_engine(self.engine)

    @property
    def metric_obj(self):
        """Resolved :class:`~repro.core.metric.PartialDistanceMetric`."""
        obj = getattr(self, "_metric_obj", None)
        if obj is None:
            obj = self._metric_obj = resolve_metric(self.metric)
        return obj

    @property
    def lattice_rep(self):
        """Resolved :class:`~repro.core.lattice.LatticeRepresentation`."""
        rep = getattr(self, "_lattice_rep", None)
        if rep is None:
            rep = self._lattice_rep = resolve_lattice(self.lattice)
        return rep

    @property
    def search_constellation(self):
        """Alphabet enumerated per tree level (PAM under real lattices)."""
        const = getattr(self, "_search_const", None)
        if const is None:
            const = self._search_const = self.lattice_rep.search_constellation(
                self.constellation
            )
        return const

    def _resolve_axes(self) -> None:
        """Eagerly resolve the metric/lattice axes.

        Called by subclass constructors so misconfiguration — an unknown
        name, or a real lattice over a non-square-QAM alphabet — fails
        at construction instead of at first ``prepare``.
        """
        self._metric_obj = resolve_metric(self.metric)
        self._lattice_rep = resolve_lattice(self.lattice)
        self._search_const = self._lattice_rep.search_constellation(
            self.constellation
        )

    def _policy(self) -> TraversalPolicy:
        raise NotImplementedError

    def _engine(self) -> TraversalEngine:
        return build_engine(
            self.engine_name,
            self.search_constellation,
            self._policy(),
            radius_policy=self.radius_policy,
            metric=self.metric_obj,
            record_trace=self.record_trace,
        )

    def _detect_span_args(self) -> dict:
        return {"detector": self.name}

    def _check_channel(self, channel: np.ndarray) -> None:
        """Subclass hook for extra channel validation (e.g. FSD's rho)."""

    # ------------------------------------------------------------------
    # Detector protocol
    # ------------------------------------------------------------------

    def prepare(
        self,
        channel: np.ndarray,
        noise_var: float = 0.0,
        *,
        engine: str | None = None,
    ) -> None:
        channel = check_matrix(channel, "channel")
        if noise_var < 0:
            raise ValueError(f"noise_var must be non-negative, got {noise_var}")
        if engine is not None:
            # Pin the engine axis for this detector from here on (the
            # per-prepare override the registry/CLI flow threads down).
            self.engine = check_in(engine, "engine", ("numpy", "compiled"))
        self._check_channel(channel)
        self._channel = channel
        # The lattice representation decides which system the QR (and
        # therefore the whole tree search) runs on: the complex channel
        # itself, or its 2N x 2M real decomposition. The complex
        # representation is a strict identity — same arrays, same ops.
        rep = self.lattice_rep
        search_channel = rep.map_channel(channel)
        self._qr: QRResult = (
            sorted_qr(search_channel)
            if self.ordering == "sqrd"
            else qr_decompose(search_channel)
        )
        # One per-channel kernel for the whole fading block: R is shared
        # by every frame, so triangularity validation and the per-level
        # diag/row tables are computed here once instead of per frame.
        self._kernel = ChannelKernel(
            self._qr.r, self.search_constellation, metric=self.metric_obj
        )
        self._noise_var = rep.scale_noise(noise_var)
        if self.engine_name == "compiled":
            # First-call JIT compilation happens here, outside every
            # timed region (gemm_time_s / benchmarks stay compile-free).
            warmup_kernels()
        self._prepared = True

    def detect(self, received: np.ndarray) -> DetectionResult:
        self._require_prepared()
        received = check_vector(
            received, "received", length=self._channel.shape[0]
        )
        tracer = current_tracer()
        series = self._metric_series()
        timer = Timer()
        with ExitStack() as spans:
            if self.wrapper_span is not None:
                spans.enter_context(tracer.span(f"{self.wrapper_span}.detect"))
            spans.enter_context(
                tracer.span(
                    f"{self.trace_root}.detect", **self._detect_span_args()
                )
            )
            with timer:
                ybar = effective_receive(
                    self._qr, self.lattice_rep.map_received(received)
                )
                incumbent, _bound, stats = self.solve(
                    self._qr.r, ybar, self._noise_var
                )
        stats.wall_time_s = timer.elapsed
        if series is not None:
            self._flush_traversal_metrics(
                series, self._level_acc, [stats], timer.elapsed
            )
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
        tracer = current_tracer()
        # Reuse the prepare-time channel kernel only when the caller is
        # decoding against the prepared factor itself (detect does);
        # external callers may pass a different R (e.g. the quantised-R
        # ablation), which gets its own validated kernel.
        kernel = (
            self._kernel
            if getattr(self, "_prepared", False) and r is self._qr.r
            else None
        )
        engine = self._engine()
        engine.level_acc = self._level_acc = (
            LevelAccumulator(r.shape[1]) if current_metrics().enabled else None
        )
        incumbent, bound = engine.solve(
            r, ybar, noise_var, stats, tracer, kernel=kernel
        )
        return incumbent, bound, stats

    def decode_batch(self, received: np.ndarray) -> list[DetectionResult]:
        """Decode ``B`` received vectors against the prepared channel.

        All rows are decoded against the *prepared* channel (the
        block-fading assumption), so every frame shares the triangular
        factor. For the sweeps (BFS, K-best, FSD) their same-level
        frontiers stack into single
        :class:`~repro.core.gemm.BatchedGemmEvaluator` calls — the
        paper's BLAS-2 -> BLAS-3 refactor applied across frames — with
        each frame's search running its own unmodified schedule in
        lockstep (:func:`~repro.core.lockstep.drive_lockstep`). The
        leaf-first searches (Best-FS, sorted DFS) expand a node or a few
        at a time, evaluated by their scalar loops, and decode the
        frames one after another.
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
        n_frames = received.shape[0]
        tracer = current_tracer()
        series = self._metric_series()
        timer = Timer()
        stats_list = [DecodeStats() for _ in range(n_frames)]
        with ExitStack() as spans:
            if self.wrapper_span is not None:
                spans.enter_context(
                    tracer.span(
                        f"{self.wrapper_span}.decode_batch", frames=n_frames
                    )
                )
            spans.enter_context(
                tracer.span(
                    f"{self.trace_root}.decode_batch",
                    detector=self.name,
                    frames=n_frames,
                )
            )
            with timer:
                rep = self.lattice_rep
                ybars = np.stack(
                    [
                        effective_receive(self._qr, rep.map_received(row))
                        for row in received
                    ]
                )
                engine = self._engine()
                acc = engine.level_acc = (
                    None if series is None
                    else LevelAccumulator(self._qr.r.shape[1])
                )
                outcomes, _backend = engine.solve_batch(
                    self._qr.r, ybars, self._noise_var, stats_list,
                    kernel=self._kernel,
                )
        per_frame_s = timer.elapsed / n_frames
        if series is not None:
            self._flush_traversal_metrics(series, acc, stats_list, per_frame_s)
        results: list[DetectionResult] = []
        for f in range(n_frames):
            incumbent, _bound = outcomes[f]
            stats = stats_list[f]
            stats.wall_time_s = per_frame_s
            results.append(self._fold_back(received[f], incumbent, stats))
        return results

    # ------------------------------------------------------------------

    def _metric_series(self) -> _DetectorSeries | None:
        """Series bound for the ambient registry; ``None`` when it is off."""
        metrics = current_metrics()
        if not metrics.enabled:
            return None
        return metrics.bundle(_DetectorSeries, self.name)

    def _flush_traversal_metrics(
        self, series, acc, stats_list, frame_seconds: float
    ) -> None:
        """Copy one ``detect``'s or ``decode_batch``'s counts into the registry.

        The single place a decode's :class:`DecodeStats` reach the
        metrics registry, run once per call after the decode timer has
        stopped. ``acc`` is the engine's :class:`LevelAccumulator`: it
        becomes per-level ``traversal.*`` counters. Per-level
        *generated* is ``nodes * order`` (every expansion emits one
        child per constellation point); prune *rate* per level is
        derived at read time as ``pruned / generated``. Each frame adds
        one frontier-peak and one ``frame_seconds`` decode-time
        observation.
        """
        if acc is not None:
            order = self.search_constellation.order
            rows = series.bind_levels(len(acc.exps))
            for row, n, e, q in zip(rows, acc.nodes, acc.exps, acc.pruned):
                # A level with neither expansions nor prunes books
                # nothing; nodes_pruned only when there were prunes.
                if q:
                    inc_each(row, (n, e, n * order, q))
                elif e:
                    inc_each(row, (n, e, n * order))
        frontier, seconds = series.frontier, series.seconds
        leaves = flops = 0
        for stats in stats_list:
            frontier.observe(stats.max_list_size)
            seconds.observe(frame_seconds)
            leaves += stats.leaves_reached
            flops += stats.gemm_flops
        series.frames.inc(len(stats_list))
        series.leaves.inc(leaves)
        series.flops.inc(flops)

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
        indices = self._qr.unpermute(incumbent)
        indices = self.lattice_rep.fold_indices(
            indices, self._channel.shape[1], self.constellation
        )
        symbols = self.constellation.map_indices(indices)
        bits = self.constellation.indices_to_bits(indices)
        residual = received - self._channel @ symbols
        metric = float(np.real(np.vdot(residual, residual)))
        return DetectionResult(
            indices=indices,
            symbols=symbols,
            bits=bits,
            metric=metric,
            stats=stats,
        )
