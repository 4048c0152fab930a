"""Soft-output (list) sphere detection: per-bit log-likelihood ratios.

Real deployments feed the detector's output into a channel decoder,
which wants *soft* information. The standard construction (Hochwald &
ten Brink's list sphere decoder) reuses exactly the machinery this
repository already has: enumerate the candidate leaves inside a sphere,
then form max-log APP LLRs per bit:

    LLR_b = ( min_{s in L, bit_b(s)=0} ||y - Hs||^2
            - min_{s in L, bit_b(s)=1} ||y - Hs||^2 ) / sigma^2

A positive LLR therefore means bit ``b`` is more likely **1**. When the
list contains no counter-hypothesis for some bit, the LLR is clamped to
``+-llr_clip`` (the usual practice).

The candidate list is the in-sphere leaf frontier of one breadth-first
sweep — :meth:`BfsPolicy.sweep <repro.core.traversal.BfsPolicy.sweep>`
with ``max_frontier=max_list``, the sweep of
:class:`~repro.detectors.sd_bfs.GemmBfsDecoder`, driven by
:func:`~repro.core.lockstep.drive_lockstep` on a channel kernel built
at ``prepare``. Its radius grows by
:data:`~repro.core.radius.ESCALATION_FACTOR` until the list is
non-empty; the hard decision is the list's best entry — identical to
the hard sphere decoder's answer whenever the ML point is inside the
sphere (guaranteed after escalation).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.gemm import ChannelKernel
from repro.core.lockstep import drive_lockstep
from repro.core.radius import ESCALATION_FACTOR, NoiseScaledRadius, RadiusPolicy
from repro.core.traversal import BfsPolicy, TraversalEngine
from repro.detectors.base import DecodeStats, DetectionResult, Detector
from repro.mimo.constellation import Constellation
from repro.mimo.preprocessing import QRResult, effective_receive, qr_decompose
from repro.obs.tracer import NULL_TRACER
from repro.util.timing import Timer
from repro.util.validation import check_positive_int


@dataclass
class SoftDetectionResult:
    """Hard decision plus per-bit soft information."""

    hard: DetectionResult
    #: ``(n_tx * bits_per_symbol,)`` max-log LLRs; positive favours 1.
    llrs: np.ndarray
    #: Candidate-list size the LLRs were computed from.
    list_size: int


class SoftOutputSphereDetector(Detector):
    """List sphere decoder producing max-log APP LLRs.

    Parameters
    ----------
    constellation:
        Symbol alphabet.
    radius_policy:
        Sphere for the candidate list; a *larger* alpha gives richer
        lists and better-conditioned LLRs at more work. Escalates until
        at least one candidate exists.
    max_list:
        Keep at most this many best candidates per detection.
    llr_clip:
        Magnitude assigned when a bit has no counter-hypothesis in the
        list.

    A NaN or Inf in the channel, the noise variance or a received
    vector raises :class:`~repro.util.validation.NonFiniteInputError`.
    """

    name = "sphere-soft"

    def __init__(
        self,
        constellation: Constellation,
        *,
        radius_policy: RadiusPolicy | None = None,
        max_list: int = 512,
        llr_clip: float = 50.0,
    ) -> None:
        self.constellation = constellation
        self.radius_policy = radius_policy or NoiseScaledRadius(alpha=4.0)
        self.max_list = check_positive_int(max_list, "max_list")
        if llr_clip <= 0:
            raise ValueError(f"llr_clip must be positive, got {llr_clip}")
        self.llr_clip = float(llr_clip)
        self.engine = TraversalEngine(
            constellation, BfsPolicy(max_frontier=self.max_list)
        )
        self._qr: QRResult | None = None
        self._channel: np.ndarray | None = None
        self._noise_var = 0.0
        self._prepared = False

    def prepare(self, channel: np.ndarray, noise_var: float = 0.0) -> None:
        channel = self._checked_channel(channel, noise_var)
        self._channel = channel
        self._qr = qr_decompose(channel)
        self._kernel = ChannelKernel(self._qr.r, self.constellation)
        self._noise_var = float(noise_var)
        self._prepared = True

    def detect_soft(self, received: np.ndarray) -> SoftDetectionResult:
        """Hard decision + max-log LLRs for one received vector."""
        self._require_prepared()
        received = self._checked_received(received)
        timer = Timer()
        stats = DecodeStats()
        with timer:
            ybar = effective_receive(self._qr, received)
            ybars = ybar.astype(np.complex128)[None, :]
            engine = self.engine
            n_tx = self._kernel.n_tx
            init = self.radius_policy.initial(
                self._qr.r, ybar, self.constellation, self._noise_var
            )
            radius_sq = float(init.radius_sq)
            stats.radius_trace.append(radius_sq)
            while True:
                (leaves,), _calls, seconds = drive_lockstep(
                    [
                        engine.policy.sweep(
                            engine, n_tx, radius_sq, stats, NULL_TRACER
                        )
                    ],
                    self._kernel,
                    ybars,
                )
                stats.gemm_time_s += seconds
                if leaves is not None:
                    break
                radius_sq *= ESCALATION_FACTOR
                stats.radius_trace.append(radius_sq)
            paths, metrics = leaves
            # Hard decision: list leader, back in original antenna order.
            best = int(np.argmin(metrics))
            indices = self._qr.unpermute(paths[best, ::-1].copy())
            # Candidate bit matrix in *original* order: (L, n_tx * b).
            level_indices = paths[:, ::-1]  # (L, n_tx) by level
            original = np.empty_like(level_indices)
            original[:, self._qr.permutation] = level_indices
            bits = self.constellation.labels[original].reshape(
                paths.shape[0], -1
            )  # (L, n_bits) booleans
            # Max-log LLR per bit, with clamping.
            sigma2 = self._noise_var if self._noise_var > 0 else 1.0
            n_bits = bits.shape[1]
            llrs = np.empty(n_bits)
            for b in range(n_bits):
                ones = metrics[bits[:, b]]
                zeros = metrics[~bits[:, b]]
                if ones.size and zeros.size:
                    llrs[b] = (zeros.min() - ones.min()) / sigma2
                elif ones.size:
                    llrs[b] = self.llr_clip
                else:
                    llrs[b] = -self.llr_clip
            np.clip(llrs, -self.llr_clip, self.llr_clip, out=llrs)
        stats.wall_time_s = timer.elapsed
        return SoftDetectionResult(
            hard=self._result(received, indices, stats),
            llrs=llrs,
            list_size=int(paths.shape[0]),
        )

    def detect(self, received: np.ndarray) -> DetectionResult:
        """Hard-decision compatibility entry point."""
        return self.detect_soft(received).hard
