"""Linear detectors: Maximum Ratio Combining, Zero Forcing, MMSE.

These are the low-complexity / poor-BER baselines of the paper's
introduction and Fig. 12. Each computes a linear equalising filter in
``prepare`` (amortised per channel block) and applies one matrix-vector
product plus slicing per ``detect``.
"""

from __future__ import annotations

import numpy as np

from repro.detectors.base import DetectionResult, Detector
from repro.mimo.constellation import Constellation


class _LinearDetector(Detector):
    """Shared scaffolding: filter matrix ``W`` so ``s_hat = slice(W y)``."""

    def __init__(self, constellation: Constellation) -> None:
        self.constellation = constellation
        self._channel: np.ndarray | None = None
        self._filter: np.ndarray | None = None
        self._prepared = False

    def _compute_filter(self, channel: np.ndarray, noise_var: float) -> np.ndarray:
        raise NotImplementedError

    def prepare(self, channel: np.ndarray, noise_var: float = 0.0) -> None:
        channel = self._checked_channel(channel, noise_var)
        self._channel = channel
        self._filter = self._compute_filter(channel, float(noise_var))
        self._prepared = True

    def detect(self, received: np.ndarray) -> DetectionResult:
        self._require_prepared()
        received = self._checked_received(received)
        indices = self.constellation.nearest_indices(self._filter @ received)
        return self._result(received, indices)


class ZeroForcingDetector(_LinearDetector):
    """Zero forcing: ``W = (H^H H)^{-1} H^H`` (the pseudo-inverse).

    Removes inter-stream interference completely at the cost of noise
    enhancement — the classic complexity/BER trade-off the paper cites.
    """

    name = "zf"

    def _compute_filter(self, channel: np.ndarray, noise_var: float) -> np.ndarray:
        return np.linalg.pinv(channel)


class MMSEDetector(_LinearDetector):
    """Linear MMSE: ``W = (H^H H + (sigma^2/Es) I)^{-1} H^H``.

    Balances interference suppression against noise enhancement; needs
    the noise variance at ``prepare`` time.
    """

    name = "mmse"

    def __init__(self, constellation: Constellation, es: float = 1.0) -> None:
        super().__init__(constellation)
        if es <= 0:
            raise ValueError(f"es must be positive, got {es}")
        self.es = float(es)

    def _compute_filter(self, channel: np.ndarray, noise_var: float) -> np.ndarray:
        n_tx = channel.shape[1]
        gram = np.conj(channel.T) @ channel
        reg = gram + (noise_var / self.es) * np.eye(n_tx)
        return np.linalg.solve(reg, np.conj(channel.T))


class MRCDetector(_LinearDetector):
    """Maximum ratio combining: per-stream matched filter.

    ``s_hat_i = slice(h_i^H y / ||h_i||^2)``. Ignores inter-stream
    interference entirely, hence the worst BER of the three — included
    because the paper lists it among the linear baselines (section I).
    """

    name = "mrc"

    def _compute_filter(self, channel: np.ndarray, noise_var: float) -> np.ndarray:
        norms = np.sum(np.abs(channel) ** 2, axis=0)
        if np.any(norms == 0):
            raise np.linalg.LinAlgError("channel has an all-zero column")
        return np.conj(channel.T) / norms[:, None]
