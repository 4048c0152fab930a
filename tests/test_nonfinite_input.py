"""Non-finite input at every detector's boundary.

A NaN or Inf in the received vector, the channel or the noise variance
must stop where data enters a detector (``prepare``, ``detect``,
``decode_batch``, the list detector's ``detect_soft``) with :class:`~repro.util.validation.NonFiniteInputError`.
Past that boundary the tree searches would hang (BFS, the real-lattice
DFS, the list detector's radius escalation), index out of range (the
leaf-first searches, ``partitioned``, ``sic``, ``ml``), return a NaN
metric flagged as untruncated (K-best, FSD, ``lr-zf``) or fail with an
unrelated message (``zf``, ``mmse``, ``mrc``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.detectors.registry import detector_entries, spec
from repro.detectors.soft import SoftOutputSphereDetector
from repro.mimo.system import MIMOSystem
from repro.util.validation import NonFiniteInputError

#: Every registry kind.
KINDS = (
    "sd", "sd-bestfs", "sd-dfs", "bfs", "geosphere", "kbest", "fsd",
    "sphere-real", "sd-linf", "kbest-linf", "sd-real-reordered",
    "partitioned", "ml", "zf", "mmse", "mrc", "sic", "lr-zf",
)
#: The registry kinds plus the list (soft-output) detector.
DETECTORS = KINDS + ("soft",)


def _nan_in_y(channel, noise_var, received):
    received[0, 1] = np.nan
    return channel, noise_var, received


def _inf_in_y(channel, noise_var, received):
    received[0, 2] = np.inf
    return channel, noise_var, received


def _nan_in_h(channel, noise_var, received):
    channel[1, 0] = np.nan
    return channel, noise_var, received


def _nan_noise_var(channel, noise_var, received):
    return channel, float("nan"), received


INJECTIONS = {
    "nan-y": _nan_in_y,
    "inf-y": _inf_in_y,
    "nan-h": _nan_in_h,
    "nan-noise-var": _nan_noise_var,
}


def _link(seed=0):
    """4x4 4-QAM at 10 dB: channel, noise variance and two frames."""
    system = MIMOSystem(4, 4, "4qam")
    rng = np.random.default_rng(seed)
    channel = system.channel_model.draw_channel(rng)
    received = np.stack(
        [system.random_frame(10.0, rng, channel=channel).received for _ in range(2)]
    )
    return system, channel, system.noise_var(10.0), received


def test_kinds_are_the_registry_kinds():
    assert {e.kind for e in detector_entries()} == set(KINDS)


def test_error_is_a_value_error():
    assert issubclass(NonFiniteInputError, ValueError)


def _decode(detector, received, path):
    """Decode through ``detect`` (one frame) or the batch entry point."""
    if path == "detect":
        return detector.detect(received[0])
    if isinstance(detector, SoftOutputSphereDetector):
        return detector.detect_soft(received[0])
    return detector.decode_batch(received)


@pytest.mark.parametrize("path", ["detect", "decode_batch"])
@pytest.mark.parametrize("injection", sorted(INJECTIONS))
@pytest.mark.parametrize("kind", DETECTORS)
def test_non_finite_input_raises(kind, injection, path):
    """The ``decode_batch`` path is every kind's ``decode_batch``; for the
    list detector it is ``detect_soft``."""
    system, channel, noise_var, received = _link()
    channel, noise_var, received = INJECTIONS[injection](
        channel, noise_var, received
    )
    if kind == "soft":
        detector = SoftOutputSphereDetector(system.constellation)
    else:
        detector = spec(kind, system.constellation)()
    with pytest.raises(NonFiniteInputError):
        detector.prepare(channel, noise_var=noise_var)
        _decode(detector, received, path)
