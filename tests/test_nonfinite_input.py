"""Non-finite input at the engine shell.

A NaN or Inf in the received vector, the channel or the noise variance
must stop at the :class:`~repro.detectors.engine.EngineDetector`
boundary with :class:`~repro.util.validation.NonFiniteInputError`.
Past that boundary the tree searches would hang (BFS, the real-lattice
DFS), index out of range (the complex leaf-first searches) or return a
NaN metric flagged as untruncated (K-best, FSD).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.detectors.engine import EngineDetector
from repro.detectors.registry import detector_entries, spec
from repro.mimo.system import MIMOSystem
from repro.util.validation import NonFiniteInputError

#: Every registry kind built on the engine shell.
ENGINE_KINDS = (
    "sd", "sd-bestfs", "sd-dfs", "bfs", "geosphere", "kbest", "fsd",
    "sphere-real", "sd-linf", "kbest-linf", "sd-real-reordered",
)


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


def test_engine_kinds_are_the_shell_kinds():
    system = MIMOSystem(2, 2, "4qam")
    shell = {
        e.kind
        for e in detector_entries()
        if isinstance(spec(e.kind, system.constellation)(), EngineDetector)
    }
    assert shell == set(ENGINE_KINDS)


def test_error_is_a_value_error():
    assert issubclass(NonFiniteInputError, ValueError)


@pytest.mark.parametrize("path", ["detect", "decode_batch"])
@pytest.mark.parametrize("injection", sorted(INJECTIONS))
@pytest.mark.parametrize("kind", ENGINE_KINDS)
def test_non_finite_input_raises(kind, injection, path):
    system, channel, noise_var, received = _link()
    channel, noise_var, received = INJECTIONS[injection](
        channel, noise_var, received
    )
    detector = spec(kind, system.constellation)()
    with pytest.raises(NonFiniteInputError):
        detector.prepare(channel, noise_var=noise_var)
        if path == "detect":
            detector.detect(received[0])
        else:
            detector.decode_batch(received)
