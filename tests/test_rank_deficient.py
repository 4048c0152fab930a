"""An all-zero channel column at every registry kind: the outcomes as they
stand, the starting point of one rank-deficiency policy.

One 4x4 4-QAM link at 12 dB (seed-0 draw) with column 2 zeroed, so
antenna 2 is unobservable. Each kind either decodes to the ML metric
(its decision on the dead antenna is arbitrary, so only the metric is
pinned) or raises one named error. The Babai-seeded kinds divide by the
zero pivot of that column: NumPy warns, the estimate is infinite and the
slicer maps it to an edge point, and the search still ends at the ML
metric.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from numpy.linalg import LinAlgError

from repro.core.radius import babai_point
from repro.detectors.registry import detector_entries, spec
from repro.mimo.preprocessing import effective_receive, qr_decompose
from repro.mimo.system import MIMOSystem

DEAD = 2

#: Kinds that decode to the ML metric without a warning.
DECODE = (
    "sd", "bfs", "geosphere", "sphere-real", "sd-real-reordered", "ml", "zf", "mmse",
)
#: Kinds whose Babai seed divides by the zero pivot, then decode to the ML
#: metric.
DECODE_WITH_ZERO_PIVOT = ("sd-bestfs", "sd-dfs", "sd-linf", "partitioned")
#: Kinds that refuse the channel: exact error type and message.
RAISE = {
    "kbest": (LinAlgError, "channel matrix is rank deficient"),
    "fsd": (LinAlgError, "channel matrix is rank deficient"),
    "kbest-linf": (LinAlgError, "channel matrix is rank deficient"),
    "sic": (LinAlgError, "channel matrix is rank deficient"),
    "mrc": (LinAlgError, "all-zero column"),
    "lr-zf": (ValueError, "full column rank"),
}


def _dead_column_link():
    system = MIMOSystem(4, 4, "4qam")
    rng = np.random.default_rng(0)
    channel = system.channel_model.draw_channel(rng)
    channel[:, DEAD] = 0.0
    frame = system.random_frame(12.0, rng, channel=channel)
    return system, channel, system.noise_var(12.0), frame.received


def _ml_metric(system, channel, noise_var, received):
    ml = spec("ml", system.constellation)()
    ml.prepare(channel, noise_var=noise_var)
    return ml.detect(received).metric


def test_every_kind_has_an_outcome():
    kinds = {e.kind for e in detector_entries()}
    assert set(DECODE) | set(DECODE_WITH_ZERO_PIVOT) | set(RAISE) == kinds
    assert len(DECODE) + len(DECODE_WITH_ZERO_PIVOT) + len(RAISE) == len(kinds)


@pytest.mark.parametrize("kind", DECODE + DECODE_WITH_ZERO_PIVOT)
def test_decodes_to_ml_metric(kind):
    system, channel, noise_var, received = _dead_column_link()
    detector = spec(kind, system.constellation)()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        detector.prepare(channel, noise_var=noise_var)
        result = detector.detect(received)
    messages = {str(w.message) for w in caught if w.category is RuntimeWarning}
    if kind in DECODE_WITH_ZERO_PIVOT:
        assert messages == {"divide by zero encountered in scalar divide"}
    else:
        assert messages == set()
    assert np.all((result.indices >= 0) & (result.indices < system.constellation.order))
    assert result.metric == pytest.approx(
        _ml_metric(system, channel, noise_var, received), rel=1e-12
    )


@pytest.mark.parametrize("kind", sorted(RAISE))
def test_refuses_with_named_error(kind):
    system, channel, noise_var, received = _dead_column_link()
    error, message = RAISE[kind]
    detector = spec(kind, system.constellation)()
    with pytest.raises(ValueError, match=message) as excinfo:
        detector.prepare(channel, noise_var=noise_var)
        detector.detect(received)
    assert excinfo.type is error


def test_babai_seed_slices_infinite_estimate_to_a_corner():
    """The zero pivot makes the dead level's estimate infinite in both
    parts; the slicer clamps it to a corner point and the metric stays
    finite."""
    system, channel, _, received = _dead_column_link()
    const = system.constellation
    qr = qr_decompose(channel)
    assert qr.r[DEAD, DEAD] == 0
    with pytest.warns(RuntimeWarning, match="divide by zero"):
        indices, metric = babai_point(qr.r, effective_receive(qr, received), const)
    corner = const.points[indices[DEAD]]
    assert abs(corner.real) == abs(corner.imag) == const.points.real.max()
    assert np.isfinite(metric)
