"""Digital constellations: BPSK and Gray-mapped square QAM.

The paper evaluates 4-QAM and 16-QAM MIMO systems (its illustrative tree
example uses BPSK). This module provides those alphabets plus 64/256-QAM
for scaling studies, all normalised to unit average symbol energy so the
SNR bookkeeping in :mod:`repro.mimo.channel` stays independent of the
modulation order.

A :class:`Constellation` is immutable. Point ``i`` of a square QAM of
order :math:`Q = L^2` corresponds to the pair of per-dimension level
indices ``(i // L, i % L)``; its bit label is the concatenation of the
Gray codes of the two level indices, giving the standard property that
nearest neighbours differ in exactly one bit.
"""

from __future__ import annotations

from functools import cached_property
from math import isfinite

import numpy as np

from repro.util.validation import check_positive_int

_NAME_ALIASES = {
    "bpsk": ("bpsk", 2),
    "qpsk": ("qam", 4),
    "4qam": ("qam", 4),
    "4-qam": ("qam", 4),
    "16qam": ("qam", 16),
    "16-qam": ("qam", 16),
    "64qam": ("qam", 64),
    "64-qam": ("qam", 64),
    "256qam": ("qam", 256),
    "256-qam": ("qam", 256),
}


def gray_code(n: np.ndarray | int) -> np.ndarray | int:
    """Binary-reflected Gray code of ``n`` (element-wise for arrays)."""
    return n ^ (n >> 1)


class Constellation:
    """An immutable complex signal alphabet with Gray bit labels.

    Parameters
    ----------
    name:
        Human-readable name (e.g. ``"16-QAM"``).
    points:
        Complex points; will be normalised to unit average energy unless
        ``normalize=False``.
    labels:
        ``(order, bits_per_symbol)`` boolean array: ``labels[i]`` is the
        bit pattern transmitted by point ``i`` (MSB first).
    """

    def __init__(
        self,
        name: str,
        points: np.ndarray,
        labels: np.ndarray,
        *,
        normalize: bool = True,
    ) -> None:
        points = np.asarray(points, dtype=np.complex128)
        if points.ndim != 1 or points.size < 2:
            raise ValueError("points must be a 1-D array of at least 2 symbols")
        order = points.size
        if order & (order - 1):
            raise ValueError(f"constellation order must be a power of two, got {order}")
        labels = np.asarray(labels, dtype=bool)
        bits = order.bit_length() - 1
        if labels.shape != (order, bits):
            raise ValueError(
                f"labels must have shape {(order, bits)}, got {labels.shape}"
            )
        # Labels must be a bijection onto {0,1}^bits.
        packed = np.packbits(labels, axis=1, bitorder="big")
        keys = np.zeros(order, dtype=np.int64)
        for byte_col in range(packed.shape[1]):
            keys = (keys << 8) | packed[:, byte_col]
        if np.unique(keys).size != order:
            raise ValueError("labels must assign a distinct bit pattern to each point")
        if normalize:
            energy = float(np.mean(np.abs(points) ** 2))
            points = points / np.sqrt(energy)
        self._name = str(name)
        self._points = points
        self._points.setflags(write=False)
        self._labels = labels
        self._labels.setflags(write=False)
        # Inverse map: integer bit pattern -> point index.
        self._label_to_index = np.empty(order, dtype=np.int64)
        weights = 1 << np.arange(bits - 1, -1, -1, dtype=np.int64)
        self._label_to_index[labels @ weights] = np.arange(order)
        self._label_to_index.setflags(write=False)
        # Square-QAM fast-slicing metadata, populated by the factory.
        self._qam_side: int | None = None
        self._qam_scale: float | None = None

    # ------------------------------------------------------------------
    # Factories
    # ------------------------------------------------------------------

    @classmethod
    def from_name(cls, name: str) -> "Constellation":
        """Build a constellation from a name like ``"4qam"`` or ``"bpsk"``."""
        key = str(name).strip().lower().replace(" ", "")
        if key not in _NAME_ALIASES:
            raise ValueError(
                f"unknown constellation {name!r}; known: {sorted(_NAME_ALIASES)}"
            )
        kind, order = _NAME_ALIASES[key]
        return cls.bpsk() if kind == "bpsk" else cls.qam(order)

    @classmethod
    def bpsk(cls) -> "Constellation":
        """Binary phase-shift keying: bit 0 -> -1, bit 1 -> +1."""
        points = np.array([-1.0 + 0.0j, 1.0 + 0.0j])
        labels = np.array([[False], [True]])
        return cls("BPSK", points, labels, normalize=False)

    @classmethod
    def qam(cls, order: int) -> "Constellation":
        """Gray-mapped square QAM of the given order (4, 16, 64, 256...).

        Points are laid out on the regular grid with per-dimension levels
        ``{-(L-1), ..., -1, +1, ..., +(L-1)}`` (``L = sqrt(order)``) and
        normalised to unit average energy.
        """
        order = check_positive_int(order, "order")
        side = int(round(np.sqrt(order)))
        if side * side != order or order < 4 or (order & (order - 1)):
            raise ValueError(
                f"order must be a square power of two >= 4 (4, 16, 64...), got {order}"
            )
        bits_per_dim = side.bit_length() - 1
        levels = np.arange(side) * 2 - (side - 1)  # -(L-1) .. (L-1), step 2
        i_idx, q_idx = np.divmod(np.arange(order), side)
        points = levels[i_idx] + 1j * levels[q_idx]
        # Gray label per dimension; point label = gray(I) || gray(Q).
        gray = np.asarray(gray_code(np.arange(side)))
        dim_bits = (
            (gray[:, None] >> np.arange(bits_per_dim - 1, -1, -1)) & 1
        ).astype(bool)
        labels = np.concatenate([dim_bits[i_idx], dim_bits[q_idx]], axis=1)
        obj = cls(f"{order}-QAM", points, labels, normalize=True)
        obj._qam_side = side
        # After normalisation the levels were divided by sqrt(mean energy)
        # = sqrt(2 (order - 1) / 3); store the grid step / 2 for slicing
        # (as a Python float, an exact conversion, so the scalar slicer
        # divides by the value the array slicer divides by).
        obj._qam_scale = float(1.0 / np.sqrt(2.0 * (order - 1) / 3.0))
        return obj

    # ------------------------------------------------------------------
    # Properties
    # ------------------------------------------------------------------

    @property
    def name(self) -> str:
        """Human-readable name, e.g. ``"16-QAM"``."""
        return self._name

    @property
    def order(self) -> int:
        """Number of points ``P = |Omega|`` (the paper's modulation factor)."""
        return self._points.size

    @property
    def bits_per_symbol(self) -> int:
        """log2(order)."""
        return self._labels.shape[1]

    @property
    def points(self) -> np.ndarray:
        """Read-only ``(order,)`` complex array of unit-mean-energy points."""
        return self._points

    @property
    def labels(self) -> np.ndarray:
        """Read-only ``(order, bits_per_symbol)`` boolean Gray-label table."""
        return self._labels

    @property
    def is_square_qam(self) -> bool:
        """True when fast per-dimension slicing metadata is available."""
        return self._qam_side is not None

    @cached_property
    def average_energy(self) -> float:
        """Mean |point|^2 (1.0 by construction)."""
        return float(np.mean(np.abs(self._points) ** 2))

    @cached_property
    def min_distance(self) -> float:
        """Minimum Euclidean distance between any two points."""
        diff = self._points[:, None] - self._points[None, :]
        dist = np.abs(diff)
        np.fill_diagonal(dist, np.inf)
        return float(dist.min())

    # ------------------------------------------------------------------
    # Mapping
    # ------------------------------------------------------------------

    def map_indices(self, indices: np.ndarray) -> np.ndarray:
        """Point values for an array of point indices."""
        indices = np.asarray(indices)
        if indices.size and (indices.min() < 0 or indices.max() >= self.order):
            raise ValueError("point index out of range")
        return self._points[indices]

    def bits_to_indices(self, bits: np.ndarray) -> np.ndarray:
        """Map a flat bit array (length multiple of bits_per_symbol) to indices."""
        bits = np.asarray(bits).astype(bool)
        b = self.bits_per_symbol
        if bits.ndim != 1 or bits.size % b:
            raise ValueError(
                f"bits must be 1-D with length a multiple of {b}, got shape {bits.shape}"
            )
        groups = bits.reshape(-1, b)
        weights = 1 << np.arange(b - 1, -1, -1, dtype=np.int64)
        return self._label_to_index[groups @ weights]

    def indices_to_bits(self, indices: np.ndarray) -> np.ndarray:
        """Flat bit array for a sequence of point indices."""
        indices = np.asarray(indices)
        return self._labels[indices].reshape(-1)

    def nearest_indices(self, values: np.ndarray) -> np.ndarray:
        """Indices of the closest constellation points (vectorised slicer).

        Square QAM uses O(1) per-dimension rounding; other alphabets fall
        back to an exact argmin over all points.
        """
        values = np.asarray(values, dtype=np.complex128)
        if self._qam_side is not None:
            side, scale = self._qam_side, self._qam_scale
            i_lvl = np.clip(
                np.round((values.real / scale + side - 1) / 2.0), 0, side - 1
            ).astype(np.int64)
            q_lvl = np.clip(
                np.round((values.imag / scale + side - 1) / 2.0), 0, side - 1
            ).astype(np.int64)
            return i_lvl * side + q_lvl
        dist = np.abs(values[..., None] - self._points)
        return np.argmin(dist, axis=-1)

    def nearest_index(self, value: complex) -> int:
        """Index of the closest constellation point to one value.

        The one-value slicer for callers that slice level by level (the
        Babai back-substitution). It returns
        ``int(nearest_indices(np.asarray([value]))[0])`` bit for bit: on
        square QAM it evaluates :meth:`nearest_indices`'s own expression
        ``(v / scale + side - 1) / 2.0`` left to right on Python floats,
        then clamps to ``[0, side - 1]`` and rounds half to even as
        ``np.round`` does (rounding is monotone and keeps the integer
        ends, so clamping first gives the array slicer's round-then-clip
        index). A level that is not finite (a NaN or infinite value, or a
        division that overflows) and every other alphabet go through
        :meth:`nearest_indices` itself, so their index and any warning
        NumPy raises on the way stay the same.
        """
        side = self._qam_side
        if side is not None:
            value = complex(value)
            scale, top = self._qam_scale, side - 1
            i_lvl = (value.real / scale + side - 1) / 2.0
            q_lvl = (value.imag / scale + side - 1) / 2.0
            if isfinite(i_lvl) and isfinite(q_lvl):
                # Conditional expressions, not min/max: this runs once per
                # tree level of every Babai seed.
                i_idx = 0 if i_lvl <= 0.0 else top if i_lvl >= top else round(i_lvl)
                q_idx = 0 if q_lvl <= 0.0 else top if q_lvl >= top else round(q_lvl)
                return i_idx * side + q_idx
        return int(self.nearest_indices(np.asarray([value]))[0])

    def nearest_points(self, values: np.ndarray) -> np.ndarray:
        """Closest constellation points themselves (hard slicing)."""
        return self._points[self.nearest_indices(values)]

    def __len__(self) -> int:
        return self.order

    def __repr__(self) -> str:
        return f"Constellation({self._name}, order={self.order})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Constellation):
            return NotImplemented
        return (
            np.array_equal(self._points, other._points)
            and np.array_equal(self._labels, other._labels)
        )

    def __hash__(self) -> int:
        return hash((self._name, self.order))


def pam_component(constellation: Constellation) -> Constellation:
    """The per-dimension PAM alphabet of a square QAM constellation.

    Returns a :class:`Constellation` whose points are the (normalised)
    real levels with the same Gray labelling the QAM uses per dimension,
    so that ``qam_index = i_index * L + q_index`` holds between the two.
    This is the search alphabet of every real-lattice representation
    (see :mod:`repro.core.lattice`).
    """
    if not constellation.is_square_qam:
        raise ValueError("real decomposition requires a square QAM constellation")
    side = int(round(np.sqrt(constellation.order)))
    scale = 1.0 / np.sqrt(2.0 * (constellation.order - 1) / 3.0)
    levels = (np.arange(side) * 2 - (side - 1)) * scale
    bits_per_dim = side.bit_length() - 1
    gray = np.asarray(gray_code(np.arange(side)))
    labels = (
        (gray[:, None] >> np.arange(bits_per_dim - 1, -1, -1)) & 1
    ).astype(bool)
    return Constellation(
        f"{side}-PAM", levels.astype(complex), labels, normalize=False
    )
