"""Uniform lattice over the state space and its nearest-point quantizer.

A lattice of radius ``eta`` in dimension ``n`` spaces points ``2*eta/sqrt(n)``
apart on every axis.  Snapping each coordinate to the nearest multiple keeps
each axis error within ``eta/sqrt(n)``, hence the Euclidean error within
``eta``.  ``quantize_batch`` is the one public quantizer; the simulator
calls its unchecked kernel ``_snap`` directly, once per RK4 step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadRange, DimensionMismatch, NonFinite, Overflow

# Largest index magnitude representable in a signed 64-bit integer.
_INDEX_LIMIT = float(2**63 - 1)


@dataclass(frozen=True)
class LatticeParams:
    n: int
    eta: float

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 1:
            raise BadRange(f"lattice dimension must be a positive int, got {self.n!r}")
        if not (math.isfinite(self.eta) and self.eta > 0.0):
            raise BadRange(f"lattice radius must be finite and positive, got {self.eta!r}")

    @property
    def spacing(self) -> float:
        return 2.0 * self.eta / math.sqrt(self.n)


def _snap(x: np.ndarray, spacing: float) -> np.ndarray:
    """Nearest lattice multiples of ``spacing``, ties away from zero.

    Returns the integer factors as floats (exact while below 2**53).
    """
    t = x / spacing
    return np.copysign(np.floor(np.abs(t) + 0.5), t)


def quantize_batch(points, params: LatticeParams) -> tuple[np.ndarray, np.ndarray]:
    """Quantize a stack of points; returns (indices, coordinates)."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != params.n:
        raise DimensionMismatch(
            f"expected points of shape (N, {params.n}), got {pts.shape}"
        )
    if pts.size and not np.all(np.isfinite(pts)):
        raise NonFinite("points contain non-finite values")
    k = _snap(pts, params.spacing)
    if pts.size and float(np.max(np.abs(k))) > _INDEX_LIMIT:
        raise Overflow("lattice index exceeds the 64-bit integer range")
    return k.astype(np.int64), k * params.spacing

