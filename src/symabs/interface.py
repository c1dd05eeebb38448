"""Affine refinement interface and admissible-input bookkeeping.

The interface turns an abstract input ``v`` into a concrete one,

    u = v + G (x1 - x2),

where ``x1`` is the concrete state and ``x2`` the quantized abstract
state (``AffineInterface.apply``, for one point or rows).  Because the
correction term is bounded along certified runs, drawing ``v`` from a
box shrunk by that bound keeps ``u`` inside the original input set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadRange, DimensionMismatch, EmptyResult, NonFinite
from .numerics import as_matrix, spectral_norm


@dataclass(frozen=True)
class AffineInterface:
    gain: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "gain", as_matrix(self.gain, "gain"))

    @property
    def input_dim(self) -> int:
        return self.gain.shape[0]

    @property
    def state_dim(self) -> int:
        return self.gain.shape[1]

    def apply(self, v: np.ndarray, x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
        """Concrete input ``v + G (x1 - x2)``: vectors, or matching rows."""
        return v + (x1 - x2) @ self.gain.T


class AllSpace:
    """Marker for an unconstrained input set."""

    def contains(self, u) -> bool:
        return True

    def first_exit(self, points) -> int | None:
        return None

    def __repr__(self) -> str:
        return "AllSpace()"


ALL_SPACE = AllSpace()


@dataclass(frozen=True)
class BoxInputSet:
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lower, dtype=float)
        hi = np.asarray(self.upper, dtype=float)
        if lo.ndim != 1 or lo.shape != hi.shape:
            raise DimensionMismatch(f"bounds must be equal-length vectors, got {lo.shape} and {hi.shape}")
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise NonFinite("box bounds must be finite")
        if np.any(lo > hi):
            raise BadRange("box lower bound exceeds upper bound")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def dim(self) -> int:
        return self.lower.shape[0]

    def contains(self, u) -> bool:
        v = np.asarray(u, dtype=float)
        if v.shape != self.lower.shape:
            raise DimensionMismatch(f"point shape {v.shape} does not match box dimension {self.dim}")
        return bool(np.all(v >= self.lower) and np.all(v <= self.upper))

    def first_exit(self, points) -> int | None:
        """Index of the first row of ``points`` outside the box, or None."""
        inside = np.all((points >= self.lower) & (points <= self.upper), axis=-1)
        return None if inside.all() else int(np.argmin(inside))


InputSet = BoxInputSet | AllSpace


def input_margin(L, K1: float, eta: float) -> float:
    """Worst-case interface correction ||L|| * (K1 + 1) * eta."""
    if not (math.isfinite(K1) and K1 >= 0.0):
        raise BadRange(f"K1 must be finite and nonnegative, got {K1}")
    if not (math.isfinite(eta) and eta >= 0.0):
        raise BadRange(f"eta must be finite and nonnegative, got {eta}")
    return spectral_norm(L) * (K1 + 1.0) * eta


def shrink_box(u_set: InputSet, r: float) -> InputSet:
    """Pull every face of the box inward by ``r``.

    An unconstrained set passes through unchanged; a box that would
    invert raises EmptyResult, signalling that the lattice is too coarse
    for this input set.
    """
    if not (math.isfinite(r) and r >= 0.0):
        raise BadRange(f"margin must be finite and nonnegative, got {r}")
    if isinstance(u_set, AllSpace):
        return u_set
    lo = u_set.lower + r
    hi = u_set.upper - r
    if np.any(lo > hi):
        raise EmptyResult(f"margin {r:g} empties the input box")
    return BoxInputSet(lower=lo, upper=hi)
