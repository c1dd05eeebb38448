"""Dense symmetric eigenvalue kernel behind every certificate verdict.

All matrices in scope are tiny (state dimensions up to roughly ten).
Their eigenvalues come from LAPACK's symmetric eigensolver through
``np.linalg.eigvalsh``, which is backward stable: each eigenvalue is
accurate to a small multiple of machine precision times the matrix
norm, far inside ``DEFAULT_TOL``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonFinite, NonSquare, NotSymmetric

DEFAULT_TOL = 1e-9


@dataclass(frozen=True)
class EigenExtremes:
    lambda_min: float
    lambda_max: float


@dataclass(frozen=True)
class NsdVerdict:
    """Negative-semidefiniteness verdict.

    ``lambda_max`` is the largest eigenvalue found; when the check fails
    it is the offending one.
    """

    holds: bool
    lambda_max: float


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite 2-D float array or raise."""
    m = np.asarray(a, dtype=float)
    if m.ndim != 2:
        raise NonSquare(f"{name}: expected a 2-D array, got shape {m.shape}")
    if m.size and not np.all(np.isfinite(m)):
        raise NonFinite(f"{name}: non-finite entries")
    return m


def asymmetry(m: np.ndarray) -> float:
    """Max-abs entry of ``m - m'`` for a square matrix (0 below 2x2)."""
    return float(np.max(np.abs(m - m.T))) if m.shape[0] > 1 else 0.0


def _square_symmetric(m, tol: float, name: str) -> np.ndarray:
    m = as_matrix(m, name)
    rows, cols = m.shape
    if rows != cols:
        raise NonSquare(f"{name}: expected square, got {rows}x{cols}")
    if rows == 0:
        raise NonSquare(f"{name}: empty matrix")
    asym = asymmetry(m)
    if asym > tol:
        raise NotSymmetric(f"{name}: asymmetry {asym:.3e} exceeds tol {tol:.3e}")
    return 0.5 * (m + m.T)


def eig_extremes(m, tol: float = DEFAULT_TOL) -> EigenExtremes:
    """Smallest and largest eigenvalue of a symmetric matrix.

    The input must be symmetric up to ``tol`` in max-abs norm; it is
    symmetrized before the eigensolver runs.
    """
    sym = _square_symmetric(m, tol, "matrix")
    vals = np.linalg.eigvalsh(sym)
    return EigenExtremes(lambda_min=float(vals[0]), lambda_max=float(vals[-1]))


def nsd_check(m, tol: float = DEFAULT_TOL) -> NsdVerdict:
    """Check m <= 0 in the semidefinite order, up to ``tol``."""
    ext = eig_extremes(m, tol)
    return NsdVerdict(holds=ext.lambda_max <= tol, lambda_max=ext.lambda_max)


def spectral_norm(m) -> float:
    """Largest singular value, via the Gram matrix of the smaller side."""
    m = as_matrix(m, "matrix")
    if m.size == 0:
        return 0.0
    gram = m @ m.T if m.shape[0] <= m.shape[1] else m.T @ m
    gram = 0.5 * (gram + gram.T)
    vals = np.linalg.eigvalsh(gram)
    return float(np.sqrt(max(float(vals[-1]), 0.0)))
