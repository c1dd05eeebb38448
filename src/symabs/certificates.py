"""Certificate checks and the constants they yield.

Everything a verified abstraction rests on lives here: the matrix
inequalities for the two system families, class-K-infinity comparison
functions, incremental quadratic-constraint spot checks, the stability
constants derived from a certificate, and the admissible lattice radius
for a requested output precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .dynamics import IqcSystem
from .errors import (
    BadRange,
    DimensionMismatch,
    Infeasible,
    NegativeInput,
    NotPositiveDefinite,
    NotSymmetric,
)
from .numerics import (
    DEFAULT_TOL,
    EigenExtremes,
    NsdVerdict,
    as_matrix,
    eig_extremes,
    nsd_check,
    spectral_norm,
)


# ---------------------------------------------------------------------------
# class-K-infinity comparison functions


@dataclass(frozen=True)
class MonomialKInf:
    """x -> coeff * x**power on [0, inf); power >= 1 keeps the inverse
    subadditive, which the feasibility conditions rely on."""

    coeff: float
    power: float

    def __post_init__(self):
        if not (math.isfinite(self.coeff) and self.coeff > 0.0):
            raise BadRange(f"coeff must be finite and positive, got {self.coeff}")
        if not (math.isfinite(self.power) and self.power >= 1.0):
            raise BadRange(f"power must be >= 1, got {self.power}")

    def forward(self, x: float) -> float:
        if x < 0.0:
            raise NegativeInput(f"argument must be nonnegative, got {x}")
        return self.coeff * x**self.power

    def inverse(self, y: float) -> float:
        if y < 0.0:
            raise NegativeInput(f"argument must be nonnegative, got {y}")
        return (y / self.coeff) ** (1.0 / self.power)


# ---------------------------------------------------------------------------
# certificates


@dataclass(frozen=True)
class PrecisionSpec:
    epsilon: float
    rho: float

    def __post_init__(self):
        if not (math.isfinite(self.epsilon) and self.epsilon > 0.0):
            raise BadRange(f"epsilon must be finite and positive, got {self.epsilon}")
        if not (math.isfinite(self.rho) and self.rho > 0.0):
            raise BadRange(f"rho must be finite and positive, got {self.rho}")


def _positive_definite(P, tol: float, name: str) -> tuple[np.ndarray, EigenExtremes]:
    """``P`` as a matrix and its eigenvalue extremes, from one eigen call."""
    P = as_matrix(P, name)
    ext = eig_extremes(P, tol)
    if ext.lambda_min <= tol:
        raise NotPositiveDefinite(f"{name}: lambda_min = {ext.lambda_min:.3e} is not > tol")
    return P, ext


@dataclass(frozen=True)
class SineCertificate:
    P: np.ndarray
    R: np.ndarray
    alpha: float
    m_gain: float

    def __post_init__(self):
        P, _ = _positive_definite(self.P, DEFAULT_TOL, "P")
        R = as_matrix(self.R, "R")
        if R.shape != P.shape:
            raise DimensionMismatch(f"R must match P, got {R.shape} vs {P.shape}")
        if not (math.isfinite(self.alpha) and self.alpha > 0.0):
            raise BadRange(f"alpha must be finite and positive, got {self.alpha}")
        object.__setattr__(self, "P", P)
        object.__setattr__(self, "R", R)
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "m_gain", float(self.m_gain))


@dataclass(frozen=True)
class IqcCertificate:
    P: np.ndarray
    L: np.ndarray
    alpha: float
    M: np.ndarray

    def __post_init__(self):
        P, _ = _positive_definite(self.P, DEFAULT_TOL, "P")
        L = as_matrix(self.L, "L")
        M = as_matrix(self.M, "M")
        if L.shape[1] != P.shape[0]:
            raise DimensionMismatch(f"L must have {P.shape[0]} columns, got {L.shape}")
        if M.shape[0] != M.shape[1]:
            raise DimensionMismatch(f"M must be square, got {M.shape}")
        if float(np.max(np.abs(M - M.T))) > DEFAULT_TOL:
            raise DimensionMismatch("M must be symmetric")
        if not (math.isfinite(self.alpha) and self.alpha > 0.0):
            raise BadRange(f"alpha must be finite and positive, got {self.alpha}")
        object.__setattr__(self, "P", P)
        object.__setattr__(self, "L", L)
        object.__setattr__(self, "M", M)
        object.__setattr__(self, "alpha", float(self.alpha))


# ---------------------------------------------------------------------------
# matrix inequalities


def _assemble_sine(P: np.ndarray, R: np.ndarray, alpha: float, m_gain: float, A: np.ndarray) -> np.ndarray:
    n = A.shape[0]
    eye = np.eye(n)
    tl = A.T @ P + P @ A + 2.0 * R + 2.0 * alpha * P + m_gain**2 * eye
    return np.block([[tl, P], [P, -eye]])


def assemble_lmi_sine(cert: SineCertificate, A) -> np.ndarray:
    A = as_matrix(A, "A")
    if A.shape != cert.P.shape:
        raise DimensionMismatch(f"A must match P, got {A.shape} vs {cert.P.shape}")
    return _assemble_sine(cert.P, cert.R, cert.alpha, cert.m_gain, A)


def check_lmi_sine(cert: SineCertificate, A, tol: float = DEFAULT_TOL) -> NsdVerdict:
    """Negative-semidefiniteness of the sine-feedback certificate block."""
    return nsd_check(assemble_lmi_sine(cert, A), tol)


def _assemble_iqc(
    P: np.ndarray,
    L: np.ndarray,
    alpha: float,
    M: np.ndarray,
    sys: IqcSystem,
) -> np.ndarray:
    n, l_e, l_p = sys.n, sys.l_e, sys.l_p
    a_cl = sys.A + sys.B @ L
    top = np.block(
        [
            [P @ a_cl + a_cl.T @ P + 2.0 * alpha * P, P @ sys.E],
            [sys.E.T @ P, np.zeros((l_e, l_e))],
        ]
    )
    stack = np.block([[sys.C_q, sys.D_q], [np.zeros((l_e, n)), np.eye(l_e)]])
    return top + stack.T @ M @ stack


def assemble_lmi_iqc(cert: IqcCertificate, sys: IqcSystem) -> np.ndarray:
    if cert.P.shape[0] != sys.n:
        raise DimensionMismatch(f"P must be {sys.n}x{sys.n}, got {cert.P.shape}")
    if cert.L.shape != (sys.input_dim, sys.n):
        raise DimensionMismatch(
            f"L must be {sys.input_dim}x{sys.n}, got {cert.L.shape}"
        )
    if cert.M.shape[0] != sys.l_p + sys.l_e:
        raise DimensionMismatch(
            f"M must have size {sys.l_p + sys.l_e}, got {cert.M.shape}"
        )
    return _assemble_iqc(cert.P, cert.L, cert.alpha, cert.M, sys)


def check_lmi_iqc(cert: IqcCertificate, sys: IqcSystem, tol: float = DEFAULT_TOL) -> NsdVerdict:
    """Negative-semidefiniteness of the interconnection certificate block."""
    return nsd_check(assemble_lmi_iqc(cert, sys), tol)


def _alpha_boundary(block0: np.ndarray, P: np.ndarray, tol: float) -> float:
    """Largest alpha at which ``nsd_check(block, tol)`` holds, where
    ``block`` is the certificate block ``block0`` at alpha = 0 with
    2 alpha P added to its top-left n x n block.

    Shifted by ``tol``, the test is  [[T + 2 alpha P, U], [U', W]] <= 0
    with W the lower-right block.  If W is not negative definite no alpha
    passes (by interlacing); otherwise the test is 2 alpha P <= -S, with S
    = T - U W^{-1} U' the Schur complement, so with P = C C' the threshold
    is alpha* = lambda_min(C^{-1} (-S) C^{-T}) / 2.
    """
    if float(np.max(np.abs(block0 - block0.T))) > tol:
        raise NotSymmetric(f"certificate block: asymmetry exceeds tol {tol:.3e}")
    n = P.shape[0]
    shifted = block0 - tol * np.eye(block0.shape[0])
    T, U, W = shifted[:n, :n], shifted[:n, n:], shifted[n:, n:]
    alpha = -math.inf
    if eig_extremes(W, tol).lambda_max < 0.0:
        C = np.linalg.cholesky(P)
        # C^{-1} (-S) C^{-T}, symmetrized so that rounding cannot trip tol = 0
        X = np.linalg.solve(C, np.linalg.solve(C, U @ np.linalg.solve(W, U.T) - T).T)
        alpha = 0.5 * eig_extremes(0.5 * (X + X.T), tol).lambda_min
    if not alpha >= 1e-9:
        raise Infeasible("inequality infeasible for every positive alpha")
    return alpha


def max_feasible_alpha_sine(P, R, A, m_gain: float, tol: float = DEFAULT_TOL) -> float:
    """Largest decay rate at which the sine-feedback inequality holds up
    to ``tol``, with P and R fixed: alpha* = lambda_min(C^{-1} (-S) C^{-T}) / 2
    with P = C C' and S = A'P + PA + 2R + (m^2 - tol) I + P P / (1 + tol),
    the Schur complement of the tol-shifted block at alpha = 0.  Raises
    Infeasible if alpha* < 1e-9."""
    P, _ = _positive_definite(P, tol, "P")
    R = as_matrix(R, "R")
    A = as_matrix(A, "A")
    return _alpha_boundary(_assemble_sine(P, R, 0.0, m_gain, A), P, tol)


def max_feasible_alpha_iqc(P, L, M, sys: IqcSystem, tol: float = DEFAULT_TOL) -> float:
    """Largest decay rate for the interconnection inequality with P, L, M
    fixed, up to ``tol``: alpha* = lambda_min(C^{-1} (-S) C^{-T}) / 2 with
    P = C C' and S the Schur complement of the lower-right block W of the
    tol-shifted block at alpha = 0.  Raises Infeasible if W is not
    negative definite or alpha* < 1e-9."""
    P, _ = _positive_definite(P, tol, "P")
    L = as_matrix(L, "L")
    M = as_matrix(M, "M")
    return _alpha_boundary(_assemble_iqc(P, L, 0.0, M, sys), P, tol)


# ---------------------------------------------------------------------------
# incremental quadratic constraints


def lipschitz_delta_mm(ell: float, l_p: int, l_e: int) -> np.ndarray:
    """Multiplier encoding ||p(q2) - p(q1)|| <= ell * ||q2 - q1||."""
    if not (math.isfinite(ell) and ell > 0.0):
        raise BadRange(f"Lipschitz constant must be finite and positive, got {ell}")
    if l_p < 1 or l_e < 1:
        raise DimensionMismatch("multiplier block sizes must be positive")
    top = np.hstack([ell**2 * np.eye(l_p), np.zeros((l_p, l_e))])
    bottom = np.hstack([np.zeros((l_e, l_p)), -np.eye(l_e)])
    return np.vstack([top, bottom])


@dataclass(frozen=True)
class DeltaQcReport:
    holds: bool
    pairs_checked: int
    witness_q1: np.ndarray | None = None
    witness_q2: np.ndarray | None = None
    form_value: float | None = None


def delta_qc_sample_check(
    p: Callable[[np.ndarray], np.ndarray],
    M,
    pairs: Sequence[tuple],
    tol: float = DEFAULT_TOL,
) -> DeltaQcReport:
    """Spot-check the incremental constraint on the given sample pairs.

    For each pair the stacked increment z = (q2 - q1, p(q2) - p(q1)) must
    satisfy z' M z >= -tol; the first violation is returned as a witness.
    A clean pass is evidence, not proof.
    """
    M = as_matrix(M, "M")
    if M.shape[0] != M.shape[1]:
        raise DimensionMismatch(f"M must be square, got {M.shape}")
    size = M.shape[0]
    count = 0
    for q1, q2 in pairs:
        q1 = np.atleast_1d(np.asarray(q1, dtype=float))
        q2 = np.atleast_1d(np.asarray(q2, dtype=float))
        dq = q2 - q1
        dp = np.atleast_1d(np.asarray(p(q2), dtype=float)) - np.atleast_1d(
            np.asarray(p(q1), dtype=float)
        )
        z = np.concatenate([dq, dp])
        if z.shape[0] != size:
            raise DimensionMismatch(
                f"stacked increment has length {z.shape[0]}, multiplier expects {size}"
            )
        form = float(z @ M @ z)
        count += 1
        if form < -tol:
            return DeltaQcReport(
                holds=False,
                pairs_checked=count,
                witness_q1=q1,
                witness_q2=q2,
                form_value=form,
            )
    return DeltaQcReport(holds=True, pairs_checked=count)


# ---------------------------------------------------------------------------
# derived stability constants


@dataclass(frozen=True)
class GpsConstants:
    """Constants derived from a certificate (P, L, alpha) and a Young
    parameter ``a`` in (0, 2*alpha).

    Along certified runs the squared weighted error V = e' P e obeys
    dV/dt <= -k V + lhat_norm * eta^2 / a, which yields the trajectory
    bound  d(t) <= beta_coeff * exp(-beta_rate * t) * d(0) +
    practical_offset  on the distance to the diagonal.
    """

    a: float
    k: float
    lhat_norm: float
    K1: float
    beta_coeff: float
    beta_rate: float
    practical_offset: float
    gamma: float
    sigma_bound: float
    omega_bound: float
    eta: float


@dataclass(frozen=True)
class _Scales:
    """The eta-independent scales of a certificate (P, L, alpha) with
    gain ``L`` fed through ``B``, at Young parameter ``a``.

    With k = 2*alpha - a, ``ext`` the eigenvalue extremes of P and
    lhat = ||L'B'PBL||, ``ratio`` is lmax(P) / lmin(P), ``drift`` is
    lhat / (a * k * lmin(P)), and K1 = sqrt(ratio + drift).
    """

    k: float
    ext: EigenExtremes
    lhat: float
    ratio: float
    drift: float
    K1: float


def _scales(P, B, L, alpha: float, a: float) -> _Scales:
    if not (math.isfinite(alpha) and alpha > 0.0):
        raise BadRange(f"alpha must be finite and positive, got {alpha}")
    if not (math.isfinite(a) and 0.0 < a < 2.0 * alpha):
        raise BadRange(f"a must lie in (0, {2.0 * alpha}), got {a}")
    k = 2.0 * alpha - a
    if k < 1e-9:
        raise BadRange(f"residual rate k = {k:g} is numerically zero")
    P, ext = _positive_definite(P, DEFAULT_TOL, "P")
    B = as_matrix(B, "B")
    L = as_matrix(L, "L")
    if B.shape[0] != P.shape[0] or L.shape != (B.shape[1], P.shape[0]):
        raise DimensionMismatch(
            f"inconsistent shapes: P {P.shape}, B {B.shape}, L {L.shape}"
        )
    lhat = spectral_norm(L.T @ B.T @ P @ B @ L)
    ratio = ext.lambda_max / ext.lambda_min
    drift = lhat / (a * k * ext.lambda_min)
    return _Scales(k, ext, lhat, ratio, drift, math.sqrt(ratio + drift))


def _gps_from_scales(s: _Scales, alpha: float, a: float, eta: float) -> GpsConstants:
    """The trajectory-bound constants at radius ``eta`` on scales ``s``."""
    return GpsConstants(
        a=a,
        k=s.k,
        lhat_norm=s.lhat,
        K1=s.K1,
        beta_coeff=math.sqrt(s.ratio),
        beta_rate=alpha - 0.5 * a,
        practical_offset=(math.sqrt(s.drift) + 1.0) * eta,
        gamma=s.k,
        sigma_bound=s.lhat * eta**2 / a,
        omega_bound=eta,
        eta=eta,
    )


def _closed_form_radius(prec: PrecisionSpec, K1: float) -> float:
    """The radius with (K1 + 1) * eta * rho = epsilon."""
    return prec.epsilon / (prec.rho * (1.0 + K1))


def gps_constants(P, B, L, alpha: float, a: float, eta: float) -> GpsConstants:
    """Derive the trajectory-bound constants for gain ``L`` fed through ``B``."""
    if not (math.isfinite(eta) and eta > 0.0):
        raise BadRange(f"eta must be finite and positive, got {eta}")
    return _gps_from_scales(_scales(P, B, L, alpha, a), alpha, a, eta)


def eta_bound_closed_form(P, B, L, C_out, alpha: float, a: float, epsilon: float) -> float:
    """Largest lattice radius guaranteeing output error ``epsilon``.

    With K1 from ``gps_constants``, the radius must satisfy

        (K1 + 1) * eta * ||C_out|| <= epsilon,

    so the bound is epsilon / (||C_out|| * (1 + K1)).
    """
    s = _scales(P, B, L, alpha, a)
    return _closed_form_radius(PrecisionSpec(epsilon, spectral_norm(C_out)), s.K1)


def eta_feasible(
    prec: PrecisionSpec,
    alpha_lo: MonomialKInf,
    alpha_hi: MonomialKInf,
    gamma: float | None = None,
    sigma: MonomialKInf | None = None,
) -> float:
    """Largest lattice radius satisfying the comparison-function condition.

    Without a disturbance model the requirement is

        alpha_lo^{-1}(alpha_hi(eta)) + eta < epsilon / rho,

    and with one (``gamma`` and ``sigma`` given, disturbance magnitude
    equal to eta) the left side gains alpha_lo^{-1}(sigma(eta) / gamma)
    and sigma(eta) < gamma * alpha_lo(epsilon / rho) must hold as well.
    With all comparison functions of one power p every term is linear in
    eta, so the bound is where the two sides meet: with t = epsilon / rho,

        eta* = min(t / (1 + (c_hi/c_lo)^{1/p} [+ (c_sigma/(gamma c_lo))^{1/p}]),
                   t * (gamma c_lo / c_sigma)^{1/p}),

    the bracket and the second term only with a disturbance model.
    """
    if (gamma is None) != (sigma is None):
        raise BadRange("gamma and sigma must be supplied together")
    if gamma is not None and not (math.isfinite(gamma) and gamma > 0.0):
        raise BadRange(f"gamma must be finite and positive, got {gamma}")
    powers = {f.power for f in (alpha_lo, alpha_hi, sigma) if f is not None}
    if len(powers) > 1:
        raise BadRange(f"comparison functions must share one power, got {sorted(powers)}")
    target = prec.epsilon / prec.rho
    # with one power p, alpha_lo^{-1}(f(eta)) = eta * alpha_lo^{-1}(f(1))
    slope = 1.0 + alpha_lo.inverse(alpha_hi.forward(1.0))
    cap = math.inf
    if gamma is not None:
        slope += alpha_lo.inverse(sigma.forward(1.0) / gamma)
        cap = target * sigma.inverse(gamma * alpha_lo.forward(1.0))
    eta = min(target / slope, cap)
    if not eta > 1e-9:
        raise Infeasible("no lattice radius above 1e-9 satisfies the condition")
    return eta
