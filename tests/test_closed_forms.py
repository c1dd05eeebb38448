"""The closed forms of planning against the searches they replace.

The rate boundary of both certificate families is checked against the
test it is the threshold of (``nsd_check`` on the assembled block) and
against a bisection of that test written here; the theorem-2/3 radii
are checked against the strict comparison-function condition itself.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_abstraction import IQC_DOC

from symabs.certificates import (
    IqcCertificate,
    MonomialKInf,
    PrecisionSpec,
    SineCertificate,
    assemble_lmi_iqc,
    assemble_lmi_sine,
    eta_feasible,
    max_feasible_alpha_iqc,
    max_feasible_alpha_sine,
)
from symabs.config import load_config, parse_config, theorem_eta_bound
from symabs.errors import BadRange, Infeasible, NotSymmetric
from symabs.numerics import DEFAULT_TOL, nsd_check


def bisected_boundary(holds):
    """Largest rate at which ``holds`` is true, to 1e-11, by doubling and
    bisection; ``holds`` must be true near 0 and false far out."""
    lo, hi = 0.0, 1.0
    while holds(hi):
        lo, hi = hi, 2.0 * hi
    while hi - lo > 1e-11:
        mid = 0.5 * (lo + hi)
        if holds(mid):
            lo = mid
        else:
            hi = mid
    return lo


def random_sine_certificate(n, seed):
    """(P, R, A, m_gain) whose inequality holds up to a rate in [0.5, 3]:
    R makes the block's Schur complement 2 (alpha - rate) P."""
    rng = np.random.default_rng(seed)
    A = -np.diag(rng.uniform(0.2, 1.5, n)) + 0.3 * rng.standard_normal((n, n)) / math.sqrt(n)
    m_gain = float(rng.uniform(0.5, 2.0))
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    P = Q @ np.diag(rng.uniform(0.5, 2.0, n)) @ Q.T
    P = 0.5 * (P + P.T)
    rate = float(rng.uniform(0.5, 3.0))
    R = -0.5 * (A.T @ P + P @ A + 2.0 * rate * P + m_gain**2 * np.eye(n) + P @ P)
    return P, 0.5 * (R + R.T), A, m_gain


def check_rate_boundary(boundary, holds):
    assert holds(boundary - 1e-8)
    assert not holds(boundary + 1e-8)
    assert abs(boundary - bisected_boundary(holds)) <= 1e-9


@settings(max_examples=40)
@given(n=st.integers(2, 4), seed=st.integers(0, 2**32 - 1))
def test_sine_boundary_is_the_threshold_of_the_check(n, seed):
    P, R, A, m_gain = random_sine_certificate(n, seed)

    def holds(alpha):
        block = assemble_lmi_sine(SineCertificate(P=P, R=R, alpha=alpha, m_gain=m_gain), A)
        return nsd_check(block, DEFAULT_TOL).holds

    check_rate_boundary(max_feasible_alpha_sine(P, R, A, m_gain), holds)


def iqc_parts(doc=IQC_DOC):
    cfg = parse_config(json.dumps(doc))
    return np.array(cfg.P), np.array(cfg.L), cfg.multiplier(), cfg.system()


def test_iqc_boundary_is_the_threshold_of_the_check():
    P, L, M, sys = iqc_parts()

    def holds(alpha):
        block = assemble_lmi_iqc(IqcCertificate(P=P, L=L, alpha=alpha, M=M), sys)
        return nsd_check(block, DEFAULT_TOL).holds

    boundary = max_feasible_alpha_iqc(P, L, M, sys)
    assert 0.70 < boundary < 0.71
    check_rate_boundary(boundary, holds)


def test_iqc_multiplier_with_positive_lower_block_is_infeasible():
    # the block's lower-right corner D_q'D_q + I is positive definite, so
    # by interlacing no rate makes the whole block negative semidefinite
    P, L, _, sys = iqc_parts()
    with pytest.raises(Infeasible):
        max_feasible_alpha_iqc(P, L, np.eye(4), sys)


def test_demo_boundary_at_zero_tolerance_is_two():
    # Schur complement 2A + (2 alpha - 5) I reaches zero exactly at alpha = 2
    got = max_feasible_alpha_sine(np.eye(2), -5.0 * np.eye(2), np.diag([0.15, 0.5]), 2.0, tol=0.0)
    assert abs(got - 2.0) <= 1e-15


def strict_condition(prec, alpha_lo, alpha_hi, gamma=None, sigma=None):
    """The comparison-function condition of ``eta_feasible`` as written."""
    target = prec.epsilon / prec.rho

    def admissible(eta):
        lhs = alpha_lo.inverse(alpha_hi.forward(eta)) + eta
        if gamma is not None:
            lhs += alpha_lo.inverse(sigma.forward(eta) / gamma)
            if sigma.forward(eta) >= gamma * alpha_lo.forward(target):
                return False
        return lhs < target

    return admissible


coeffs = st.floats(0.05, 20.0)


@given(
    c_lo=coeffs, c_hi=coeffs, c_sigma=coeffs, gamma=coeffs,
    epsilon=st.floats(0.1, 2.0), rho=st.floats(0.5, 3.0), disturbed=st.booleans(),
)
def test_eta_feasible_is_where_the_sides_meet(c_lo, c_hi, c_sigma, gamma, epsilon, rho, disturbed):
    prec = PrecisionSpec(epsilon=epsilon, rho=rho)
    funcs = [MonomialKInf(c_lo, 2.0), MonomialKInf(c_hi, 2.0)]
    disturbance = {"gamma": gamma, "sigma": MonomialKInf(c_sigma, 2.0)} if disturbed else {}
    eta = eta_feasible(prec, *funcs, **disturbance)
    admissible = strict_condition(prec, *funcs, **disturbance)
    assert admissible(eta * (1.0 - 1e-9))
    assert not admissible(eta * (1.0 + 1e-9))


def test_demo_theorem_2_and_3_radii():
    cfg = load_config("example_sec6")
    assert theorem_eta_bound(cfg, 2) == 0.25
    # (2 + sqrt(25 / 5.76)) eta = 0.5
    assert abs(theorem_eta_bound(cfg, 3) - 6.0 / 49.0) <= 1e-15


def test_eta_feasible_rejects_mixed_powers():
    prec = PrecisionSpec(epsilon=0.5, rho=1.0)
    square = MonomialKInf(coeff=1.0, power=2.0)
    cube = MonomialKInf(coeff=1.0, power=3.0)
    with pytest.raises(BadRange):
        eta_feasible(prec, square, cube)
    with pytest.raises(BadRange):
        eta_feasible(prec, square, square, gamma=1.0, sigma=cube)


def test_boundary_rejects_an_asymmetric_block():
    R = np.array([[-5.0, 1.0], [0.0, -5.0]])
    with pytest.raises(NotSymmetric):
        max_feasible_alpha_sine(np.eye(2), R, np.diag([0.15, 0.5]), 2.0)
