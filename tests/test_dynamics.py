import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from test_abstraction import IQC_DOC

from symabs.dynamics import (
    IqcSystem,
    PiecewiseConstantSignal,
    SineSystem,
    integrate_rk4,
    rk4_step,
)
from symabs.errors import (
    DimensionMismatch,
    Diverged,
    MisalignedSignal,
    NonFinite,
    OutOfDomain,
)


def zero_signal(dim, domain_end):
    return PiecewiseConstantSignal(
        breakpoints=np.array([0.0]),
        values=np.zeros((1, dim)),
        domain_end=domain_end,
    )


# -- one-step oracle ---------------------------------------------------

def test_rk4_single_step_linear_decay():
    # dx/dt = -x, x(0) = 1, h = 0.1.  The stage recurrence reduces to the
    # degree-4 Taylor polynomial of exp(-h).
    h = 0.1
    k1 = -1.0
    k2 = -(1.0 + 0.5 * h * k1)
    k3 = -(1.0 + 0.5 * h * k2)
    k4 = -(1.0 + h * k3)
    expected = 1.0 + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    assert expected == pytest.approx(0.9048375, abs=1e-15)

    out = rk4_step(lambda x: -x, np.array([1.0]), h)
    assert out[0] == expected
    poly = 1.0 - h + h**2 / 2.0 - h**3 / 6.0 + h**4 / 24.0
    assert out[0] == pytest.approx(poly, abs=1e-15)


def test_rk4_fourth_order_convergence():
    # global error against exp(-1) must shrink ~16x per halving
    def endpoint(h):
        sys = SineSystem(A=np.array([[-1.0]]), m_gain=0.0)
        traj = integrate_rk4(sys, [1.0], zero_signal(1, 2.0), 1.0, h)
        return traj.states[-1, 0]

    errors = [abs(endpoint(h) - math.exp(-1.0)) for h in (0.05, 0.025, 0.0125, 0.00625)]
    ratios = [errors[i] / errors[i + 1] for i in range(3)]
    for r in ratios:
        assert 14.0 <= r <= 18.0


# -- vector fields -----------------------------------------------------

def test_sine_rhs_known_value():
    sys = SineSystem(A=np.diag([0.15, 0.5]), m_gain=2.0)
    x = np.array([math.pi / 2.0, 0.0])
    u = np.array([1.0, -1.0])
    out = sys.rhs(x, u)
    # A x = (0.15*pi/2, 0); sin(x) = (1, 0)
    assert out[0] == pytest.approx(0.15 * math.pi / 2.0 + 2.0 + 1.0, abs=1e-15)
    assert out[1] == pytest.approx(-1.0, abs=0.0)
    assert np.array_equal(sys.output_matrix(), np.eye(2))


def test_sine_system_dimensions():
    sys = SineSystem(A=np.zeros((3, 3)), m_gain=1.0)
    assert sys.n == 3
    assert sys.input_dim == 3
    assert sys.output_matrix().shape == (3, 3)
    with pytest.raises(DimensionMismatch):
        SineSystem(A=np.zeros((2, 3)), m_gain=1.0)


def test_iqc_explicit_loop_matches_manual():
    sys = IqcSystem(
        A=np.array([[-1.0]]),
        B=np.array([[1.0]]),
        C=np.array([[1.0]]),
        E=np.array([[0.5]]),
        C_q=np.array([[2.0]]),
        D_q=np.array([[0.0]]),
        p=np.tanh,
    )
    x = np.array([0.3])
    u = np.array([0.1])
    expected = -0.3 + 0.1 + 0.5 * math.tanh(0.6)
    assert sys.rhs(x, u)[0] == pytest.approx(expected, abs=1e-15)
    assert (sys.output_matrix() @ x)[0] == 0.3


def test_iqc_implicit_loop_fixed_point():
    # nonzero D_q: w must solve w = tanh(q + 0.5 w); the loop is a
    # contraction since |tanh'| <= 1 and |D_q| = 0.5
    sys = IqcSystem(
        A=np.array([[0.0]]),
        B=np.array([[1.0]]),
        C=np.array([[1.0]]),
        E=np.array([[1.0]]),
        C_q=np.array([[1.0]]),
        D_q=np.array([[0.5]]),
        p=np.tanh,
    )
    x = np.array([0.8])
    w = sys.rhs(x, np.array([0.0]))[0]
    assert w == pytest.approx(math.tanh(0.8 + 0.5 * w), abs=1e-10)


def test_iqc_implicit_loop_divergence():
    sys = IqcSystem(
        A=np.array([[0.0]]),
        B=np.array([[1.0]]),
        C=np.array([[1.0]]),
        E=np.array([[1.0]]),
        C_q=np.array([[1.0]]),
        D_q=np.array([[1.0]]),
        p=lambda w: 2.0 * w,
    )
    with pytest.raises(Diverged):
        sys.rhs(np.array([1.0]), np.array([0.0]))


# Corners of the IQC fixture's initial box [-1, 1]^4, the same corners at
# three times the box, and the origin.
IQC_ROWS = np.array(
    [(0.0,) * 4] + [c for s in (1.0, 3.0) for c in itertools.product((-s, s), repeat=4)]
)


def iqc_fixture_system(d_q, p):
    m = {k: np.array(IQC_DOC["system"][k]) for k in ("A", "B", "C", "E", "C_q")}
    return IqcSystem(D_q=d_q, p=p, **m)


@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    gain=st.floats(min_value=0.0, max_value=0.5),
    p=st.sampled_from([np.tanh, np.sin]),
)
def test_iqc_implicit_loop_contract_on_stacks(seed, gain, p):
    # |p'| <= 1 and ||D_q||_2 <= 0.5, so the loop contracts by at least 1/2
    raw = np.random.default_rng(seed).standard_normal((2, 2))
    d_q = gain * raw / np.linalg.norm(raw, 2)
    sys = iqc_fixture_system(d_q, p)
    w = sys._loop_value(IQC_ROWS)
    q = IQC_ROWS @ sys.C_q.T
    residual = np.linalg.norm(w - p(q + w @ d_q.T), axis=1)
    assert np.all(residual <= 1e-12 * (1.0 + np.linalg.norm(w, axis=1)))
    for i in range(len(IQC_ROWS)):
        alone = sys._loop_value(IQC_ROWS[i : i + 1])[0]
        assert np.all(np.abs(alone - w[i]) <= 1e-15 * np.maximum(1.0, np.abs(w[i])))
    assert sys._loop_value(IQC_ROWS[:0]).shape == (0, 2)


def test_iqc_dimension_validation():
    good = dict(
        A=np.zeros((2, 2)),
        B=np.zeros((2, 1)),
        C=np.zeros((1, 2)),
        E=np.zeros((2, 1)),
        C_q=np.zeros((1, 2)),
        D_q=np.zeros((1, 1)),
        p=np.tanh,
    )
    sys = IqcSystem(**good)
    assert (sys.n, sys.input_dim, sys.output_matrix().shape[0], sys.l_p, sys.l_e) == (2, 1, 1, 1, 1)
    for key, bad in [
        ("B", np.zeros((3, 1))),
        ("C", np.zeros((1, 3))),
        ("E", np.zeros((3, 1))),
        ("C_q", np.zeros((1, 3))),
        ("D_q", np.zeros((2, 2))),
    ]:
        with pytest.raises(DimensionMismatch):
            IqcSystem(**{**good, key: bad})


# -- piecewise-constant signals ----------------------------------------

def test_signal_evaluation_right_continuous():
    sig = PiecewiseConstantSignal(
        breakpoints=np.array([0.0, 1.0, 2.0]),
        values=np.array([[0.0], [1.0], [2.0]]),
        domain_end=3.0,
    )
    vals = sig.step_values(1e-3, 3000)[:, 0]
    assert (vals[0], vals[999], vals[1000], vals[2500]) == (0.0, 0.0, 1.0, 2.0)
    # the sample at domain_end reuses the last segment
    assert vals[3000] == 2.0
    # integration checks the horizon against [0, domain_end]
    sys = SineSystem(A=np.zeros((1, 1)), m_gain=0.0)
    with pytest.raises(OutOfDomain):
        integrate_rk4(sys, [0.0], sig, 3.5, 0.5)
    with pytest.raises(OutOfDomain):
        integrate_rk4(sys, [0.0], sig, -0.5, 0.5)


def test_signal_validation():
    with pytest.raises(OutOfDomain):
        PiecewiseConstantSignal(np.array([0.5]), np.array([[1.0]]), 1.0)
    with pytest.raises(OutOfDomain):
        PiecewiseConstantSignal(np.array([0.0, 0.0]), np.array([[1.0], [2.0]]), 1.0)
    with pytest.raises(DimensionMismatch):
        PiecewiseConstantSignal(np.array([0.0, 1.0]), np.array([[1.0]]), 2.0)
    with pytest.raises(OutOfDomain):
        PiecewiseConstantSignal(np.array([0.0]), np.array([[1.0]]), 0.0)
    with pytest.raises(NonFinite):
        PiecewiseConstantSignal(np.array([0.0]), np.array([[np.nan]]), 1.0)


def test_step_values_clamp_final_sample():
    sig = PiecewiseConstantSignal(
        breakpoints=np.array([0.0, 0.5]),
        values=np.array([[1.0], [2.0]]),
        domain_end=1.0,
    )
    vals = sig.step_values(0.25, 4)
    assert vals[:, 0].tolist() == [1.0, 1.0, 2.0, 2.0, 2.0]


def test_step_values_rejects_off_grid_breakpoints():
    sig = PiecewiseConstantSignal(
        breakpoints=np.array([0.0, 0.3]),
        values=np.array([[1.0], [2.0]]),
        domain_end=1.0,
    )
    with pytest.raises(MisalignedSignal):
        sig.step_values(0.2, 5)


# -- integration -------------------------------------------------------

def test_integrate_matches_exponential():
    sys = SineSystem(A=np.diag([-1.0, -2.0]), m_gain=0.0)
    traj = integrate_rk4(sys, [1.0, -1.0], zero_signal(2, 2.0), 1.0, 1e-3)
    assert traj.states.shape == (1001, 2)
    assert traj.times[-1] == pytest.approx(1.0, abs=1e-12)
    assert traj.states[-1, 0] == pytest.approx(math.exp(-1.0), abs=1e-10)
    assert traj.states[-1, 1] == pytest.approx(-math.exp(-2.0), abs=1e-10)


def test_integrate_applies_signal_segments():
    # pure integrator driven by a step: x(2) = 1*1 + (-1)*1 = 0
    sys = SineSystem(A=np.array([[0.0]]), m_gain=0.0)
    sig = PiecewiseConstantSignal(
        breakpoints=np.array([0.0, 1.0]),
        values=np.array([[1.0], [-1.0]]),
        domain_end=2.0,
    )
    traj = integrate_rk4(sys, [0.0], sig, 2.0, 0.01)
    assert traj.states[100, 0] == pytest.approx(1.0, abs=1e-12)
    assert traj.states[-1, 0] == pytest.approx(0.0, abs=1e-12)


def test_integrate_step_refinement():
    sys = SineSystem(A=np.diag([0.15, 0.5]), m_gain=2.0)
    sig = zero_signal(2, 2.0)
    coarse = integrate_rk4(sys, [0.4, -0.7], sig, 1.0, 2e-3)
    fine = integrate_rk4(sys, [0.4, -0.7], sig, 1.0, 1e-3)
    gap = np.linalg.norm(coarse.states[-1] - fine.states[-1])
    assert gap < 1e-4


def test_integrate_divergence_guard():
    sys = SineSystem(A=np.diag([5.0, 5.0]), m_gain=0.0)
    with pytest.raises(Diverged):
        integrate_rk4(sys, [1.0, 1.0], zero_signal(2, 11.0), 10.0, 0.01)


def test_integrate_grid_errors():
    sys = SineSystem(A=np.array([[0.0]]), m_gain=0.0)
    with pytest.raises(MisalignedSignal):
        integrate_rk4(sys, [0.0], zero_signal(1, 2.0), 1.0, 0.3)
    with pytest.raises(OutOfDomain):
        integrate_rk4(sys, [0.0], zero_signal(1, 0.5), 1.0, 0.1)
    with pytest.raises(DimensionMismatch):
        integrate_rk4(sys, [0.0], zero_signal(2, 2.0), 1.0, 0.1)


def test_integrate_zero_horizon():
    sys = SineSystem(A=np.array([[0.0]]), m_gain=0.0)
    traj = integrate_rk4(sys, [0.25], zero_signal(1, 1.0), 0.0, 0.1)
    assert traj.states.shape == (1, 1)
    assert traj.states[0, 0] == 0.25
