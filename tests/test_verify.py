import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from symabs.abstraction import AugmentedRun, simulate_augmented
from symabs.certificates import GpsConstants, gps_constants
from symabs.dynamics import PiecewiseConstantSignal, SineSystem
from symabs.errors import BadRange, GridMismatch, GridTooCoarse
from symabs.interface import ALL_SPACE, AffineInterface, BoxInputSet
from symabs.lattice import LatticeParams
from symabs.verify import (
    OutputSeries,
    draw_box_point,
    draw_signal,
    eps_close,
    lyapunov_decrease_check,
    trial_rng,
    verify_gps_trajectory,
    verify_simulation_relation,
)

DEMO_SYS = SineSystem(A=np.diag([0.15, 0.5]), m_gain=2.0)
DEMO_IFACE = AffineInterface(gain=-5.0 * np.eye(2))
DEMO_PARAMS = LatticeParams(n=2, eta=0.15)
DEMO_INIT = BoxInputSet(lower=np.array([-1.0, -1.0]), upper=np.array([1.0, 1.0]))


def demo_consts(eta=0.15):
    return gps_constants(
        P=np.eye(2), B=np.eye(2), L=-5.0 * np.eye(2), alpha=2.4, a=2.4, eta=eta
    )


def demo_uprime(eta=0.15):
    K1 = demo_consts(eta).K1
    r = 5.0 * (K1 + 1.0) * eta
    return BoxInputSet(
        lower=np.array([-3.0 + r, -3.0 + r]), upper=np.array([3.0 - r, 3.0 - r])
    )


def run_relation(eta=0.15, trials=3, horizon=1.0, **kwargs):
    return verify_simulation_relation(
        DEMO_SYS,
        DEMO_IFACE,
        LatticeParams(n=2, eta=eta),
        0.5,
        demo_uprime(eta),
        DEMO_INIT,
        trials,
        0,
        horizon,
        1e-3,
        0.5,
        **kwargs,
    )


# -- output closeness ---------------------------------------------------

def test_eps_close_identical_series():
    t = np.linspace(0.0, 1.0, 11)
    v = np.column_stack([np.sin(t), np.cos(t)])
    report = eps_close(OutputSeries(t, v), OutputSeries(t, v), 0.0)
    assert report.passed
    assert report.max_gap == 0.0


def test_eps_close_gap_and_argmax():
    t = np.array([0.0, 1.0, 2.0])
    a = np.zeros((3, 1))
    b = np.array([[0.0], [0.3], [0.1]])
    report = eps_close(OutputSeries(t, a), OutputSeries(t, b), 0.2)
    assert not report.passed
    assert report.max_gap == pytest.approx(0.3, abs=1e-15)
    assert report.argmax_time == 1.0
    # symmetric in the two series
    sym = eps_close(OutputSeries(t, b), OutputSeries(t, a), 0.2)
    assert sym.max_gap == report.max_gap


def test_eps_close_grid_mismatch():
    a = OutputSeries(np.array([0.0, 1.0]), np.zeros((2, 1)))
    b = OutputSeries(np.array([0.0, 2.0]), np.zeros((2, 1)))
    with pytest.raises(GridMismatch):
        eps_close(a, b, 1.0)
    c = OutputSeries(np.array([0.0, 1.0, 2.0]), np.zeros((3, 1)))
    with pytest.raises(GridMismatch):
        eps_close(a, c, 1.0)


# -- randomness plumbing ------------------------------------------------

def test_trial_rng_reproducible_and_independent():
    a = trial_rng(7, 3).uniform(size=8)
    b = trial_rng(7, 3).uniform(size=8)
    c = trial_rng(7, 4).uniform(size=8)
    d = trial_rng(8, 3).uniform(size=8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_draw_box_point_within_bounds():
    box = BoxInputSet(lower=np.array([-2.0, 1.0]), upper=np.array([-1.0, 4.0]))
    for k in range(20):
        p = draw_box_point(trial_rng(0, k), box)
        assert box.contains(p)


def test_draw_signal_structure():
    box = BoxInputSet(lower=np.array([-1.0]), upper=np.array([1.0]))
    sig = draw_signal(trial_rng(0, 0), box, dwell=0.5, horizon=10.0)
    assert sig.breakpoints.shape == (20,)
    assert sig.breakpoints[0] == 0.0
    assert sig.domain_end == pytest.approx(10.0, abs=1e-12)
    assert np.all(np.abs(sig.values) <= 1.0)
    # dwell longer than the horizon still yields one usable segment
    short = draw_signal(trial_rng(0, 0), box, dwell=3.0, horizon=1.0)
    assert short.breakpoints.shape == (1,)
    assert short.domain_end == 3.0


# -- randomized relation check -------------------------------------------

def test_relation_demo_passes():
    report = run_relation()
    assert report.passed
    assert report.trials == 3
    assert report.input_violations == 0
    assert report.max_err <= 0.5
    assert len(report.per_trial_max_err) == 3
    assert len(report.runs) == 3
    assert report.max_err == max(report.per_trial_max_err)


def test_relation_deterministic():
    a = run_relation()
    b = run_relation()
    assert a.passed == b.passed
    assert a.max_err == b.max_err
    assert a.argmax_time == b.argmax_time
    assert a.per_trial_max_err == b.per_trial_max_err
    assert len(b.runs) == len(a.runs) == 3
    for ra, rb in zip(a.runs, b.runs):
        assert np.array_equal(ra.x1_states, rb.x1_states)
        assert np.array_equal(ra.phi_states, rb.phi_states)


def test_relation_zero_horizon_trivial():
    report = run_relation(horizon=0.0, trials=4)
    assert report.passed
    # only the initial quantization contributes
    assert report.max_err <= 0.15


def test_relation_counts_input_violations():
    # v is drawn from [2,3]^2 but the declared set is tiny, so every
    # trial violates at t = 0
    tight = BoxInputSet(lower=np.array([-0.1, -0.1]), upper=np.array([0.1, 0.1]))
    uprime = BoxInputSet(lower=np.array([2.0, 2.0]), upper=np.array([3.0, 3.0]))
    report = verify_simulation_relation(
        DEMO_SYS, DEMO_IFACE, DEMO_PARAMS, 0.5, uprime, DEMO_INIT,
        3, 0, 0.5, 1e-3, 0.5, input_box=tight,
    )
    assert not report.passed
    assert report.input_violations == 3
    assert report.exit_times == [0.0, 0.0, 0.0]
    assert report.max_err == math.inf
    assert all(math.isinf(v) for v in report.per_trial_max_err)


def test_relation_requires_bounded_sampling_box():
    with pytest.raises(BadRange):
        verify_simulation_relation(
            DEMO_SYS, DEMO_IFACE, DEMO_PARAMS, 0.5, ALL_SPACE, DEMO_INIT,
            1, 0, 1.0, 1e-3, 0.5,
        )
    with pytest.raises(BadRange):
        run_relation(trials=0)


def test_relation_mean_error_monotone_in_eta():
    means = []
    for eta in (0.15, 0.10, 0.05):
        report = run_relation(eta=eta, trials=5)
        means.append(float(np.mean(report.per_trial_max_err)))
    assert means[0] >= means[1] >= means[2]


def test_relation_memory_is_the_integrated_states():
    # A run record stores x1 and phi only: 2n floats per sample per trial.
    # The rest is derived one trial at a time, in temporaries of a few
    # (steps + 1, n) arrays.
    trials, steps, n = 40, 2000, 2
    states_bytes = 2 * trials * (steps + 1) * n * 8
    temporaries = 16 * (steps + 1) * n * 8
    box = BoxInputSet(lower=np.array([-3.0, -3.0]), upper=np.array([3.0, 3.0]))
    run_relation(trials=1, horizon=0.01, input_box=box)  # first-call allocations
    tracemalloc.start()
    try:
        report = run_relation(trials=trials, horizon=steps * 1e-3, input_box=box)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.passed
    assert len(report.runs) == trials
    assert peak < states_bytes + temporaries

    starts = np.tile([0.4, -0.7], (trials, 1))
    signals = [
        PiecewiseConstantSignal(breakpoints=np.array([0.0]), values=np.zeros((1, 2)), domain_end=2.0)
    ] * trials
    batch = simulate_augmented(DEMO_SYS, DEMO_IFACE, starts, signals, DEMO_PARAMS, 2.0, 1e-3)
    per_sample = [
        a for a in vars(batch).values()
        if isinstance(a, np.ndarray) and a.shape[:2] == (trials, steps + 1)
    ]
    assert sum(a.nbytes for a in per_sample) == states_bytes


# -- decay-plus-offset bound ---------------------------------------------

def synthetic_run(gap, n_samples=11, step=0.1):
    times = np.arange(n_samples) * step
    x1 = np.tile(np.array([gap, 0.0]), (n_samples, 1))
    # phi = 0 is a lattice point, so x2 = 0 and the output gap is ``gap``
    return AugmentedRun(
        times=times,
        x1_states=x1,
        phi_states=np.zeros((n_samples, 2)),
        step=step,
        spacing=DEMO_PARAMS.spacing,
        interface=DEMO_IFACE,
        output=np.eye(2),
        signals=(
            PiecewiseConstantSignal(
                breakpoints=np.array([0.0]), values=np.zeros((1, 2)), domain_end=n_samples * step
            ),
        ),
    )


def test_gps_bound_on_demo_trials():
    consts = demo_consts()
    report = run_relation()
    for run in report.runs:
        g = verify_gps_trajectory(run, consts, 1e-3)
        assert g.passed
        assert g.practical_offset == pytest.approx(0.4625, abs=1e-9)


def test_gps_bound_equilibrium_trivial():
    consts = demo_consts()
    run = synthetic_run(gap=0.0)
    report = verify_gps_trajectory(run, consts)
    assert report.passed
    assert report.worst_margin == pytest.approx(consts.practical_offset, abs=1e-12)


def test_gps_bound_zero_offset_fails():
    # constant gap 0.3 with no offset: margin tends to -0.3 as the decay
    # term dies out
    consts = dataclasses.replace(demo_consts(), practical_offset=0.0)
    report = verify_gps_trajectory(synthetic_run(gap=0.3, n_samples=101), consts)
    assert not report.passed
    assert report.worst_margin == pytest.approx(-0.3, abs=1e-3)


def test_gps_bound_monotone_in_offset():
    consts = demo_consts()
    run = synthetic_run(gap=0.3)
    base = verify_gps_trajectory(run, consts)
    bigger = verify_gps_trajectory(
        run, dataclasses.replace(consts, practical_offset=consts.practical_offset + 0.2)
    )
    assert base.passed
    assert bigger.passed
    assert bigger.worst_margin >= base.worst_margin


# -- decrease along runs ---------------------------------------------------

def test_lyapunov_on_demo_trials():
    consts = demo_consts()
    report = run_relation()
    for run in report.runs:
        ly = lyapunov_decrease_check(run, np.eye(2), consts)
        assert ly.passed
        assert ly.satisfied_fraction == 1.0
        assert ly.interior_samples == run.times.shape[0] - 2


def test_lyapunov_equilibrium_trivial():
    consts = demo_consts()
    ly = lyapunov_decrease_check(synthetic_run(gap=0.0), np.eye(2), consts)
    assert ly.passed
    assert ly.worst_violation == pytest.approx(-consts.sigma_bound, abs=1e-12)


def test_lyapunov_destabilizing_gain_violates():
    bad_iface = AffineInterface(gain=5.0 * np.eye(2))
    sig = PiecewiseConstantSignal(
        breakpoints=np.array([0.0]), values=np.zeros((1, 2)), domain_end=3.0
    )
    run = simulate_augmented(
        DEMO_SYS, bad_iface, [0.9, 0.9], sig, DEMO_PARAMS, 2.0, 1e-3
    )
    ly = lyapunov_decrease_check(run, np.eye(2), demo_consts())
    assert not ly.passed
    assert ly.worst_violation > 0.0
    assert ly.satisfied_fraction < 0.99


def test_lyapunov_grid_too_coarse():
    with pytest.raises(GridTooCoarse):
        lyapunov_decrease_check(synthetic_run(gap=0.1, n_samples=2), np.eye(2), demo_consts())


def test_relation_isolates_violating_trials():
    free = run_relation(trials=6)
    peaks = sorted(float(np.max(np.abs(run.u_values))) for run in free.runs)
    bound = 0.5 * (peaks[2] + peaks[3])
    box = BoxInputSet(lower=np.array([-bound, -bound]), upper=np.array([bound, bound]))
    boxed = run_relation(trials=6, input_box=box)
    assert not boxed.passed
    assert boxed.input_violations == 3
    assert len(boxed.runs) == 3
    assert free.exit_times == [None] * 6
    for run, err, free_err, exit_time in zip(
        free.runs, boxed.per_trial_max_err, free.per_trial_max_err, boxed.exit_times
    ):
        if float(np.max(np.abs(run.u_values))) > bound:
            assert math.isinf(err)
            # the first sample of u outside the box, on the shared grid
            first = int(np.argmax(np.any(np.abs(run.u_values) > bound, axis=1)))
            assert exit_time == run.times[first]
        else:
            assert err == free_err
            assert exit_time is None


def test_relation_counts_violation_before_divergence():
    # The gap of this unstable pair grows like exp(50 t): u leaves the
    # declared box well before the states diverge, so each trial is an
    # input violation rather than a Diverged error for the whole call.
    report = verify_simulation_relation(
        SineSystem(A=50.0 * np.eye(2), m_gain=0.0),
        AffineInterface(gain=-0.01 * np.eye(2)),
        DEMO_PARAMS,
        0.5,
        BoxInputSet(lower=np.zeros(2), upper=np.zeros(2)),
        BoxInputSet(lower=np.array([0.3, -0.8]), upper=np.array([0.6, -0.5])),
        3, 0, 1.0, 1e-3, 0.5,
        input_box=BoxInputSet(lower=np.array([-1.0, -1.0]), upper=np.array([1.0, 1.0])),
    )
    assert report.input_violations == 3
    assert all(math.isinf(v) for v in report.per_trial_max_err)
    assert report.runs == []
