import json

import numpy as np
import pytest

from symabs.abstraction import simulate_augmented
from symabs.config import parse_config
from symabs.dynamics import PiecewiseConstantSignal, SineSystem, integrate_rk4
from symabs.errors import DimensionMismatch, Diverged, InputViolation, OutOfDomain
from symabs.interface import AffineInterface, BoxInputSet
from symabs.lattice import LatticeParams, quantize_batch
from symabs.verify import draw_box_point, draw_signal, trial_rng


def demo_system():
    return SineSystem(A=np.diag([0.15, 0.5]), m_gain=2.0)


def demo_interface():
    return AffineInterface(gain=-5.0 * np.eye(2))


def constant_signal(values, domain_end):
    return PiecewiseConstantSignal(
        breakpoints=np.array([0.0]),
        values=np.array([values], dtype=float),
        domain_end=domain_end,
    )


def test_run_structure_and_invariants():
    params = LatticeParams(n=2, eta=0.15)
    run = simulate_augmented(
        demo_system(), demo_interface(), [0.4, -0.7],
        constant_signal([0.3, -0.1], 1.0), params, 0.5, 1e-3,
    )
    n_samples = 501
    assert run.times.shape == (n_samples,)
    assert run.x1_states.shape == (n_samples, 2)
    assert run.times[-1] == pytest.approx(0.5, abs=1e-12)

    # the recorded abstract state is exactly the quantized phi
    assert np.array_equal(run.x2_states, quantize_batch(run.phi_states, params)[1])

    # the recorded input is exactly the interface formula
    gain = demo_interface().gain
    expected_u = run.v_values + (run.x1_states - run.x2_states) @ gain.T
    assert np.array_equal(run.u_values, expected_u)

    # phi starts at the quantized initial state
    _, q0 = quantize_batch([[0.4, -0.7]], params)
    assert np.array_equal(run.phi_states[0], q0[0])

    # output gap column is the recorded norm (output map is identity)
    ref = np.linalg.norm(run.x1_states - run.x2_states, axis=1)
    assert np.array_equal(run.y_err, ref)


def test_zero_horizon_reduces_to_quantization():
    params = LatticeParams(n=2, eta=0.15)
    x0 = [0.4, -0.7]
    run = simulate_augmented(
        demo_system(), demo_interface(), x0, constant_signal([0.0, 0.0], 1.0),
        params, 0.0, 1e-3,
    )
    assert run.times.shape == (1,)
    assert run.y_err[0] <= 0.15
    _, q0 = quantize_batch([x0], params)
    assert np.array_equal(run.x2_states[0], q0[0])


def test_equilibrium_run_stays_at_origin():
    # the origin is a lattice point and a shared equilibrium under v = 0
    params = LatticeParams(n=2, eta=0.15)
    run = simulate_augmented(
        demo_system(), demo_interface(), [0.0, 0.0],
        constant_signal([0.0, 0.0], 1.0), params, 1.0, 1e-3,
    )
    assert np.all(run.y_err == 0.0)
    assert np.all(run.u_values == 0.0)


def test_gap_stays_bounded_on_demo_run():
    params = LatticeParams(n=2, eta=0.15)
    run = simulate_augmented(
        demo_system(), demo_interface(), [0.9, 0.9],
        constant_signal([0.4, -0.4], 10.0), params, 5.0, 1e-3,
    )
    # certified offset for the demo data, plus the initial transient
    K1 = 2.3109041039770077
    assert float(np.max(run.y_err)) <= (K1 + 1.0) * 0.15 + 0.01


def test_input_violation_detection():
    params = LatticeParams(n=2, eta=0.15)
    tight = BoxInputSet(lower=np.array([-1e-9, -1e-9]), upper=np.array([1e-9, 1e-9]))
    # off-lattice start forces a nonzero correction at t = 0
    with pytest.raises(InputViolation):
        simulate_augmented(
            demo_system(), demo_interface(), [0.4, -0.7],
            constant_signal([0.0, 0.0], 1.0), params, 0.5, 1e-3, input_box=tight,
        )


class CountingSystem:
    """The demo system, counting its right-hand-side calls."""

    def __init__(self):
        self.inner = demo_system()
        self.n = self.inner.n
        self.input_dim = self.inner.input_dim
        self.rhs_calls = 0

    def output_matrix(self):
        return self.inner.output_matrix()

    def rhs(self, x, u):
        self.rhs_calls += 1
        return self.inner.rhs(x, u)


def test_input_violation_at_sample_zero_skips_integration():
    params = LatticeParams(n=2, eta=0.15)
    tight = BoxInputSet(lower=np.array([-1e-9, -1e-9]), upper=np.array([1e-9, 1e-9]))
    sys_model = CountingSystem()
    with pytest.raises(InputViolation, match="t = 0$"):
        simulate_augmented(
            sys_model, demo_interface(), [0.4, -0.7],
            constant_signal([0.0, 0.0], 1.0), params, 0.5, 1e-3, input_box=tight,
        )
    assert sys_model.rhs_calls == 0
    # likewise a batch whose every trial starts outside the set
    batch = simulate_augmented(
        sys_model, demo_interface(), [[0.4, -0.7], [-0.3, 0.2]],
        [constant_signal([0.0, 0.0], 1.0)] * 2, params, 0.5, 1e-3, input_box=tight,
    )
    assert sys_model.rhs_calls == 0
    assert np.array_equal(batch.exit_sample, [0, 0])
    # a start on a lattice point has no correction at sample 0 and runs
    run = simulate_augmented(
        sys_model, demo_interface(), [0.0, 0.0],
        constant_signal([0.0, 0.0], 1.0), params, 0.5, 1e-3, input_box=tight,
    )
    assert sys_model.rhs_calls == 4 * 500
    assert np.all(run.u_values == 0.0)


def test_dimension_and_domain_errors():
    params = LatticeParams(n=2, eta=0.15)
    sig = constant_signal([0.0, 0.0], 1.0)
    with pytest.raises(DimensionMismatch):
        simulate_augmented(
            demo_system(), demo_interface(), [0.0, 0.0, 0.0], sig, params, 0.5, 1e-3
        )
    with pytest.raises(DimensionMismatch):
        simulate_augmented(
            demo_system(), demo_interface(), [0.0, 0.0], sig,
            LatticeParams(n=3, eta=0.15), 0.5, 1e-3,
        )
    wide = AffineInterface(gain=np.zeros((3, 2)))
    assert wide.input_dim == 3
    assert wide.state_dim == 2
    with pytest.raises(DimensionMismatch):
        simulate_augmented(demo_system(), wide, [0.0, 0.0], sig, params, 0.5, 1e-3)
    with pytest.raises(OutOfDomain):
        simulate_augmented(
            demo_system(), demo_interface(), [0.0, 0.0], sig, params, 2.0, 1e-3
        )


# -- batched runs ---------------------------------------------------------

# The benchmark's IQC configuration: n = 4, m = 2, tanh, and a nonzero D_q,
# so every right-hand side resolves the implicit loop by fixed point.
IQC_DOC = {
    "system": {
        "family": "iqc",
        "A": [[-1.0, 0.5, 0.0, 0.0], [0.0, -1.2, 0.4, 0.0], [0.0, 0.0, -0.9, 0.5], [0.3, 0.0, 0.0, -1.1]],
        "B": [[1.0, 0.0], [0.0, 0.0], [0.0, 1.0], [0.0, 0.0]],
        "C": [[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]],
        "E": [[0.4, 0.0], [0.0, 0.4], [0.0, 0.0], [0.4, -0.4]],
        "C_q": [[0.25, 0.0, 0.0, 0.15], [0.0, 0.2, 0.15, 0.0]],
        "D_q": [[0.0, 0.15], [0.15, 0.0]],
        "nonlinearity": "tanh",
    },
    "certificate": {
        "P": np.eye(4).tolist(),
        "L": [[-0.5, 0.0, 0.0, 0.0], [0.0, 0.0, -0.5, 0.0]],
        "alpha": 0.3,
        "M": {"kind": "lipschitz", "ell": 1.0},
    },
    "lattice": {"eta": 0.05},
    "precision": {"epsilon": 0.5},
    "input_set": {"lower": [-2.0, -2.0], "upper": [2.0, 2.0]},
    "initial_box": {"lower": [-1.0] * 4, "upper": [1.0] * 4},
    "simulation": {"horizon": 1.0, "step": 0.001, "dwell": 0.25, "trials": 16, "seed": 0},
}

RECORD_ARRAYS = ("x1_states", "phi_states", "x2_states", "u_values", "v_values", "y_err")


def two_segment_signal(first, second):
    return PiecewiseConstantSignal(
        breakpoints=np.array([0.0, 0.5]),
        values=np.array([first, second], dtype=float),
        domain_end=1.0,
    )


def assert_trial_matches(batch, k, single):
    trial = batch.trial(k)
    assert np.array_equal(trial.times, single.times)
    for name in RECORD_ARRAYS:
        got, want = getattr(trial, name), getattr(single, name)
        assert got.shape == want.shape, name
        assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want))), name


def test_batch_matches_single_runs_sine():
    params = LatticeParams(n=2, eta=0.15)
    starts = np.array([[0.4, -0.7], [0.9, 0.9], [-0.3, 0.25]])
    signals = [
        two_segment_signal([0.3, -0.1], [-0.5, 0.2]),
        two_segment_signal([0.4, -0.4], [0.0, 0.0]),
        two_segment_signal([-1.0, 1.0], [1.5, -0.5]),
    ]
    batch = simulate_augmented(demo_system(), demo_interface(), starts, signals, params, 1.0, 1e-3)
    assert batch.times.shape == (1001,)
    assert batch.x1_states.shape == (3, 1001, 2)
    assert batch.y_err.shape == (3, 1001)
    assert np.array_equal(batch.exit_sample, [-1, -1, -1])
    for k in range(3):
        single = simulate_augmented(
            demo_system(), demo_interface(), starts[k], signals[k], params, 1.0, 1e-3
        )
        assert_trial_matches(batch, k, single)
    # per-trial records are views of the batch arrays, not copies
    assert np.shares_memory(batch.trial(1).x1_states, batch.x1_states)


def test_batch_matches_single_runs_iqc_implicit_loop():
    cfg = parse_config(json.dumps(IQC_DOC))
    sys_model = cfg.system()
    assert np.any(sys_model.D_q)
    params = cfg.lattice_params(0.05)
    abstract_box = BoxInputSet(lower=np.array([-1.5, -1.5]), upper=np.array([1.5, 1.5]))
    starts, signals = [], []
    for k in range(3):
        rng = trial_rng(0, k)
        starts.append(draw_box_point(rng, cfg.initial_box()))
        signals.append(draw_signal(rng, abstract_box, 0.25, 1.0))
    box = cfg.input_set()
    batch = simulate_augmented(
        sys_model, cfg.interface(), np.array(starts), signals, params, 1.0, 1e-3, input_box=box
    )
    assert np.array_equal(batch.exit_sample, [-1, -1, -1])
    for k in range(3):
        single = simulate_augmented(
            sys_model, cfg.interface(), starts[k], signals[k], params, 1.0, 1e-3, input_box=box
        )
        assert_trial_matches(batch, k, single)


def test_uncoupled_concrete_rows_match_integrate_rk4():
    # With G = 0 the concrete state is driven by v alone, so the plain
    # RK4 loop is an oracle for the concrete rows of the batched loop.
    params = LatticeParams(n=2, eta=0.15)
    starts = np.array([[0.4, -0.7], [0.9, 0.9], [-0.3, 0.25]])
    signals = [
        two_segment_signal([0.3, -0.1], [-0.5, 0.2]),
        two_segment_signal([0.4, -0.4], [0.0, 0.0]),
        two_segment_signal([-1.0, 1.0], [1.5, -0.5]),
    ]
    uncoupled = AffineInterface(gain=np.zeros((2, 2)))
    batch = simulate_augmented(demo_system(), uncoupled, starts, signals, params, 1.0, 1e-3)
    for k in range(3):
        ref = integrate_rk4(demo_system(), starts[k], signals[k], 1.0, 1e-3)
        assert np.array_equal(batch.x1_states[k], ref.states)

    cfg = parse_config(json.dumps(IQC_DOC))
    sys_model = cfg.system()
    abstract_box = BoxInputSet(lower=np.array([-1.5, -1.5]), upper=np.array([1.5, 1.5]))
    starts, signals = [], []
    for k in range(3):
        rng = trial_rng(0, k)
        starts.append(draw_box_point(rng, cfg.initial_box()))
        signals.append(draw_signal(rng, abstract_box, 0.25, 1.0))
    uncoupled = AffineInterface(gain=np.zeros((sys_model.input_dim, sys_model.n)))
    batch = simulate_augmented(
        sys_model, uncoupled, np.array(starts), signals, cfg.lattice_params(0.05), 1.0, 1e-3
    )
    for k in range(3):
        want = integrate_rk4(sys_model, starts[k], signals[k], 1.0, 1e-3).states
        got = batch.x1_states[k]
        assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))


def test_batch_isolates_a_trial_that_leaves_the_input_box():
    params = LatticeParams(n=2, eta=0.15)
    box = BoxInputSet(lower=np.array([-3.0, -3.0]), upper=np.array([3.0, 3.0]))
    # [0.4, -0.7] is off the lattice: the correction adds about 0.32 to
    # u_2 at t = 0, so v_2 = 2.95 leaves the box at once.
    starts = np.array([[0.9, 0.9], [0.4, -0.7], [-0.3, 0.25]])
    signals = [
        two_segment_signal([0.4, -0.4], [0.0, 0.0]),
        two_segment_signal([2.95, 2.95], [2.95, 2.95]),
        two_segment_signal([-1.0, 1.0], [1.5, -0.5]),
    ]
    args = (demo_system(), demo_interface(), starts, signals, params, 1.0, 1e-3)
    boxed = simulate_augmented(*args, input_box=box)
    free = simulate_augmented(*args)
    assert np.array_equal(boxed.exit_sample, [-1, 0, -1])
    assert np.array_equal(free.exit_sample, [-1, -1, -1])
    for k in (0, 2):
        for name in RECORD_ARRAYS:
            assert np.array_equal(getattr(boxed.trial(k), name), getattr(free.trial(k), name))
    with pytest.raises(InputViolation, match="t = 0$"):
        simulate_augmented(*args[:2], starts[1], signals[1], *args[4:], input_box=box)


def unstable_setup():
    # Both the concrete and the nominal state grow like exp(50 t), and so
    # does their gap: u = v - 0.01 (x1 - x2) leaves [-1, 1]^2 near
    # t = 0.15, long before the state norm passes 1e12 near t = 0.56.
    sys_model = SineSystem(A=50.0 * np.eye(2), m_gain=0.0)
    iface = AffineInterface(gain=-0.01 * np.eye(2))
    box = BoxInputSet(lower=np.array([-1.0, -1.0]), upper=np.array([1.0, 1.0]))
    return sys_model, iface, box


def test_violation_before_divergence_is_a_violation():
    sys_model, iface, box = unstable_setup()
    params = LatticeParams(n=2, eta=0.15)
    zero = constant_signal([0.0, 0.0], 1.0)
    # trial 1 starts on a lattice point under v = 0 and stays at the origin
    starts = np.array([[0.4, -0.7], [0.0, 0.0]])
    batch = simulate_augmented(sys_model, iface, starts, [zero, zero], params, 1.0, 1e-3, input_box=box)
    first = int(batch.exit_sample[0])
    assert 0 < first < 560
    assert batch.exit_sample[1] == -1
    assert np.all(batch.y_err[1] == 0.0)
    with pytest.raises(InputViolation):
        simulate_augmented(sys_model, iface, starts[0], zero, params, 1.0, 1e-3, input_box=box)
    # without the box the same trial's first event is divergence
    with pytest.raises(Diverged, match="^state norm"):
        simulate_augmented(sys_model, iface, starts[0], zero, params, 1.0, 1e-3)
    with pytest.raises(Diverged, match="^trial 0: state norm"):
        simulate_augmented(sys_model, iface, starts, [zero, zero], params, 1.0, 1e-3)


def test_batch_shape_errors():
    params = LatticeParams(n=2, eta=0.15)
    sig = constant_signal([0.0, 0.0], 1.0)
    with pytest.raises(DimensionMismatch):
        simulate_augmented(demo_system(), demo_interface(), np.zeros((2, 2)), [sig], params, 0.5, 1e-3)
    with pytest.raises(DimensionMismatch):
        simulate_augmented(demo_system(), demo_interface(), np.zeros((1, 3)), [sig], params, 0.5, 1e-3)
    with pytest.raises(DimensionMismatch):
        simulate_augmented(demo_system(), demo_interface(), np.zeros((0, 2)), [], params, 0.5, 1e-3)
