"""Trajectory-level verification: output closeness, randomized relation
trials, decay-plus-offset bounds, and Lyapunov decrease along runs.

All randomness flows from one 64-bit seed through a counter-based
(Philox) generator keyed per trial, so trial k reproduces independently
of how many trials run or in which order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .abstraction import AugmentedRun, simulate_augmented
from .certificates import GpsConstants
from .dynamics import PiecewiseConstantSignal, SystemModel
from .errors import BadRange, DimensionMismatch, GridMismatch, GridTooCoarse
from .interface import ALL_SPACE, AffineInterface, BoxInputSet, InputSet
from .lattice import LatticeParams
from .numerics import as_matrix


@dataclass(frozen=True)
class OutputSeries:
    times: np.ndarray
    values: np.ndarray


@dataclass(frozen=True)
class CloseReport:
    passed: bool
    max_gap: float
    argmax_time: float


def eps_close(z1: OutputSeries, z2: OutputSeries, epsilon: float) -> CloseReport:
    """Max output gap over a shared time grid, compared against epsilon."""
    t1 = np.asarray(z1.times, dtype=float)
    t2 = np.asarray(z2.times, dtype=float)
    if t1.shape != t2.shape or not np.array_equal(t1, t2):
        raise GridMismatch("series are sampled on different time grids")
    v1 = np.atleast_2d(np.asarray(z1.values, dtype=float))
    v2 = np.atleast_2d(np.asarray(z2.values, dtype=float))
    if v1.shape != v2.shape:
        raise DimensionMismatch(f"value shapes differ: {v1.shape} vs {v2.shape}")
    gaps = np.linalg.norm(v1 - v2, axis=1)
    idx = int(np.argmax(gaps))
    return CloseReport(
        passed=bool(gaps[idx] <= epsilon),
        max_gap=float(gaps[idx]),
        argmax_time=float(t1[idx]),
    )


def trial_rng(seed: int, stream: int) -> np.random.Generator:
    """Independent generator for one trial of one seeded experiment."""
    key = np.array([np.uint64(seed & (2**64 - 1)), np.uint64(stream)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def draw_box_point(rng: np.random.Generator, box: BoxInputSet) -> np.ndarray:
    return rng.uniform(box.lower, box.upper)


def draw_signal(
    rng: np.random.Generator,
    box: BoxInputSet,
    dwell: float,
    horizon: float,
) -> PiecewiseConstantSignal:
    """Piecewise-constant signal with uniform values from ``box`` held for
    ``dwell`` seconds each, covering at least [0, horizon]."""
    if not (math.isfinite(dwell) and dwell > 0.0):
        raise BadRange(f"dwell must be finite and positive, got {dwell}")
    segments = max(1, int(math.ceil(horizon / dwell - 1e-12)))
    values = rng.uniform(box.lower, box.upper, size=(segments, box.dim))
    return PiecewiseConstantSignal(
        breakpoints=np.arange(segments) * dwell,
        values=values,
        domain_end=segments * dwell,
    )


@dataclass
class RelationReport:
    passed: bool
    epsilon: float
    max_err: float
    argmax_time: float
    trials: int
    seed: int
    per_trial_max_err: list[float]
    input_violations: int
    exit_times: list[float | None]
    runs: list[AugmentedRun] = field(default_factory=list, repr=False)


def verify_simulation_relation(
    sys: SystemModel,
    iface: AffineInterface,
    params: LatticeParams,
    epsilon: float,
    uprime: BoxInputSet,
    init_box: BoxInputSet,
    trials: int,
    seed: int,
    horizon: float,
    h: float,
    dwell: float,
    input_box: InputSet = ALL_SPACE,
) -> RelationReport:
    """Randomized check that outputs of the coupled pair stay epsilon-close.

    Each trial draws x1(0) uniformly from ``init_box`` and a dwell-time
    signal from ``uprime``; all trials are simulated as one batch, and
    each trial's outputs are compared on the shared grid.  A trial that
    violates the declared concrete input set counts as a failure without
    stopping the others; ``exit_times`` holds, per trial, the time at which
    its u first left that set, or None.  Kept runs are views of the batch
    record.  Verdicts are evidence, not proof.
    """
    if not isinstance(uprime, BoxInputSet):
        raise BadRange("sampling abstract inputs requires a bounded box")
    if trials < 1:
        raise BadRange(f"trials must be positive, got {trials}")
    starts, signals = [], []
    for k in range(trials):
        rng = trial_rng(seed, k)
        starts.append(draw_box_point(rng, init_box))
        signals.append(draw_signal(rng, uprime, dwell, horizon))
    batch = simulate_augmented(
        sys, iface, np.array(starts), signals, params, horizon, h, input_box=input_box
    )
    out = sys.output_matrix()
    per_trial: list[float] = []
    exit_times: list[float | None] = []
    runs: list[AugmentedRun] = []
    violations = 0
    max_err = -math.inf
    argmax_time = 0.0
    for k in range(trials):
        exit_times.append(int(batch.exit_sample[k]) * h if batch.exit_sample[k] >= 0 else None)
        if exit_times[k] is not None:
            violations += 1
            per_trial.append(math.inf)
            max_err = math.inf
            continue
        run = batch.trial(k)
        report = eps_close(
            OutputSeries(run.times, run.x1_states @ out.T),
            OutputSeries(run.times, run.x2_states @ out.T),
            epsilon,
        )
        per_trial.append(report.max_gap)
        if report.max_gap > max_err:
            max_err = report.max_gap
            argmax_time = report.argmax_time
        runs.append(run)
    return RelationReport(
        passed=violations == 0 and max_err <= epsilon,
        epsilon=epsilon,
        max_err=max_err,
        argmax_time=argmax_time,
        trials=trials,
        seed=seed,
        per_trial_max_err=per_trial,
        input_violations=violations,
        exit_times=exit_times,
        runs=runs,
    )


@dataclass(frozen=True)
class GpsReport:
    passed: bool
    worst_margin: float
    beta_coeff: float
    beta_rate: float
    practical_offset: float


def verify_gps_trajectory(run: AugmentedRun, consts: GpsConstants, tol: float = 1e-9) -> GpsReport:
    """Check d(t) <= beta_coeff * exp(-beta_rate * t) * d(0) + offset.

    The margin is bound minus distance; the check passes when the worst
    margin over all samples is at least -tol.
    """
    d = np.linalg.norm(run.x1_states - run.x2_states, axis=1)
    bound = consts.beta_coeff * np.exp(-consts.beta_rate * run.times) * d[0]
    margins = bound + consts.practical_offset - d
    worst = float(np.min(margins))
    return GpsReport(
        passed=worst >= -tol,
        worst_margin=worst,
        beta_coeff=consts.beta_coeff,
        beta_rate=consts.beta_rate,
        practical_offset=consts.practical_offset,
    )


@dataclass(frozen=True)
class LyapunovReport:
    passed: bool
    worst_violation: float
    satisfied_fraction: float
    interior_samples: int
    slack: float


def lyapunov_decrease_check(
    run: AugmentedRun,
    P,
    consts: GpsConstants,
    tol: float = 0.05,
) -> LyapunovReport:
    """Central-difference check of dV/dt <= -gamma V + sigma_bound.

    V = e' P e with e = x1 - phi (the un-quantized abstract solution, so
    V is differentiable).  ``tol`` is a fraction of the run's max V,
    absorbing discretization error at quantizer crossings.
    """
    P = as_matrix(P, "P")
    if run.times.shape[0] < 3:
        raise GridTooCoarse("need at least three samples for central differences")
    delta = run.x1_states - run.phi_states
    V = np.einsum("ij,jk,ik->i", delta, P, delta)
    slack = tol * float(np.max(V))
    dV = (V[2:] - V[:-2]) / (2.0 * run.step)
    residual = dV + consts.gamma * V[1:-1] - consts.sigma_bound - slack
    worst = float(np.max(residual))
    return LyapunovReport(
        passed=worst <= 0.0,
        worst_violation=worst,
        satisfied_fraction=float(np.mean(residual <= 0.0)),
        interior_samples=int(residual.shape[0]),
        slack=slack,
    )
