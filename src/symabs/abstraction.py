"""Coupled simulation of a concrete system and its lattice abstraction.

The abstract trajectory is the quantized image of a nominal solution phi
driven by the abstract input v alone; the concrete system runs under the
interface input u = v + G(x1 - x2).  Both are integrated together with a
fixed RK4 step, holding the quantized state constant within each step:

    dx1/dt = f(x1, v + G(x1 - Q(phi_at_step_start)))
    dphi/dt = f(phi, v)

with phi(0) = Q(x1(0)).  Recorded samples expose x1, phi, x2 = Q(phi),
both input channels, and the output gap per sample.

A batch of T runs is integrated in one loop: the T concrete states and
the T nominal states are the rows of one (2T, n) array, so every RK4
stage is a single right-hand-side call over all 2T rows.  A single run
is the batch of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dynamics import (
    DIVERGENCE_LIMIT,
    PiecewiseConstantSignal,
    SystemModel,
    _diverged,
    _grid_values,
    _vector,
    rk4_step,
)
from .errors import DimensionMismatch, Diverged, InputViolation
from .interface import ALL_SPACE, AffineInterface, InputSet
from .lattice import LatticeParams, _snap


@dataclass
class AugmentedRun:
    """Sampled record of one coupled run, or of a batch of runs.

    Invariants: x2_states[i] is exactly the quantized phi_states[i], and
    u_values[i] = v_values[i] + G (x1_states[i] - x2_states[i]).  Input
    values at the final sample reuse the last active segment of v.

    A batch record puts the trial first on every array but ``times``,
    which the trials share; its ``exit_sample`` holds, per trial, the
    first sample at which u leaves the input set, or -1.
    """

    times: np.ndarray
    x1_states: np.ndarray
    phi_states: np.ndarray
    x2_states: np.ndarray
    u_values: np.ndarray
    v_values: np.ndarray
    y_err: np.ndarray
    step: float
    exit_sample: np.ndarray | None = None

    def trial(self, k: int) -> AugmentedRun:
        """Trial ``k`` of a batch record, as views of the batch arrays."""
        return AugmentedRun(
            times=self.times,
            x1_states=self.x1_states[k],
            phi_states=self.phi_states[k],
            x2_states=self.x2_states[k],
            u_values=self.u_values[k],
            v_values=self.v_values[k],
            y_err=self.y_err[k],
            step=self.step,
        )


def simulate_augmented(
    sys: SystemModel,
    iface: AffineInterface,
    x1_0,
    v: PiecewiseConstantSignal | Sequence[PiecewiseConstantSignal],
    params: LatticeParams,
    horizon: float,
    h: float,
    input_box: InputSet = ALL_SPACE,
) -> AugmentedRun:
    """Run the coupled concrete/abstract pair from x1_0 over [0, horizon].

    ``input_box``, when bounded, is the declared concrete input set.  A
    vector ``x1_0`` with one signal ``v`` is one run, and a recorded u
    outside ``input_box`` raises InputViolation.  A (T, n) ``x1_0`` with
    a sequence of T signals is a batch: the record has a leading trial
    axis, and a trial whose u leaves ``input_box`` is marked in
    ``exit_sample`` while the others run on.  A run that diverges before
    its u leaves ``input_box`` raises Diverged.
    """
    single = np.ndim(x1_0) != 2
    if single:
        x1 = _vector(x1_0, sys.n, "x1_0")[None]
        signals = [v]
    else:
        x1 = np.asarray(x1_0, dtype=float)
        signals = list(v)
        if x1.shape != (len(signals), sys.n) or not signals:
            raise DimensionMismatch(
                f"x1_0: expected shape ({len(signals)}, {sys.n}) for {len(signals)} signals,"
                f" got {x1.shape}"
            )
    if params.n != sys.n:
        raise DimensionMismatch(f"lattice dimension {params.n} != state dimension {sys.n}")
    if iface.state_dim != sys.n or iface.input_dim != sys.input_dim:
        raise DimensionMismatch(
            f"interface gain is {iface.gain.shape}, system wants ({sys.input_dim}, {sys.n})"
        )
    v_values = _grid_values(sys, signals, horizon, h)
    n_steps = v_values.shape[1] - 1
    spacing = params.spacing

    def snap(phi):  # x2 = Q(phi)
        return _snap(phi, spacing) * spacing

    T, n = x1.shape
    states = np.empty((2 * T, n_steps + 1, n))
    x1_states, phi_states = states[:T], states[T:]
    # Rows 0..T-1 of z are the concrete states, rows T..2T-1 the nominal
    # ones; the nominal rows are driven by v alone.
    z = np.concatenate([x1, snap(x1)])
    states[:, 0] = z
    u = np.empty((2 * T, sys.input_dim))
    # No trial's norm can exceed the limit while every entry is below this.
    entry_limit = DIVERGENCE_LIMIT / math.sqrt(2 * n)

    def inputs(k: int, stop: int):
        """x2 and u of trial k at samples 0..stop-1."""
        x2k = snap(phi_states[k, :stop])
        return x2k, iface.apply(v_values[k, :stop], x1_states[k, :stop], x2k)

    def coupled(z):
        u[:T] = iface.apply(v_i, z[:T], x2)
        return sys.rhs(z, u)

    # An exit at sample 0 precedes any divergence, so a single run that
    # starts outside the input set needs no integration.
    if single and input_box.first_exit(inputs(0, 1)[1]) is not None:
        raise _input_violation(0, h)

    for i in range(n_steps):
        x2 = snap(z[T:])
        v_i = v_values[:, i]
        u[T:] = v_i
        z = rk4_step(coupled, z, h)
        if not np.abs(z).max() <= entry_limit:
            # A trial's first event decides its outcome: u leaving the
            # input set at one of samples 0..i, or divergence at i + 1.
            for k in np.flatnonzero(_diverged(np.hstack([z[:T], z[T:]]))):
                if input_box.first_exit(inputs(k, i + 1)[1]) is None:
                    where = "" if single else f"trial {k}: "
                    raise Diverged(f"{where}state norm exceeded {DIVERGENCE_LIMIT:g}")
                # Settled as an input violation; keep its rows finite.
                z[[k, T + k]] = 0.0
        states[:, i + 1] = z

    # One trial at a time, so temporaries stay O(steps * n).
    x2_states = np.empty_like(x1_states)
    u_values = np.empty_like(v_values)
    y_err = np.empty((T, n_steps + 1))
    exit_sample = np.full(T, -1)
    out_t = sys.output_matrix().T
    for k in range(T):
        x2_states[k], u_values[k] = inputs(k, n_steps + 1)
        y_err[k] = np.linalg.norm((x1_states[k] - x2_states[k]) @ out_t, axis=1)
        first = input_box.first_exit(u_values[k])
        if first is not None:
            exit_sample[k] = first
    run = AugmentedRun(
        times=np.arange(n_steps + 1) * h,
        x1_states=x1_states,
        phi_states=phi_states,
        x2_states=x2_states,
        u_values=u_values,
        v_values=v_values,
        y_err=y_err,
        step=h,
        exit_sample=exit_sample,
    )
    if not single:
        return run
    if exit_sample[0] >= 0:
        raise _input_violation(int(exit_sample[0]), h)
    return run.trial(0)


def _input_violation(sample: int, h: float) -> InputViolation:
    return InputViolation(f"interface input left the declared set at t = {sample * h:g}")
