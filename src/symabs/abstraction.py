"""Coupled simulation of a concrete system and its lattice abstraction.

The abstract trajectory is the quantized image of a nominal solution phi
driven by the abstract input v alone; the concrete system runs under the
interface input u = v + G(x1 - x2).  Both are integrated together with a
fixed RK4 step, holding the quantized state constant within each step:

    dx1/dt = f(x1, v + G(x1 - Q(phi_at_step_start)))
    dphi/dt = f(phi, v)

with phi(0) = Q(x1(0)).  A run record stores only what is integrated,
x1 and phi; x2 = Q(phi), both input channels and the output gap per
sample are derived from them whenever they are read.

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
    _signal_steps,
    _vector,
    rk4_step,
)
from .errors import DimensionMismatch, Diverged, InputViolation
from .interface import ALL_SPACE, AffineInterface, InputSet
from .lattice import LatticeParams, _snap


@dataclass
class AugmentedRun:
    """Sampled record of one coupled run, or of a batch of runs.

    Only the integrated states ``x1_states`` and ``phi_states`` are
    stored.  The other channels are derived, uncached, on every read:
    ``x2_states`` is exactly the quantized ``phi_states``, ``v_values``
    the signals on the sample grid, ``u_values = v_values + G (x1_states
    - x2_states)`` and ``y_err`` the norm of C (x1 - x2) per sample.
    Input values at the final sample reuse the last active segment of v.

    A batch record puts the trial first on every array but ``times``,
    which the trials share, and holds one signal per trial; its
    ``exit_sample`` holds, per trial, the first sample at which u leaves
    the input set, or -1.
    """

    times: np.ndarray
    x1_states: np.ndarray
    phi_states: np.ndarray
    step: float
    spacing: float
    interface: AffineInterface
    output: np.ndarray
    signals: tuple[PiecewiseConstantSignal, ...]
    exit_sample: np.ndarray | None = None

    @property
    def x2_states(self) -> np.ndarray:
        return _snap(self.phi_states, self.spacing) * self.spacing

    @property
    def v_values(self) -> np.ndarray:
        n_steps = self.times.shape[0] - 1
        values = [sig.step_values(self.step, n_steps) for sig in self.signals]
        return np.stack(values) if self.x1_states.ndim == 3 else values[0]

    @property
    def u_values(self) -> np.ndarray:
        return self.interface.apply(self.v_values, self.x1_states, self.x2_states)

    @property
    def y_err(self) -> np.ndarray:
        return np.linalg.norm((self.x1_states - self.x2_states) @ self.output.T, axis=-1)

    def trial(self, k: int) -> AugmentedRun:
        """Trial ``k`` of a batch record, as views of the batch arrays."""
        return AugmentedRun(
            times=self.times,
            x1_states=self.x1_states[k],
            phi_states=self.phi_states[k],
            step=self.step,
            spacing=self.spacing,
            interface=self.interface,
            output=self.output,
            signals=(self.signals[k],),
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
    n_steps, break_steps = _signal_steps(sys, signals, horizon, h)
    spacing = params.spacing

    def snap(phi):  # x2 = Q(phi)
        return _snap(phi, spacing) * spacing

    T, n = x1.shape
    # Zeroed: first_exit derives u over whole trials before the loop fills them.
    states = np.zeros((2 * T, n_steps + 1, n))
    run = AugmentedRun(
        times=np.arange(n_steps + 1) * h,
        x1_states=states[:T],
        phi_states=states[T:],
        step=h,
        spacing=spacing,
        interface=iface,
        output=sys.output_matrix(),
        signals=tuple(signals),
        exit_sample=np.full(T, -1),
    )
    # Rows 0..T-1 of z are the concrete states, rows T..2T-1 the nominal
    # ones; the nominal rows are driven by v alone.
    z = np.concatenate([x1, snap(x1)])
    states[:, 0] = z
    # v holds each trial's abstract input, set at its breakpoint steps.
    v_now = np.empty((T, sys.input_dim))
    changes: dict[int, list[tuple[int, int]]] = {}
    for k, steps in enumerate(break_steps):
        for j, step in enumerate(steps.tolist()):
            changes.setdefault(step, []).append((k, j))
    u = np.empty((2 * T, sys.input_dim))
    # No trial's norm can exceed the limit while every entry is below this.
    entry_limit = DIVERGENCE_LIMIT / math.sqrt(2 * n)

    def first_exit(k: int, stop: int) -> int | None:
        """First of samples 0..stop-1 at which trial k's u leaves the input set."""
        return input_box.first_exit(run.trial(k).u_values[:stop])

    def coupled(z):
        u[:T] = iface.apply(v_now, z[:T], x2)
        return sys.rhs(z, u)

    # An exit at sample 0 precedes any divergence, so when every trial
    # starts outside the input set no step needs integrating.
    started_outside = all(first_exit(k, 1) is not None for k in range(T))
    for i in range(0 if started_outside else n_steps):
        for k, j in changes.get(i, ()):
            v_now[k] = signals[k].values[j]
        x2 = snap(z[T:])
        u[T:] = v_now
        z = rk4_step(coupled, z, h)
        if not np.abs(z).max() <= entry_limit:
            # A trial's first event decides its outcome: u leaving the
            # input set at one of samples 0..i, or divergence at i + 1.
            for k in np.flatnonzero(_diverged(np.hstack([z[:T], z[T:]]))):
                if first_exit(k, i + 1) is None:
                    where = "" if single else f"trial {k}: "
                    raise Diverged(f"{where}state norm exceeded {DIVERGENCE_LIMIT:g}")
                # Settled as an input violation; keep its rows finite.
                z[[k, T + k]] = 0.0
        states[:, i + 1] = z

    # One trial at a time, so temporaries stay O(steps * n).
    for k in range(T):
        first = first_exit(k, n_steps + 1)
        if first is not None:
            run.exit_sample[k] = first
    if not single:
        return run
    if run.exit_sample[0] >= 0:
        raise _input_violation(int(run.exit_sample[0]), h)
    return run.trial(0)


def _input_violation(sample: int, h: float) -> InputViolation:
    return InputViolation(f"interface input left the declared set at t = {sample * h:g}")
