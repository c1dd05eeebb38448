"""Continuous-time system models, piecewise-constant inputs, and RK4.

Two vector-field families are provided.  ``SineSystem`` is

    dx/dt = A x + m_gain * sin(x) + u,      y = x,

with sin applied elementwise and inputs of the same dimension as the
state.  ``IqcSystem`` is the feedback-interconnection form

    dx/dt = A x + B u + E p(C_q x + D_q p),  y = C x,

where ``p`` is a static nonlinearity.  Both right-hand sides take one
state or a stack of states as rows, so a batch of runs is stepped with
one call; ``output_matrix()`` is each family's output map.  Integration
uses a fixed-step classic Runge-Kutta scheme; inputs are piecewise
constant with breakpoints on the step grid, checked by ``_signal_steps``,
so the right-hand side is autonomous within every step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import (
    DimensionMismatch,
    Diverged,
    MisalignedSignal,
    NonFinite,
    OutOfDomain,
)
from .numerics import as_matrix

DIVERGENCE_LIMIT = 1e12

_ALIGN_RTOL = 1e-9

# Fixed-point loop of IqcSystem: at most _MAX_ITERATES evaluations of p,
# with the convergence test on every _CHECK_EVERY-th one.
_MAX_ITERATES = 100
_CHECK_EVERY = 3


def _vector(x, length: int, name: str) -> np.ndarray:
    v = np.asarray(x, dtype=float)
    if v.ndim != 1 or v.shape[0] != length:
        raise DimensionMismatch(f"{name}: expected a vector of length {length}, got shape {v.shape}")
    return v


@dataclass(frozen=True)
class SineSystem:
    A: np.ndarray
    m_gain: float

    def __post_init__(self):
        a = as_matrix(self.A, "A")
        if a.shape[0] != a.shape[1]:
            raise DimensionMismatch(f"A must be square, got {a.shape}")
        object.__setattr__(self, "A", a)
        object.__setattr__(self, "m_gain", float(self.m_gain))

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def input_dim(self) -> int:
        return self.n

    def output_matrix(self) -> np.ndarray:
        return np.eye(self.n)

    def rhs(self, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Vector field at ``x`` under ``u``: vectors, or matching rows."""
        return x @ self.A.T + self.m_gain * np.sin(x) + u


@dataclass(frozen=True)
class IqcSystem:
    """Linear dynamics in feedback with a static nonlinearity ``p``.

    ``p`` maps a vector of length ``l_p`` to one of length ``l_e``.  A
    nonzero ``D_q`` makes the nonlinearity argument implicit; it is then
    resolved by the fixed-point iteration ``w <- p(q + D_q w)`` from
    ``w = 0``, which requires the loop to be a contraction.  Every third
    iterate a row is tested for ``||w_next - w|| <= 1e-12 (1 + ||w_next||)``
    and, at the first test it passes, stops with ``w_next``; so a row of a
    stack runs as many iterates as it would on its own (its bits may still
    differ in the last place, as BLAS rounds a stacked ``x @ C_q.T``
    differently).  ``Diverged`` is raised when a row has not passed within
    100 iterates.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    E: np.ndarray
    C_q: np.ndarray
    D_q: np.ndarray
    p: Callable[[np.ndarray], np.ndarray] = field(repr=False)

    def __post_init__(self):
        a = as_matrix(self.A, "A")
        if a.shape[0] != a.shape[1]:
            raise DimensionMismatch(f"A must be square, got {a.shape}")
        n = a.shape[0]
        b = as_matrix(self.B, "B")
        c = as_matrix(self.C, "C")
        e = as_matrix(self.E, "E")
        cq = as_matrix(self.C_q, "C_q")
        dq = as_matrix(self.D_q, "D_q")
        if b.shape[0] != n:
            raise DimensionMismatch(f"B must have {n} rows, got {b.shape}")
        if c.shape[1] != n:
            raise DimensionMismatch(f"C must have {n} columns, got {c.shape}")
        if e.shape[0] != n:
            raise DimensionMismatch(f"E must have {n} rows, got {e.shape}")
        if cq.shape[1] != n:
            raise DimensionMismatch(f"C_q must have {n} columns, got {cq.shape}")
        if dq.shape != (cq.shape[0], e.shape[1]):
            raise DimensionMismatch(
                f"D_q must be {cq.shape[0]}x{e.shape[1]}, got {dq.shape}"
            )
        for name, val in (("A", a), ("B", b), ("C", c), ("E", e), ("C_q", cq), ("D_q", dq)):
            object.__setattr__(self, name, val)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def input_dim(self) -> int:
        return self.B.shape[1]

    @property
    def l_p(self) -> int:
        return self.C_q.shape[0]

    @property
    def l_e(self) -> int:
        return self.E.shape[1]

    def output_matrix(self) -> np.ndarray:
        return self.C

    def _loop_value(self, x: np.ndarray) -> np.ndarray:
        q = x @ self.C_q.T
        p = self.p
        # The first iterate from w = 0 is p(q); its shape is checked before
        # the iteration, where broadcasting would hide a wrong one.
        w = np.asarray(p(q), dtype=float)
        if w.shape != q.shape[:-1] + (self.l_e,):
            raise DimensionMismatch(
                f"nonlinearity returned shape {w.shape}, expected ({self.l_e},)"
            )
        if not np.any(self.D_q) or not w.size:
            return w
        # All rows are iterated together.  The per-row test runs on every
        # _CHECK_EVERY-th iterate only, since it costs several times the
        # map; a row's result is the iterate at the first test it passes,
        # so its stopping iterate depends on that row alone.
        d_q_t = self.D_q.T
        out = np.empty_like(w)
        pending = np.ones(q.shape[:-1], dtype=bool)
        for k in range(2, _MAX_ITERATES + 1):
            w_next = np.asarray(p(q + w @ d_q_t), dtype=float)
            if k % _CHECK_EVERY == 0:
                done = pending & (_norms(w_next - w) <= 1e-12 * (1.0 + _norms(w_next)))
                if done.any():
                    np.copyto(out, w_next, where=done[..., None])
                    pending &= ~done
                    if not pending.any():
                        return out
            w = w_next
        raise Diverged("implicit nonlinearity loop did not converge")

    def rhs(self, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Vector field at ``x`` under ``u``: vectors, or matching rows."""
        return x @ self.A.T + u @ self.B.T + self._loop_value(x) @ self.E.T


SystemModel = SineSystem | IqcSystem


@dataclass(frozen=True)
class PiecewiseConstantSignal:
    """Right-continuous step signal on [0, domain_end).

    ``values[j]`` holds on [breakpoints[j], breakpoints[j+1]), with the
    last segment ending at ``domain_end``.
    """

    breakpoints: np.ndarray
    values: np.ndarray
    domain_end: float

    def __post_init__(self):
        bp = np.asarray(self.breakpoints, dtype=float)
        vals = np.asarray(self.values, dtype=float)
        if bp.ndim != 1 or bp.size == 0:
            raise DimensionMismatch("breakpoints must be a non-empty 1-D array")
        if bp[0] != 0.0:
            raise OutOfDomain("first breakpoint must be 0")
        if np.any(np.diff(bp) <= 0.0):
            raise OutOfDomain("breakpoints must be strictly increasing")
        if vals.ndim == 1:
            vals = vals[:, None]
        if vals.ndim != 2 or vals.shape[0] != bp.size:
            raise DimensionMismatch(
                f"need one value row per segment: {bp.size} breakpoints, values {vals.shape}"
            )
        end = float(self.domain_end)
        if not (np.isfinite(end) and end > bp[-1]):
            raise OutOfDomain(f"domain_end must exceed the last breakpoint, got {end}")
        if not (np.all(np.isfinite(bp)) and np.all(np.isfinite(vals))):
            raise NonFinite("signal contains non-finite values")
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "domain_end", end)

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    def _break_steps(self, h: float) -> np.ndarray:
        # Integer step index of every breakpoint; rejects off-grid ones.
        ratio = self.breakpoints / h
        steps = np.round(ratio)
        if np.any(np.abs(ratio - steps) > _ALIGN_RTOL * np.maximum(1.0, np.abs(ratio))):
            raise MisalignedSignal("signal breakpoints do not lie on the step grid")
        return steps.astype(np.int64)

    def step_values(self, h: float, n_steps: int) -> np.ndarray:
        """Per-sample values on the grid 0, h, ..., n_steps*h.

        The final sample reuses the segment active just before it, so a
        signal ending exactly at the horizon still yields a full row.
        """
        steps = self._break_steps(h)
        idx = np.searchsorted(steps, np.arange(n_steps + 1), side="right") - 1
        return self.values[idx]


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray
    states: np.ndarray
    step: float


def rk4_step(f: Callable[[np.ndarray], np.ndarray], x: np.ndarray, h: float) -> np.ndarray:
    """One classic Runge-Kutta step for an RHS constant in time over the step."""
    k1 = f(x)
    k2 = f(x + 0.5 * h * k1)
    k3 = f(x + 0.5 * h * k2)
    k4 = f(x + h * k3)
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _steps_on_grid(horizon: float, h: float) -> int:
    if not (np.isfinite(h) and h > 0.0):
        raise MisalignedSignal(f"step must be finite and positive, got {h}")
    if not (np.isfinite(horizon) and horizon >= 0.0):
        raise OutOfDomain(f"horizon must be finite and nonnegative, got {horizon}")
    ratio = horizon / h
    n = int(round(ratio))
    if abs(ratio - n) > _ALIGN_RTOL * max(1.0, abs(ratio)):
        raise MisalignedSignal("horizon is not a whole number of steps")
    return n


def _norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norm of ``x``, or of each row of a stack."""
    return np.sqrt(np.add.reduce(x * x, axis=-1))


def _diverged(x: np.ndarray) -> np.ndarray:
    """Whether ``x``, or each row of a stack, is non-finite or has a norm
    above DIVERGENCE_LIMIT."""
    with np.errstate(over="ignore", invalid="ignore"):
        return ~(_norms(x) <= DIVERGENCE_LIMIT)


def _signal_steps(sys: SystemModel, signals, horizon: float, h: float) -> tuple[int, list[np.ndarray]]:
    """Steps of the grid 0, h, ..., horizon, and each signal's breakpoints
    as step indices, once the signals are checked against ``sys`` and the grid."""
    for sig in signals:
        if sig.dim != sys.input_dim:
            raise DimensionMismatch(f"signal dimension {sig.dim} != input dimension {sys.input_dim}")
    n_steps = _steps_on_grid(horizon, h)
    if horizon > min(sig.domain_end for sig in signals) * (1.0 + _ALIGN_RTOL):
        raise OutOfDomain("horizon extends past the signal domain")
    return n_steps, [sig._break_steps(h) for sig in signals]


def integrate_rk4(
    sys: SystemModel,
    x0,
    u: PiecewiseConstantSignal,
    horizon: float,
    h: float,
) -> Trajectory:
    """Integrate ``sys`` under ``u`` from 0 to ``horizon`` with fixed step ``h``."""
    x = _vector(x0, sys.n, "x0")
    n_steps, _ = _signal_steps(sys, [u], horizon, h)
    vals = u.step_values(h, n_steps)
    states = np.empty((n_steps + 1, sys.n))
    states[0] = x
    for i in range(n_steps):
        ui = vals[i]
        x = rk4_step(lambda z: sys.rhs(z, ui), x, h)
        if _diverged(x):
            raise Diverged(f"state norm exceeded {DIVERGENCE_LIMIT:g}")
        states[i + 1] = x
    times = np.arange(n_steps + 1) * h
    return Trajectory(times=times, states=states, step=h)
