"""Experiment configuration: JSON schema, validation, and plan helpers.

A configuration is one JSON document with explicit matrices; nothing is
read from side files, so configs are self-contained and diffable.  The
bundled demo configuration ``example_sec6`` (a two-dimensional
sine-feedback plant with a diagonal quadratic certificate) can be used
anywhere a config path is accepted.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from .certificates import (
    GpsConstants,
    IqcCertificate,
    MonomialKInf,
    PrecisionSpec,
    SineCertificate,
    _scales,
    eta_bound_closed_form,
    eta_feasible,
    gps_constants,
    lipschitz_delta_mm,
)
from .dynamics import IqcSystem, SineSystem, SystemModel
from .errors import BadRange, ParseError, SchemaError
from .interface import ALL_SPACE, AffineInterface, BoxInputSet, InputSet
from .lattice import LatticeParams
from .numerics import DEFAULT_TOL, asymmetry, eig_extremes, spectral_norm

NONLINEARITIES = {
    "sin": np.sin,
    "tanh": np.tanh,
}

_FIXTURES: dict[str, dict] = {
    "example_sec6": {
        "system": {
            "family": "sine",
            "A": [[0.15, 0.0], [0.0, 0.5]],
            "m_gain": 2.0,
        },
        "certificate": {
            "P": [[1.0, 0.0], [0.0, 1.0]],
            "R": [[-5.0, 0.0], [0.0, -5.0]],
            "alpha": 2.4,
        },
        "lattice": {"eta": 0.15},
        "precision": {"epsilon": 0.5},
        "input_set": {"lower": [-3.0, -3.0], "upper": [3.0, 3.0]},
        "initial_box": {"lower": [-1.0, -1.0], "upper": [1.0, 1.0]},
        "simulation": {
            "horizon": 10.0,
            "step": 0.001,
            "dwell": 0.5,
            "trials": 20,
            "seed": 0,
        },
    }
}


@dataclass
class ExperimentConfig:
    family: str
    A: list
    P: list
    alpha: float
    epsilon: float
    eta: float | str
    init_lower: list
    init_upper: list
    horizon: float
    step: float
    dwell: float
    trials: int
    seed: int
    m_gain: float | None = None
    B: list | None = None
    C: list | None = None
    E: list | None = None
    C_q: list | None = None
    D_q: list | None = None
    nonlinearity: str | None = None
    R: list | None = None
    L: list | None = None
    M_kind: str | None = None
    M_ell: float | None = None
    M_matrix: list | None = None
    a: float | None = None
    theorem: int | None = None
    input_lower: list | None = None
    input_upper: list | None = None

    # -- builders -----------------------------------------------------

    def system(self) -> SystemModel:
        if self.family == "sine":
            return SineSystem(A=np.array(self.A), m_gain=self.m_gain)
        return IqcSystem(
            A=np.array(self.A),
            B=np.array(self.B),
            C=np.array(self.C),
            E=np.array(self.E),
            C_q=np.array(self.C_q),
            D_q=np.array(self.D_q),
            p=NONLINEARITIES[self.nonlinearity],
        )

    def multiplier(self) -> np.ndarray | None:
        if self.M_kind is None:
            return None
        if self.M_kind == "lipschitz":
            cq = np.array(self.C_q)
            e = np.array(self.E)
            return lipschitz_delta_mm(self.M_ell, cq.shape[0], e.shape[1])
        return np.array(self.M_matrix)

    def certificate(self) -> SineCertificate | IqcCertificate:
        if self.family == "sine":
            return SineCertificate(
                P=np.array(self.P), R=np.array(self.R), alpha=self.alpha, m_gain=self.m_gain
            )
        return IqcCertificate(
            P=np.array(self.P), L=np.array(self.L), alpha=self.alpha, M=self.multiplier()
        )

    def gain_matrix(self) -> np.ndarray:
        if self.family == "sine":
            return np.linalg.solve(np.array(self.P), np.array(self.R))
        return np.array(self.L)

    def interface(self) -> AffineInterface:
        return AffineInterface(gain=self.gain_matrix())

    def input_span_matrix(self) -> np.ndarray:
        """How inputs enter the dynamics (identity for the sine family)."""
        if self.family == "sine":
            return np.eye(len(self.A))
        return np.array(self.B)

    def young_parameter(self) -> float:
        return self.alpha if self.a is None else self.a

    def precision(self) -> PrecisionSpec:
        return PrecisionSpec(epsilon=self.epsilon, rho=spectral_norm(self.system().output_matrix()))

    def input_set(self) -> InputSet:
        if self.input_lower is None:
            return ALL_SPACE
        return BoxInputSet(lower=np.array(self.input_lower), upper=np.array(self.input_upper))

    def initial_box(self) -> BoxInputSet:
        return BoxInputSet(lower=np.array(self.init_lower), upper=np.array(self.init_upper))

    def lattice_params(self, eta: float) -> LatticeParams:
        return LatticeParams(n=len(self.A), eta=eta)

    def constants(self, eta: float) -> GpsConstants:
        return gps_constants(
            P=np.array(self.P),
            B=self.input_span_matrix(),
            L=self.gain_matrix(),
            alpha=self.alpha,
            a=self.young_parameter(),
            eta=eta,
        )


# ---------------------------------------------------------------------------
# parsing and serialization


def _is_num(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


class _Reader:
    def __init__(self, doc: dict):
        self.doc = doc
        self.problems: list[str] = []

    def section(self, name: str) -> dict:
        sec = self.doc.get(name)
        if not isinstance(sec, dict):
            self.problems.append(f"{name}: missing or not an object")
            return {}
        return sec

    def number(self, sec: dict, path: str, required: bool = True) -> float | None:
        val = sec.get(path.split(".")[-1])
        if val is None:
            if required:
                self.problems.append(f"{path}: missing")
            return None
        if not _is_num(val):
            self.problems.append(f"{path}: expected a finite number")
            return None
        return float(val)

    def integer(self, sec: dict, path: str, required: bool = True) -> int | None:
        val = sec.get(path.split(".")[-1])
        if val is None:
            if required:
                self.problems.append(f"{path}: missing")
            return None
        if not isinstance(val, int) or isinstance(val, bool):
            self.problems.append(f"{path}: expected an integer")
            return None
        return val

    def matrix(self, sec: dict, path: str, required: bool = True) -> list | None:
        val = sec.get(path.split(".")[-1])
        if val is None:
            if required:
                self.problems.append(f"{path}: missing")
            return None
        if (
            not isinstance(val, list)
            or not val
            or not all(isinstance(row, list) and row for row in val)
            or len({len(row) for row in val}) != 1
            or not all(_is_num(v) for row in val for v in row)
        ):
            self.problems.append(f"{path}: expected a rectangular matrix of finite numbers")
            return None
        return [[float(v) for v in row] for row in val]

    def vector(self, sec: dict, path: str, required: bool = True) -> list | None:
        val = sec.get(path.split(".")[-1])
        if val is None:
            if required:
                self.problems.append(f"{path}: missing")
            return None
        if not isinstance(val, list) or not val or not all(_is_num(v) for v in val):
            self.problems.append(f"{path}: expected a vector of finite numbers")
            return None
        return [float(v) for v in val]


def parse_config(text: str) -> ExperimentConfig:
    """Parse and fully validate a JSON configuration document."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("top-level JSON value must be an object")

    rd = _Reader(doc)
    system = rd.section("system")
    certificate = rd.section("certificate")
    lattice = rd.section("lattice")
    precision = rd.section("precision")
    initial = rd.section("initial_box")
    sim = rd.section("simulation")

    family = system.get("family")
    if family not in ("sine", "iqc"):
        rd.problems.append("system.family: must be 'sine' or 'iqc'")
        family = "sine"

    A = rd.matrix(system, "system.A")
    kwargs: dict[str, Any] = {}
    if family == "sine":
        kwargs["m_gain"] = rd.number(system, "system.m_gain")
        kwargs["R"] = rd.matrix(certificate, "certificate.R")
    else:
        kwargs["B"] = rd.matrix(system, "system.B")
        kwargs["C"] = rd.matrix(system, "system.C")
        kwargs["E"] = rd.matrix(system, "system.E")
        kwargs["C_q"] = rd.matrix(system, "system.C_q")
        kwargs["D_q"] = rd.matrix(system, "system.D_q")
        nl = system.get("nonlinearity")
        if nl not in NONLINEARITIES:
            rd.problems.append(
                f"system.nonlinearity: must be one of {sorted(NONLINEARITIES)}"
            )
        kwargs["nonlinearity"] = nl
        kwargs["L"] = rd.matrix(certificate, "certificate.L")
        m_spec = certificate.get("M")
        if isinstance(m_spec, dict) and m_spec.get("kind") == "lipschitz":
            kwargs["M_kind"] = "lipschitz"
            kwargs["M_ell"] = rd.number(m_spec, "certificate.M.ell")
        elif isinstance(m_spec, dict) and m_spec.get("kind") == "matrix":
            kwargs["M_kind"] = "matrix"
            kwargs["M_matrix"] = rd.matrix(m_spec, "certificate.M.value")
        else:
            rd.problems.append("certificate.M: expected {kind: lipschitz|matrix, ...}")

    P = rd.matrix(certificate, "certificate.P")
    alpha = rd.number(certificate, "certificate.alpha")
    if "a" in certificate:
        kwargs["a"] = rd.number(certificate, "certificate.a")

    eta_raw = lattice.get("eta")
    eta: float | str | None
    if eta_raw == "auto":
        eta = "auto"
        theorem = rd.integer(lattice, "lattice.theorem")
        if theorem not in (2, 3, 4):
            rd.problems.append("lattice.theorem: must be 2, 3, or 4 when eta is 'auto'")
        kwargs["theorem"] = theorem
    elif _is_num(eta_raw) and eta_raw > 0:
        eta = float(eta_raw)
        if "theorem" in lattice:
            theorem = rd.integer(lattice, "lattice.theorem")
            if theorem not in (2, 3, 4):
                rd.problems.append("lattice.theorem: must be 2, 3, or 4")
            kwargs["theorem"] = theorem
    else:
        rd.problems.append("lattice.eta: expected a positive number or 'auto'")
        eta = None

    epsilon = rd.number(precision, "precision.epsilon")
    if epsilon is not None and epsilon <= 0:
        rd.problems.append("precision.epsilon: must be positive")

    input_doc = doc.get("input_set")
    if input_doc == "all":
        pass
    elif isinstance(input_doc, dict):
        kwargs["input_lower"] = rd.vector(input_doc, "input_set.lower")
        kwargs["input_upper"] = rd.vector(input_doc, "input_set.upper")
    else:
        rd.problems.append("input_set: expected 'all' or {lower, upper}")

    init_lower = rd.vector(initial, "initial_box.lower")
    init_upper = rd.vector(initial, "initial_box.upper")
    horizon = rd.number(sim, "simulation.horizon")
    step = rd.number(sim, "simulation.step")
    dwell = rd.number(sim, "simulation.dwell")
    trials = rd.integer(sim, "simulation.trials")
    seed = rd.integer(sim, "simulation.seed")

    for name, val in (("simulation.step", step), ("simulation.dwell", dwell)):
        if val is not None and val <= 0:
            rd.problems.append(f"{name}: must be positive")
    if horizon is not None and horizon < 0:
        rd.problems.append("simulation.horizon: must be nonnegative")
    if trials is not None and trials < 1:
        rd.problems.append("simulation.trials: must be at least 1")
    if seed is not None and not 0 <= seed < 2**64:
        rd.problems.append("simulation.seed: must fit in 64 bits")

    if rd.problems:
        raise SchemaError(rd.problems)

    cfg = ExperimentConfig(
        family=family,
        A=A,
        P=P,
        alpha=alpha,
        epsilon=epsilon,
        eta=eta,
        init_lower=init_lower,
        init_upper=init_upper,
        horizon=horizon,
        step=step,
        dwell=dwell,
        trials=trials,
        seed=seed,
        **kwargs,
    )
    _cross_validate(cfg)
    return cfg


def _cross_validate(cfg: ExperimentConfig) -> None:
    problems: list[str] = []
    n = len(cfg.A)
    if any(len(row) != n for row in cfg.A):
        problems.append("system.A: must be square")
    if len(cfg.P) != n or any(len(row) != n for row in cfg.P):
        problems.append("certificate.P: must match the state dimension")
    else:
        _check_symmetric(problems, "certificate.P", cfg.P)
    if cfg.family == "sine":
        if cfg.R is not None and (len(cfg.R) != n or any(len(r) != n for r in cfg.R)):
            problems.append("certificate.R: must match the state dimension")
        elif cfg.R is not None:
            _check_symmetric(problems, "certificate.R", cfg.R)
        m_dim = n
    else:
        m_dim = len(cfg.B[0]) if cfg.B else 0
        if cfg.L is not None and (len(cfg.L) != m_dim or any(len(r) != n for r in cfg.L)):
            problems.append("certificate.L: must be input_dim x state_dim")
    if cfg.a is not None and not (0.0 < cfg.a < 2.0 * cfg.alpha):
        problems.append("certificate.a: must lie in (0, 2*alpha)")
    if cfg.input_lower is not None:
        if len(cfg.input_lower) != m_dim or len(cfg.input_upper) != m_dim:
            problems.append("input_set: bounds must match the input dimension")
        elif any(lo > hi for lo, hi in zip(cfg.input_lower, cfg.input_upper)):
            problems.append("input_set: lower bound exceeds upper bound")
    if len(cfg.init_lower) != n or len(cfg.init_upper) != n:
        problems.append("initial_box: bounds must match the state dimension")
    elif any(lo > hi for lo, hi in zip(cfg.init_lower, cfg.init_upper)):
        problems.append("initial_box: lower bound exceeds upper bound")
    if problems:
        raise SchemaError(problems)


def _check_symmetric(problems: list[str], field: str, rows) -> None:
    # The eigen kernel's own test, at its default tolerance.
    asym = asymmetry(np.array(rows, dtype=float))
    if asym > DEFAULT_TOL:
        problems.append(f"{field}: must be symmetric (asymmetry {asym:.3e} exceeds {DEFAULT_TOL:.3e})")


def serialize_config(cfg: ExperimentConfig) -> str:
    """Canonical JSON for ``cfg``; parse_config inverts it exactly."""
    system: dict[str, Any] = {"family": cfg.family, "A": cfg.A}
    certificate: dict[str, Any] = {"P": cfg.P, "alpha": cfg.alpha}
    if cfg.family == "sine":
        system["m_gain"] = cfg.m_gain
        certificate["R"] = cfg.R
    else:
        system.update(B=cfg.B, C=cfg.C, E=cfg.E, C_q=cfg.C_q, D_q=cfg.D_q)
        system["nonlinearity"] = cfg.nonlinearity
        certificate["L"] = cfg.L
        if cfg.M_kind == "lipschitz":
            certificate["M"] = {"kind": "lipschitz", "ell": cfg.M_ell}
        else:
            certificate["M"] = {"kind": "matrix", "value": cfg.M_matrix}
    if cfg.a is not None:
        certificate["a"] = cfg.a
    lattice: dict[str, Any] = {"eta": cfg.eta}
    if cfg.theorem is not None:
        lattice["theorem"] = cfg.theorem
    doc = {
        "system": system,
        "certificate": certificate,
        "lattice": lattice,
        "precision": {"epsilon": cfg.epsilon},
        "input_set": (
            "all"
            if cfg.input_lower is None
            else {"lower": cfg.input_lower, "upper": cfg.input_upper}
        ),
        "initial_box": {"lower": cfg.init_lower, "upper": cfg.init_upper},
        "simulation": {
            "horizon": cfg.horizon,
            "step": cfg.step,
            "dwell": cfg.dwell,
            "trials": cfg.trials,
            "seed": cfg.seed,
        },
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def fixture_names() -> list[str]:
    return sorted(_FIXTURES)


def load_config(path_or_name: str) -> ExperimentConfig:
    """Load a config from a JSON file path or a bundled fixture name."""
    if path_or_name in _FIXTURES:
        return parse_config(json.dumps(copy.deepcopy(_FIXTURES[path_or_name])))
    path = Path(path_or_name)
    if not path.exists():
        raise ParseError(
            f"no such config file or fixture: {path_or_name!r} (fixtures: {fixture_names()})"
        )
    return parse_config(path.read_text())


# ---------------------------------------------------------------------------
# plan helpers


def theorem_eta_bound(cfg: ExperimentConfig, theorem: int) -> float:
    """Admissible lattice radius under the selected condition.

    2: comparison-function condition without a disturbance model;
    3: the same with the quantization disturbance folded in;
    4: closed-form bound from the certificate constants.
    """
    P = np.array(cfg.P)
    alpha = cfg.alpha
    a = cfg.young_parameter()
    if theorem == 4:
        return eta_bound_closed_form(
            P=P,
            B=cfg.input_span_matrix(),
            L=cfg.gain_matrix(),
            C_out=cfg.system().output_matrix(),
            alpha=alpha,
            a=a,
            epsilon=cfg.epsilon,
        )
    if theorem == 2:
        ext, disturbance = eig_extremes(P), {}
    elif theorem == 3:
        s = _scales(P, cfg.input_span_matrix(), cfg.gain_matrix(), alpha, a)
        ext = s.ext
        disturbance = {"gamma": s.k, "sigma": MonomialKInf(coeff=s.lhat / a, power=2.0)}
    else:
        raise BadRange(f"theorem must be 2, 3, or 4, got {theorem}")
    return eta_feasible(
        cfg.precision(),
        MonomialKInf(coeff=ext.lambda_min, power=2.0),
        MonomialKInf(coeff=ext.lambda_max, power=2.0),
        **disturbance,
    )


def resolve_eta(cfg: ExperimentConfig, theorem: int | None = None) -> tuple[float, float, int]:
    """Resolve the lattice radius to use: (eta, bound, theorem).

    An explicit eta is kept and reported against the bound; 'auto' adopts
    the bound itself.
    """
    thm = theorem if theorem is not None else (cfg.theorem if cfg.theorem else 4)
    bound = theorem_eta_bound(cfg, thm)
    if cfg.eta == "auto":
        return bound, bound, thm
    return float(cfg.eta), bound, thm
