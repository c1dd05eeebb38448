"""Workload inputs, the operations each workload issues, and reference checks.

Every workload draws its operations from a fixed pool, in an order set by
the benchmark seed, so that each operation has a reference result recorded
from the seed commit in ``reference.json`` (see ``make_reference.py``).
symabs only ever sees the generated config files and ``--seed`` values.

An *operation* is the unit a workload times:

- ``sec6-verify``, ``iqc-verify``: one ``verify`` call;
- ``sec6-simulate``: one ``simulate`` call;
- ``plan-sweep``: one config fully planned, i.e. ``certify``,
  ``eta-bound --theorem 2/3/4`` and ``shrink-input-set`` on it.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Pool sizes.  Trial seeds run consecutively from 0 (no seed is skipped).
VERIFY_POOL = 32
SIMULATE_POOL = 256
PLAN_POOL = 64
PLAN_DIMS = (2, 4, 8)

# The shipped example_sec6 simulation: 10 s horizon at h = 1e-3.
SEC6_STEPS = 10_000
SEC6_TRIALS = 20
IQC_TRIALS = 16
IQC_STEPS = 1_000

# Smaller operations for the benchmark's own quick test (--tiny).
TINY_FLAGS = {
    "sec6-verify": ["--trials", "2", "--horizon", "0.5"],
    "iqc-verify": ["--trials", "2", "--horizon", "0.25"],
    "sec6-simulate": ["--horizon", "0.5"],
}
TINY_STEPS = {"sec6-verify": 2 * 500, "iqc-verify": 2 * 250, "sec6-simulate": 500}

WORKLOADS = ("sec6-verify", "iqc-verify", "plan-sweep", "sec6-simulate")


@dataclass
class Call:
    """One CLI call: ``key`` names its reference entry."""

    key: str
    args: list[str]


@dataclass
class Op:
    calls: list[Call]
    steps: int = 0
    configs: int = 0
    config_paths: list[str] = field(default_factory=list)


# ---------------------------------------------------------------------------
# generated configs


def iqc_config() -> dict:
    """n = 4, m = 2 interconnection with tanh, a Lipschitz multiplier and a
    nonzero D_q (the implicit fixed-point path).  The certificate holds at
    alpha = 0.3; its feasibility boundary is about 0.70."""
    e = 0.4
    return {
        "system": {
            "family": "iqc",
            "A": [[-1.0, 0.5, 0.0, 0.0], [0.0, -1.2, 0.4, 0.0], [0.0, 0.0, -0.9, 0.5], [0.3, 0.0, 0.0, -1.1]],
            "B": [[1.0, 0.0], [0.0, 0.0], [0.0, 1.0], [0.0, 0.0]],
            "C": [[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]],
            "E": [[e, 0.0], [0.0, e], [0.0, 0.0], [e, -e]],
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
        "simulation": {"horizon": 1.0, "step": 0.001, "dwell": 0.25, "trials": IQC_TRIALS, "seed": 0},
    }


def plan_config(n: int, idx: int) -> dict:
    """Sine-family config number ``idx`` of dimension ``n``.

    R is built so that the certificate holds up to a rate near
    ``alpha_star``; the configured rate is drawn around it, so some
    certificates hold and some fail, as with hand-written configs.
    """
    rng = np.random.Generator(np.random.Philox(key=np.array([n, idx], dtype=np.uint64)))
    A = -np.diag(rng.uniform(0.2, 1.5, n)) + 0.3 * rng.standard_normal((n, n)) / math.sqrt(n)
    m_gain = float(rng.uniform(0.5, 2.0))
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    P = Q @ np.diag(rng.uniform(0.5, 2.0, n)) @ Q.T
    P = 0.5 * (P + P.T)
    alpha_star = float(rng.uniform(0.5, 3.0))
    R = -0.5 * (A.T @ P + P @ A + 2.0 * alpha_star * P + m_gain**2 * np.eye(n) + P @ P)
    R = 0.5 * (R + R.T)
    alpha = alpha_star * float(rng.uniform(0.7, 1.3))
    box = float(rng.uniform(2.0, 4.0))
    return {
        "system": {"family": "sine", "A": A.tolist(), "m_gain": m_gain},
        "certificate": {"P": P.tolist(), "R": R.tolist(), "alpha": alpha},
        "lattice": {"eta": float(rng.uniform(0.02, 0.2))},
        "precision": {"epsilon": float(rng.uniform(0.3, 1.0))},
        "input_set": {"lower": [-box] * n, "upper": [box] * n},
        "initial_box": {"lower": [-1.0] * n, "upper": [1.0] * n},
        "simulation": {"horizon": 1.0, "step": 0.001, "dwell": 0.5, "trials": 1, "seed": 0},
    }


def _write_config(config_dir: Path, name: str, doc: dict) -> str:
    path = config_dir / f"{name}.json"
    path.write_text(json.dumps(doc))
    return str(path)


# ---------------------------------------------------------------------------
# operation streams


def _verify_op(workload: str, s: int, config: str, tiny: bool) -> Op:
    tag = "sec6" if workload == "sec6-verify" else "iqc"
    extra = TINY_FLAGS[workload] if tiny else []
    key = f"verify/{tag}/{s}" + ("/tiny" if tiny else "")
    if tiny:
        steps = TINY_STEPS[workload]
    else:
        steps = SEC6_TRIALS * SEC6_STEPS if tag == "sec6" else IQC_TRIALS * IQC_STEPS
    return Op([Call(key, ["verify", config, "--seed", str(s), *extra])], steps=steps, config_paths=[config])


def _simulate_op(s: int, tiny: bool) -> Op:
    extra = TINY_FLAGS["sec6-simulate"] if tiny else []
    key = f"simulate/sec6/{s}" + ("/tiny" if tiny else "")
    steps = TINY_STEPS["sec6-simulate"] if tiny else SEC6_STEPS
    return Op([Call(key, ["simulate", "example_sec6", "--seed", str(s), *extra])], steps=steps,
              config_paths=["example_sec6"])


def _plan_op(n: int, idx: int, config_dir: Path) -> Op:
    path = _write_config(config_dir, f"plan-n{n}-{idx}", plan_config(n, idx))
    base = f"plan/n{n}/{idx}"
    calls = [Call(f"{base}/certify", ["certify", path])]
    calls += [Call(f"{base}/eta-bound-{t}", ["eta-bound", path, "--theorem", str(t)]) for t in (2, 3, 4)]
    calls.append(Call(f"{base}/shrink", ["shrink-input-set", path]))
    return Op(calls, configs=1, config_paths=[path])


def pool(workload: str, config_dir: Path, tiny: bool = False) -> list[Op]:
    """Every operation the workload can issue, in pool order."""
    if workload in ("sec6-verify", "iqc-verify"):
        config = "example_sec6"
        if workload == "iqc-verify":
            config = _write_config(config_dir, "iqc", iqc_config())
        return [_verify_op(workload, s, config, tiny) for s in range(VERIFY_POOL)]
    if workload == "sec6-simulate":
        return [_simulate_op(s, tiny) for s in range(SIMULATE_POOL)]
    if workload == "plan-sweep":
        return [_plan_op(n, idx, config_dir) for idx in range(PLAN_POOL) for n in PLAN_DIMS]
    raise ValueError(f"unknown workload {workload!r}")


def operations(workload: str, seed: int, config_dir: Path, tiny: bool = False):
    """Endless stream of the workload's operations for ``seed``.

    The pool is visited in rounds (one config of each dimension on
    plan-sweep, one call otherwise): in a seeded order, except that
    sec6-simulate takes consecutive trial seeds from a seeded start.
    """
    ops = pool(workload, config_dir, tiny)
    size = len(PLAN_DIMS) if workload == "plan-sweep" else 1
    rounds = len(ops) // size
    order = random.Random(f"{workload}:{seed}").sample(range(rounds), rounds)
    if workload == "sec6-simulate":
        order = [(order[0] + i) % rounds for i in range(rounds)]
    for r in itertools.cycle(order):
        yield from ops[r * size:(r + 1) * size]


# ---------------------------------------------------------------------------
# checked outputs


def extract(args: list[str], code: int, report: dict | None) -> dict:
    """The values of one call that are checked against the reference."""
    got: dict = {"exit": code}
    if report is None:
        return got
    cmd = args[0]
    if cmd == "certify":
        cert = report["certificate"]
        got.update(holds=cert["holds"], boundary=cert["alpha_feasibility_boundary"])
    elif cmd == "eta-bound":
        got[f"eta_bound_t{report['theorem']}"] = report["eta_bound"]
    elif cmd == "shrink-input-set":
        got["empty"] = bool(report.get("empty", False))
        if not got["empty"]:
            got["margin_r"] = report["margin_r"]
    elif cmd == "simulate":
        got.update(
            passed=report["passed"],
            max_y_err=report["max_y_err"],
            samples=report["samples"],
            margin_r=report["margin_r"],
            eta_bound_t4=report["eta_bound"],
        )
    elif cmd == "verify":
        rel = report["relation"]
        got.update(
            passed=rel["passed"],
            per_trial_max_err=rel["per_trial_max_err"],
            input_violations=rel["input_violations"],
            holds=report["certificate"]["holds"],
            boundary=report["certificate"]["alpha_feasibility_boundary"],
            eta_bound_t4=report["eta"]["bound"],
            margin_r=report["margin_r"],
        )
    return got


# Tolerances are no looser than the accuracy the code computes each value to.
#   boundary, eta_bound_t2/t3: bisections stopped at 1e-9 (absolute);
#   eta_bound_t4, margin_r: closed forms over the eigen kernel, which is
#     accurate to 1e-9 relative to the matrix scale;
#   max gaps: a deterministic simulation with no tolerance, so only
#     last-digit reordering (1e-12 relative) is admitted.
# Everything else (exit codes, verdicts, counts) must match exactly.
TOLERANCES = {
    "boundary": ("abs", 1e-9),
    "eta_bound_t2": ("abs", 1e-9),
    "eta_bound_t3": ("abs", 1e-9),
    "eta_bound_t4": ("scaled", 1e-9),
    "margin_r": ("scaled", 1e-9),
    "max_y_err": ("scaled", 1e-12),
    "per_trial_max_err": ("scaled", 1e-12),
}


def _close(name: str, want, got) -> bool:
    kind_tol = TOLERANCES.get(name)
    if kind_tol is None or want is None or got is None:
        return want == got
    kind, tol = kind_tol
    if isinstance(want, list):
        return isinstance(got, list) and len(want) == len(got) and all(
            _close(name, w, g) for w, g in zip(want, got)
        )
    if math.isinf(want) or math.isinf(got):
        return want == got
    scale = max(1.0, abs(want)) if kind == "scaled" else 1.0
    return abs(got - want) <= tol * scale


def compare(want: dict | None, got: dict) -> list[str]:
    """Names of the values in ``got`` that are off their reference."""
    if want is None:
        return ["no reference"]
    return [k for k in sorted(set(want) | set(got)) if not _close(k, want.get(k), got.get(k))]


def failed_trials(got: dict) -> int:
    """Trials that left the input set (recorded as an infinite gap)."""
    return sum(1 for g in got.get("per_trial_max_err", []) if math.isinf(g))
