"""Command-line front end.

Commands: certify, eta-bound, simulate, verify, shrink-input-set.
Each takes a config path or a bundled fixture name plus overriding
flags, writes a JSON report (and a trajectory CSV for simulate) into
the output directory, and exits 0 on a passing verdict, 1 on a failing
verdict, 2 on a configuration error, and 3 on a runtime error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from .abstraction import AugmentedRun, simulate_augmented
from .certificates import (
    check_lmi_iqc,
    check_lmi_sine,
    max_feasible_alpha_iqc,
    max_feasible_alpha_sine,
)
from .config import ExperimentConfig, Plan, build_plan, load_config, parse_config, serialize_config
from .config import resolve_eta  # noqa: F401  unused here; the benchmark tracer wraps it (ROADMAP item 4)
from .dynamics import _steps_on_grid
from .errors import (
    BadRange,
    DimensionMismatch,
    Diverged,
    EmptyResult,
    Infeasible,
    InputViolation,
    MisalignedSignal,
    NonFinite,
    NonSquare,
    NotPositiveDefinite,
    NotSymmetric,
    OutOfDomain,
    Overflow,
    ParseError,
    SchemaError,
    SymabsError,
)
from .interface import ALL_SPACE, BoxInputSet, input_margin, shrink_box
from .numerics import DEFAULT_TOL
from .verify import (
    draw_box_point,
    draw_signal,
    lyapunov_decrease_check,
    trial_rng,
    verify_gps_trajectory,
    verify_simulation_relation,
)

_CONFIG_ERRORS = (
    ParseError,
    SchemaError,
    DimensionMismatch,
    BadRange,
    NonSquare,
    NotSymmetric,
    NotPositiveDefinite,
    NonFinite,
)

_RUNTIME_ERRORS = (
    Diverged,
    MisalignedSignal,
    OutOfDomain,
    Overflow,
    InputViolation,
)


_CSV_CHUNK = 2048

# Tolerance of verify's decay-bound (GPS) check.  It does not follow --tol,
# which is the tolerance of the certificate checks only.
_GPS_TOL = 1e-3


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def _write_report(out_dir: Path, report: dict) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "report.json"
    path.write_text(json.dumps(_jsonable(report), indent=2, sort_keys=True) + "\n")
    return path


def write_trajectory_csv(path: Path, run: AugmentedRun) -> None:
    """Trajectory CSV with a fixed column layout at 17 significant digits."""
    n = run.x1_states.shape[1]
    m = run.u_values.shape[1]
    header = (
        ["t"]
        + [f"x1_{i + 1}" for i in range(n)]
        + [f"phi_{i + 1}" for i in range(n)]
        + [f"x2_{i + 1}" for i in range(n)]
        + [f"u_{i + 1}" for i in range(m)]
        + [f"v_{i + 1}" for i in range(m)]
        + ["y_err"]
    )
    table = np.column_stack(
        [run.times, run.x1_states, run.phi_states, run.x2_states, run.u_values, run.v_values, run.y_err]
    )
    # "%.17g" renders a float exactly as format(x, ".17g") does.  Rows are
    # rendered in chunks to bound the memory held by Python floats.
    row = ",".join(["%.17g"] * table.shape[1]) + "\n"
    with path.open("w") as f:
        f.write(",".join(header) + "\n")
        for start in range(0, table.shape[0], _CSV_CHUNK):
            f.write("".join([row % tuple(r) for r in table[start : start + _CSV_CHUNK].tolist()]))


def _certificate_verdict(cfg: ExperimentConfig, tol: float) -> dict:
    cert = cfg.certificate()
    if cfg.family == "sine":
        verdict = check_lmi_sine(cert, np.array(cfg.A), tol)
        try:
            boundary = max_feasible_alpha_sine(
                np.array(cfg.P), np.array(cfg.R), np.array(cfg.A), cfg.m_gain, tol
            )
        except Infeasible:
            boundary = None
    else:
        sys_model = cfg.system()
        verdict = check_lmi_iqc(cert, sys_model, tol)
        try:
            boundary = max_feasible_alpha_iqc(
                np.array(cfg.P), np.array(cfg.L), cert.M, sys_model, tol
            )
        except Infeasible:
            boundary = None
    return {
        "holds": verdict.holds,
        "lambda_max": verdict.lambda_max,
        "alpha": cfg.alpha,
        "alpha_feasibility_boundary": boundary,
    }


def _shrunk_inputs(cfg: ExperimentConfig, plan: Plan):
    margin = input_margin(cfg.gain_matrix(), plan.constants.K1, plan.eta)
    return margin, shrink_box(cfg.input_set(), margin)


def cmd_certify(cfg: ExperimentConfig, args) -> tuple[int, dict]:
    verdict = _certificate_verdict(cfg, args.tol)
    report = {"command": "certify", "certificate": verdict}
    status = "holds" if verdict["holds"] else "fails"
    print(
        f"certificate {status}: lambda_max = {_fmt(verdict['lambda_max'])}"
        f" at alpha = {_fmt(cfg.alpha)}"
    )
    if verdict["alpha_feasibility_boundary"] is not None:
        print(f"alpha feasibility boundary = {_fmt(verdict['alpha_feasibility_boundary'])}")
    return (0 if verdict["holds"] else 1), report


def cmd_eta_bound(cfg: ExperimentConfig, args) -> tuple[int, dict]:
    plan = build_plan(cfg, args.theorem)
    report = {
        "command": "eta-bound",
        "theorem": plan.theorem,
        "eta_bound": plan.bound,
        "eta": plan.eta,
        "epsilon": cfg.epsilon,
        "constants": dataclasses.asdict(plan.constants),
    }
    print(f"theorem {plan.theorem} admissible lattice radius: {_fmt(plan.bound)}")
    return 0, report


def cmd_shrink(cfg: ExperimentConfig, args) -> tuple[int, dict]:
    plan = build_plan(cfg, args.theorem)
    margin, shrunk = _shrunk_inputs(cfg, plan)
    report = {
        "command": "shrink-input-set",
        "eta": plan.eta,
        "theorem": plan.theorem,
        "margin_r": margin,
        "K1": plan.constants.K1,
        "abstract_input_set": (
            "all"
            if not isinstance(shrunk, BoxInputSet)
            else {"lower": shrunk.lower, "upper": shrunk.upper}
        ),
    }
    print(f"margin r = {_fmt(margin)}")
    if isinstance(shrunk, BoxInputSet):
        print(f"abstract input box: lower = {shrunk.lower.tolist()}, upper = {shrunk.upper.tolist()}")
    else:
        print("abstract input set: unconstrained")
    return 0, report


def cmd_simulate(cfg: ExperimentConfig, args) -> tuple[int, dict]:
    plan = build_plan(cfg, args.theorem)
    margin, shrunk = _shrunk_inputs(cfg, plan)
    if not isinstance(shrunk, BoxInputSet):
        raise SchemaError(["input_set: simulate requires a bounded input set"])
    rng = trial_rng(cfg.seed, 0)
    x0 = draw_box_point(rng, cfg.initial_box())
    sig = draw_signal(rng, shrunk, cfg.dwell, cfg.horizon)
    run = simulate_augmented(
        cfg.system(),
        cfg.interface(),
        x0,
        sig,
        cfg.lattice_params(plan.eta),
        cfg.horizon,
        cfg.step,
        input_box=cfg.input_set(),
    )
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "trajectory.csv"
    write_trajectory_csv(csv_path, run)
    max_err = float(np.max(run.y_err))
    passed = max_err <= cfg.epsilon
    report = {
        "command": "simulate",
        "seed": cfg.seed,
        "eta": plan.eta,
        "eta_bound": plan.bound,
        "theorem": plan.theorem,
        "epsilon": cfg.epsilon,
        "max_y_err": max_err,
        "passed": passed,
        "margin_r": margin,
        "constants": dataclasses.asdict(plan.constants),
        "abstract_input_set": {"lower": shrunk.lower, "upper": shrunk.upper},
        "csv": csv_path.name,
        "samples": int(run.times.shape[0]),
    }
    print(f"max output gap = {_fmt(max_err)} over {run.times.shape[0]} samples -> {csv_path}")
    return (0 if passed else 1), report


def cmd_verify(cfg: ExperimentConfig, args) -> tuple[int, dict]:
    plan = build_plan(cfg, args.theorem)
    margin, shrunk = _shrunk_inputs(cfg, plan)
    if not isinstance(shrunk, BoxInputSet):
        raise SchemaError(["input_set: verify requires a bounded input set"])
    # The Lyapunov check takes central differences over three samples.
    if _steps_on_grid(cfg.horizon, cfg.step) < 2:
        raise SchemaError([
            f"simulation.horizon: verify needs at least two steps of {cfg.step:g},"
            f" got {cfg.horizon:g}"
        ])
    cert_verdict = _certificate_verdict(cfg, args.tol)
    eta_ok = plan.eta <= plan.bound
    relation = verify_simulation_relation(
        cfg.system(),
        cfg.interface(),
        cfg.lattice_params(plan.eta),
        cfg.epsilon,
        shrunk,
        cfg.initial_box(),
        cfg.trials,
        cfg.seed,
        cfg.horizon,
        cfg.step,
        cfg.dwell,
        input_box=cfg.input_set(),
        certified_by=f"theorem {plan.theorem}" if eta_ok and cert_verdict["holds"] else None,
    )
    gps_reports = [verify_gps_trajectory(r, plan.constants, _GPS_TOL) for r in relation.runs]
    P = np.array(cfg.P)
    lyap_reports = [lyapunov_decrease_check(r, P, plan.constants) for r in relation.runs]
    note = None
    if relation.passed and not (eta_ok and cert_verdict["holds"]):
        note = (
            "empirical pass without a full certificate: the bounds are"
            " sufficient, not necessary"
        )
    report = {
        "command": "verify",
        "certificate": cert_verdict,
        "eta": {"value": plan.eta, "bound": plan.bound, "theorem": plan.theorem, "satisfied": eta_ok},
        "constants": dataclasses.asdict(plan.constants),
        "margin_r": margin,
        "abstract_input_set": {"lower": shrunk.lower, "upper": shrunk.upper},
        "relation": {
            "passed": relation.passed,
            "epsilon": relation.epsilon,
            "max_err": relation.max_err,
            "argmax_time": relation.argmax_time,
            "trials": relation.trials,
            "seed": relation.seed,
            "per_trial_max_err": relation.per_trial_max_err,
            "input_violations": relation.input_violations,
            "certified_by": relation.certified_by,
        },
        "gps": {
            "all_passed": all(g.passed for g in gps_reports),
            "worst_margin": min((g.worst_margin for g in gps_reports), default=None),
        },
        "lyapunov": {
            "all_passed": all(l.passed for l in lyap_reports),
            "min_satisfied_fraction": min(
                (l.satisfied_fraction for l in lyap_reports), default=None
            ),
            "worst_violation": max((l.worst_violation for l in lyap_reports), default=None),
        },
        "note": note,
    }
    state = "pass" if relation.passed else "fail"
    print(
        f"relation {state}: max output gap {_fmt(relation.max_err)}"
        f" (epsilon {_fmt(cfg.epsilon)}) over {relation.trials} trials"
    )
    if note:
        print(f"note: {note}")
    return (0 if relation.passed else 1), report


_COMMANDS = {
    "certify": cmd_certify,
    "eta-bound": cmd_eta_bound,
    "simulate": cmd_simulate,
    "verify": cmd_verify,
    "shrink-input-set": cmd_shrink,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symabs",
        description="Lattice abstractions with certificate-backed interfaces.",
    )
    parser.add_argument("command", choices=list(_COMMANDS))
    parser.add_argument("config", help="config file path or bundled fixture name")
    parser.add_argument("--seed", type=int, default=None, help="64-bit experiment seed")
    parser.add_argument("--trials", type=int, default=None)
    parser.add_argument("--step", type=float, default=None)
    parser.add_argument("--horizon", type=float, default=None)
    parser.add_argument("--theorem", type=int, choices=(2, 3, 4), default=None)
    parser.add_argument("--out", default="out", help="output directory (default: out)")
    parser.add_argument("--tol", type=float, default=DEFAULT_TOL)
    return parser


def _apply_overrides(cfg: ExperimentConfig, args) -> ExperimentConfig:
    updates = {}
    if args.seed is not None:
        updates["seed"] = args.seed
    if args.trials is not None:
        updates["trials"] = args.trials
    if args.step is not None:
        updates["step"] = args.step
    if args.horizon is not None:
        updates["horizon"] = args.horizon
    if not updates:
        return cfg
    # A round trip through the schema checks flag values as it checks a file's.
    return parse_config(serialize_config(dataclasses.replace(cfg, **updates)))


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if not (np.isfinite(args.tol) and args.tol >= 0.0):
            raise SchemaError([f"--tol: expected a finite nonnegative number, got {args.tol}"])
        cfg = _apply_overrides(load_config(args.config), args)
        code, report = _COMMANDS[args.command](cfg, args)
    except EmptyResult as exc:
        print(f"input set is empty after shrinking: {exc}")
        code, report = 1, {"command": args.command, "empty": True, "reason": str(exc)}
    except _CONFIG_ERRORS as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except _RUNTIME_ERRORS as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3
    except SymabsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    _write_report(Path(args.out), report)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
