import json

import numpy as np
import pytest
from test_abstraction import IQC_DOC

from symabs.cli import main
from symabs.config import load_config, serialize_config
from symabs.verify import verify_gps_trajectory

CSV_HEADER = "t,x1_1,x1_2,phi_1,phi_2,x2_1,x2_2,u_1,u_2,v_1,v_2,y_err"


def write_config(tmp_path, mutate=None):
    doc = json.loads(serialize_config(load_config("example_sec6")))
    if mutate:
        mutate(doc)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    return str(path)


def read_report(out_dir):
    with open(out_dir / "report.json") as fh:
        return json.load(fh)


def test_certify_demo_fails_with_boundary(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["certify", "example_sec6", "--out", str(out)])
    assert code == 1
    report = read_report(out)
    assert report["certificate"]["holds"] is False
    assert report["certificate"]["lambda_max"] == pytest.approx(0.4770329614269007, abs=1e-9)
    assert report["certificate"]["alpha_feasibility_boundary"] == pytest.approx(2.0, abs=1e-6)
    text = capsys.readouterr().out
    assert "fails" in text


def test_eta_bound_prints_value(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["eta-bound", "example_sec6", "--theorem", "4", "--out", str(out)])
    assert code == 0
    last = capsys.readouterr().out.strip().splitlines()[-1]
    printed = float(last.split()[-1])
    assert printed == pytest.approx(0.15101615277815134, abs=1e-12)
    report = read_report(out)
    assert report["theorem"] == 4
    assert set(report["constants"]) >= {"k", "K1", "lhat_norm", "practical_offset"}


@pytest.mark.parametrize("fixture", ["example_sec6", "iqc"])
def test_theorem4_bound_is_where_the_offset_meets_epsilon(tmp_path, fixture):
    # (K1 + 1) * eta * ||C|| = epsilon at the theorem-4 radius
    config = "example_sec6"
    if fixture == "iqc":
        config = str(tmp_path / "iqc.json")
        (tmp_path / "iqc.json").write_text(json.dumps(IQC_DOC))
    out = tmp_path / "out"
    assert main(["eta-bound", config, "--theorem", "4", "--out", str(out)]) == 0
    report = read_report(out)
    c_norm = np.linalg.norm(load_config(config).system().output_matrix(), 2)
    reached = report["eta_bound"] * c_norm * (1.0 + report["constants"]["K1"])
    assert abs(reached - report["epsilon"]) <= 1e-12 * report["epsilon"]


def test_eta_bound_theorem_flag(tmp_path, capsys):
    code = main(["eta-bound", "example_sec6", "--theorem", "2", "--out", str(tmp_path / "o")])
    assert code == 0
    printed = float(capsys.readouterr().out.strip().splitlines()[-1].split()[-1])
    assert printed == pytest.approx(0.25, abs=2e-9)


def test_shrink_input_set_reports_margin(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["shrink-input-set", "example_sec6", "--out", str(out)])
    assert code == 0
    report = read_report(out)
    assert report["margin_r"] == pytest.approx(2.4831780779827555, abs=1e-9)
    lo = report["abstract_input_set"]["lower"]
    hi = report["abstract_input_set"]["upper"]
    assert lo == pytest.approx([-0.5168219220172445] * 2, abs=1e-9)
    assert hi == pytest.approx([0.5168219220172445] * 2, abs=1e-9)
    assert "margin r" in capsys.readouterr().out


def test_shrink_input_set_empty(tmp_path, capsys):
    cfg = write_config(
        tmp_path, lambda d: d.update(input_set={"lower": [-2.0, -2.0], "upper": [2.0, 2.0]})
    )
    code = main(["shrink-input-set", cfg, "--out", str(tmp_path / "out")])
    assert code == 1
    assert "empty" in capsys.readouterr().out


def test_simulate_writes_csv_and_report(tmp_path):
    out = tmp_path / "out"
    code = main(
        ["simulate", "example_sec6", "--seed", "7", "--horizon", "2", "--out", str(out)]
    )
    assert code == 0
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 2001  # header + horizon/step + 1 rows
    report = read_report(out)
    assert report["passed"] is True
    assert report["max_y_err"] <= 0.5
    assert report["seed"] == 7
    assert report["samples"] == 2001
    assert report["csv"] == "trajectory.csv"


def test_simulate_deterministic_bytes(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    args = ["simulate", "example_sec6", "--seed", "7", "--horizon", "2"]
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0
    bytes_a = (out_a / "trajectory.csv").read_bytes()
    bytes_b = (out_b / "trajectory.csv").read_bytes()
    assert bytes_a == bytes_b
    assert (out_a / "report.json").read_bytes() == (out_b / "report.json").read_bytes()


def test_simulate_seed_changes_trajectory(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    base = ["simulate", "example_sec6", "--horizon", "2"]
    assert main(base + ["--seed", "7", "--out", str(out_a)]) == 0
    assert main(base + ["--seed", "8", "--out", str(out_b)]) == 0
    assert (out_a / "trajectory.csv").read_bytes() != (out_b / "trajectory.csv").read_bytes()


def test_verify_demo_short_run(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(
        ["verify", "example_sec6", "--trials", "3", "--horizon", "1", "--out", str(out)]
    )
    assert code == 0
    report = read_report(out)
    assert report["relation"]["passed"] is True
    assert report["relation"]["trials"] == 3
    assert report["certificate"]["holds"] is False
    assert report["eta"]["satisfied"] is True
    assert report["gps"]["all_passed"] is True
    assert report["lyapunov"]["all_passed"] is True
    assert report["margin_r"] == pytest.approx(2.4831780779827555, abs=1e-9)
    # the empirical pass is not certificate-backed at this rate, so the
    # report must say the bounds are only sufficient
    assert report["note"] is not None
    assert report["relation"]["certified_by"] is None
    assert "note" in capsys.readouterr().out


def test_config_error_exit_codes(tmp_path):
    missing = tmp_path / "missing.json"
    assert main(["certify", str(missing), "--out", str(tmp_path / "o1")]) == 2

    not_json = tmp_path / "bad.json"
    not_json.write_text("{nope")
    assert main(["certify", str(not_json), "--out", str(tmp_path / "o2")]) == 2

    cfg = write_config(tmp_path, lambda d: d["precision"].pop("epsilon"))
    assert main(["certify", cfg, "--out", str(tmp_path / "o3")]) == 2


@pytest.mark.parametrize(
    "flag, value, field",
    [
        ("--seed", str(2**64), "seed"),
        ("--seed", "-1", "seed"),
        ("--step", "0", "step"),
        ("--step", "nan", "step"),
        ("--horizon", "-1", "horizon"),
        ("--horizon", "inf", "horizon"),
        ("--trials", "0", "trials"),
    ],
)
def test_bad_flag_is_a_config_error(tmp_path, capsys, flag, value, field):
    # a flag passes the same schema as the config file it overrides
    out = tmp_path / "out"
    assert main(["verify", "example_sec6", flag, value, "--out", str(out)]) == 2
    assert f"simulation.{field}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("horizon", ["0", "0.001"])
def test_verify_needs_three_samples(tmp_path, capsys, monkeypatch, horizon):
    # rejected before any trial is simulated
    monkeypatch.setattr("symabs.cli.verify_simulation_relation", None)
    out = tmp_path / "out"
    assert main(["verify", "example_sec6", "--horizon", horizon, "--out", str(out)]) == 2
    assert "simulation.horizon" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_zero_horizon_is_one_sample(tmp_path):
    out = tmp_path / "out"
    assert main(["simulate", "example_sec6", "--horizon", "0", "--out", str(out)]) == 0
    assert read_report(out)["samples"] == 1


@pytest.mark.parametrize("command", ["certify", "eta-bound", "shrink-input-set", "simulate", "verify"])
@pytest.mark.parametrize("field", ["P", "R"])
def test_asymmetric_certificate_matrix_is_a_schema_error(tmp_path, capsys, command, field):
    def skew(doc):
        doc["certificate"][field][0][1] += 2.0

    out = tmp_path / "out"
    assert main([command, write_config(tmp_path, skew), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"certificate.{field}: must be symmetric (asymmetry 2.000e+00" in err
    assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "-1", "inf"])
def test_bad_tol_is_a_config_error(tmp_path, capsys, value):
    out = tmp_path / "out"
    code = main(["verify", "example_sec6", "--tol", value, "--trials", "2", "--horizon", "0.1",
                 "--out", str(out)])
    assert code == 2
    assert "--tol" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("d_q", [[[0.0, 0.0]], [[0.0, 0.15]]], ids=["explicit", "implicit"])
def test_wrong_nonlinearity_shape_is_a_config_error(tmp_path, capsys, d_q):
    # one nonlinearity channel (C_q is 1x4) feeding two (E has two columns):
    # tanh returns one value per row where the loop needs two
    doc = json.loads(json.dumps(IQC_DOC))
    doc["system"]["C_q"] = [[0.25, 0.0, 0.0, 0.15]]
    doc["system"]["D_q"] = d_q
    path = tmp_path / "iqc.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    code = main(["verify", str(path), "--trials", "2", "--horizon", "0.1", "--out", str(out)])
    assert code == 2
    assert "nonlinearity returned shape" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["certify", "eta-bound", "shrink-input-set", "simulate", "verify"])
@pytest.mark.parametrize(
    "flags, mutate",
    [
        (["--horizon", "0.0015", "--trials", "2"], None),
        (["--step", "0.003"], None),
        ([], lambda d: d["simulation"].update(horizon=0.0105)),
    ],
)
def test_misaligned_horizon_is_a_schema_error(tmp_path, capsys, monkeypatch, command, flags, mutate):
    # rejected by the schema, before any planning
    monkeypatch.setattr("symabs.cli.build_plan", None)
    out = tmp_path / "out"
    assert main([command, write_config(tmp_path, mutate), *flags, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "simulation.horizon: " in err and "is not a whole number of steps" in err
    assert not out.exists()


def test_gps_tolerance_does_not_follow_tol(tmp_path, monkeypatch):
    seen = []

    def record(run, consts, tol):
        seen.append(tol)
        return verify_gps_trajectory(run, consts, tol)

    monkeypatch.setattr("symabs.cli.verify_gps_trajectory", record)
    flags = ["--trials", "2", "--horizon", "0.05"]
    assert main(["verify", "example_sec6", *flags, "--out", str(tmp_path / "a")]) == 0
    default = list(seen)
    seen.clear()
    assert main(["verify", "example_sec6", *flags, "--tol", "0", "--out", str(tmp_path / "b")]) == 0
    assert default == seen == [1e-3, 1e-3]


def test_runtime_error_exit_code(tmp_path):
    # dwell 0.5 does not land on a 0.3 step grid
    code = main(
        ["simulate", "example_sec6", "--step", "0.3", "--horizon", "3", "--out", str(tmp_path / "o")]
    )
    assert code == 3


def test_report_is_sorted_json(tmp_path):
    out = tmp_path / "out"
    main(["eta-bound", "example_sec6", "--out", str(out)])
    text = (out / "report.json").read_text()
    assert json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n" == text


@pytest.mark.parametrize("command", ["verify", "simulate", "shrink-input-set"])
def test_empty_shrunk_box_exits_1_with_report(tmp_path, capsys, command):
    # eta "auto" under theorem 2 adopts eta = 0.25, whose margin r = 4.14
    # empties the +-3 input box
    cfg = write_config(tmp_path, lambda d: d.update(lattice={"eta": "auto", "theorem": 2}))
    out = tmp_path / "out"
    assert main([command, cfg, "--out", str(out)]) == 1
    report = read_report(out)
    assert report["command"] == command
    assert report["empty"] is True
    assert "empties the input box" in report["reason"]
    assert "input set is empty after shrinking" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv", [["frobnicate", "example_sec6"], ["eta-bound", "example_sec6", "--theorem", "5"]]
)
def test_bad_command_line_exits_2(tmp_path, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert not (tmp_path / "out").exists()
