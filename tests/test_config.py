import json
import math

import numpy as np
import pytest

from symabs.config import (
    fixture_names,
    build_plan,
    load_config,
    parse_config,
    resolve_eta,
    serialize_config,
)
from symabs.dynamics import IqcSystem, SineSystem
from symabs.errors import BadRange, ParseError, SchemaError


def demo_doc():
    return json.loads(serialize_config(load_config("example_sec6")))


IQC_DOC = {
    "system": {
        "family": "iqc",
        "A": [[-1.0]],
        "B": [[1.0]],
        "C": [[1.0]],
        "E": [[0.5]],
        "C_q": [[1.0]],
        "D_q": [[0.0]],
        "nonlinearity": "tanh",
    },
    "certificate": {
        "P": [[1.0]],
        "L": [[-2.0]],
        "alpha": 0.5,
        "M": {"kind": "lipschitz", "ell": 1.0},
    },
    "lattice": {"eta": 0.05},
    "precision": {"epsilon": 0.2},
    "input_set": {"lower": [-1.0], "upper": [1.0]},
    "initial_box": {"lower": [-0.5], "upper": [0.5]},
    "simulation": {"horizon": 2.0, "step": 0.01, "dwell": 0.5, "trials": 5, "seed": 3},
}


def test_bundled_fixture_values():
    cfg = load_config("example_sec6")
    assert cfg.family == "sine"
    assert cfg.A == [[0.15, 0.0], [0.0, 0.5]]
    assert cfg.m_gain == 2.0
    assert cfg.P == [[1.0, 0.0], [0.0, 1.0]]
    assert cfg.R == [[-5.0, 0.0], [0.0, -5.0]]
    assert cfg.alpha == 2.4
    assert cfg.eta == 0.15
    assert cfg.epsilon == 0.5
    assert cfg.input_lower == [-3.0, -3.0]
    assert (cfg.horizon, cfg.step, cfg.dwell) == (10.0, 0.001, 0.5)
    assert (cfg.trials, cfg.seed) == (20, 0)
    assert fixture_names() == ["example_sec6"]


def test_fixture_builders():
    cfg = load_config("example_sec6")
    assert isinstance(cfg.system(), SineSystem)
    assert np.array_equal(cfg.gain_matrix(), -5.0 * np.eye(2))
    assert cfg.interface().input_dim == 2
    assert build_plan(cfg).rho == pytest.approx(1.0, abs=1e-9)
    assert cfg.lattice_params(0.15).spacing == pytest.approx(0.3 / math.sqrt(2.0), abs=0.0)
    assert cfg.input_set().contains([3.0, -3.0])
    assert cfg.initial_box().contains([1.0, -1.0])
    assert cfg.constants(0.15).K1 == pytest.approx(2.3109041039770077, abs=1e-9)


def test_round_trip_sine():
    cfg = load_config("example_sec6")
    assert parse_config(serialize_config(cfg)) == cfg


def test_round_trip_iqc():
    cfg = parse_config(json.dumps(IQC_DOC))
    assert parse_config(serialize_config(cfg)) == cfg
    sys = cfg.system()
    assert isinstance(sys, IqcSystem)
    assert np.array_equal(cfg.multiplier(), np.diag([1.0, -1.0]))
    assert np.array_equal(cfg.gain_matrix(), [[-2.0]])
    assert cfg.certificate().alpha == 0.5


def test_matrix_multiplier_round_trip():
    doc = json.loads(json.dumps(IQC_DOC))
    doc["certificate"]["M"] = {"kind": "matrix", "value": [[1.0, 0.0], [0.0, -2.0]]}
    cfg = parse_config(json.dumps(doc))
    assert np.array_equal(cfg.multiplier(), np.diag([1.0, -2.0]))
    assert parse_config(serialize_config(cfg)) == cfg


def test_missing_epsilon_named_in_error():
    doc = demo_doc()
    del doc["precision"]["epsilon"]
    with pytest.raises(SchemaError) as exc:
        parse_config(json.dumps(doc))
    assert "precision.epsilon" in str(exc.value)


def test_parse_error_on_bad_json():
    with pytest.raises(ParseError):
        parse_config("{not json")
    with pytest.raises(ParseError):
        parse_config("[1, 2, 3]")


@pytest.mark.parametrize(
    "mutate, fragment",
    [
        (lambda d: d["system"].update(A=[[0.15, 0.0]]), "square"),
        (lambda d: d["certificate"].update(P=[[1.0]]), "certificate.P"),
        (lambda d: d["certificate"].update(a=4.8), "certificate.a"),
        (lambda d: d["initial_box"].update(lower=[2.0, 2.0]), "initial_box"),
        (lambda d: d["input_set"].update(lower=[-3.0]), "input_set"),
        (lambda d: d["simulation"].update(step=-0.1), "simulation.step"),
        (lambda d: d["simulation"].update(trials=0), "simulation.trials"),
        (lambda d: d["lattice"].update(eta=-0.5), "lattice.eta"),
    ],
)
def test_schema_violations_carry_field_paths(mutate, fragment):
    doc = demo_doc()
    mutate(doc)
    with pytest.raises(SchemaError) as exc:
        parse_config(json.dumps(doc))
    assert fragment in str(exc.value)


def test_eta_auto_resolves_to_bound():
    doc = demo_doc()
    doc["lattice"] = {"eta": "auto", "theorem": 4}
    cfg = parse_config(json.dumps(doc))
    eta, bound, thm = resolve_eta(cfg)
    assert thm == 4
    assert eta == bound
    assert bound == pytest.approx(0.15101615277815134, abs=1e-12)


def test_eta_auto_requires_theorem():
    doc = demo_doc()
    doc["lattice"] = {"eta": "auto"}
    with pytest.raises(SchemaError) as exc:
        parse_config(json.dumps(doc))
    assert "lattice.theorem" in str(exc.value)


def test_explicit_eta_reported_against_bound():
    cfg = load_config("example_sec6")
    eta, bound, thm = resolve_eta(cfg)
    assert eta == 0.15
    assert thm == 4
    assert eta <= bound


def test_theorem_bounds_ordering():
    cfg = load_config("example_sec6")
    plain = build_plan(cfg, 2).bound
    with_disturbance = build_plan(cfg, 3).bound
    closed_form = build_plan(cfg, 4).bound
    assert plain == pytest.approx(0.25, abs=2e-9)
    assert with_disturbance == pytest.approx(6.0 / 49.0, abs=2e-9)
    assert closed_form == pytest.approx(0.15101615277815134, abs=1e-12)
    # folding the disturbance into the comparison route costs radius
    assert with_disturbance < closed_form < plain
    with pytest.raises(BadRange):
        build_plan(cfg, 5)


def test_load_config_from_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(serialize_config(load_config("example_sec6")))
    cfg = load_config(str(path))
    assert cfg == load_config("example_sec6")


def test_load_config_unknown_name():
    with pytest.raises(ParseError) as exc:
        load_config("definitely_not_here")
    assert "example_sec6" in str(exc.value)
