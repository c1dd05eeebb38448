"""Smoke tests of the scripts under ``scripts/``."""

import csv
import importlib.util
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_eta_sensitivity_peaks_at_alpha(tmp_path, monkeypatch):
    out = tmp_path / "curve.csv"
    monkeypatch.setattr(sys, "argv", ["eta_sensitivity.py", "--points", "5", "--out", str(out)])
    assert load_script("eta_sensitivity").main() == 0
    with out.open() as fh:
        rows = list(csv.DictReader(fh))
    assert [row["a"] for row in rows] == ["0.100000", "1.250000", "2.400000", "3.550000", "4.700000"]
    best = max(rows, key=lambda row: float(row["eta_bound"]))
    assert best["a"] == "2.400000"


def test_verify_scaling_reports_one_row_per_trial_count(capsys):
    assert load_script("verify_scaling").main(["--trials", "2", "--horizon", "0.05"]) == 0
    rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
    assert [(row["trials"], row["horizon"], row["exit"]) for row in rows] == [("2", "0.05", "0")]
    assert float(rows[0]["wall_s"]) > 0.0
    assert float(rows[0]["peak_rss_mb"]) > 0.0
