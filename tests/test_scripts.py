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
