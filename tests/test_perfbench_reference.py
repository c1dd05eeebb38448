"""The IQC path against the benchmark's reference: ``verify`` on the
benchmark's IQC config must reproduce the values ``perfbench/reference.json``
records for it, by the benchmark's own extraction and tolerances.  Both
files are loaded read-only, as ``test_trace_targets.py`` loads the tracer."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from symabs.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name while the class is built
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("seed", [0, 1])
def test_iqc_verify_matches_benchmark_reference(tmp_path, seed):
    workloads = load_workloads()
    reference = json.loads((PERFBENCH / "reference.json").read_text())
    config = tmp_path / "iqc.json"
    config.write_text(json.dumps(workloads.iqc_config()))
    args = ["verify", str(config), "--seed", str(seed)]
    out = tmp_path / "out"
    code = main([*args, "--out", str(out)])
    report = json.loads((out / "report.json").read_text())
    got = workloads.extract(args, code, report)
    assert workloads.compare(reference[f"verify/iqc/{seed}"], got) == []


def test_plan_values_match_benchmark_reference(tmp_path):
    # certify and eta-bound --theorem 2/3 on every generated plan-sweep
    # config: the rate boundary and the theorem-2/3 radii, each checked to
    # the 1e-9 the reference allows
    workloads = load_workloads()
    reference = json.loads((PERFBENCH / "reference.json").read_text())
    out = tmp_path / "out"
    off = {}
    for op in workloads.pool("plan-sweep", tmp_path):
        for call in op.calls:
            if not call.key.endswith(("/certify", "/eta-bound-2", "/eta-bound-3")):
                continue
            code = main([*call.args, "--out", str(out)])
            report = json.loads((out / "report.json").read_text()) if code in (0, 1) else None
            bad = workloads.compare(reference[call.key], workloads.extract(call.args, code, report))
            if bad:
                off[call.key] = bad
    assert off == {}
