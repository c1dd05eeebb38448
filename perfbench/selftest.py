"""Quick test of the benchmark itself (about a minute).

    python3 perfbench/selftest.py

Runs every workload at tiny size, traced and untraced, and checks that
each run prints exactly the metrics BENCHMARK.json names, with their
units, and matches its reference, and that every traced function was
found and wrapped; that a reference perturbed just past
its tolerance is reported as a failure; and that the benchmark refuses to
run, printing no result, where the package source is missing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_out" / "selftest"


def bench(*args, cwd=ROOT, runner=HERE / "run.py"):
    cmd = [sys.executable, str(runner), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def last_json(proc) -> dict:
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    return result


def check_metrics(result: dict, spec: list[dict]) -> None:
    want = {m["name"]: m["unit"] for m in spec}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want, f"metrics differ: {set(got) ^ set(want)} or units differ"
    for k, v in result["metrics"].items():
        assert isinstance(v["value"], (int, float)), k


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layer_map = json.loads((HERE / "layer_map.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    assert set(layer_map["per_layer"]) == {m["name"] for m in spec["per_layer"]}, "layer map incomplete"
    for entry in layer_map["per_layer"].values():
        assert set(entry["workloads"]) <= set(names)
        assert set(entry["moves"]) <= {m["name"] for m in spec["end_to_end"]}
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)

    for w in names:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = bench("--workload", w, "--seed", "0", "--seconds", "1", "--trace", str(trace), "--tiny")
            assert proc.returncode == 0, f"{w} trace {trace}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}"
            result = last_json(proc)
            check_metrics(result, spec[key])
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
            if trace == 0:
                assert all(v["value"] > 0 for v in result["metrics"].values()), result
            else:
                dump = json.loads((ROOT / ".perfbench_out" / f"trace-{w}-s0.json").read_text())
                assert dump["missing"] == [], f"{w}: trace targets not found: {dump['missing']}"
            print(f"ok {w} trace={trace}: {result['attempted']} operations")

    # A reference moved just past its tolerance must fail the run.
    reference = json.loads((HERE / "reference.json").read_text())
    perturbed = dict(reference)
    for k, v in reference.items():
        if k.startswith("simulate/") and k.endswith("/tiny"):
            perturbed[k] = dict(v, max_y_err=v["max_y_err"] + 1e-11)
        elif k.endswith("/certify") and v["boundary"] is not None:
            perturbed[k] = dict(v, boundary=v["boundary"] + 2e-9)
    path = WORK / "perturbed.json"
    path.write_text(json.dumps(perturbed))
    for w in ("sec6-simulate", "plan-sweep"):
        proc = bench("--workload", w, "--seed", "0", "--seconds", "1", "--tiny", "--reference", str(path))
        result = last_json(proc)
        assert proc.returncode == 1 and not result["correct"] and result["failed"] >= 1, proc.stdout
        print(f"ok {w}: perturbed reference reported ({result['failed']}/{result['attempted']} failed)")

    # Only BENCHMARK.json and the benchmark's files: no package to run.
    bare = WORK / "bare"
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = bench("--workload", names[0], "--seed", "0", "--seconds", "1", "--trace", "0",
                 cwd=bare, runner=bare / HERE.name / "run.py")
    assert proc.returncode != 0 and '"correct"' not in proc.stdout, proc.stdout
    print("ok bare directory refused")
    shutil.rmtree(WORK, ignore_errors=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
