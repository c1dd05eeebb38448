"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload sec6-verify --seeds 0:10 [--trace 1] [--json FILE]

For every metric it prints the median and the quartiles of the per-run
values (``statistics.quantiles(values, n=4)``) and the spread, the
distance between the quartiles as a share of the median, next to the
metric's bound.  Runs are made one after another.  ``--json`` adds the
per-run values and their summary to FILE, keyed by workload and mode,
with the environment record of the last run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--seeds", default="0:10", help="half-open range a:b")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--json", help="file to add the results to")
    args = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    lo, hi = (int(x) for x in args.seeds.split(":"))
    doc = json.loads(Path(args.json).read_text()) if args.json and Path(args.json).exists() else {}
    status = 0
    for w in args.workload:
        runs = []
        for seed in range(lo, hi):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", w, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{w} seed {seed}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}", file=sys.stderr)
                status = 1
                continue
            result = json.loads(lines[-1])
            doc["environment"] = next((json.loads(l[4:]) for l in lines if l.startswith("env ")), None)
            runs.append({"seed": seed, "correct": result["correct"], "attempted": result["attempted"],
                         "failed": result["failed"],
                         "metrics": {k: v["value"] for k, v in result["metrics"].items()}})
            print(f"{w} seed {seed}: " + " ".join(f"{k}={v:.5g}" for k, v in runs[-1]["metrics"].items()),
                  flush=True)
        if len(runs) < 2:
            continue
        summary = {k: summarize([r["metrics"][k] for r in runs]) for k in runs[0]["metrics"]}
        for k, s in summary.items():
            bound = bounds.get(k)
            mark = "" if bound is None else f" bound {bound:g}" + (" OVER 1/3" if s["spread"] > bound / 3 else "")
            print(f"  {w} {k}: median {s['median']:.6g} q1 {s['q1']:.6g} q3 {s['q3']:.6g}"
                  f" spread {s['spread']:.4f}{mark}")
        print(f"  {w}: attempted {sum(r['attempted'] for r in runs)} failed {sum(r['failed'] for r in runs)}"
              f" all correct {all(r['correct'] for r in runs)}")
        doc[f"{w}/trace{args.trace}"] = {"runs": runs, "summary": summary}
    if args.json:
        Path(args.json).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
