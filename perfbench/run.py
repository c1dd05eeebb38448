"""symabs benchmark: time to a verdict, planning latency and memory.

Run from the repository root:

    python3 perfbench/run.py --workload sec6-verify --seed 0 --seconds 20 --trace 0

One client issues the workload's operations one after another (a closed
loop) through ``symabs.cli.main`` in this process, with BLAS threads
pinned to 1.  Each call's outputs are checked against the reference
recorded from the seed commit.  Human-readable lines come first; the last
line of standard output is the JSON result.  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer ones from a traced run.
Exit codes: 0 all outputs matched their reference, 1 some did not (or a
traced run could not wrap one of its target functions, whose per-layer
metrics would then read 0), 2 the package source is missing or the
arguments are bad.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP threads before numpy is imported, here and in the probes.
PINNED = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}
os.environ.update(PINNED)

import argparse
import contextlib
import io
import itertools
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from tracing import Tracer, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_out"

SETUP_PROBES = 11

# A fresh process imports the package and loads the workload's config(s);
# it prints when it is ready for its first call.
PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
from symabs.cli import main
from symabs.config import load_config
for name in sys.argv[2:]:
    load_config(name)
print("ready", flush=True)
"""

# Operations issued, untimed, before timing starts.  A run of the simulate
# workload first writes into an empty output directory, which every later
# call then overwrites, as repeated runs with the default ``--out out`` do.
WARMUP = {"sec6-verify": 0, "iqc-verify": 0, "plan-sweep": 3, "sec6-simulate": 1}


def _fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    raise SystemExit(2)


def _import_package():
    if not (SRC / "symabs" / "__init__.py").is_file():
        _fail(f"no package source at {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import symabs.cli

    if Path(symabs.cli.__file__).resolve().parent != SRC / "symabs":
        _fail(f"imported symabs from {symabs.cli.__file__}, not from {SRC}")
    return symabs.cli


def _read_first(path: str, prefix: str) -> str | None:
    try:
        with open(path) as fh:
            for line in fh:
                if line.startswith(prefix):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _filesystem(path: Path) -> str | None:
    best, fstype = "", None
    try:
        with open("/proc/self/mounts") as fh:
            for line in fh:
                parts = line.split()
                mnt = parts[1]
                if str(path).startswith(mnt) and len(mnt) >= len(best):
                    best, fstype = mnt, parts[2]
    except OSError:
        return None
    return fstype


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref:"):
            return (ROOT / ".git" / ref.split(None, 1)[1]).read_text().strip()
        return ref
    except OSError:
        return None


def environment(np) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _read_first("/proc/cpuinfo", "model name"),
        "git_commit": _git_commit(),
        "pinned_threads": PINNED,
        "out_filesystem": _filesystem(WORK),
    }


def setup_time(config_paths: list[str]) -> list[float]:
    """Seconds from spawning a fresh process to its readiness, per probe."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", PROBE, str(SRC), *config_paths],
            stdout=subprocess.PIPE,
            cwd=ROOT,
            text=True,
        )
        line = proc.stdout.readline()
        times.append(time.perf_counter() - t0)
        proc.stdout.close()
        if proc.wait() != 0 or line.strip() != "ready":
            _fail("set-up probe failed")
    return times


class Runner:
    """Issues operations, times them, and checks every call's outputs."""

    def __init__(self, cli, reference: dict, out_root: Path, shared_out: bool):
        self.cli = cli
        self.reference = reference
        self.out_root = out_root
        self.shared_out = shared_out
        self.attempted = 0
        self.failed = 0
        self.mismatched = 0
        self.trials = 0
        self.trials_failed = 0
        self.problems: list[str] = []
        self.tracer = None

    def _out_dir(self, i: int, j: int) -> Path:
        return self.out_root / "shared" if self.shared_out else self.out_root / f"{i}-{j}"

    def run(self, op) -> float:
        """Issue ``op``; returns its wall time in seconds."""
        i = self.attempted
        if self.tracer is not None:
            self.tracer.run_id = i
        results = []
        t0 = time.perf_counter()
        for j, call in enumerate(op.calls):
            out = self._out_dir(i, j)
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
                code = self.cli.main([*call.args, "--out", str(out)])
            results.append((call, out, code, err.getvalue()))
        elapsed = time.perf_counter() - t0
        self.attempted += 1
        self._check(results)
        return elapsed

    def _check(self, results) -> None:
        failed = False
        for call, out, code, err in results:
            report = None
            if code in (0, 1):
                report = json.loads((out / "report.json").read_text())
            got = workloads.extract(call.args, code, report)
            off = workloads.compare(self.reference.get(call.key), got)
            bad_trials = workloads.failed_trials(got)
            self.trials += len(got.get("per_trial_max_err", []))
            self.trials_failed += bad_trials
            if off:
                self.mismatched += 1
                self.problems.append(f"{call.key}: off reference in {', '.join(off)}")
            if code not in (0, 1):
                self.problems.append(f"{call.key}: exit {code}: {err.strip()[:200]}")
            failed = failed or bool(off) or code not in (0, 1) or bad_trials > 0
        self.failed += failed


def _p95(xs):
    if len(xs) < 2:
        return xs[0]
    return statistics.quantiles(xs, n=20, method="inclusive")[-1]


def _loop(runner, ops, seconds: float) -> list[float]:
    times = []
    t_end = time.perf_counter() + seconds
    while not times or time.perf_counter() < t_end:
        times.append(runner.run(next(ops)))
    return times


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="small operations, for the quick self-test")
    ap.add_argument("--reference", default=str(HERE / "reference.json"))
    args = ap.parse_args(argv)

    cli = _import_package()
    import numpy as np

    reference = json.loads(Path(args.reference).read_text())
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    w = args.workload
    run_dir = WORK / f"{w}-s{args.seed}-t{args.trace}-p{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    config_dir = run_dir / "configs"
    config_dir.mkdir(parents=True)
    try:
        ops = workloads.operations(w, args.seed, config_dir, tiny=args.tiny)
        first = next(ops)
        setup = setup_time(first.config_paths)
        runner = Runner(cli, reference, run_dir / "out", shared_out=(w == "sec6-simulate"))
        ops = itertools.chain([first], ops)
        for _ in range(WARMUP[w]):
            runner.run(next(ops))
        if args.trace:
            half = args.seconds / 2.0
            plain = _loop(runner, ops, half)
            tracer = Tracer()
            runner.tracer = tracer
            tracer.install()
            try:
                traced = _loop(runner, ops, half)
            finally:
                tracer.uninstall()
            metrics = layer_metrics(tracer, len(traced))
            metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1.0
            trace_path = WORK / f"trace-{w}-s{args.seed}.json"
            tracer.dump(trace_path)
            units = {m["name"]: m["unit"] for m in bench["per_layer"]}
            ops_timed = len(traced)
        else:
            times = _loop(runner, ops, args.seconds)
            work = first.configs or first.steps
            metrics = {
                "setup_s": statistics.median(setup),
                "wall_s": statistics.median(times),
                "work_per_s": work * len(times) / sum(times),
                "p95_ms": 1e3 * _p95(times),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
            ops_timed = len(times)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    print(f"perfbench {w} seed={args.seed} seconds={args.seconds:g} trace={args.trace}"
          f" ops_timed={ops_timed}")
    print("env " + json.dumps(environment(np), sort_keys=True))
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    if not args.trace:
        print("op_s = " + " ".join(f"{t:.4g}" for t in times))
        if w == "plan-sweep":
            print(f"plans_per_s = {metrics['work_per_s']:.6g} 1/s")
            print(f"plan_p50_ms = {1e3 * metrics['wall_s']:.6g} ms (n = {ops_timed})")
            print(f"plan_p95_ms = {metrics['p95_ms']:.6g} ms (n = {ops_timed})")
        else:
            print(f"steps_per_s = {metrics['work_per_s']:.6g} 1/s")
    else:
        print(f"trace written to {trace_path.relative_to(ROOT)}")
        if tracer.missing:
            print("trace targets not found: " + ", ".join(tracer.missing))
    failed_frac = runner.failed / runner.attempted
    print(f"failed_frac = {runner.failed}/{runner.attempted} = {failed_frac:.6g}"
          f" (trials failed {runner.trials_failed}/{runner.trials})")
    for p in runner.problems[:20]:
        print(f"problem: {p}")
    correct = runner.mismatched == 0 and not (args.trace and tracer.missing)
    result = {
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
