#!/usr/bin/env python3
"""Wall time and peak memory of ``symabs verify`` against the trial count.

For each ``--trials`` value this runs

    python -m symabs.cli verify CONFIG --trials N [--horizon H]

in a child process, reads the child's peak resident set size from the
resource usage ``os.wait4`` returns, and prints one CSV row per run with
the columns trials, horizon, wall_s, peak_rss_mb, exit.  The horizon
defaults to the config's.  Reports go to a temporary directory that is
removed afterwards.

    python scripts/verify_scaling.py [CONFIG] [--trials 20 200 1000] [--horizon H]
"""

import argparse
import csv
import os
import subprocess
import sys
import tempfile
import time

from symabs.config import load_config


def run_verify(config: str, trials: int, horizon: float) -> tuple[float, float, int]:
    """(wall seconds, peak RSS in MB, exit code) of one ``verify`` child."""
    with tempfile.TemporaryDirectory() as out:
        argv = [sys.executable, "-m", "symabs.cli", "verify", config,
                "--trials", str(trials), "--horizon", repr(horizon), "--out", out]
        t0 = time.perf_counter()
        child = subprocess.Popen(argv, stdout=subprocess.DEVNULL)
        _, status, usage = os.wait4(child.pid, 0)
        wall = time.perf_counter() - t0
    # Reaped here, so Popen must not wait for it again.
    child.returncode = code = os.waitstatus_to_exitcode(status)
    # ru_maxrss is in kilobytes on Linux.
    return wall, usage.ru_maxrss / 1024.0, code


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("config", nargs="?", default="example_sec6",
                    help="config file path or bundled fixture name (default: example_sec6)")
    ap.add_argument("--trials", type=int, nargs="+", default=[20, 200, 1000])
    ap.add_argument("--horizon", type=float, default=None,
                    help="simulation horizon in seconds (default: the config's)")
    args = ap.parse_args(argv)
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["trials", "horizon", "wall_s", "peak_rss_mb", "exit"])
    horizon = load_config(args.config).horizon if args.horizon is None else args.horizon
    worst = 0
    for trials in args.trials:
        wall, rss, code = run_verify(args.config, trials, horizon)
        writer.writerow([trials, f"{horizon:g}", f"{wall:.3f}", f"{rss:.1f}", code])
        sys.stdout.flush()
        worst = max(worst, code)
    return 0 if worst <= 1 else worst


if __name__ == "__main__":
    raise SystemExit(main())
