"""Record the reference outputs that the benchmark checks against.

Runs every operation of every workload's pool once (full size and the
self-test's tiny size) and writes the checked values of each call to
``reference.json``.  Run it from the repository root at the commit whose
outputs are the reference:

    python3 perfbench/make_reference.py

The whole file is rebuilt each time, so every entry comes from one
commit.  Any call that exits with code 2 or 3, or has a trial that leaves
the input set, is listed on standard error.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys

import run  # pins BLAS threads before numpy loads
import workloads


def main() -> int:
    cli = run._import_package()
    reference = {}
    work = run.WORK / "reference"
    shutil.rmtree(work, ignore_errors=True)
    config_dir = work / "configs"
    config_dir.mkdir(parents=True)
    try:
        for w in workloads.WORKLOADS:
            for tiny in (False, True):
                if tiny and w == "plan-sweep":
                    continue
                for op in workloads.pool(w, config_dir, tiny=tiny):
                    for call in op.calls:
                        out = work / "out"
                        shutil.rmtree(out, ignore_errors=True)
                        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                            code = cli.main([*call.args, "--out", str(out)])
                        report = json.loads((out / "report.json").read_text()) if code in (0, 1) else None
                        got = workloads.extract(call.args, code, report)
                        if code not in (0, 1) or workloads.failed_trials(got):
                            print(f"{call.key}: exit {code}, {workloads.failed_trials(got)} failed trials",
                                  file=sys.stderr)
                        reference[call.key] = got
                print(f"{w}{' (tiny)' if tiny else ''}: done", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    (run.HERE / "reference.json").write_text(json.dumps(reference, sort_keys=True, separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
