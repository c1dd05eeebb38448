#!/usr/bin/env python3
"""Sensitivity of the admissible lattice radius to the splitting parameter.

The closed-form radius bound depends on how the cross term is split
(the parameter ``a`` in (0, 2*alpha)).  This sweeps ``a`` for the
bundled demo data, prints the curve, and confirms the maximum sits at
a = alpha.  Also reports the two comparison-function bounds for
reference.
"""

import argparse
import csv
import dataclasses
from pathlib import Path

import numpy as np

from symabs.config import load_config, theorem_eta_bound


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="out/eta_sensitivity.csv")
    ap.add_argument("--points", type=int, default=47)
    args = ap.parse_args()

    cfg = load_config("example_sec6")

    def closed_form(a):
        return theorem_eta_bound(dataclasses.replace(cfg, a=float(a)), 4)

    grid = np.linspace(0.1, 2.0 * cfg.alpha - 0.1, args.points)
    bounds = [closed_form(a) for a in grid]
    best = int(np.argmax(bounds))

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with out.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["a", "eta_bound"])
        for a, b in zip(grid, bounds):
            writer.writerow([f"{a:.6f}", f"{b:.12f}"])

    print(f"swept a over ({grid[0]:.2f}, {grid[-1]:.2f}) in {args.points} points")
    print(f"max radius {bounds[best]:.6f} at a = {grid[best]:.4f} (alpha = {cfg.alpha})")
    print(f"radius at the demo's a = alpha: {closed_form(cfg.alpha):.6f}")
    print(f"comparison-function bound, no disturbance: {theorem_eta_bound(cfg, 2):.6f}")
    print(f"comparison-function bound, with disturbance: {theorem_eta_bound(cfg, 3):.6f}")
    print(f"curve -> {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
