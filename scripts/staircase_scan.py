#!/usr/bin/env python3
"""Boson-number staircases of the q-deformed model (q = e^hbar, delta = 1000).

Scans <N> over a log frequency grid for a handful of (F, k, n) cases and
prints the detected plateau levels; saturated cases show k(F-1)+1 steps from
n down to n - k(F-1), non-saturated ones walk all the way down to zero.
"""

import argparse
import pathlib

import numpy as np

from parafermi_jc import Deformation, ModelParams, detect_plateaus, omega_scan

CASES = [
    {"F": 4, "k": 1, "n": 5, "omega_min": 2.0, "omega_max": 2000.0},
    {"F": 4, "k": 1, "n": 2, "omega_min": 2.0, "omega_max": 5000.0},
    {"F": 3, "k": 3, "n": 8, "omega_min": 0.2, "omega_max": 2000.0},
]


def run(outdir: pathlib.Path, delta: float, hbar: float, per_decade: int) -> None:
    outdir.mkdir(parents=True, exist_ok=True)
    for case in CASES:
        F, k, n = case["F"], case["k"], case["n"]
        lo, hi = case["omega_min"], case["omega_max"]
        count = int(per_decade * np.log10(hi / lo)) + 1
        grid = np.geomspace(lo, hi, count)
        params = ModelParams(F, k, 1.0, delta, 1.0, hbar=hbar,
                             deformation=Deformation.q_exp(hbar))
        scan = omega_scan(params, n, grid)
        out = outdir / f"staircase_F{F}_k{k}_n{n}.csv"
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write("omega,N\n")
            for omega, obs in scan:
                fh.write(f"{omega!r},{obs.n_expect!r}\n")
        report = detect_plateaus(scan)
        levels = [level for _, _, level in report.plateaus]
        print(f"F={F} k={k} n={n}: plateaus {levels}, "
              f"crossovers {[round(c, 2) for c in report.crossover_points]} -> {out}")


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--outdir", default="data/staircase", type=pathlib.Path)
    ap.add_argument("--delta", default=1000.0, type=float)
    ap.add_argument("--hbar", default=1.0, type=float)
    ap.add_argument("--per-decade", default=400, type=int)
    args = ap.parse_args()
    run(args.outdir, args.delta, args.hbar, args.per_decade)
