#!/usr/bin/env python3
"""Sweep the achievable (R_D, R_s) regions of the bundled scenarios.

Writes one CSV per scenario (J = 1, 2, 3; general and diagonal covariances)
into the chosen output directory: the data behind the secrecy-rate-vs-code-
rate and transmit-power-vs-code-rate curves. Plot with any external tool,
e.g.

    python scripts/run_region_sweep.py --out results/
    # then: rs_max vs rd, and min_power vs rd, one line per J
"""

import argparse
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from wiretap.instances import reference_problem
from wiretap.sweep import code_rate_grid, sweep_region, to_csv


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default="results")
    ap.add_argument("--rd-min", type=float, default=0.1)
    ap.add_argument("--rd-max", type=float, default=2.0)
    ap.add_argument("--rd-step", type=float, default=0.1)
    ap.add_argument("--rate-tol", type=float, default=1e-3)
    args = ap.parse_args()

    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    grid = code_rate_grid(args.rd_min, args.rd_max, args.rd_step)
    for diagonal in (False, True):
        for j in (1, 2, 3):
            t0 = time.time()
            p = reference_problem(j, diagonal=diagonal)
            res = sweep_region(p, grid, rate_tol=args.rate_tol)
            tag = f"j{j}_diag" if diagonal else f"j{j}"
            path = out / f"region_{tag}.csv"
            path.write_text(to_csv(res))
            feas = sum(1 for r in res.rows if r.status == "optimal")
            print(f"{path}: {feas}/{len(res.rows)} feasible rows ({time.time() - t0:.1f}s)")


if __name__ == "__main__":
    main()
