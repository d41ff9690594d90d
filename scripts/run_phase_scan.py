#!/usr/bin/env python3
"""Sweep the subgaussian scale K across the K = sigma boundary and record the
fitted log-log slope of E[W2^2] for each K.

The slope should sit near -1 (parametric) for K < sigma and drift toward the
slow exponent -alpha(K, sigma) for K > sigma. Writes a CSV to --out.
"""
import argparse

import numpy as np

from sotlab import experiments
from sotlab.tail_bounds import alpha_exponent


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="phase_scan.csv")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--sigma", type=float, default=1.0)
    ap.add_argument("--trials", type=int, default=100)
    ap.add_argument("--n-list", type=int, nargs="+",
                    default=[128, 256, 512, 1024, 2048, 4096])
    ap.add_argument("--K-list", type=float, nargs="+",
                    default=[0.5, 0.7, 0.9, 1.0, 1.2, 1.5, 2.0, 3.0])
    args = ap.parse_args()

    rows = experiments.phase_scan(args.K_list, args.sigma, "two_point",
                                  args.n_list, args.trials, args.seed)
    with open(args.out, "w") as fh:
        fh.write("K,slope,slope_stderr,r_squared,alpha\n")
        for r in rows:
            a = alpha_exponent(r["K"], args.sigma)
            fh.write(f"{r['K']},{r['slope']},{r['slope_stderr']},"
                     f"{r['r_squared']},{a}\n")
            print(f"K={r['K']:<5g} slope={r['slope']:+.3f} "
                  f"(se {r['slope_stderr']:.3f})  -alpha={-a:+.4f}")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
