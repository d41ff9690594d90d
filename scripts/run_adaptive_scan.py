#!/usr/bin/env python3
"""Adaptive slow-rate scan: tune the two-point displacement h(n) at each
sample size so E[W2] decays no faster than n^(-alpha-eps), then fit the
observed log-log slope.

Prints the per-n plan (h, probe point t, atom weight p_h, feasibility of the
one-sided CDF event n p_h >= 128) and the fitted slopes for both E[W2] and
E[W2^2].
"""
import argparse

from sotlab import experiments
from sotlab.tail_bounds import alpha_exponent


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="adaptive_scan.csv")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--K", type=float, default=2.0)
    ap.add_argument("--sigma", type=float, default=1.0)
    ap.add_argument("--epsilon", type=float, default=0.02)
    ap.add_argument("--trials", type=int, default=200)
    ap.add_argument("--n-list", type=int, nargs="+",
                    default=[256, 512, 1024, 2048, 4096, 8192, 16384])
    args = ap.parse_args()

    plan, series = experiments.bernoulli_scan(
        args.K, args.sigma, args.epsilon, args.n_list, args.trials, args.seed)
    alpha = alpha_exponent(args.K, args.sigma)
    print(f"K={args.K} sigma={args.sigma} eps={args.epsilon} "
          f"delta={plan.delta:.6f} zeta={plan.zeta:.6f} alpha={alpha:.6f}")
    with open(args.out, "w") as fh:
        fh.write("n,h,t,p_h,feasible,w2_mean,w2_stderr,w2sq_mean,w2sq_stderr\n")
        for rec, wp, sp in zip(plan.records, series.points,
                               plan.w2sq_series.points):
            fh.write(f"{rec.n},{rec.h},{rec.t},{rec.p_h},{rec.feasible},"
                     f"{wp[1]},{wp[2]},{sp[1]},{sp[2]}\n")
            print(f"n={rec.n:<7d} h={rec.h:6.3f} p_h={rec.p_h:.3e} "
                  f"n*p_h={rec.n * rec.p_h:8.1f} E[W2]={wp[1]:.5f}")
    fit_w = experiments.fit_rate(series)
    fit_sq = experiments.fit_rate(plan.w2sq_series)
    print(f"E[W2]   slope {fit_w.slope:+.4f} (se {fit_w.slope_stderr:.4f}); "
          f"slow-rate target {-alpha - args.epsilon:+.4f}")
    print(f"E[W2^2] slope {fit_sq.slope:+.4f} (se {fit_sq.slope_stderr:.4f})")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
