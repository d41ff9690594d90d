"""The acceptance suite: 14 self-contained checks covering closed-form
transport, Monte Carlo oracles, rate fits, mutual-information blow-up,
concentration events, tail tightness, and the functional-inequality probes.

Each criterion is a function (quick, seed) -> AcceptanceResult that only
judges: it reads no clock, so its result is a function of (quick, seed).
`run_all` times each criterion into the result's `seconds`.
`quick` trades statistical resolution for runtime (the full suite targets the
per-criterion budgets; quick mode finishes in well under two minutes); the
assertions themselves are identical.
"""
from __future__ import annotations

import dataclasses
import math
import re
import time

import numpy as np
from scipy import special

from . import (concentration, constructions, divergences, experiments,
               functional_ineq, tail_bounds, transport)
from .dist_core import AtomicDistribution, SmoothedMixture

DEFAULT_SEED = 20260823


@dataclasses.dataclass(frozen=True)
class AcceptanceResult:
    criterion: int
    name: str
    passed: bool
    detail: str
    seconds: float = 0.0    # wall time, set by run_all

    def __post_init__(self):
        # a gate may evaluate to a numpy bool
        object.__setattr__(self, "passed", bool(self.passed))


# each criterion's name, also where it raised and made no result of its own
NAMES = {
    1: "closed-form single-atom transport",
    2: "sorted-sample MC coupling oracle",
    3: "CDF-crossing W2 lower bound",
    4: "parametric E[W2^2] rate (K < sigma)",
    5: "adaptive-scan E[W2] slowdown (K > sigma)",
    6: "chi-square MI phase",
    7: "soft-covering KL dominance and rate",
    8: "weighted CDF concentration",
    9: "tail-density exponent tightness",
    10: "Berry-Esseen gap event frequency",
    11: "LSI lower-bound divergence",
    12: "T2 ratio divergence",
    13: "subgaussian MGF and Gaussian tail checks",
    14: "exponent identities",
}


def _result(criterion: int, passed, detail: str) -> AcceptanceResult:
    return AcceptanceResult(criterion, NAMES[criterion], passed, detail)


def _single_atom(mu: float, sigma: float) -> SmoothedMixture:
    return SmoothedMixture(AtomicDistribution.from_weights(
        np.array([mu]), np.array([1.0])), sigma)


def _random_mixture(rng, n_atoms: int, sigma: float) -> SmoothedMixture:
    locs = np.sort(rng.uniform(-4.0, 4.0, n_atoms))
    while np.any(np.diff(locs) < 1e-3):
        locs = np.sort(rng.uniform(-4.0, 4.0, n_atoms))
    w = rng.dirichlet(np.ones(n_atoms))
    return SmoothedMixture(AtomicDistribution.from_weights(locs, w), sigma)


def check_1_closed_form_transport(quick=False, seed=DEFAULT_SEED):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(10):
        mu1, mu2 = rng.uniform(-5.0, 5.0, 2)
        s = rng.uniform(0.5, 2.0)
        got = transport.w2_squared(_single_atom(mu1, s), _single_atom(mu2, s)).total
        worst = max(worst, abs(got - (mu1 - mu2) ** 2))
    return _result(
        1, worst <= 1e-6,
        f"max |error| = {worst:.3e} (tol 1e-6)")


def check_2_mc_coupling_oracle(quick=False, seed=DEFAULT_SEED):
    rng = np.random.default_rng(seed)
    pairs = 6 if quick else 20
    # the oracle's stderr comes from 50 batches, so z follows t with 49
    # degrees of freedom; from 5 batches (t with 4) |z| > 4 in 1.6% of pairs
    # by chance alone
    batch, n_batches = (20_000, 50) if quick else (200_000, 50)
    worst_z, fails = 0.0, 0
    xs, ys = np.empty((2, n_batches * batch))
    for _ in range(pairs):
        A = _random_mixture(rng, rng.integers(2, 5), rng.uniform(0.7, 1.5))
        B = _random_mixture(rng, rng.integers(2, 5), rng.uniform(0.7, 1.5))
        exact = transport.w2_squared(A, B).total
        ests = []
        for i in range(n_batches):
            x = A.sample(batch, rng).samples
            y = B.sample(batch, rng).samples
            ests.append(float(np.mean((x - y) ** 2)))
            # one pair of buffers for every pair: full mode peaks at 222 MB
            # (521 MB when the batches are concatenated)
            s = slice(i * batch, (i + 1) * batch)
            xs[s], ys[s] = x, y
        se = float(np.std(ests, ddof=1)) / math.sqrt(n_batches)
        # the sorted coupling of N samples overestimates W2^2 by O(1/N), so
        # the oracle couples all samples at once
        xs.sort()
        ys.sort()
        xs -= ys
        oracle = float(np.dot(xs, xs)) / xs.size
        z = abs(exact - oracle) / se if se > 0 else math.inf
        worst_z = max(worst_z, z)
        fails += z > 4.0
    return _result(
        2, fails == 0,
        f"{pairs} pairs, worst |z| = {worst_z:.2f} (limit 4)")


def check_3_crossing_bound(quick=False, seed=DEFAULT_SEED):
    rng = np.random.default_rng(seed)
    target = 150 if quick else 1000
    cases, violations, worst = 0, 0, math.inf
    while cases < target:
        A = _random_mixture(rng, rng.integers(2, 5), rng.uniform(0.7, 1.3))
        shift = rng.uniform(2.5, 8.0)
        B = SmoothedMixture(A.base.shift(shift), A.sigma)
        w2 = transport.w2_squared(A, B).total
        t_grid = np.linspace(-4.0, 4.0 + shift, 25)
        for t in t_grid:
            cb = transport.best_crossing_lower_bound(A, B, [t])
            if not cb.applicable:
                continue
            cases += 1
            bound = math.exp(cb.log_value)
            margin = w2 - bound
            worst = min(worst, margin)
            if w2 < bound * (1.0 - 1e-9) - 1e-15:
                violations += 1
            if cases >= target:
                break
    return _result(
        3, violations == 0,
        f"{cases} premise-satisfying cases, {violations} violations,"
        f" min margin {worst:.3e}")


def check_4_parametric_rate(quick=False, seed=DEFAULT_SEED):
    p = constructions.bernoulli_two_point(2.0, 0.5)
    n_list = [128, 512, 2048, 8192] if quick else [128, 256, 512, 1024, 2048, 4096, 8192]
    trials = 60 if quick else 200
    fit = experiments.fit_rate(experiments.rate_series(
        experiments.mc_expected_w2sq, p, 1.0, n_list, trials, seed))
    ok = abs(fit.slope - (-1.0)) <= 0.15
    return _result(
        4, ok,
        f"slope = {fit.slope:.4f} +- {fit.slope_stderr:.4f} "
        f"(want -1.0 +- 0.15)")


def check_5_nonparametric_rate(quick=False, seed=DEFAULT_SEED):
    alpha = tail_bounds.alpha_exponent(2.0, 1.0)
    n_list = ([2 ** 10, 2 ** 12, 2 ** 14, 2 ** 16] if quick
              else [2 ** k for k in range(10, 17)])
    trials = 60 if quick else 200
    plan, series = experiments.bernoulli_scan(2.0, 1.0, 0.02, n_list, trials,
                                              seed)
    fit = experiments.fit_rate(series)
    lo, hi = -0.46, -alpha + 0.1
    ok = lo <= fit.slope <= hi
    flags = sum(not r.feasible for r in plan.records)
    return _result(
        5, ok,
        f"slope = {fit.slope:.4f} +- {fit.slope_stderr:.4f} "
        f"(want in [{lo:.4f}, {hi:.4f}]); "
        f"{flags}/{len(plan.records)} points below the n*p_h >= 128 "
        f"event regime (estimated anyway)")


def check_6_chi2_mi_phase(quick=False, seed=DEFAULT_SEED):
    # (a) K < sigma: n E[chi2(P_n*N || P*N)] = I_chi2(P, sigma) at every n,
    # as rho_n - rho is a mean of n iid zero-mean kernels; the binomial sum
    # over k, the count on the h-atom, is taken whole (k = 0 and k = n are
    # one-atom measures), so only the quadrature errors enter the limit
    h, n, tol = 2.0, 4, 1e-10
    p_small = constructions.bernoulli_two_point(h, 0.5)
    w = math.exp(p_small.log_weights[1])
    rho = SmoothedMixture(p_small, 1.0)
    # k = 1 .. n - 1 share the atoms {0, h}, so their chi2 terms are one batch
    inner = divergences._chi2_members(
        [SmoothedMixture(constructions.two_point(h, math.log(k / n)), 1.0)
         for k in range(1, n)], [rho] * (n - 1), tol)
    first, last = (divergences.chi2_divergence(_single_atom(h * k / n, 1.0),
                                               rho, tol) for k in (0, n))
    chi2 = [first, *inner, last]
    expected = 0.0
    for k in range(n + 1):
        expected += math.comb(n, k) * w ** k * (1.0 - w) ** (n - k) * chi2[k]
    mi = divergences.chi2_mutual_information(p_small, 1.0)
    resid = abs(n * expected - mi.value)
    limit = n * tol + mi.quadrature_error + mi.gap_bound
    ok_a = resid <= limit
    # (b) K > sigma: non-decaying per-atom increments
    c = constructions.chi2_admissible_c(2.0)
    hard = constructions.chi2_hard_example(2.0, c, 10)
    parts = divergences.chi2_mutual_information(hard, 1.0).partial_by_atom
    floor = 0.5 * parts[2]
    ok_b = all(parts[k] >= floor for k in range(3, 11))
    return _result(
        6, ok_a and ok_b,
        f"(a) |n E[chi2] - I| = {resid:.2e} at n = {n} "
        f"(limit {limit:.2e}); "
        f"(b) increments k=3..10 in [{min(parts[3:]):.4f}, "
        f"{max(parts[3:]):.4f}] vs floor {floor:.4f}")


def check_7_soft_covering(quick=False, seed=DEFAULT_SEED):
    trials = 50 if quick else 200
    n_list = [256, 1024, 4096]
    msgs, ok = [], True
    children = np.random.SeedSequence(seed).spawn(2)
    for p, tag, child in [(constructions.bernoulli_two_point(2.0, 0.5), "K<sigma",
                           children[0]),
                          (constructions.bernoulli_two_point(2.0, 2.0), "K>sigma",
                           children[1])]:
        series = experiments.rate_series(experiments.mc_expected_kl, p, 1.0,
                                         n_list, trials, child)
        for n, kl, se, _ in series.points:
            lam = 2.0 - 1.0 / math.log(n)
            I = divergences.renyi_mutual_information(p, 1.0, lam).value
            bound = divergences.soft_covering_kl_bound(I, lam, n)
            if kl > bound + 3.0 * se:
                ok = False
                msgs.append(f"{tag} n={n}: E[KL] {kl:.3e} > bound "
                            f"{bound:.3e} + 3SE")
        fit = experiments.fit_rate(series)
        if not (-1.25 <= fit.slope <= -0.80):
            ok = False
        msgs.append(f"{tag} slope {fit.slope:.3f}")
    return _result(
        7, ok,
        "; ".join(msgs) + " (want slopes in [-1.25, -0.80], "
        "E[KL] <= bound + 3SE everywhere)")


def check_8_weighted_concentration(quick=False, seed=DEFAULT_SEED):
    reps = 100 if quick else 500
    std = _single_atom(0.0, 1.0)
    rep = concentration.weighted_cdf_concentration(std, 1024, 0.1, reps, seed)
    ok = rep.violation_rate <= 0.1
    return _result(
        8, ok,
        f"violation rate {rep.violation_rate:.4f} over {reps} reps "
        f"(limit 0.1), bound {rep.bound:.2f}")


def check_9_tail_density_tightness(quick=False, seed=DEFAULT_SEED):
    K = 2.0
    beta = tail_bounds.beta_exponent(K)
    msgs, ok = [], True
    for h in (20.0, 30.0):
        p = constructions.bernoulli_two_point(h, K)
        m = SmoothedMixture(p, 1.0)
        r = constructions.two_point_probe(h, K, 1.0)
        ratio = float(m.log_sf(np.array([r]))[0] / m.log_pdf(np.array([r]))[0])
        if abs(ratio - beta) > 0.1 * beta:
            ok = False
        msgs.append(f"h={h:g}: log(1-F)/log rho = {ratio:.4f}")
    return _result(
        9, ok,
        "; ".join(msgs) + f" (want {beta} +- {0.1 * beta:.3f})")


def check_10_berry_esseen(quick=False, seed=DEFAULT_SEED):
    reps = 400 if quick else 2000
    p_h = math.exp(-9.0 / 8.0)
    n = 2 * math.ceil(128.0 / p_h)
    fr = concentration.berry_esseen_event_frequency(3.0, 2.0, 1.0, n, reps, seed)
    return _result(
        10, fr.applicable and fr.passed,
        f"n={n}, frequency {fr.frequency:.4f} vs 1/16 - {fr.band:.4f}")


def check_11_lsi_divergence(quick=False, seed=DEFAULT_SEED):
    vals = [functional_ineq.lsi_lower_bound(h, 2.0, 1.0).lsi_lower
            for h in (5.0, 10.0, 15.0, 20.0)]
    increasing = all(b > a for a, b in zip(vals, vals[1:]))
    ratios = [vals[i + 1] / vals[i] for i in (1, 2)]   # beyond h = 10
    ok = increasing and all(r >= 2.0 for r in ratios)
    return _result(
        11, ok,
        f"bounds {['%.3g' % v for v in vals]}, ratios beyond h=10: "
        f"{['%.1f' % r for r in ratios]} (want >= 2)")


def check_12_t2_divergence(quick=False, seed=DEFAULT_SEED):
    probes = [functional_ineq.t2_lower_bound(h, 2.0, 1.0, 0.1)
              for h in (10.0, 20.0, 30.0)]
    lr = [p.log_ratio for p in probes]     # log(W2^2 / KL)
    ok = all(b > a for a, b in zip(lr, lr[1:])) and \
        lr[-1] - lr[0] >= math.log(10.0)
    return _result(
        12, ok,
        f"W2^2/KL ratios {['%.3g' % math.exp(r) for r in lr]} "
        f"(methods {[p.method for p in probes]})")


def check_13_subgaussianity(quick=False, seed=DEFAULT_SEED):
    alphas = np.linspace(-3.0, 3.0, 61)
    c = constructions.chi2_admissible_c(2.0)
    hard = constructions.chi2_hard_example(2.0, c, 10)
    rep1 = constructions.mgf_subgaussian_check(hard, 2.0, alphas, centered=True)
    dist, _ = constructions.w2_hard_example(2.0, 1.0, 4)
    rep2 = constructions.mgf_subgaussian_check(dist, 2.0, alphas, centered=False,
                                               log_prefactor=math.log(2.0))
    # 1 - Phi(l) <= exp(-l^2/2) on l in [0, 10]; the slack is least at l = 10
    l = np.linspace(0.0, 10.0, 101)
    tail_slack = float(np.min(np.exp(-0.5 * l * l)
                              - 0.5 * special.erfc(l / math.sqrt(2.0))))
    ok = rep1.passed and rep2.passed and tail_slack >= 0.0
    return _result(
        13, ok,
        f"centered hard-example slack {rep1.max_slack:.2e}, "
        f"uncentered schedule-family slack {rep2.max_slack:.2e} "
        f"(tol 1e-9), tail check min slack {tail_slack:.2e}")


def check_14_exponent_identities(quick=False, seed=DEFAULT_SEED):
    Ks = np.geomspace(0.05, 20.0, 50)
    worst = 0.0
    for K in Ks:
        a = tail_bounds.alpha_exponent(float(K), 1.0)
        b = tail_bounds.beta_exponent(float(K))
        worst = max(worst, abs(2.0 * a - 1.0 / (2.0 - b)))
    eq_half = abs(tail_bounds.alpha_exponent(1.3, 1.3) - 0.5)
    limit = abs(tail_bounds.alpha_exponent(1e4, 1.0) - 0.25)
    ok = worst <= 1e-12 and eq_half <= 1e-12 and limit <= 1e-6
    return _result(
        14, ok,
        f"max |2a - 1/(2-b)| = {worst:.2e}, |a(K=s)-1/2| = "
        f"{eq_half:.2e}, |a(K->inf)-1/4| = {limit:.2e}")


CRITERIA = [
    check_1_closed_form_transport,
    check_2_mc_coupling_oracle,
    check_3_crossing_bound,
    check_4_parametric_rate,
    check_5_nonparametric_rate,
    check_6_chi2_mi_phase,
    check_7_soft_covering,
    check_8_weighted_concentration,
    check_9_tail_density_tightness,
    check_10_berry_esseen,
    check_11_lsi_divergence,
    check_12_t2_divergence,
    check_13_subgaussianity,
    check_14_exponent_identities,
]


def _raised(f, exc: Exception) -> AcceptanceResult:
    """The failed result of criterion f (check_<k>_...) that raised exc."""
    m = re.match(r"check_(\d+)_", f.__name__)
    k = int(m.group(1)) if m else 0
    return AcceptanceResult(k, NAMES.get(k, f.__name__), False,
                            f"raised {type(exc).__name__}: {exc}")


def run_all(quick: bool = False,
            seed: int = DEFAULT_SEED) -> list[AcceptanceResult]:
    """Every criterion in CRITERIA, each result with its wall time. A
    criterion that raises has failed: its result names the exception, and
    the criteria after it still run."""
    results = []
    for f in CRITERIA:
        t0 = time.perf_counter()
        try:
            result = f(quick=quick, seed=seed)
        except Exception as exc:
            result = _raised(f, exc)
        seconds = time.perf_counter() - t0
        results.append(dataclasses.replace(result, seconds=seconds))
    return results
