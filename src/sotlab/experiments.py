"""Monte Carlo rate experiments for smoothed empirical measures.

Estimates E[W2^2] and E[KL] between the smoothed empirical measure and the
smoothed truth over n-sweeps, fits log-log rates, and runs the two scan
protocols: the adaptive two-point scan whose displacement h grows with n (the
lower-bound construction for K > sigma) and the phase scan across the K = sigma
boundary.

Trials are independent tasks with seeds spawned from one splittable root and
run in trial order, so a (config, seed) pair always produces the same floats.
An empirical measure of a finite-support P only reweights P's atoms, so
trials repeat. Each trial therefore draws only its atom counts (the draws of
AtomicDistribution.empirical) and is keyed by them; each MC call builds and
evaluates every distinct empirical measure once, and the new ones of two
chunks of trials at a time together, in one batch per support (bit for bit
one evaluation each), so that a call whose trials fit in two chunks makes
one batch.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import constructions, divergences, transport
from .dist_core import AtomicDistribution, SmoothedMixture, seed_sequence


@dataclass(frozen=True)
class RateSeries:
    """Per-n Monte Carlo estimates: (n, estimate, stderr, trials) rows."""
    points: tuple

    def __post_init__(self):
        ns = [q[0] for q in self.points]
        if any(b <= a for a, b in zip(ns, ns[1:])):
            raise ValueError("n must be strictly increasing")
        if any(q[1] < 0.0 or q[2] < 0.0 for q in self.points):
            raise ValueError("estimates and stderrs must be nonnegative")


@dataclass(frozen=True)
class RateFit:
    slope: float
    intercept: float
    slope_stderr: float
    r_squared: float

    def __post_init__(self):
        if not (-1e-9 <= self.r_squared <= 1.0 + 1e-9):
            raise ValueError("r_squared must lie in [0, 1]")


@dataclass(frozen=True)
class MCResult:
    estimate: float
    stderr: float
    trials: int
    values: tuple = ()

    def __iter__(self):
        return iter((self.estimate, self.stderr))


# Trials run in chunks: the first MIN_TRIALS, then CHUNK at a time. At each
# chunk boundary the loop stops once the relative standard error is below
# REL_STOP.
MIN_TRIALS = 50
REL_STOP = 0.02
CHUNK = 25


def _chunk_end(start: int, trials: int) -> int:
    """The end of the chunk of trials that starts at trial `start`."""
    return min(trials, max(MIN_TRIALS, start + CHUNK))


def _run_trials(p: AtomicDistribution, n: int, values_of, trials: int,
                seed) -> np.ndarray:
    """Values of up to `trials` seeded trials, in trial order: trial i draws
    the atom counts of an n-sample of p from its own child of `seed`, the
    draws of p.empirical(n, ...), against p's draw CDF computed once per
    call. Trials run a chunk at a time and stop at a chunk boundary once the
    relative standard error drops below REL_STOP. Each distinct count vector
    is one P_n, built from its counts and evaluated once per call:
    values_of(measures) evaluates new measures on one support in one batch.

    Whenever a chunk needs trials not yet drawn, that chunk and the next one
    are drawn and their new measures evaluated together, so quick mode's
    50 + 10 trials are one batch, and a stop leaves at most one chunk drawn
    and evaluated but unused. A measure's value does not depend on its
    batch, so the values and the stop do not depend on that grouping. The
    earliest failed trial of the chunks used raises RuntimeError("trial i
    failed: ..."), a chunk's failed draws before its failed evaluations; a
    trial past the stop never raises."""
    if trials < 2:
        raise ValueError("trials must be >= 2")
    children = seed_sequence(seed).spawn(trials)
    cdf = p._draw_cdf()
    # count bytes -> value, or the exception its evaluation raised
    seen: dict = {}
    # per drawn trial, its count bytes, or the exception its draw raised
    keys: list = []
    values: list[float] = []
    while len(values) < trials:
        start = len(values)
        stop = _chunk_end(start, trials)
        if stop > len(keys):
            new = {}
            for i in range(len(keys), _chunk_end(stop, trials)):
                try:
                    counts = p._draw_counts(
                        n, np.random.default_rng(children[i]), cdf)
                    key = counts.tobytes()
                    if key not in seen and key not in new:
                        new[key] = p._from_counts(counts, n)
                except Exception as exc:
                    key = exc
                keys.append(key)
            groups: dict = {}
            for key, m in new.items():
                groups.setdefault(m.locations.tobytes(), {})[key] = m
            for group in groups.values():
                seen.update(zip(group, _batch_or_each(values_of,
                                                      list(group.values()))))
        chunk = keys[start:stop]
        for i, key in enumerate(chunk, start):
            if isinstance(key, Exception):
                raise RuntimeError(f"trial {i} failed: {key}") from key
        for i, key in enumerate(chunk, start):
            value = seen[key]
            if isinstance(value, Exception):
                raise RuntimeError(f"trial {i} failed: {value}") from value
            values.append(value)
        if stop >= MIN_TRIALS and stop % CHUNK == 0:
            arr = np.asarray(values)
            est = float(arr.mean())
            se = float(arr.std(ddof=1)) / math.sqrt(arr.size)
            if est > 0.0 and se / est < REL_STOP:
                break
    return np.asarray(values)


def _summarize(values: np.ndarray) -> MCResult:
    est = float(values.mean())
    # equal values have stderr exactly 0; std() of them can round to ~1e-22
    se = (0.0 if np.all(values == values[0])
          else float(values.std(ddof=1)) / math.sqrt(values.size))
    return MCResult(estimate=est, stderr=se, trials=int(values.size),
                    values=tuple(float(v) for v in values))


def _batch_or_each(values_of, measures) -> list:
    """values_of(measures); if the batch raises, each measure on its own, with
    the exception in place of each value that fails (the values are the same
    bits either way)."""
    try:
        return list(values_of(measures))
    except Exception:
        out = []
        for m in measures:
            try:
                out.append(values_of([m])[0])
            except Exception as exc:
                out.append(exc)
        return out


def mc_w2sq_values(p: AtomicDistribution, sigma: float, n: int, trials: int,
                   seed, tol: float = 1e-8) -> np.ndarray:
    """Per-trial W2^2(P_n * N(0, sigma^2), P * N(0, sigma^2)) values."""
    truth = SmoothedMixture(p, sigma)

    def w2sq(measures):
        evs = transport._w2_members([SmoothedMixture(m, sigma) for m in measures],
                                    [truth] * len(measures), tol=tol)
        return [ev.total for ev in evs]

    return _run_trials(p, n, w2sq, trials, seed)


def mc_expected_w2sq(p: AtomicDistribution, sigma: float, n: int, trials: int,
                     seed, tol: float = 1e-8) -> MCResult:
    return _summarize(mc_w2sq_values(p, sigma, n, trials, seed, tol))


def mc_expected_kl(p: AtomicDistribution, sigma: float, n: int, trials: int,
                   seed, tol: float = 1e-10) -> MCResult:
    """Mean and stderr of KL(P_n * N || P * N) over seeded trials."""
    truth = SmoothedMixture(p, sigma)

    def kl(measures):
        return divergences._kl_members([SmoothedMixture(m, sigma) for m in measures],
                                       [truth] * len(measures), tol=tol)

    return _summarize(_run_trials(p, n, kl, trials, seed))


def rate_series(mc, p: AtomicDistribution, sigma: float, n_list, trials: int,
                seed, tol: float | None = None) -> RateSeries:
    """Run `mc` (mc_expected_w2sq or mc_expected_kl) at each n of `n_list`
    in increasing order, each n with its own child of `seed`; `tol` goes to
    every call, and None keeps the estimator's default."""
    ns = sorted(int(n) for n in n_list)
    kw = {} if tol is None else {"tol": tol}
    pts = []
    for n, child in zip(ns, seed_sequence(seed).spawn(len(ns))):
        r = mc(p, sigma, n, trials, child, **kw)
        pts.append((n, r.estimate, r.stderr, r.trials))
    return RateSeries(points=tuple(pts))


def fit_rate(series: RateSeries) -> RateFit:
    """Weighted least squares of log(estimate) on log(n).

    Weights are 1/(stderr/estimate)^2, the inverse variance of log(estimate)
    to first order. A point with stderr 0 (every trial gave the same value)
    has no such variance, so it is an error rather than an infinite weight.
    """
    pts = series.points
    if len(pts) < 3:
        raise ValueError("need at least 3 points to fit a rate")
    bad = [i for i, q in enumerate(pts) if q[1] <= 0.0]
    if bad:
        raise ValueError(f"nonpositive estimates at indices {bad}")
    exact = [q[0] for q in pts if q[2] == 0.0]
    if exact:
        raise ValueError(f"stderr 0 at n = {exact}: every trial gave the same "
                         "value, so the fit has no weight for it")
    x = np.log([q[0] for q in pts])
    y = np.log([q[1] for q in pts])
    rel = np.array([q[2] / q[1] for q in pts])
    w = 1.0 / rel ** 2
    sw = w.sum()
    xbar = (w * x).sum() / sw
    ybar = (w * y).sum() / sw
    sxx = (w * (x - xbar) ** 2).sum()
    slope = (w * (x - xbar) * (y - ybar)).sum() / sxx
    intercept = ybar - slope * xbar
    resid = y - intercept - slope * x
    dof = len(pts) - 2
    sigma2 = (w * resid ** 2).sum() / dof if dof > 0 else 0.0
    slope_se = math.sqrt(sigma2 / sxx)
    sst = (w * (y - ybar) ** 2).sum()
    r2 = 1.0 - (w * resid ** 2).sum() / sst if sst > 0 else 1.0
    return RateFit(slope=float(slope), intercept=float(intercept),
                   slope_stderr=float(slope_se),
                   r_squared=float(min(max(r2, 0.0), 1.0)))


# ---------------------------------------------------------------------------
# adaptive two-point scan (h grows with n)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScanRecord:
    n: int
    h: float
    t: float
    p_h: float
    feasible: bool          # n * p_h >= 128, the event-frequency condition


@dataclass(frozen=True)
class BernoulliScanPlan:
    K: float
    sigma: float
    epsilon: float
    delta: float
    zeta: float
    records: tuple
    w2sq_series: RateSeries | None = None

    def __post_init__(self):
        if not (0.0 < self.delta < 0.5):
            raise ValueError("delta must lie in (0, 1/2)")
        if self.K > self.sigma and not self.zeta > 1.0 / (2.0 * self.K ** 2):
            raise ValueError("zeta must exceed 1/(2K^2) when K > sigma")


def solve_delta(K: float, sigma: float, epsilon: float) -> float:
    """The delta with

        (1+d)(1+k)^2 / (2(1-d)(1+k) - 4dk) = (1+k)^2/(2+2k) + 2 eps,

    k = sigma^2/K^2, in closed form:

        d = 2 eps (1+k) / ((1+k)(1+2k) + 2 eps (1+3k)).

    The left side is linear-fractional in d and increases from the eps=0
    value at d=0 to its pole at (1+k)/(1+3k), so this is its only root there,
    for every eps > 0. Raises ValueError for eps <= 0, where the slow-rate
    construction degenerates."""
    if not epsilon > 0.0:
        raise ValueError(f"epsilon = {epsilon!r} must be > 0")
    kap = (sigma / K) ** 2
    return (2.0 * epsilon * (1.0 + kap)
            / ((1.0 + kap) * (1.0 + 2.0 * kap) + 2.0 * epsilon * (1.0 + 3.0 * kap)))


def zeta_constant(K: float, sigma: float) -> float:
    return (0.5 + sigma * sigma / (2.0 * K * K)) ** 2 / (2.0 * sigma * sigma)


def scan_h(n: int, K: float, sigma: float, delta: float) -> float:
    z = zeta_constant(K, sigma)
    rate = (1.0 - delta) * z - 1.0 / (4.0 * K * K)
    if rate <= 0.0:
        raise ValueError("delta too large: h(n) exponent rate is nonpositive")
    return math.sqrt(math.log(12.0 * math.sqrt(n) / (math.sqrt(math.pi) * sigma))
                     / rate)


def bernoulli_scan(K: float, sigma: float, epsilon: float, n_list, trials: int,
                   seed, tol: float = 1e-8):
    """Adaptive two-point scan: at each n the displacement h(n) is tuned so
    the smoothed-W2 error decays at the slow rate n^(-alpha-eps).

    Returns (plan, E[W2] series); per-trial W2 values are square roots of the
    exact quadratic transport costs, and the E[W2^2] series rides along on the
    plan. Points with n p_h < 128 (the regime where the one-sided CDF event is
    not guaranteed) are flagged but still estimated. Before any trial runs,
    an epsilon whose delta reaches min(1/2, 1 - 1/(2 K^2 zeta)) raises
    ParameterError naming epsilon, and a sigma so small against K that some
    P_h(n)'s h-atom weight rounds to 1, or so large that h(n) is not positive
    at the smallest n, raises it naming sigma.
    """
    if not K > sigma:
        raise ValueError("the adaptive scan requires K > sigma")
    delta = solve_delta(K, sigma, epsilon)
    z = zeta_constant(K, sigma)
    d_max = min(0.5, 1.0 - 1.0 / (2.0 * K * K * z))
    if delta >= d_max:
        # delta(eps) increases, so d_max bounds eps through its inverse
        kap = (sigma / K) ** 2
        eps_max = (d_max * (1.0 + kap) * (1.0 + 2.0 * kap)
                   / (2.0 * ((1.0 + kap) - d_max * (1.0 + 3.0 * kap))))
        raise constructions.ParameterError(
            "epsilon", f"epsilon = {epsilon!r} gives delta = {delta:.6g}; the "
                       f"construction needs delta < {d_max:.6g}, that is "
                       f"epsilon < {eps_max:.6g} at K = {K!r}, sigma = {sigma!r}")
    n_list = sorted(int(n) for n in n_list)
    n0 = n_list[0]
    if not 12.0 * math.sqrt(n0) / (math.sqrt(math.pi) * sigma) > 1.0:
        # scan_h's log argument, which h(n) > 0 needs above 1
        raise constructions.ParameterError("sigma", (
            f"sigma = {sigma!r} gives no h(n) at n = {n0}: h(n) needs 12 "
            f"sqrt(n) > sqrt(pi) sigma at the smallest n, that is sigma < "
            f"{12.0 * math.sqrt(n0 / math.pi):.6g}"))
    hs = [scan_h(n, K, sigma, delta) for n in n_list]
    try:
        ps = [constructions.bernoulli_two_point(h, K) for h in hs]
    except constructions.ParameterError as exc:
        # h(n) shrinks with sigma / K until P_h's h-atom weight rounds to 1
        raise constructions.ParameterError(
            "sigma", f"sigma = {sigma!r} is too small for K = {K!r}: the "
                     f"scan's smallest h(n) = {hs[0]:.6g} at n = {n_list[0]}, "
                     f"and {exc}") from exc
    children = seed_sequence(seed).spawn(len(n_list))
    records = []
    w_points = []
    wsq_points = []
    for n, h, p, child in zip(n_list, hs, ps, children):
        t = constructions.two_point_probe(h, K, sigma)
        p_h = math.exp(p.log_weights[1])
        records.append(ScanRecord(n=n, h=h, t=t, p_h=p_h,
                                  feasible=bool(n * p_h >= 128.0)))
        vals = mc_w2sq_values(p, sigma, n, trials, child, tol)
        w = _summarize(np.sqrt(vals))
        wsq = _summarize(vals)
        w_points.append((n, w.estimate, w.stderr, w.trials))
        wsq_points.append((n, wsq.estimate, wsq.stderr, wsq.trials))
    plan = BernoulliScanPlan(K=K, sigma=sigma, epsilon=epsilon, delta=delta,
                             zeta=z, records=tuple(records),
                             w2sq_series=RateSeries(points=tuple(wsq_points)))
    return plan, RateSeries(points=tuple(w_points))


def phase_scan(K_list, sigma: float, n_list, trials: int, seed,
               h: float = 2.0):
    """Fitted E[W2^2] log-log slope for each K across the K = sigma boundary,
    on the two-point family with the displacement held fixed at `h`. Returns
    a list of dicts with K, slope, slope_stderr, r_squared. A K that leaves
    no P_h raises ParameterError naming h (and that K) before any trial runs.
    """
    K_list = list(K_list)
    ps = []
    for K in K_list:
        try:
            ps.append(constructions.bernoulli_two_point(h, K))
        except constructions.ParameterError as exc:
            raise constructions.ParameterError(
                exc.name, f"K = {K!r}: {exc}") from exc
    children = seed_sequence(seed).spawn(max(len(K_list), 1))
    table = []
    for K, p, child in zip(K_list, ps, children):
        fit = fit_rate(rate_series(mc_expected_w2sq, p, sigma, n_list, trials,
                                   child))
        table.append({"K": float(K), "slope": fit.slope,
                      "slope_stderr": fit.slope_stderr,
                      "r_squared": fit.r_squared})
    return table
