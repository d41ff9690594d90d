"""Empirical-CDF concentration statistics and smoothed-CDF gap event
frequencies.

Three families of checks live here:

* the weighted sup statistic sup_t |F(t) - F_n(t)| / sqrt(1/n v F(1-F)) and
  its 16/sqrt(n) log(2n/delta) bound, run over many replications;
* the Bernoulli-mixture gap event at the displaced probe point t = h/2 +
  sigma^2 h/(2 K^2), whose indicator reduces exactly to a binomial deviation;
* the multi-scale schedule gap event at the probes t_k r_k, simulated through
  multinomial atom counts.

All frequency checks are one-sided: the theory gives probability *lower*
bounds, so a run passes when the empirical frequency sits above the stated
level minus a 3-sigma binomial band.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from . import constructions
from .dist_core import (AtomicDistribution, EmpiricalMeasure, SmoothedMixture,
                        seed_sequence)


@dataclass(frozen=True)
class ConcentrationReport:
    n: int
    delta: float
    bound: float
    violation_rate: float
    statistics: tuple         # one statistic per replication

    def __post_init__(self):
        if any(s < 0.0 for s in self.statistics):
            raise ValueError("statistics must be nonnegative")
        if not (0.0 <= self.violation_rate <= 1.0):
            raise ValueError("violation_rate must lie in [0, 1]")


@dataclass(frozen=True)
class FrequencyReport:
    applicable: bool
    replications: int
    frequency: float | None
    level: float              # the guaranteed lower bound on the probability
    band: float | None        # 3-sigma binomial half-width
    passed: bool | None
    diagnostic: str = ""


def weighted_concentration_bound(n: int, delta: float) -> float:
    return 16.0 / math.sqrt(n) * math.log(2.0 * n / delta)


# strides of the bracketed search over the grid of a smoothed-mixture
# sample, coarse to fine (see weighted_cdf_statistic). Sweep of the statistic of the
# sigma = 1 smoothing of n N(0, 4) draws against N(0, 5), one draw each at
# n = 512 and 1024, 4 such pairs, ms per pair (median of 5 interleaved runs
# on 2 cores): full grid 89; (8, 1) 21; (16, 1) 25; (16, 4, 1) 21;
# (32, 4, 1) 20; (64, 8, 1) 24; (32, 8, 2, 1) 21; (64, 16, 4, 1) 23. With
# (32, 4, 1) cdf runs on 7-30% of the grid
_SEARCH_STRIDES = (32, 4, 1)

# slack on the bracket's CDF ends, and the factor that scales a bound up
# past its own rounding and that of the ratio it bounds
_CDF_SLACK = 1e-9
_ROUND_UP = 1.0 + 1e-12


def weighted_cdf_statistic(F: SmoothedMixture, sample, n: int | None = None) -> float:
    """sup_t |F(t) - F_n(t)| / sqrt(1/n v (F(t) ^ (1 - F(t)))).

    `sample` is either an EmpiricalMeasure (step-function F_n; both one-sided
    limits enter the sup at each jump) or a SmoothedMixture whose CDF is
    evaluated exactly (the smoothed-empirical variant; pass n explicitly).

    For an EmpiricalMeasure the sup is taken over the distinct sample points
    alone. Between two jumps F_n is a constant c, and the ratio increases in
    F for F > c and decreases for F < c in every branch of the max/min, so
    the sup sits at a jump, where both one-sided limits are taken. For a
    SmoothedMixture sample both CDFs move between any two points, so no such
    argument places the sup; it is taken over the base atoms, their
    midpoints, the quantile anchors {F^{-1}(k/2n) : k = 1 .. 2n-1} and one
    point beyond each end.

    That max is found without evaluating the sample's CDF C on most of the
    grid. Level by level (_SEARCH_STRIDES), C is evaluated in one batched
    call on the grid points at the level's stride not yet evaluated, the
    first level adding both ends. Before a later level evaluates a point t,
    let a < t < b be its nearest evaluated neighbours and M the largest
    ratio so far. A CDF is monotone, so C(t) lies in [C(a), C(b)], and
    |F(t) - c| is convex in c, so the ratio at t is at most the larger of
    its values at c = C(a) - delta and c = C(b) + delta, times _ROUND_UP.
    Where that bound is below M, t cannot hold the max and is skipped.

    delta (_CDF_SLACK = 1e-9) bounds how far the computed C can depart from
    monotone. Its steps t - r_j, / sigma and + log w_j are correctly rounded
    and so monotone; log_ndtr, the log-sum over the atoms and the final exp
    or -expm1 are each within a few hundred units of 2^-53 of a monotone
    function, relative in log space, which moves the side taken (C or
    1 - C, whichever is at most 1/2) by x |log x| <= 1/e times that: below
    1e-13 absolute. The factor 1 + 1e-12 covers the relative rounding of
    the bound and of the ratio it bounds, a subtraction, an abs and a
    division each.

    The result is the same float as the ratio's max over the whole grid:
    each point's C bits do not depend on which other points share the call,
    and every skipped ratio is below M. A NaN ratio makes M NaN, so no later
    point is skipped and the NaN is returned, as over the whole grid.
    """
    if isinstance(sample, EmpiricalMeasure):
        if n is None:
            n = sample.n
        # the distinct points of the sorted sample, each where its run of
        # ties starts: F_n's left limit there is its start / n, its value
        # the next run's start / n
        x = sample.samples
        first = np.empty(x.size, dtype=bool)
        first[0] = True
        np.not_equal(x[1:], x[:-1], out=first[1:])
        starts = np.flatnonzero(first)
        grid = x[starts]
        Ft = F.cdf(grid)
        right = np.append(starts[1:], x.size) / n
        left = starts / n
        dev = np.maximum(np.abs(Ft - right), np.abs(Ft - left))
        return float(np.max(dev / _denominator(Ft, n)))
    if isinstance(sample, SmoothedMixture):
        if n is None:
            raise ValueError("n is required for a smoothed-mixture sample")
        pts = np.sort(sample.base.locations)
        mids = 0.5 * (pts[:-1] + pts[1:]) if pts.size > 1 else np.empty(0)
        anchors = F.quantile(np.arange(1, 2 * n) / (2.0 * n))
        lo = min(pts[0], anchors[0]) - 1.0
        hi = max(pts[-1], anchors[-1]) + 1.0
        grid = np.unique(np.concatenate([pts, mids, anchors, [lo, hi]]))
        Ft = F.cdf(grid)
        return _smoothed_sup(grid, Ft, _denominator(Ft, n), sample.cdf)
    raise TypeError("sample must be an EmpiricalMeasure or SmoothedMixture")


def _denominator(Ft, n: int):
    return np.sqrt(np.maximum(1.0 / n, np.minimum(Ft, 1.0 - Ft)))


def _smoothed_sup(grid, Ft, denom, cdf) -> float:
    """max over the sorted grid of |Ft - cdf(grid)| / denom, bit for bit,
    by the bracketed search described in weighted_cdf_statistic."""
    C = np.empty(grid.size)
    known = np.zeros(grid.size, dtype=bool)
    best = -np.inf
    for level, stride in enumerate(_SEARCH_STRIDES):
        todo = np.zeros(grid.size, dtype=bool)
        todo[::stride] = True
        if level == 0:
            todo[-1] = True
        idx = np.flatnonzero(todo & ~known)
        if level:
            # the ends were evaluated first, so every point left is interior
            have = np.flatnonzero(known)
            j = np.searchsorted(have, idx)
            f = Ft[idx]
            bound = np.maximum(np.abs(f - (C[have[j - 1]] - _CDF_SLACK)),
                               np.abs(f - (C[have[j]] + _CDF_SLACK)))
            idx = idx[~(bound / denom[idx] * _ROUND_UP < best)]
        if idx.size:
            C[idx] = cdf(grid[idx])
            known[idx] = True
            best = np.maximum(best, np.max(np.abs(Ft[idx] - C[idx]) / denom[idx]))
    return float(best)


def weighted_cdf_concentration(F: SmoothedMixture, n: int, delta: float,
                               replications: int, seed) -> ConcentrationReport:
    """Draw `replications` i.i.d. n-samples from F and report how often the
    weighted statistic exceeds 16/sqrt(n) log(2n/delta)."""
    if replications < 1:
        raise ValueError("replications must be >= 1")
    bound = weighted_concentration_bound(n, delta)
    children = seed_sequence(seed).spawn(replications)
    stats = [weighted_cdf_statistic(F, F.sample(n, np.random.default_rng(c)))
             for c in children]
    stats = np.asarray(stats)
    return ConcentrationReport(n=n, delta=delta, bound=bound,
                               violation_rate=float(np.mean(stats > bound)),
                               statistics=tuple(float(s) for s in stats))


def _frequency_pass(hits: int, replications: int, level: float):
    freq = hits / replications
    band = 3.0 * math.sqrt(max(freq * (1.0 - freq), 0.0) / replications)
    return freq, band, freq >= level - band


def berry_esseen_event_frequency(h: float, K: float, sigma: float, n: int,
                                 replications: int, seed) -> FrequencyReport:
    """Frequency of the smoothed-CDF gap event for the two-point mixture.

    With P_h = (1-p_h) d_0 + p_h d_h, p_h = exp(-h^2/2K^2), the gap at the
    probe t = h/2 + sigma^2 h / (2 K^2) satisfies exactly

        F~_{n,sigma}(t) - F_sigma(t) = (p^_h - p_h) (Phi_s(t-h) - Phi_s(t)),

    so the event {gap >= exp(-h^2/4K^2)/sqrt(18 n)} is a one-sided binomial
    deviation; only the count of h-atoms is simulated. The event holds with
    probability >= 1/16 whenever n p_h >= 128.
    """
    if replications < 1:
        raise ValueError("replications must be >= 1")
    p_h = math.exp(constructions.two_point_log_weight(h, K))
    if p_h >= 0.5:
        raise constructions.ParameterError(
            "h", f"h = {h!r} gives p_h = {p_h:.6g} at K = {K!r}; the event "
                 f"needs p_h < 1/2, h > {K * math.sqrt(math.log(4.0)):.6g}")
    if n * p_h < 128.0:
        return FrequencyReport(applicable=False, replications=replications,
                               frequency=None, level=1.0 / 16.0, band=None,
                               passed=None,
                               diagnostic=f"n*p_h = {n * p_h:.1f} < 128")
    t = constructions.two_point_probe(h, K, sigma)
    factor = float(ndtr((t - h) / sigma) - ndtr(t / sigma))   # < 0
    thr = math.exp(0.5 * constructions.two_point_log_weight(h, K)) \
        / math.sqrt(18.0 * n)
    # gap >= thr  <=>  p^ - p <= thr / factor (factor negative)
    cut = thr / factor
    children = seed_sequence(seed).spawn(replications)
    hits = 0
    for c in children:
        count = np.random.default_rng(c).binomial(n, p_h)
        if count / n - p_h <= cut:
            hits += 1
    freq, band, ok = _frequency_pass(hits, replications, 1.0 / 16.0)
    return FrequencyReport(applicable=True, replications=replications,
                           frequency=freq, level=1.0 / 16.0, band=band,
                           passed=ok)


def schedule_gap_dominance(schedule, p: AtomicDistribution, sigma: float,
                           k: int, replications: int, seed,
                           n: int | None = None) -> FrequencyReport:
    """Frequency of the multi-scale gap event at the probe t_k r_k.

    The smoothed empirical CDF is a weighted sum of Gaussian CDFs at the atom
    locations, so each replication only needs the multinomial atom counts.
    The event {F~_{n,sigma}(t_k r_k) - F_sigma(t_k r_k) >= (1/2) sqrt(p_{k+1}/n)}
    holds with probability >= 1/64 whenever n p_{k+1} >= 32768. `n` defaults to
    the schedule's n_k, which grows super-geometrically; pass a desk-scale n
    explicitly for k past the first feasible level.
    """
    if replications < 1:
        raise ValueError("replications must be >= 1")
    i = k - 1                           # schedule arrays are 0-based, levels 1-based
    if not (0 <= i < schedule.k_max - 1):
        raise ValueError("need 1 <= k < k_max (the event references p_{k+1})")
    if n is None:
        n = schedule.n_k[i]
        if n is None:
            return FrequencyReport(
                applicable=False, replications=replications, frequency=None,
                level=1.0 / 64.0, band=None, passed=None,
                diagnostic=f"schedule n_{k} is infeasible (overflow)")
    p_next = math.exp(schedule.log_p_k[i + 1])
    if n * p_next < 32768.0:
        return FrequencyReport(
            applicable=False, replications=replications, frequency=None,
            level=1.0 / 64.0, band=None, passed=None,
            diagnostic=f"n*p_(k+1) = {n * p_next:.1f} < 32768")
    t = schedule.t_k[i] * schedule.r_k[i]
    m = SmoothedMixture(p, sigma)
    F_t = float(m.cdf(np.array([t]))[0])
    kernel = ndtr((t - p.locations) / sigma)
    weights = p.weights()
    weights = weights / weights.sum()   # guard residual rounding for multinomial
    gap_cut = 0.5 * math.sqrt(p_next / n)
    children = seed_sequence(seed).spawn(replications)
    hits = 0
    for c in children:
        counts = np.random.default_rng(c).multinomial(n, weights)
        if float(counts @ kernel) / n - F_t >= gap_cut:
            hits += 1
    freq, band, ok = _frequency_pass(hits, replications, 1.0 / 64.0)
    return FrequencyReport(applicable=True, replications=replications,
                           frequency=freq, level=1.0 / 64.0, band=band,
                           passed=ok)
