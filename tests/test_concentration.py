import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from sotlab import concentration as conc
from sotlab import constructions as cons
from sotlab.dist_core import AtomicDistribution, EmpiricalMeasure, SmoothedMixture

from conftest import random_mixture


def test_statistic_affine_invariance(std_normal):
    sample = std_normal.sample(256, 11)
    s0 = conc.weighted_cdf_statistic(std_normal, sample)
    a, b = 2.5, -1.0
    mapped = SmoothedMixture(std_normal.base.scale(a).shift(b),
                             std_normal.sigma * a)
    mapped_sample = EmpiricalMeasure(np.sort(a * sample.samples + b))
    s1 = conc.weighted_cdf_statistic(mapped, mapped_sample)
    assert math.isclose(s0, s1, rel_tol=1e-9)


def test_statistic_decreases_with_n(std_normal):
    meds = {}
    for n in (256, 4096):
        children = np.random.SeedSequence(5).spawn(200)
        stats = [conc.weighted_cdf_statistic(
            std_normal, std_normal.sample(n, np.random.default_rng(c)))
            for c in children]
        meds[n] = float(np.median(stats))
    assert meds[4096] <= meds[256]


def test_weighted_concentration_rate(std_normal):
    rep = conc.weighted_cdf_concentration(std_normal, 256, 0.1, 60, 3)
    assert rep.violation_rate <= 0.1
    assert len(rep.statistics) == 60
    rep2 = conc.weighted_cdf_concentration(std_normal, 256, 0.1, 60, 3)
    assert rep.statistics == rep2.statistics


def test_concentration_statistics_match_single_calls():
    """Each replication's statistic is, bit for bit, what a call of its own
    on the same sample gives."""
    F = SmoothedMixture(AtomicDistribution.from_weights(
        np.array([-1.0, 0.5, 3.0]), np.array([0.2, 0.5, 0.3])), 0.8)
    rep = conc.weighted_cdf_concentration(F, 96, 0.1, 6, 17)
    children = np.random.SeedSequence(17).spawn(6)
    want = [conc.weighted_cdf_statistic(F, F.sample(96, np.random.default_rng(c)))
            for c in children]
    assert np.array(rep.statistics).view(np.int64).tolist() == \
        np.array(want).view(np.int64).tolist()


def _full_grid(F, pts, n):
    """The points pts, sorted, their midpoints, the 2n-1 quantile anchors
    F^{-1}(k/2n) and one point beyond each end."""
    anchors = F.quantile(np.arange(1, 2 * n) / (2.0 * n))
    pts = np.sort(pts)
    mids = 0.5 * (pts[:-1] + pts[1:]) if pts.size > 1 else np.empty(0)
    lo = min(pts[0], anchors[0]) - 1.0
    hi = max(pts[-1], anchors[-1]) + 1.0
    return np.unique(np.concatenate([pts, mids, anchors, [lo, hi]]))


def _full_grid_statistic(F, sample):
    """The empirical-sample statistic over _full_grid of the sample
    points."""
    n = sample.n
    grid = _full_grid(F, sample.samples, n)
    Ft = F.cdf(grid)
    right = np.searchsorted(sample.samples, grid, side="right") / n
    left = np.searchsorted(sample.samples, grid, side="left") / n
    dev = np.maximum(np.abs(Ft - right), np.abs(Ft - left))
    denom = np.sqrt(np.maximum(1.0 / n, np.minimum(Ft, 1.0 - Ft)))
    return float(np.max(dev / denom))


def _smoothed_full_grid_statistic(F, sample, n):
    """The smoothed-sample statistic with the sample's CDF evaluated on all
    of _full_grid of the base atoms. Returns the statistic and the grid's
    ratios and sample CDF."""
    grid = _full_grid(F, sample.base.locations, n)
    Ft = F.cdf(grid)
    C = sample.cdf(grid)
    dev = np.abs(Ft - C)
    denom = np.sqrt(np.maximum(1.0 / n, np.minimum(Ft, 1.0 - Ft)))
    ratios = dev / denom
    return float(np.max(ratios)), ratios, C


def _mixture(locs, w, sigma):
    order = np.argsort(locs)
    return SmoothedMixture(AtomicDistribution.from_weights(locs[order],
                                                           w[order]), sigma)


def _statistic_case(kind, seed, n_atoms):
    """(F, sample) for test_smoothed_statistic_matches_full_grid."""
    rng = np.random.default_rng(seed)
    w = rng.dirichlet(np.ones(n_atoms))
    if kind == "tie":
        # F is 1/2 on the long plateau between its two far atoms, where the
        # sample's CDF is 1: the sample's atoms and midpoints there all hold
        # the same ratio, the max
        F = _mixture(np.array([-1000.0, 1000.0]), np.array([0.5, 0.5]), 1.0)
        return F, _mixture(np.array([-1000.0, -500.0, 0.0, 500.0]),
                           np.array([1.0, 1e-20, 1e-20, 1e-20]), 1.0)
    if kind == "far":
        # atoms near +-1e8, where float64 spacing is 1.5e-8, and small sigma
        c = float(rng.choice([-1e8, 1e8]))
        F = _mixture(c + rng.normal(0.0, 1e-3, 3), rng.dirichlet(np.ones(3)),
                     float(rng.uniform(1e-4, 1e-3)))
        locs = np.unique(c + rng.normal(0.0, 2e-3, n_atoms))
        return F, _mixture(locs, rng.dirichlet(np.ones(locs.size)),
                           float(rng.uniform(1e-6, 1e-4)))
    F = random_mixture(rng, int(rng.integers(1, 5)))
    sigma = float(rng.uniform(0.05, 2.0))
    locs = rng.normal(0.0, rng.uniform(0.5, 6.0), n_atoms)
    if kind == "near_duplicates":
        locs = np.unique(np.concatenate([locs, np.nextafter(locs, np.inf),
                                         locs + 1e-12 * np.abs(locs)]))
        w = rng.dirichlet(np.ones(locs.size))
    elif kind == "light":
        # weights spanning 1 down to 1e-12
        w = 10.0 ** rng.uniform(-12.0, 0.0, n_atoms)
    else:
        locs = np.unique(locs)
        w = w[:locs.size]
    return F, _mixture(locs, w / w.sum(), sigma)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 300), st.integers(1, 200),
       st.sampled_from(["spread", "far", "near_duplicates", "light", "tie"]))
@example(1, 1, 1, "spread")
@example(2, 300, 1, "light")
@example(3, 50, 64, "far")
@example(4, 40, 32, "near_duplicates")
@example(5, 1, 1, "tie")
@example(5, 1, 40, "tie")
def test_smoothed_statistic_matches_full_grid(seed, n_atoms, n, kind):
    """The bracketed search returns, bit for bit, the ratio's max over the
    whole grid, and the computed sample CDF departs from monotone by far
    less than the slack the search allows it."""
    F, sample = _statistic_case(kind, seed, n_atoms)
    got = conc.weighted_cdf_statistic(F, sample, n)
    want, ratios, C = _smoothed_full_grid_statistic(F, sample, n)
    assert np.array(got).view(np.int64) == np.array(want).view(np.int64)
    assert np.max(np.maximum.accumulate(C) - C) <= 1e-3 * conc._CDF_SLACK
    if kind == "tie":
        assert np.count_nonzero(ratios == want) > 1


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 6), st.booleans(),
       st.integers(1, 128), st.sampled_from(["smoothed", "atoms", "rounded"]))
@example(3, 1, False, 1, "smoothed")
@example(5, 3, True, 1, "atoms")
@example(8, 4, True, 64, "atoms")
@example(13, 2, True, 100, "rounded")
def test_empirical_statistic_matches_full_grid(seed, n_atoms, outlier, n,
                                               kind):
    """The sup over the distinct sample points alone equals, bit for bit,
    the sup over the full grid: between two jumps F_n is constant and the
    ratio is monotone in F on each side of that constant. Samples may tie
    (drawn from the atoms themselves, or rounded), and the mixture may carry
    a far outlier atom."""
    rng = np.random.default_rng(seed)
    F = random_mixture(rng, n_atoms)
    if outlier:
        far = float(rng.choice([-1.0, 1.0]) * rng.uniform(30.0, 60.0))
        locs = np.append(F.base.locations, far)
        w = np.append(F.base.weights(), rng.uniform(0.01, 0.3))
        order = np.argsort(locs)
        F = SmoothedMixture(AtomicDistribution.from_weights(locs[order],
                                                            w[order]), F.sigma)
    if kind == "atoms":
        sample = F.base.sample(n, rng)
    elif kind == "rounded":
        sample = EmpiricalMeasure(np.round(F.sample(n, rng).samples, 1))
    else:
        sample = F.sample(n, rng)
    got = conc.weighted_cdf_statistic(F, sample)
    want = _full_grid_statistic(F, sample)
    assert np.array(got).view(np.int64) == np.array(want).view(np.int64)


def test_smoothed_sample_variant(std_normal):
    emp = std_normal.sample(64, 9).to_atomic()
    s = conc.weighted_cdf_statistic(std_normal, SmoothedMixture(emp, 1.0),
                                    n=64)
    assert s >= 0
    with pytest.raises(ValueError):
        conc.weighted_cdf_statistic(std_normal, SmoothedMixture(emp, 1.0))


def test_berry_esseen_event():
    p_h = math.exp(-9.0 / 8.0)
    n = 2 * math.ceil(128 / p_h)
    fr = conc.berry_esseen_event_frequency(3.0, 2.0, 1.0, n, 500, 17)
    assert fr.applicable and fr.passed
    fr2 = conc.berry_esseen_event_frequency(3.0, 2.0, 1.0, n, 500, 17)
    assert fr.frequency == fr2.frequency


def test_sibling_seed_sequences_give_different_statistics(std_normal):
    # children spawned from one root differ only in their spawn_key
    a, b = np.random.SeedSequence(7).spawn(2)
    fa = conc.berry_esseen_event_frequency(3.0, 2.0, 1.0, 800, 50, a)
    fb = conc.berry_esseen_event_frequency(3.0, 2.0, 1.0, 800, 50, b)
    assert fa.frequency != fb.frequency
    a, b = np.random.SeedSequence(7).spawn(2)
    ra = conc.weighted_cdf_concentration(std_normal, 64, 0.1, 3, a)
    rb = conc.weighted_cdf_concentration(std_normal, 64, 0.1, 3, b)
    assert ra.statistics != rb.statistics
    # an integer seed and its root sequence are the same seed
    r7 = conc.weighted_cdf_concentration(std_normal, 64, 0.1, 3, 7)
    root = conc.weighted_cdf_concentration(std_normal, 64, 0.1, 3,
                                           np.random.SeedSequence(7))
    assert r7.statistics == root.statistics


def test_berry_esseen_guards():
    with pytest.raises(ValueError):
        conc.berry_esseen_event_frequency(0.5, 2.0, 1.0, 10_000, 10, 1)
    fr = conc.berry_esseen_event_frequency(3.0, 2.0, 1.0, 100, 10, 1)
    assert not fr.applicable and fr.frequency is None
    with pytest.raises(ValueError):
        conc.berry_esseen_event_frequency(3.0, 2.0, 1.0, 1000, 0, 1)


def test_schedule_gap_dominance():
    dist, sch = cons.w2_hard_example(2.0, 1.0, 4)
    p2 = math.exp(sch.log_p_k[1])
    n = math.ceil(2 * 32768 / p2)
    fr = conc.schedule_gap_dominance(sch, dist, 1.0, 1, 300, 13, n=n)
    assert fr.applicable and fr.passed
    fr2 = conc.schedule_gap_dominance(sch, dist, 1.0, 1, 300, 13, n=n)
    assert fr.frequency == fr2.frequency


def test_schedule_gap_guards():
    dist, sch = cons.w2_hard_example(2.0, 1.0, 4)
    # level 2's schedule n overflows -> not applicable
    fr = conc.schedule_gap_dominance(sch, dist, 1.0, 2, 10, 1)
    assert not fr.applicable and "infeasible" in fr.diagnostic
    # explicit n below the event threshold
    fr = conc.schedule_gap_dominance(sch, dist, 1.0, 1, 10, 1, n=100)
    assert not fr.applicable
    with pytest.raises(ValueError):
        conc.schedule_gap_dominance(sch, dist, 1.0, 1, 0, 1)
    with pytest.raises(ValueError):
        conc.schedule_gap_dominance(sch, dist, 1.0, 4, 10, 1)
