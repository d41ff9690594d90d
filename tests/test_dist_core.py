import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from scipy import special
from scipy.special import log_ndtr

from sotlab.dist_core import (AtomicDistribution, EmpiricalMeasure,
                              SmoothedMixture, gaussian_tail_bound_check,
                              log1mexp, logdiffexp, logsumexp, seed_sequence)
from sotlab.transport import _transport_map

from conftest import random_mixture

mixtures = st.builds(
    lambda seed, n, sigma: random_mixture(np.random.default_rng(seed), n, sigma),
    st.integers(0, 10_000), st.integers(1, 5), st.floats(0.3, 2.0))


def test_log1mexp_and_logdiffexp():
    x = np.array([-1e-20, -1e-5, -1.0, -50.0, -1000.0])
    np.testing.assert_allclose(np.exp(log1mexp(x)), -np.expm1(x), rtol=1e-12)
    la, lb = np.array([0.0, -3.0]), np.array([-1.0, -3.0])
    got = logdiffexp(la, lb)
    assert got[1] == -math.inf
    assert math.isclose(math.exp(got[0]), 1.0 - math.exp(-1.0), rel_tol=1e-12)


# magnitudes up to 800, infinities, and a few repeated values so rows tie at
# their max; rows may be one column wide
lse_rows = hnp.arrays(
    float, hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=9),
    elements=st.one_of(st.floats(-800.0, 800.0),
                       st.sampled_from([-math.inf, math.inf, 0.0, 2.5, -745.0])))


@settings(max_examples=400, deadline=None)
@given(lse_rows, st.integers(0, 8), st.booleans())
def test_logsumexp_matches_scipy_bitwise(a, row, blank_row):
    if blank_row:
        a[row % a.shape[0]] = -math.inf
    for axis in (1, None):
        want = np.asarray(special.logsumexp(a, axis=axis))
        got = np.asarray(logsumexp(a, axis=axis))
        assert got.shape == want.shape
        assert got.view(np.int64).tolist() == want.view(np.int64).tolist()


@settings(max_examples=25, deadline=None)
@given(mixtures)
def test_density_bounded_by_kernel_peak(m):
    t = np.linspace(-10, 10, 200)
    assert np.all(m.pdf(t) <= 1.0 / (math.sqrt(2 * math.pi) * m.sigma) + 1e-12)


@settings(max_examples=25, deadline=None)
@given(mixtures, st.floats(-6, 6), st.floats(1e-9, 3.0))
def test_cdf_strictly_increasing(m, t, gap):
    a, b = t, t + max(gap, 1e-9)
    fa, fb = m.cdf(np.array([a, b]))
    # F(b) - F(a) can sit below float64 resolution at F(b), e.g. 1.9e-17
    # at F = 0.908 for a 1e-9 gap in a density valley
    assert fb > fa or fa in (0.0, 1.0) or \
        math.exp(m.log_interval_prob(a, b)) < 4.0 * np.spacing(fb)


@settings(max_examples=25, deadline=None)
@given(mixtures)
def test_quantile_cdf_roundtrip(m):
    u = np.array([1e-10, 1e-6, 0.01, 0.25, 0.5, 0.75, 0.99, 1 - 1e-6, 1 - 1e-10])
    x = m.quantile(u)
    assert np.max(np.abs(m.cdf(x) - u)) <= 1e-12


@settings(max_examples=25, deadline=None)
@given(mixtures, st.floats(-20, 20))
def test_translation_equivariance(m, c):
    shifted = SmoothedMixture(m.base.shift(c), m.sigma)
    u = np.array([0.05, 0.3, 0.5, 0.9])
    np.testing.assert_allclose(shifted.quantile(u), m.quantile(u) + c,
                               rtol=0, atol=1e-9 * (1 + abs(c)))


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64).tolist()


# 1-64 atoms spread over a range that grows with their count, so most
# mixtures have a mean away from their median
wide_mixtures = st.builds(
    lambda seed, n, sigma: random_mixture(np.random.default_rng(seed), n,
                                          sigma, span=max(4.0, n / 4.0)),
    st.integers(0, 10_000), st.integers(1, 64), st.floats(0.3, 2.0))


@settings(max_examples=60, deadline=None)
@given(wide_mixtures, mixtures,
       st.lists(st.floats(-1.0, 1.0), min_size=0, max_size=12))
def test_one_sided_log_mass_matches_both_sides_bitwise(m, B, offsets):
    """cdf, sf and the transport map's side and T equal the formulas that
    evaluate log F and log S at every point."""
    locs, s = m.base.locations, m.sigma
    centers = np.array([m.base.mean(), m.median()])
    t = np.concatenate([
        centers, np.nextafter(centers, -np.inf), np.nextafter(centers, np.inf),
        centers - 1e-7 * s, centers + 1e-7 * s, [centers.mean()],
        [locs[0] - 38.0 * s, locs[0] - 12.0 * s, locs[-1] + 12.0 * s,
         locs[-1] + 38.0 * s],
        centers[0] + np.asarray(offsets) * (locs[-1] - locs[0] + 12.0 * s)])
    # a scalar gives a 0-d array, as before; NaN gets both sides
    for x in (t, t.reshape(-1, 1), float(centers[0]), np.array([np.nan, 0.0])):
        lc, ls = m.log_cdf(x), m.log_sf(x)
        got_cdf, got_sf = m.cdf(x), m.sf(x)
        assert np.shape(got_cdf) == np.shape(got_sf) == np.shape(x)
        assert _bits(got_cdf) == _bits(np.where(lc <= ls, np.exp(lc),
                                                -np.expm1(ls)))
        assert _bits(got_sf) == _bits(np.where(ls <= lc, np.exp(ls),
                                               -np.expm1(lc)))
    lc, ls = m.log_cdf(t), m.log_sf(t)
    lower = lc <= ls
    want_T = np.empty(t.shape)
    want_T[lower] = B.quantile_from_log_mass(lc[lower], upper=False)
    want_T[~lower] = B.quantile_from_log_mass(ls[~lower], upper=True)
    T, got_lower, _ = _transport_map(m, B, t)
    assert got_lower.tolist() == lower.tolist()
    assert _bits(T) == _bits(want_T)


def test_duplicate_atom_merge_preserves_density():
    b = AtomicDistribution.from_samples(np.array([0.0, 0.0, 0.0, 1.0, 1.0]))
    mb = SmoothedMixture(b, 1.0)
    ref = SmoothedMixture(AtomicDistribution.from_weights(
        np.array([0.0, 1.0]), np.array([0.6, 0.4])), 1.0)
    t = np.linspace(-5, 6, 101)
    np.testing.assert_allclose(mb.pdf(t), ref.pdf(t), atol=1e-14)
    np.testing.assert_allclose(mb.cdf(t), ref.cdf(t), atol=1e-14)
    assert b.n_atoms == 2


def test_deep_tail_matches_gaussian_closed_form(std_normal):
    t = np.array([10.0, 20.0, 30.0])
    np.testing.assert_allclose(std_normal.log_sf(t), log_ndtr(-t), rtol=1e-13)
    np.testing.assert_allclose(std_normal.log_cdf(-t), log_ndtr(-t), rtol=1e-13)


def test_log_interval_prob_deep_tails(std_normal):
    got = std_normal.log_interval_prob(20.0, 21.0)
    oracle = log_ndtr(-20.0) + math.log1p(
        -math.exp(log_ndtr(-21.0) - log_ndtr(-20.0)))
    assert math.isclose(got, oracle, rel_tol=1e-12)
    sym = std_normal.log_interval_prob(-21.0, -20.0)
    assert math.isclose(got, sym, rel_tol=1e-12)


def test_json_roundtrip(rng):
    m = random_mixture(rng)
    m2 = SmoothedMixture.from_json_obj(json.loads(json.dumps(m.to_json_obj())))
    np.testing.assert_array_equal(m.base.locations, m2.base.locations)
    np.testing.assert_array_equal(m.base.log_weights, m2.base.log_weights)
    assert m.sigma == m2.sigma


def test_sampling_deterministic(rng):
    m = random_mixture(rng)
    s1 = m.sample(100, 42).samples
    s2 = m.sample(100, 42).samples
    np.testing.assert_array_equal(s1, s2)
    with pytest.raises(ValueError):
        m.sample(100, None)


def test_seed_sequence_keeps_spawn_key():
    child = np.random.SeedSequence(7).spawn(2)[1]
    child.spawn(3)
    copy = seed_sequence(child)
    assert copy is not child
    assert (copy.entropy, copy.spawn_key, copy.pool_size, copy.n_children_spawned) \
        == (child.entropy, child.spawn_key, child.pool_size, 3)
    assert copy.spawn(1)[0].spawn_key == child.spawn(1)[0].spawn_key
    assert seed_sequence(7).entropy == 7 and seed_sequence(7).spawn_key == ()
    with pytest.raises(ValueError):
        seed_sequence(None)


def test_atomic_validation():
    with pytest.raises(ValueError):
        AtomicDistribution.from_weights(np.array([1.0, 0.0]),
                                        np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        AtomicDistribution.from_log_weights(
            np.array([0.0, 1.0]), np.log(np.array([0.5, 0.6])))
    with pytest.raises(ValueError):
        AtomicDistribution.from_weights(np.array([0.0]), np.array([-1.0]))


def test_empirical_measure_cdf():
    e = EmpiricalMeasure(np.array([1.0, 2.0, 3.0]))
    assert e.n == 3
    np.testing.assert_allclose(e.cdf(np.array([0.0, 1.0, 2.5, 5.0])),
                               [0.0, 1 / 3, 2 / 3, 1.0])


def test_gaussian_tail_bound():
    rep = gaussian_tail_bound_check(np.linspace(0.0, 10.0, 101))
    assert rep.passed
    with pytest.raises(ValueError):
        gaussian_tail_bound_check(np.array([-1.0]))
