import hashlib
import itertools
import json
import math
import multiprocessing
import os
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from scipy import special
from scipy.special import log_ndtr

from sotlab import constructions, dist_core
from sotlab.dist_core import (AtomicDistribution, EmpiricalMeasure,
                              SmoothedMixture, log1mexp, logdiffexp,
                              logsumexp, seed_sequence)
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


# one term per sum: the values that round or pass through specially
ONE_TERM = np.array([-0.0, 0.0, math.inf, -math.inf, math.nan, -math.nan,
                     -745.0, 2.5, 800.0, -1e-300, 5e-324])


def test_one_term_logsumexp_matches_scipy_bitwise():
    """With one term per sum, logsumexp and _logsumexp give scipy's bits:
    -0.0 becomes +0.0, +-inf and NaN stay."""
    col = ONE_TERM[:, None]
    want = special.logsumexp(col, axis=1, keepdims=True)
    e, ties = np.empty(col.shape), np.empty(col.shape, dtype=bool)
    assert _bits(dist_core._logsumexp(col.copy(), 1, e, ties)) == _bits(want)
    assert _bits(logsumexp(col, axis=1)) == _bits(want[:, 0])
    for v in ONE_TERM:
        for a, axis in ((np.array([v]), None), (np.array([v]), 0),
                        (np.array([[v]]), None), (np.array([[v]]), (0, 1))):
            assert _bits(logsumexp(a, axis=axis)) == \
                _bits(special.logsumexp(a, axis=axis)), (v, a.shape, axis)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(0, 30))
def test_one_atom_kernel_matches_scipy_bitwise(seed, n_points):
    """_atom_logsum on a one-atom mixture with per-point rows: the density,
    each tail, and one tail per point, against scipy's logsumexp on fresh
    arrays."""
    rng = np.random.default_rng(seed)
    m = random_mixture(rng, 1, float(rng.uniform(0.3, 2.0)))
    t = np.concatenate([rng.uniform(-40.0, 40.0, n_points),
                        m.base.locations, [-math.inf, math.inf]])
    rows = rng.choice([0.0, -0.0, -3.5, -745.0], size=(t.size, 1))
    sign = rng.choice([1.0, -1.0], size=t.size)
    z = (t[:, None] - m.base.locations) / m.sigma
    for kind, term in ((None, -0.5 * z * z), (1.0, log_ndtr(z)),
                       (-1.0, log_ndtr(-z)),
                       (sign, log_ndtr(np.where(sign[:, None] < 0.0, -z, z)))):
        want = special.logsumexp(rows + term, axis=1)
        assert _bits(m._atom_logsum(t, kind, rows)) == _bits(want)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.integers(1, 300), st.sampled_from([1000, 8193])),
       st.integers(1, 5), st.integers(0, 2**32 - 1),
       st.sampled_from([0.0, 0.02, 0.3]))
def test_atom_major_logsumexp_matches_row_major_bitwise(n_atoms, n_points,
                                                        seed, special_share):
    """_logsumexp_atoms over the leading axis of an (atoms x points) array
    gives the bits of logsumexp over the rows of its transpose: numpy sums a
    contiguous row pairwise from 8 terms on, and the atom-major sum must
    reproduce that order."""
    rng = np.random.default_rng(seed)
    # per column a spread from terms of one magnitude, whose sum's last bit
    # depends on the order, to terms far below the max
    scale = rng.choice([1e-3, 1.0, 30.0, 800.0], size=n_points)
    a = rng.normal(0.0, 1.0, (n_atoms, n_points)) * scale
    # ties at the max, then infinities, NaN and repeated values
    cols = np.arange(n_points)
    a[rng.integers(0, n_atoms, n_points), cols] = a[np.argmax(a, axis=0), cols]
    odd = rng.random(a.shape) < special_share
    a[odd] = rng.choice([-math.inf, math.inf, math.nan, 0.0, -745.0],
                        size=int(odd.sum()))
    if rng.random() < 0.3:
        a[:, rng.integers(0, n_points)] = -math.inf
    e, ties = np.empty(a.shape), np.empty(a.shape, dtype=bool)
    got = dist_core._logsumexp_atoms(a.copy(), e, ties)
    rows = np.ascontiguousarray(a.T)
    for want in (logsumexp(rows, axis=1), special.logsumexp(rows, axis=1)):
        assert _bits(got) == _bits(want)


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


def test_quantile_newton_step_overflow_is_quiet(monkeypatch):
    """A mixture with an outlier atom 75 units out (found by a search over
    such mixtures), and one of weight e^-40 1e5 out: that one stretches the
    start table's 513-point grid to ~280 sigma spacing, so the starts fall
    back to the per-atom bracket's end (on a fine grid no iterate gets far
    into the gap). At an iterate in the gap the log-density underflows
    (below -1000 where log F and log S are above -5), the Newton step
    g / deriv divides by zero, and the bracket's bisection takes over. That
    is expected, so it raises no warning, and the quantiles keep their
    bits."""
    m = SmoothedMixture(AtomicDistribution(
        np.array([-0.18160172726167745, 0.6554051876408835, 74.95936876730595,
                  1e5]),
        np.array([-4.123330128061308, -0.8762747963793572, -0.5665523315149378,
                  -40.0])),
        0.6956780597989105)
    lowest = []
    log_pdf = SmoothedMixture.log_pdf

    def spy(self, t, log_weights=None):
        out = log_pdf(self, t, log_weights)
        lowest.append(np.min(out))
        return out

    monkeypatch.setattr(SmoothedMixture, "log_pdf", spy)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        q = m.quantile(np.arange(1, 256) / 256)
    assert min(lowest) < -1000.0
    assert hashlib.sha256(q.tobytes()).hexdigest() == \
        "88a69b1d45a963c859a08ee6c42f74bac2e083b1a15555d187a6dcc28a4ef3c9"


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 64), st.booleans(),
       st.sampled_from([1.0, 1e3, 1e6]))
def test_quantile_bracket_straddles_the_target(seed, n_atoms, with_rows,
                                               scale):
    """At the two ends of each target's start bracket the log-mass the solver
    computes lies on either side of the target, with the per-atom start and
    the Newton start (from the start table or not) between them: mixtures of
    1-64 atoms with weights down to about e^-600, spread over up to 1e6
    times the usual span, with and without per-target rows, targets of both
    tails from -700 to just below log(0.75). A target of a multi-atom
    mixture whose bracket leaves the table's grid keeps the per-atom start
    (a one-atom solve takes no table start)."""
    rng = np.random.default_rng(seed)
    m = random_mixture(rng, n_atoms, float(rng.uniform(0.3, 2.0)),
                       span=max(4.0, n_atoms / 4.0) * scale)
    if seed % 2:
        lw = rng.uniform(-600.0, 0.0, n_atoms)
        m = SmoothedMixture(AtomicDistribution.from_log_weights(
            m.base.locations, lw, normalize=True), m.sigma)
    top = np.nextafter(math.log(0.75), -math.inf)
    lm = np.minimum(rng.uniform(-700.0, math.log(0.75), 60), top)
    lm[:20] = np.minimum(-0.2 - rng.exponential(2.0, 20), top)
    lm[-1] = top
    up = rng.random(lm.size) < 0.5
    rows = None
    if with_rows:
        rows = np.log(rng.dirichlet(np.full(n_atoms, 0.5), lm.size))
        rows = np.maximum(rows, -700.0)
        rows -= logsumexp(rows, axis=1)[:, None]
    lo, hi, x0 = m._quantile_bracket(lm, up, rows)
    sign = np.where(up, -1.0, 1.0)
    # sign * (log-mass - target): <= 0 at lo, >= 0 at hi, in both tails
    at_lo = sign * (m._atom_logsum(lo, sign, rows) - lm)
    at_hi = sign * (m._atom_logsum(hi, sign, rows) - lm)
    assert np.all(at_lo <= 0.0) and np.all(at_hi >= 0.0)
    assert np.all((lo <= x0) & (x0 <= hi))
    if n_atoms == 1:
        return
    x = m._table_start(lm, up, rows, lo, hi, x0)
    assert np.all(np.isfinite(x)) and np.all((lo <= x) & (x <= hi))
    grid = m._start_grid()
    kept = (lo < grid[0]) | (hi > grid[-1])
    assert _bits(x[kept]) == _bits(x0[kept])


@pytest.mark.parametrize("h", [5.0, 7.0, 9.0, 12.0])
def test_gap_quantiles_take_a_bounded_number_of_passes(h):
    """Targets in the density gap of bernoulli_two_point(h, 2) at sigma = 1
    (the log-masses the transport map inverts at 41 points at least sigma
    from both atoms, off the table's grid), each solved alone on a new
    mixture object so that its start table is built: at most 6 signed
    passes at every h. The bound is the design's: one table pass; a start
    within one sigma / 8 grid step of the root, from which Newton's
    quadratic convergence (relative error 2^-3, 2^-6, ..., 2^-48) meets the
    1e-13 stopping rule in 4 steps; and the pass that finds it done. From the
    per-atom start the most passes grew with h: 8, 10, 12 and 15."""
    base = constructions.bernoulli_two_point(h, 2.0)
    m = SmoothedMixture(base, 1.0)
    x = 1.0 + (h - 2.0) * (np.arange(41) + 0.5) / 41
    lower, lc, ls = m._log_sides(x)
    lm = np.where(lower, lc, ls)
    passes = []
    atom_logsum = SmoothedMixture._atom_logsum

    def spy(self, t, sign=None, log_weights=None):
        if sign is not None:
            passes[-1] += 1
        return atom_logsum(self, t, sign, log_weights)

    with mock.patch.object(SmoothedMixture, "_atom_logsum", spy):
        for i in range(x.size):
            passes.append(0)
            q = SmoothedMixture(base, 1.0).quantile_from_log_mass(
                lm[i:i + 1], upper=~lower[i:i + 1])
            assert abs(q[0] - x[i]) <= 1e-9 * (1.0 + h)
    assert max(passes) <= 6, passes


@settings(max_examples=25, deadline=None)
@given(st.floats(-4.0, 4.0), st.floats(0.3, 2.0), st.integers(0, 10_000))
def test_one_atom_quantile_takes_one_kernel_pass(r, sigma, seed):
    """A one-atom quantile is closed-form: the solve starts at it and stops
    after the one signed pass that checks it, meeting the 1e-13 residual
    where float64 log-masses resolve it (targets from -30; a -700 target
    takes one pass too)."""
    m = SmoothedMixture(AtomicDistribution(np.array([r]), np.array([0.0])),
                        sigma)
    rng = np.random.default_rng(seed)
    top = np.nextafter(math.log(0.75), -math.inf)
    lm = np.append(np.minimum(rng.uniform(-30.0, math.log(0.75), 40), top),
                   [top, -700.0])
    up = rng.random(lm.size) < 0.5
    passes = []
    atom_logsum = SmoothedMixture._atom_logsum

    def spy(self, *args, **kwargs):
        passes.append(args)
        return atom_logsum(self, *args, **kwargs)

    with mock.patch.object(SmoothedMixture, "_atom_logsum", spy):
        x = m.quantile_from_log_mass(lm, upper=up)
    assert len(passes) == 1
    sign = np.where(up, -1.0, 1.0)
    residual = np.abs(m._atom_logsum(x, sign) - lm)
    assert np.all(residual[:-1] <= 1e-13)


@settings(max_examples=20, deadline=None)
@given(st.floats(-4.0, 4.0), st.floats(0.3, 2.0), st.integers(0, 10_000))
def test_one_atom_open_targets_match_one_solve_each(r, sigma, seed):
    """A one-atom solve starts at the start bracket's x0 and, where its
    first pass leaves targets open, gives every target the bits of a solve
    of that target alone, building the bracket for the open targets only.
    The members, one atom each, carry log-weights 0 and +-5e-13 (within
    AtomicDistribution's 1e-12 normalisation), given as per-target rows
    from _member_rows: at -5e-13 the closed-form start is off the root by
    the row's weight, so those targets stay open and take Newton steps from
    the bracket; at -700 the log-mass may not resolve the root, and then
    the bracket collapses. Where the first pass finishes every target, no
    bracket is built."""
    ms = [SmoothedMixture(AtomicDistribution(np.array([r]), np.array([lw])),
                          sigma) for lw in (0.0, -5e-13, 5e-13)]
    rng = np.random.default_rng(seed)
    top = np.nextafter(math.log(0.75), -math.inf)
    lm = np.minimum(rng.uniform(-30.0, math.log(0.75), 40), top)
    lm[::8] = -700.0
    up = rng.random(lm.size) < 0.5
    member = rng.integers(0, len(ms), lm.size)
    member[1] = 1
    rows = dist_core._member_rows(ms)(member)
    m = ms[0]
    sign = np.where(up, -1.0, 1.0)
    x0 = m._quantile_bracket(lm, up, rows)[2]
    open_ = ~(np.abs(m._atom_logsum(x0, sign, rows) - lm) <= 1e-13)
    assert open_[(member == 1) & (lm != -700.0)].all() and not open_.all()
    seen = []
    bracket = SmoothedMixture._quantile_bracket

    def spy(self, lm, up, rows):
        seen.append((lm, up, rows))
        return bracket(self, lm, up, rows)

    with mock.patch.object(SmoothedMixture, "_quantile_bracket", spy):
        got = m.quantile_from_log_mass(lm, upper=up, log_weights=rows)
        ((s_lm, s_up, s_rows),) = seen
        assert _bits(s_lm) == _bits(lm[open_])
        assert s_up.tolist() == up[open_].tolist()
        assert _bits(s_rows) == _bits(rows[open_])
        want = [ms[j].quantile_from_log_mass(lm[i:i + 1], upper=up[i:i + 1])[0]
                for i, j in enumerate(member)]
        assert _bits(got) == _bits(want)
        seen.clear()
        done = lm != -700.0
        m.quantile_from_log_mass(lm[done], upper=up[done])
        assert seen == []


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
    """cdf, sf and the transport map's log-mass and T equal the formulas that
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
    T, log_mass = _transport_map(m, B, t)
    assert _bits(log_mass) == _bits(np.where(lower, lc, ls))
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
    p = random_mixture(rng).base
    p2 = AtomicDistribution.from_json_obj(json.loads(json.dumps(p.to_json_obj())))
    np.testing.assert_array_equal(p.locations, p2.locations)
    np.testing.assert_array_equal(p.log_weights, p2.log_weights)


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


# -- kernel row blocks ------------------------------------------------------------


@pytest.fixture(scope="module")
def pools():
    """Kernel pools of width 1 and 2, whatever this machine's CPU count."""
    made = {w: ThreadPoolExecutor(w) for w in (1, 2)}
    yield made
    for p in made.values():
        p.shutdown()


def _kernel_outputs(m, t, rows, targets, upper):
    lower, lc, ls = m._log_sides(t, rows)
    return [m.log_cdf(t, rows), m.log_sf(t, rows), m.log_pdf(t, rows),
            lower.astype(float), lc, ls,
            m.quantile_from_log_mass(targets, upper=upper, log_weights=rows),
            m.log_interval_prob(t - 0.25 * m.sigma, t + np.abs(t) * 1e-3)]


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 40), st.integers(0, 30),
       st.booleans(), st.booleans())
def test_row_blocks_keep_every_bit(pools, seed, n_atoms, n_points, with_rows,
                                   upper):
    """One block, one row per block and blocks of 3 or 7 rows (a ragged last
    block unless they divide the points), on pools of 1 and 2 workers, give
    the same bits, with and without per-point log-weight rows."""
    rng = np.random.default_rng(seed)
    m = random_mixture(rng, n_atoms, float(rng.uniform(0.3, 2.0)),
                       span=max(4.0, n_atoms / 4.0))
    locs, s = m.base.locations, m.sigma
    t = rng.uniform(locs[0] - 10.0 * s, locs[-1] + 10.0 * s, n_points)
    rows = np.log(rng.dirichlet(np.ones(n_atoms), n_points)) if with_rows else None
    targets = rng.uniform(-40.0, math.log(0.7), n_points)
    with mock.patch.object(dist_core, "_BLOCK_BUDGET", 10 ** 9):
        want = [_bits(a) for a in _kernel_outputs(m, t, rows, targets, upper)]
    # the kernel's formula on fresh arrays, through scipy's logsumexp
    z = (t[:, None] - locs[None, :]) / s
    lw = m.base.log_weights[None, :] if rows is None else rows
    refs = [special.logsumexp(lw + term, axis=1)
            for term in (log_ndtr(z), log_ndtr(-z), -0.5 * z * z)]
    refs[2] = refs[2] - math.log(s) - dist_core.LOG_SQRT_2PI
    assert want[:3] == [_bits(r) for r in refs]
    for budget in (1, 3 * n_atoms, 7 * n_atoms):
        for width, pool in pools.items():
            with mock.patch.object(dist_core, "_BLOCK_BUDGET", budget), \
                    mock.patch.object(dist_core, "_pool", pool):
                got = [_bits(a) for a in _kernel_outputs(m, t, rows, targets, upper)]
            assert got == want, (budget, width)


def _interval_reference(m, a, b):
    """log_interval_prob's formula with the upper-tail branch evaluated on
    its own, on fresh arrays."""
    za = (a[:, None] - m.base.locations[None, :]) / m.sigma
    zb = (b[:, None] - m.base.locations[None, :]) / m.sigma
    right = za >= 0.0
    lo_tail = logdiffexp(log_ndtr(np.where(right, -za, zb)),
                         log_ndtr(np.where(right, -zb, za)))
    term = np.where(right, logdiffexp(log_ndtr(-za), log_ndtr(-zb)),
                    np.where(zb <= 0.0, lo_tail, np.nan))
    central = ~right & (zb > 0.0)
    if np.any(central):
        term = np.where(central, np.log(special.ndtr(zb) - special.ndtr(za)),
                        term)
    return logsumexp(m.base.log_weights[None, :] + term, axis=1)


@pytest.mark.parametrize("n_atoms", [1, 2, 3, 7, 8, 40])
def test_log_interval_prob_keeps_both_branch_bits(pools, n_atoms):
    """log_interval_prob gives the bits of the formula that evaluates the
    upper-tail branch on its own: intervals left of, across and right of the
    atoms, ends at +-40 sigma, a == b and NaN, in one block and in blocks of
    3 rows on pools of 1 and 2 workers."""
    rng = np.random.default_rng(n_atoms)
    m = random_mixture(rng, n_atoms, float(rng.uniform(0.3, 2.0)),
                       span=max(4.0, n_atoms / 4.0))
    locs, s = m.base.locations, m.sigma
    t = rng.uniform(locs[0] - 10.0 * s, locs[-1] + 10.0 * s, 40)
    pairs = [(locs - 3.0 * s, locs - 2.0 * s), (locs - 0.5 * s, locs + 0.5 * s),
             (locs + 0.25 * s, locs + 2.0 * s), (locs - 40.0 * s, locs - 39.0 * s),
             (locs + 39.0 * s, locs + 40.0 * s),
             ([locs[0] - 40.0 * s], [locs[-1] + 40.0 * s]),
             (locs, locs), (t, t), (t, t + rng.uniform(0.0, 3.0, t.size)),
             ([math.nan, math.nan, 0.0], [math.nan, 0.0, math.nan])]
    a = np.concatenate([p[0] for p in pairs])
    b = np.concatenate([p[1] for p in pairs])
    with np.errstate(all="ignore"):
        want = _bits(_interval_reference(m, a, b))
        for budget, pool in ((10 ** 9, None), (3 * n_atoms, pools[1]),
                             (3 * n_atoms, pools[2])):
            with mock.patch.object(dist_core, "_BLOCK_BUDGET", budget), \
                    mock.patch.object(dist_core, "_pool", pool):
                assert _bits(m.log_interval_prob(a, b)) == want, budget


@pytest.mark.parametrize("with_rows", [False, True])
@pytest.mark.parametrize("n_atoms", range(1, 10))
def test_few_atom_kernel_matches_row_major_bitwise(pools, n_atoms, with_rows):
    """log_pdf, log_cdf, log_sf and the signed log-mass pass of the quantile
    solver, with one sign per point, give the bits of logsumexp(lw + term,
    axis=1) over the (points x atoms) array, whichever layout the kernel
    builds: on the lean path (up to 7 atoms in one block) and in row blocks
    on pools of 1 and 2 workers; at +-inf, NaN, +-1e300 and at the atoms
    themselves, with log-weights and log-weight rows at -700; for a 0-d, an
    empty, a 1-d and a 2-D t, each output of t's shape."""
    rng = np.random.default_rng(n_atoms)
    locs = np.sort(rng.uniform(-4.0, 4.0, n_atoms))
    lw = np.log(rng.dirichlet(np.ones(n_atoms)))
    lw[-1] = -700.0
    m = SmoothedMixture(AtomicDistribution.from_log_weights(locs, lw, normalize=True),
                        float(rng.uniform(0.3, 2.0)))
    t = np.concatenate([[-math.inf, math.inf, math.nan, 1e300, -1e300], locs,
                        rng.uniform(-6.0, 6.0, 300), rng.uniform(-40.0, 40.0, 20)])
    rows = None
    if with_rows:
        rows = np.log(rng.dirichlet(np.ones(n_atoms), t.size))
        rows[rng.random(rows.shape) < 0.2] = -700.0
    sign = rng.choice([1.0, -1.0], size=t.size)
    with np.errstate(all="ignore"):
        z = (t[:, None] - locs) / m.sigma
        lws = m.base.log_weights[None, :] if rows is None else rows
        want = [special.logsumexp(lws + term, axis=1) for term in
                (-0.5 * z * z, log_ndtr(z), log_ndtr(-z), log_ndtr(z * sign[:, None]))]
        want[0] = want[0] - math.log(m.sigma) - dist_core.LOG_SQRT_2PI
    # points of t in the shapes of each case: 0-d at NaN, +inf and a point
    # between the atoms, empty, all of t, and 2-D
    cases = [np.array(i) for i in (2, 1, t.size - 30)]
    cases += [np.arange(0), np.arange(t.size), np.arange(40).reshape(5, 8)]
    for at in cases:
        tc, sc = t[at], sign[at]
        rc = None if rows is None else rows[at.reshape(-1)]
        with np.errstate(all="ignore"):
            for budget, pool in ((10 ** 9, None), (2 * n_atoms, pools[1]),
                                 (5 * n_atoms, pools[2])):
                with mock.patch.object(dist_core, "_BLOCK_BUDGET", budget), \
                        mock.patch.object(dist_core, "_pool", pool):
                    got = [m.log_pdf(tc, rc), m.log_cdf(tc, rc),
                           m.log_sf(tc, rc), m._atom_logsum(tc, sc, rc)]
                assert [np.shape(g) for g in got] == [at.shape] * 4
                assert [_bits(g) for g in got] == \
                    [_bits(w[at]) for w in want], (at.shape, budget)


def test_row_blocks_keep_shapes_and_types(monkeypatch):
    """Shapes and scalar types of the kernel's outputs, in row blocks and in
    one block (5 atoms)."""
    m = random_mixture(np.random.default_rng(3), 5)
    for budget in (6, dist_core._BLOCK_BUDGET):
        monkeypatch.setattr(dist_core, "_BLOCK_BUDGET", budget)
        for x, shape in ((np.empty(0), (0,)), (np.empty((0, 3)), (0, 3)),
                         (np.linspace(-3, 3, 12).reshape(3, 4), (3, 4))):
            for name in ("log_cdf", "log_sf", "log_pdf"):
                got = getattr(m, name)(x)
                assert isinstance(got, np.ndarray) and got.shape == shape
            assert m.log_interval_prob(x, x + 1.0).shape == shape
        for x in (0.3, np.float64(0.3), np.array(0.3)):
            for name in ("log_cdf", "log_sf", "log_pdf"):
                assert type(getattr(m, name)(x)) is np.float64
            assert type(m.log_interval_prob(x, 1.0)) is float


def test_small_calls_take_the_lean_path(monkeypatch):
    """A 2-atom, 30-point log_cdf, log_pdf and signed pass, and a quantile
    solve on 2 atoms, never reach the row blocks, so a one-block call cannot
    fall back to them unnoticed. The kernel is chosen by the atom count
    alone and the blocks by the call's size alone: one-block calls on 7 and
    8 atoms run the few-atom and the row-major kernel directly, and a 2-atom
    call of more than one block takes the row blocks."""
    def no_blocks(*args):
        raise AssertionError("reached _row_blocks")

    t = np.linspace(-3.0, 5.0, 30)
    m = SmoothedMixture(constructions.bernoulli_two_point(2.0, 2.0), 1.0)
    want = _bits(m.log_cdf(t))
    monkeypatch.setattr(dist_core, "_row_blocks", no_blocks)
    assert _bits(m.log_cdf(t)) == want
    m.log_pdf(t)
    m._atom_logsum(t, np.where(t < 1.0, 1.0, -1.0))
    m.quantile_from_log_mass(np.log([1e-30, 0.3]), upper=[False, True])
    used = []

    def spy(name):
        real = getattr(dist_core, name)
        return lambda *args: used.append(name) or real(*args)

    for name in ("_few_atom_logsum", "_row_major_logsum"):
        monkeypatch.setattr(dist_core, name, spy(name))
    for n_atoms in (7, 8):
        random_mixture(np.random.default_rng(3), n_atoms).log_cdf(t)
    assert used == ["_few_atom_logsum", "_row_major_logsum"]
    monkeypatch.setattr(dist_core, "_BLOCK_BUDGET", 2 * 29)
    with pytest.raises(AssertionError, match="reached _row_blocks"):
        m.log_cdf(t)


def test_block_exception_reaches_the_caller(monkeypatch, pools):
    """The exception a block raises is the one the caller sees, in the
    row-major and the atom-major layouts: both reductions are patched, and a
    block calls one of them once."""
    monkeypatch.setattr(dist_core, "_BLOCK_BUDGET", 6)
    boom = KeyError("block 3")
    reals = [(name, getattr(dist_core, name))
             for name in ("_logsumexp", "_logsumexp_atoms")]
    for n_atoms, pool in itertools.product((5, 11), pools.values()):
        m = random_mixture(np.random.default_rng(3), n_atoms)
        calls = itertools.count()

        def failing(real):
            def reduction(*args):
                if next(calls) == 3:
                    raise boom
                return real(*args)
            return reduction

        monkeypatch.setattr(dist_core, "_pool", pool)
        for name, real in reals:
            monkeypatch.setattr(dist_core, name, failing(real))
        with pytest.raises(KeyError) as ei:
            m.log_cdf(np.linspace(-1.0, 1.0, 10))
        assert ei.value is boom


def test_blocks_keep_the_callers_errstate(monkeypatch, pools):
    """np.errstate lives in a contextvar; each block runs in a copy of the
    caller's context, so an overflow raises (or stays quiet) as it does in
    one block."""
    m = random_mixture(np.random.default_rng(3), 5)
    x = np.full(10, 1e200)
    for budget, pool in ((10 ** 9, None), (6, pools[1]), (6, pools[2])):
        monkeypatch.setattr(dist_core, "_BLOCK_BUDGET", budget)
        monkeypatch.setattr(dist_core, "_pool", pool)
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            m.log_pdf(x)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(over="ignore"):
                assert np.all(m.log_pdf(x) == -np.inf)


def test_blocks_on_a_crowded_pool_write_every_row(monkeypatch):
    """More workers than CPUs and a short switch interval: a lost or misplaced
    block write would change the bits."""
    m = random_mixture(np.random.default_rng(5), 64, span=16.0)
    t = np.linspace(-25.0, 25.0, 1000)
    want = _bits(m.log_cdf(t))
    monkeypatch.setattr(dist_core, "_BLOCK_BUDGET", 64)
    old = sys.getswitchinterval()
    with ThreadPoolExecutor(9) as pool:
        monkeypatch.setattr(dist_core, "_pool", pool)
        try:
            sys.setswitchinterval(1e-6)
            for _ in range(3):
                assert _bits(m.log_cdf(t)) == want
        finally:
            sys.setswitchinterval(old)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork on this OS")
def test_a_forked_child_gets_its_own_kernel_pool(monkeypatch):
    """The parent's pool workers do not exist in a forked child; blocks
    handed to them there would never run."""
    m = random_mixture(np.random.default_rng(3), 5)
    t = np.linspace(-3.0, 3.0, 10)
    monkeypatch.setattr(dist_core, "_BLOCK_BUDGET", 6)
    want = m.log_cdf(t).tobytes()   # starts the pool in this process
    ctx = multiprocessing.get_context("fork")
    reader, writer = ctx.Pipe(duplex=False)
    child = ctx.Process(target=lambda: writer.send_bytes(m.log_cdf(t).tobytes()))
    child.start()
    try:
        assert reader.poll(30), "the child's kernel call did not finish"
        assert reader.recv_bytes() == want
    finally:
        child.join(10)
        if child.is_alive():
            child.kill()
            child.join()
    assert child.exitcode == 0
