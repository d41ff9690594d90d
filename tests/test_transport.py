import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sotlab import _quad, constructions, functional_ineq, transport
from sotlab.dist_core import (AtomicDistribution, SmoothedMixture,
                              _deep_quantiles)

from conftest import random_mixture

mixtures = st.builds(
    lambda seed, n, sigma: random_mixture(np.random.default_rng(seed), n, sigma),
    st.integers(0, 10_000), st.integers(1, 4), st.floats(0.5, 1.5))


def test_identity_is_zero(rng):
    m = random_mixture(rng)
    assert transport.w2_squared(m, m).total <= 1e-18


@settings(max_examples=15, deadline=None)
@given(mixtures, st.floats(-8, 8))
def test_translation_cost(m, c):
    shifted = SmoothedMixture(m.base.shift(c), m.sigma)
    got = transport.w2_squared(m, shifted).total
    assert abs(got - c * c) <= 1e-7 * (1 + c * c)


@settings(max_examples=10, deadline=None)
@given(mixtures, mixtures)
def test_symmetry(a, b):
    ab = transport.w2_squared(a, b)
    ba = transport.w2_squared(b, a)
    assert abs(ab.total - ba.total) <= 2 * (1e-9 + ab.tail_bound + ba.tail_bound
                                            + 1e-10 * (1 + ab.total))


def test_symmetry_across_deep_density_gap():
    # F_B^{-1} o F_A crosses a 12-sigma gap between B's atoms near t = -2.36,
    # so the map is a near-jump that depth-capped panels only resolve to noise
    a = random_mixture(np.random.default_rng(0), 2, 1.0)
    b = random_mixture(np.random.default_rng(512), 2, 0.5)
    ab = transport.w2_squared(a, b)
    ba = transport.w2_squared(b, a)
    assert abs(ab.total - ba.total) <= 2 * (1e-9 + ab.tail_bound + ba.tail_bound
                                            + 1e-10 * (1 + ab.total))


@settings(max_examples=10, deadline=None)
@given(mixtures, st.floats(0.2, 4.0))
def test_scaling(m, s):
    scaled = SmoothedMixture(m.base.scale(s), m.sigma * s)
    ref = SmoothedMixture(m.base.shift(1.0), m.sigma)
    ref_scaled = SmoothedMixture(m.base.shift(1.0).scale(s), m.sigma * s)
    base = transport.w2_squared(m, ref).total
    got = transport.w2_squared(scaled, ref_scaled).total
    assert abs(got - s * s * base) <= 1e-8 * (1 + s * s * base)


def test_triangle_inequality(rng):
    for _ in range(6):
        a, b, c = (random_mixture(rng) for _ in range(3))
        dab = math.sqrt(transport.w2_squared(a, b).total)
        dbc = math.sqrt(transport.w2_squared(b, c).total)
        dac = math.sqrt(transport.w2_squared(a, c).total)
        assert dac <= dab + dbc + 1e-6


def test_crossing_bound_below_w2(rng):
    for _ in range(10):
        a = random_mixture(rng)
        b = SmoothedMixture(a.base.shift(float(rng.uniform(3, 7))), a.sigma)
        w2 = transport.w2_squared(a, b).total
        best = transport.best_crossing_lower_bound(
            a, b, np.linspace(-4, 10, 40))
        if best.applicable:
            assert w2 >= math.exp(best.log_value) * (1 - 1e-9) - 1e-15


def test_crossing_premise_rejected(std_normal):
    cb = transport.best_crossing_lower_bound(std_normal, std_normal, [0.0])
    assert not cb.applicable and cb.log_value == -math.inf


def test_certification_flag(rng):
    a = random_mixture(rng)
    b = random_mixture(rng)
    ev = transport.w2_squared(a, b, with_noise_bound=True)
    # the accepted panels partition the window, so their contributions sum
    # to the total
    assert ev.grid.shape == ev.contributions.shape
    assert math.isclose(float(np.sum(ev.contributions)), ev.total,
                        rel_tol=1e-12, abs_tol=1e-18)
    assert ev.noise_bound >= 0.0
    assert ev.certified() == (ev.total > 10.0 * (ev.tail_bound + ev.noise_bound
                                                 + ev.quad_error))


def _two_point_pair(K, n, k):
    """(P_n * gamma, P * gamma) for P = bernoulli_two_point(2, K), sigma = 1,
    and the P_n of an n-sample that drew k times at the h-atom."""
    p = constructions.bernoulli_two_point(2.0, K)
    p_n = p._from_counts(np.array([n - k, k]), n)
    return SmoothedMixture(p_n, 1.0), SmoothedMixture(p, 1.0)


def _t2_pair():
    P, Q, _ = functional_ineq.check_t2_parameters(10.0, 2.0, 1.0, 0.1)
    return SmoothedMixture(P, 1.0), SmoothedMixture(Q, 1.0)


@pytest.mark.parametrize("pair", [
    _two_point_pair(2.0, 128, 75), _two_point_pair(2.0, 1024, 609),
    _two_point_pair(2.0, 1024, 641), _two_point_pair(0.5, 128, 3),
    _t2_pair()], ids=["K2-n128-k75", "K2-n1024-k609", "K2-n1024-k641",
                      "K0.5-n128-k3", "t2-h10"])
def test_w2_within_documented_bound(pair):
    """At the default tol, W2^2 lies within tol + tail_bound of its value at
    tol 1e-12, and its quad_error covers that gap: the bound w2_squared
    documents, and the error estimate it reports, hold."""
    tol = 1e-9
    ev = transport.w2_squared(*pair, tol=tol)
    tight = transport.w2_squared(*pair, tol=1e-12)
    gap = abs(ev.total - tight.total)
    assert gap <= tol + ev.tail_bound
    assert ev.quad_error >= gap


def test_w2_sees_every_isolated_atom():
    """Atoms spread far wider than sigma each get seeds of their own: W2^2
    of 0.2 at 0, 10, 20, 30, 100 against a point mass at 0, both smoothed by
    sigma = 0.1, lies within the smoothing's reach of sum w_i x_i^2 = 2280,
    (sqrt(2280) - 2 sigma)^2 <= W2^2 <= 2280. Seeds around the first,
    middle and last atom only would leave 30 between the nodes of an
    accepted panel, and W2^2 near 2095."""
    sigma = 0.1
    A = SmoothedMixture(AtomicDistribution.from_weights(
        np.array([0.0, 10.0, 20.0, 30.0, 100.0]), np.full(5, 0.2)), sigma)
    B = SmoothedMixture(AtomicDistribution.from_weights(
        np.array([0.0]), np.array([1.0])), sigma)
    ev = transport.w2_squared(A, B)
    assert (math.sqrt(2280.0) - 2.0 * sigma) ** 2 <= ev.total <= 2280.0
    tight = transport.w2_squared(A, B, tol=1e-12)
    assert abs(ev.total - tight.total) <= 1e-9 + ev.tail_bound


def test_w2_across_deep_gap_stops_at_solver_noise():
    """Where T crosses the 14-unit gap of B the quantile solver leaves T
    loose by up to 0.03, so panels there cannot reach a prorated 1e-9; the
    integrand declares that noise and the quadrature stops at it instead of
    exhausting max_eval. The value agrees with the adaptive Simpson rule's
    recorded 235.41162910500347 (quad_error 3.28e-10, 531,681 evaluations)."""
    A = SmoothedMixture(AtomicDistribution.from_weights(
        np.linspace(-20.0, 17.0, 13), np.full(13, 1.0 / 13.0)), 1.0)
    B = SmoothedMixture(AtomicDistribution.from_weights(
        np.array([3.0, 17.5]), np.array([0.35, 0.65])), 0.7)
    ev = transport.w2_squared(A, B)
    assert abs(ev.total - 235.41162910500347) <= ev.quad_error + 3.28e-10
    assert ev.quad_error <= 1e-9 and ev.n_eval < 10_000


def test_quadrature_noise_floor():
    """An integrand that declares its evaluation noise is accepted at it;
    the same values without the declaration cannot converge."""
    rng = np.random.default_rng(0)

    def f(t):
        return np.exp(-t * t) + 1e-6 * rng.uniform(-1.0, 1.0, t.shape)

    res = _quad.adaptive_simpson(lambda t: (f(t), np.full(t.shape, 1e-6)),
                                 [-8.0, 0.0, 8.0], 1e-12)
    assert abs(res.total - math.sqrt(math.pi)) <= 16e-6
    assert res.n_eval < 1_000
    with pytest.raises(_quad.QuadratureError):
        _quad.adaptive_simpson(f, [-8.0, 0.0, 8.0], 1e-12, max_eval=100_000)


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64).tolist()


def _on_atoms(rng, locs, sigma, n_members):
    return [SmoothedMixture(AtomicDistribution.from_weights(
        locs, np.maximum(rng.dirichlet(np.full(locs.size, alpha)), 1e-12)),
        sigma) for alpha in rng.choice([0.05, 1.0, 50.0], n_members)]


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 40), st.integers(1, 6))
def test_tail_moment_rows_match_per_member_calls(seed, n_atoms, n_members):
    """One tail-moment call with a cut, a tail and a log-weight row per
    member gives the bits of one call per member, and each member's W2 tail
    bound is the sum over both tails of the per-member calls at its cuts."""
    rng = np.random.default_rng(seed)
    base = random_mixture(rng, n_atoms, float(rng.uniform(0.5, 1.5)),
                          span=max(4.0, n_atoms / 4.0))
    locs, sigma = base.base.locations, base.sigma
    ms = _on_atoms(rng, locs, sigma, n_members)
    member = rng.integers(0, n_members, 3 * n_members)
    cuts = rng.uniform(locs[0] - 12.0 * sigma, locs[-1] + 12.0 * sigma,
                       member.size)
    upper = rng.random(member.size) < 0.5
    rows = np.stack([m.base.log_weights for m in ms])[member]
    got = ms[0].log_tail_second_moment(cuts, upper, rows)
    want = [ms[j].log_tail_second_moment(float(c), bool(u))
            for j, c, u in zip(member, cuts, upper)]
    assert _bits(got) == _bits(want)

    # A has at least as many atoms as B, so _w2_members integrates over A
    As = ms if n_atoms >= 2 else _on_atoms(rng, np.array([-1.0, 1.0]), sigma,
                                           n_members)
    Bs = _on_atoms(rng, np.array([-0.5, 2.0]), 0.8, n_members)
    for a, b, ev in zip(As, Bs, transport._w2_members(As, Bs)):
        b_cuts = _deep_quantiles(b, None, 1)
        tail = 0.0
        for upper, a_cut, b_cut in ((False, ev.window[0], b_cuts[0][0]),
                                    (True, ev.window[1], b_cuts[1][0])):
            m2a = a.log_tail_second_moment(a_cut, upper)
            m2b = b.log_tail_second_moment(float(b_cut), upper)
            tail += (math.exp(0.5 * m2a) + math.exp(0.5 * m2b)) ** 2
        assert _bits(ev.tail_bound) == _bits(tail)
