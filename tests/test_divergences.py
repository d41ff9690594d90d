import math
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.integrate import quad

from sotlab import constructions as cons
from sotlab import divergences as dv
from sotlab._quad import adaptive_simpson
from sotlab.dist_core import AtomicDistribution, SmoothedMixture, logsumexp

from conftest import random_mixture


def gaussians(d):
    a = SmoothedMixture(AtomicDistribution.from_weights(
        np.array([0.0]), np.array([1.0])), 1.0)
    b = SmoothedMixture(AtomicDistribution.from_weights(
        np.array([d]), np.array([1.0])), 1.0)
    return a, b


def kl_mi_oracle(p, sigma):
    locs, ws = p.locations, p.weights()

    def f(y):
        phis = np.exp(-0.5 * ((y - locs) / sigma) ** 2) / (
            sigma * math.sqrt(2 * math.pi))
        rho = ws @ phis
        return sum(w * ph * math.log(ph / rho)
                   for w, ph in zip(ws, phis) if w > 0 and ph > 0)

    lo = locs.min() - 10 * sigma
    hi = locs.max() + 10 * sigma
    return quad(f, lo, hi, limit=200)[0]


def test_gaussian_closed_forms():
    a, b = gaussians(2.0)
    assert math.isclose(dv.kl_divergence(a, b), 2.0, rel_tol=1e-9)
    assert math.isclose(dv.chi2_divergence(a, b), math.exp(4.0) - 1.0,
                        rel_tol=1e-8)


def test_nonnegative_and_zero_iff_equal(rng):
    m = random_mixture(rng)
    assert abs(dv.kl_divergence(m, m)) <= 1e-12
    assert abs(dv.chi2_divergence(m, m)) <= 1e-12
    pert = SmoothedMixture(m.base.shift(0.01), m.sigma)
    assert dv.kl_divergence(m, pert) > 0
    assert dv.chi2_divergence(m, pert) > 0


def test_mi_single_atom_zero():
    p = AtomicDistribution.from_weights(np.array([3.0]), np.array([1.0]))
    assert dv.chi2_mutual_information(p, 1.0).value <= 1e-12
    assert dv.renyi_mutual_information(p, 1.0, 1.5).value <= 1e-9


def test_mi_monotone_in_radius():
    p = AtomicDistribution.from_weights(np.array([0.0, 1.0]),
                                        np.array([0.5, 0.5]))
    vals = [dv.chi2_mutual_information(p, 1.0, truncation_radius=r).value
            for r in (3.0, 6.0, 12.0)]
    assert all(y >= x - 1e-12 for x, y in zip(vals, vals[1:]))


@pytest.mark.parametrize("K", [0.5, 2.0])
@pytest.mark.parametrize("n", [8, 16, 64])
def test_expected_chi2_is_chi2_mi_over_n(K, n):
    """E[chi2(P_n*N || P*N)] = I_chi2(P, sigma) / n at every n: rho_n - rho
    is a mean of n iid zero-mean kernels. For two-point P the expectation is
    the binomial sum over the k/n mass on the h-atom, every k included; k = 0
    and k = n give one-atom measures. The gate adds the quadrature targets:
    1e-10 per chi2 term (times n) and 1e-9 for the MI."""
    h, sigma = 2.0, 1.0
    P = cons.bernoulli_two_point(h, K)
    p = math.exp(P.log_weights[1])
    rho = SmoothedMixture(P, sigma)
    expected = 0.0
    for k in range(n + 1):
        if k in (0, n):
            Pk = AtomicDistribution.from_weights(np.array([h * k / n]),
                                                 np.array([1.0]))
        else:
            Pk = cons.two_point(h, math.log(k / n))
        pmf = math.comb(n, k) * p ** k * (1.0 - p) ** (n - k)
        expected += pmf * dv.chi2_divergence(SmoothedMixture(Pk, sigma), rho)
    mi = dv.chi2_mutual_information(P, sigma).value
    assert abs(n * expected - mi) <= n * 1e-10 + 1e-9


def test_renyi_mi_matches_kl_oracle_near_one():
    p = AtomicDistribution.from_weights(np.array([0.0, 0.5]),
                                        np.array([0.5, 0.5]))
    oracle = kl_mi_oracle(p, 1.0)
    got = dv.renyi_mutual_information(p, 1.0, 1.001).value
    assert abs(got - oracle) <= 1e-2 * (1 + oracle)


def test_kl_sees_every_isolated_atom():
    """Atoms 10 to 100 sigma apart overlap by less than 1e-20, so the KL of
    the smoothed measures is that of the weights; every atom must be seen
    by the quadrature, not only the first, middle and last."""
    locs = np.array([0.0, 10.0, 20.0, 30.0, 100.0])
    w = np.full(5, 0.2)
    v = np.array([0.4, 0.1, 0.1, 0.1, 0.3])
    A = SmoothedMixture(AtomicDistribution.from_weights(locs, w), 0.1)
    B = SmoothedMixture(AtomicDistribution.from_weights(locs, v), 0.1)
    assert abs(dv.kl_divergence(A, B) - float(np.sum(w * np.log(w / v)))) <= 1e-9


def test_hard_example_increments_do_not_decay():
    c = cons.chi2_admissible_c(2.0)
    hard = cons.chi2_hard_example(2.0, c, 6)
    parts = dv.chi2_mutual_information(hard, 1.0).partial_by_atom
    assert all(parts[k] >= 0.5 * parts[2] for k in range(3, 7))
    # deep-atom increments approach 1 (each atom resolvable from the noise)
    assert all(abs(parts[k] - 1.0) <= 1e-6 for k in range(3, 7))


def test_renyi_mi_deep_atoms_finite():
    c = cons.chi2_admissible_c(2.0)
    hard = cons.chi2_hard_example(2.0, c, 8)
    est = dv.renyi_mutual_information(hard, 1.0, 1.5)
    assert np.isfinite(est.value) and est.value >= 0


def _full_range_quad(f, bp, windows, locs, tol):
    # the quadrature the windows replace: one adaptive_simpson over all of
    # [-R, R] per atom, in y itself
    res = adaptive_simpson(lambda y: f(y, 0.0), bp, tol)
    return res.total, res.error_estimate, res.n_eval


# The full-range MIs of chi2_hard_example(2, c, 10) at tol 1e-9, from the
# adaptive Simpson rule the Gauss-Kronrod rule replaced: (chi^2 value,
# Renyi part sum) with each one's error estimate and n_eval. Over all of
# [-R, R] in y, R ~ 1.08e8, the Gauss-Kronrod rule raises QuadratureError:
# its panels near the deepest atom, at ~1.08e8, are prorated far below what
# float64 node positions there resolve (the windows integrate in offsets
# from their atoms, where the nodes are exact).
HARD_10_FULL_RANGE = (
    SimpleNamespace(value=8.981400816071798, partial_by_atom=None,
                    quadrature_error=2.4694442355406906e-15, n_eval=470955),
    SimpleNamespace(value=None, partial_by_atom=(1.001647647172033,),
                    quadrature_error=2.7739996431177532e-15, n_eval=429775))


@pytest.mark.parametrize("case", ["chi2_hard_4", "chi2_hard_10", "two_point",
                                  "random_spread", "radius_cuts_window"])
def test_windowed_mi_matches_full_range(case, monkeypatch):
    """The MIs integrated over the kernels' windows agree with the full-range
    quadrature within both error estimates plus the gap remainder, and stay
    within tol. Renyi is compared on its parts, w_k J_k, whose errors are
    what quadrature_error and gap_bound bound."""
    tol, sigma, radius = 1e-9, 1.0, None
    c = cons.chi2_admissible_c(2.0)
    if case == "chi2_hard_4":
        p = cons.chi2_hard_example(2.0, c, 4)
    elif case == "chi2_hard_10":
        p = cons.chi2_hard_example(2.0, c, 10)
    elif case == "two_point":
        p = cons.bernoulli_two_point(2.0, 0.5)
    elif case == "random_spread":
        p = random_mixture(np.random.default_rng(11), 6, 0.8, 200.0).base
        sigma = 0.8
    else:
        # ends inside the third window, [460.0, 492.0]
        p, radius = cons.chi2_hard_example(2.0, c, 4), 480.0
    R = radius or dv._default_radius(p, sigma, tol)
    assert dv._mi_windows(p, sigma, R)[1] > 0.0
    new = (dv.chi2_mutual_information(p, sigma, radius, tol),
           dv.renyi_mutual_information(p, sigma, 1.5, radius, tol))
    if case == "chi2_hard_10":
        ref = HARD_10_FULL_RANGE
    else:
        monkeypatch.setattr(dv, "_mi_atom_quad", _full_range_quad)
        ref = (dv.chi2_mutual_information(p, sigma, radius, tol),
               dv.renyi_mutual_information(p, sigma, 1.5, radius, tol))
    for got, want, key in zip(new, ref, (lambda e: e.value,
                                         lambda e: sum(e.partial_by_atom))):
        assert 0.0 < got.gap_bound < 1e-50
        assert got.quadrature_error + got.gap_bound <= tol
        slack = got.quadrature_error + want.quadrature_error + got.gap_bound
        assert abs(key(got) - key(want)) <= slack
        assert got.n_eval < want.n_eval


@pytest.mark.parametrize("tol", [1e-11, 1e-12, 1e-13])
def test_hard_example_mi_at_tight_tol(tol):
    """The windows of the atoms at 1.4e7 and 1.08e8 converge at tolerances
    far below what float64 node positions at |y| ~ 1e8 resolve, and agree
    with the recorded full-range values within both error estimates."""
    p = cons.chi2_hard_example(2.0, cons.chi2_admissible_c(2.0), 10)
    new = (dv.chi2_mutual_information(p, 1.0, None, tol),
           dv.renyi_mutual_information(p, 1.0, 1.5, None, tol))
    for got, want, key in zip(new, HARD_10_FULL_RANGE,
                              (lambda e: e.value,
                               lambda e: sum(e.partial_by_atom))):
        assert got.quadrature_error + got.gap_bound <= tol
        slack = got.quadrature_error + want.quadrature_error + got.gap_bound
        assert abs(key(got) - key(want)) <= slack


@pytest.mark.parametrize("far", [1e3, 1e6, 1e8])
def test_mi_of_two_far_atoms(far):
    """Two atoms of weight 1/2 at 0 and far >> sigma: each kernel sees the
    other as noise-free, so the chi^2 MI is 1 and the Renyi MI log 2, to
    far below tol. The chi^2 integrand of one atom in the other's window is
    w_k rho; built as phi_k e^(-s) it would cancel two (far / sigma)^2
    terms and come out 1.24 at far = 1e8."""
    p = AtomicDistribution.from_weights(np.array([0.0, far]), np.array([0.5, 0.5]))
    chi2 = dv.chi2_mutual_information(p, 1.0)
    renyi = dv.renyi_mutual_information(p, 1.0, 1.5)
    assert abs(chi2.value - 1.0) <= chi2.quadrature_error + chi2.gap_bound
    assert abs(renyi.value - math.log(2.0)) <= 1e-12


def test_mi_without_gaps_has_no_gap_bound():
    """With one window over all of [-R, R] nothing is left out, and doubling
    a radius that already holds every window changes no bit."""
    p = cons.bernoulli_two_point(2.0, 0.5)
    e1 = dv.chi2_mutual_information(p, 1.0, truncation_radius=10.0)
    assert dv._mi_windows(p, 1.0, 10.0) == ([(-10.0, 10.0)], 0.0)
    assert e1.gap_bound == 0.0
    e2 = dv.chi2_mutual_information(p, 1.0)
    e3 = dv.chi2_mutual_information(p, 1.0,
                                    truncation_radius=2 * e2.truncation_radius)
    assert e2.value == e3.value and e2.gap_bound > 0.0


def _log_mix_rel_by_points(p, sigma, k, u, c=0.0):
    # the (points x atoms) formula that the atom-major _log_mix_rel reproduces
    rk = p.locations[k]
    lwk = p.log_weights[k]
    delta = ((p.log_weights[None, :] - lwk)
             + ((u[:, None] + (c - rk)) ** 2
                - (u[:, None] + (c - p.locations[None, :])) ** 2)
             / (2.0 * sigma * sigma))
    return -logsumexp(delta, axis=1)


def test_mi_keeps_the_points_by_atoms_bits(monkeypatch):
    """With 8 or more atoms the atom-major log-sum runs its 8-partial-sum
    order; value, every part and the quadrature error keep their bits."""
    c = cons.chi2_admissible_c(2.0)
    hard = cons.chi2_hard_example(2.0, c, 10)
    spread = AtomicDistribution.from_weights(
        np.array([-3.1, -1.7, -0.9, -0.2, 0.4, 1.1, 1.8, 2.6, 4.0]),
        np.array([0.05, 0.2, 0.1, 0.15, 0.1, 0.12, 0.08, 0.15, 0.05]))
    assert hard.n_atoms == 11

    def bits():
        ests = (dv.chi2_mutual_information(hard, 1.0),
                dv.renyi_mutual_information(spread, 0.8, 1.5))
        return [np.array([e.value, e.quadrature_error, *e.partial_by_atom])
                .view(np.int64).tolist() for e in ests]

    got = bits()
    monkeypatch.setattr(dv, "_log_mix_rel", _log_mix_rel_by_points)
    assert got == bits()


def _edge_straddle(e, Y):
    # 64 floats on each side of e, then offsets from 1e-15 |e| to 10 |e|,
    # kept inside [-Y, Y] so the grid's max |y| (and so the ends) stays put
    walk = [e]
    for toward in (-np.inf, np.inf):
        x = e
        for _ in range(64):
            x = np.nextafter(x, toward)
            walk.append(x)
    off = np.logspace(-15, 1, 161) * max(1.0, abs(e))
    pts = np.concatenate([walk, e - off, e + off])
    return pts[np.abs(pts) <= Y]


@pytest.mark.parametrize("case", ["chi2_hard", "chi2_hard_offset", "random_0.3",
                                  "random_1", "random_3", "two_point"])
def test_log_mix_rel_skips_only_what_it_would_compute(case):
    """Points an atom provably owns get -0.0 without the log-sum; every bit
    of every atom's log-ratio is that of the (points x atoms) formula, on
    dense grids across both ends of each owned interval. chi2_hard_offset
    takes the points as offsets from the deepest atom, as its MI window
    does."""
    c = 0.0
    if case.startswith("chi2_hard"):
        sigma = 1.0
        p = cons.chi2_hard_example(2.0, cons.chi2_admissible_c(2.0), 10)
        Y = dv._default_radius(p, sigma, 1e-9)
    elif case == "two_point":
        p, sigma = cons.bernoulli_two_point(2.0, 0.5), 1.0
        Y = 2.0 + 1000.0 * sigma
    else:
        sigma = float(case.split("_")[1])
        p = random_mixture(np.random.default_rng(7), 7, sigma, 40.0 * sigma).base
        Y = float(np.max(np.abs(p.locations))) + 1000.0 * sigma
    if case == "chi2_hard_offset":
        c = float(p.locations[-1])
        Y = 100.0 * sigma
    # a coarse grid over [-Y, Y] and a fine one around each atom
    base = np.concatenate([np.linspace(-Y, Y, 4001),
                           (p.locations[:, None] - c
                            + np.linspace(-8.0, 8.0, 401) * sigma).ravel()])
    base = base[np.abs(base) <= Y]
    for k in range(p.n_atoms):
        lo, hi = dv._owned_interval(p, sigma, k, base, c)
        y = np.concatenate([base] + [_edge_straddle(e, Y) for e in (lo, hi)
                                     if np.isfinite(e)])
        assert dv._owned_interval(p, sigma, k, y, c) == (lo, hi)
        got = dv._log_mix_rel(p, sigma, k, y, c)
        want = _log_mix_rel_by_points(p, sigma, k, y, c)
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), k
        if case == "chi2_hard" and k >= 4 or case == "chi2_hard_offset" and k == 10:
            assert np.any((y > lo) & (y < hi)), k


def test_lambda_guards(rng):
    p = random_mixture(rng).base
    with pytest.raises(ValueError):
        dv.renyi_mutual_information(p, 1.0, 2.0)
    with pytest.raises(ValueError):
        dv.soft_covering_kl_bound(1.0, 1.0, 100)
    with pytest.raises(ValueError):
        dv.soft_covering_kl_bound(1.0, 2.0, 1)


def test_soft_covering_monotone_in_n():
    vals = [dv.soft_covering_kl_bound(3.0, 1.9, n) for n in (4, 64, 1024)]
    assert all(y < x for x, y in zip(vals, vals[1:]))
    # softplus form stays positive and finite
    assert all(0 < v < 10 for v in vals)
