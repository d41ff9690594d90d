import math
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.integrate import quad

from sotlab import constructions as cons
from sotlab import divergences as dv
from sotlab import functional_ineq as fi
from sotlab.dist_core import AtomicDistribution, SmoothedMixture, logsumexp

from conftest import random_mixture, sample_and_truth


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


@pytest.mark.parametrize("distance", [18.0, 30.0])
def test_kl_sees_isolated_atom_past_many_atom_cluster(distance):
    """Next to a cluster of 64 atoms, seeded densely, a lone atom of weight
    1e-3 under A and 4e-3 under B, `distance` sigma from the cluster's
    mean, is still seen. The kernels of the two parts overlap by less than
    1e-13, and within the cluster A and B are proportional, so the KL is
    that of the two parts' weights."""
    x = np.sort(np.random.default_rng(3).normal(0.0, 1.0, 64))
    locs = np.append(x, x.mean() + distance)
    a, b = 1e-3, 4e-3
    A, B = (SmoothedMixture(AtomicDistribution.from_weights(
        locs, np.append(np.full(64, (1.0 - p) / 64), p)), 1.0) for p in (a, b))
    want = (1.0 - a) * math.log((1.0 - a) / (1.0 - b)) + a * math.log(a / b)
    assert abs(dv.kl_divergence(A, B) - want) <= 1e-9


@pytest.mark.parametrize("n", [512, 4096])
def test_many_atom_kl_within_tol(n):
    """On the dense seeds of a many-atom cluster, KL at the default tol lies
    within 10 tol of its tol-1e-13 value."""
    tol = 1e-10
    pair = sample_and_truth(n)
    got = dv.kl_divergence(*pair, tol=tol)
    assert abs(got - dv.kl_divergence(*pair, tol=1e-13)) <= 10 * tol


def test_many_atom_kl_evaluations():
    """The 4096-atom KL takes at most its recorded 300 evaluations, and at
    most a tenth of them lie in panels the quadrature bisected away."""
    A, B = sample_and_truth(4096)
    [res], *_ = dv._divergence_members([A], [B], dv._kl_integrand, 1e-10)
    assert res.n_eval <= 300
    assert res.n_eval - 15 * len(res.panel_edges) <= 0.1 * res.n_eval


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


def _full_range_quad(Y):
    # the quadrature the windows replace, as a stand-in for _mi_windows: one
    # window over all of [-Y, Y], so one adaptive_simpson per atom, in
    # v = y / sigma from 0, seeded with every atom's breakpoints
    def windows(p, sigma):
        d = -p.locations[:, None] / sigma
        return d, [np.unique(np.concatenate([[-Y / sigma, Y / sigma],
                                             (dv._MI_OFFSETS - d).ravel()]))]
    return windows


# The full-range MIs of chi2_hard_example(2, c, 10) at tol 1e-9, from the
# adaptive Simpson rule the Gauss-Kronrod rule replaced: (chi^2 value,
# Renyi part sum) with each one's error estimate and n_eval, over all of
# [-Y, Y], Y = max|r| + 16.4 sigma ~ 1.08e8. Over that range in y the
# Gauss-Kronrod rule raises QuadratureError:
# its panels near the deepest atom, at ~1.08e8, are prorated far below what
# float64 node positions there resolve (the windows integrate in offsets
# from their atoms, where the nodes are exact).
HARD_10_FULL_RANGE = (
    SimpleNamespace(value=8.981400816071798, partial_by_atom=None,
                    quadrature_error=2.4694442355406906e-15, n_eval=470955),
    SimpleNamespace(value=None, partial_by_atom=(1.001647647172033,),
                    quadrature_error=2.7739996431177532e-15, n_eval=429775))


@pytest.mark.parametrize("case", ["chi2_hard_4", "chi2_hard_10", "two_point",
                                  "random_spread"])
def test_windowed_mi_matches_full_range(case, monkeypatch):
    """The MIs integrated over the kernels' windows agree with the quadrature
    over all of [-Y, Y], a span past every window, within both error
    estimates plus the gap remainder, and stay within tol. Renyi is compared
    on its parts, w_k J_k, whose errors are what quadrature_error and
    gap_bound bound."""
    tol, sigma = 1e-9, 1.0
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
    Y = float(np.max(np.abs(p.locations))) + 17.0 * sigma
    d, seeds = dv._mi_windows(p, sigma)
    # each window's ends in y, from its reference atom, where d is 0
    for c, s in zip(p.locations[np.argmin(np.abs(d), axis=0)], seeds):
        assert -Y < c + sigma * s[0] and c + sigma * s[-1] < Y
    new = (dv.chi2_mutual_information(p, sigma, tol),
           dv.renyi_mutual_information(p, sigma, 1.5, tol))
    if case == "chi2_hard_10":
        ref = HARD_10_FULL_RANGE
    else:
        monkeypatch.setattr(dv, "_mi_windows", _full_range_quad(Y))
        ref = (dv.chi2_mutual_information(p, sigma, tol),
               dv.renyi_mutual_information(p, sigma, 1.5, tol))
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
    new = (dv.chi2_mutual_information(p, 1.0, tol),
           dv.renyi_mutual_information(p, 1.0, 1.5, tol))
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


@pytest.mark.parametrize("s", [100.0, -1e6, 1e8])
def test_mi_is_translation_invariant(s):
    """The MIs of atoms {s, s + 1} with weights 1/2 are those of {0, 1},
    within the certified error: each kernel is integrated over its own
    window, wherever the pair sits. Cut to |y| <= 10, the pair at s = 100
    lost both windows and read a chi^2 MI of 0 and a Renyi MI of -9484, each
    with a certified error of 4e-57."""
    def pair(x):
        return AtomicDistribution.from_weights(np.array([x, x + 1.0]),
                                               np.array([0.5, 0.5]))

    for mi, key in ((lambda p: dv.chi2_mutual_information(p, 1.0),
                     lambda e: e.value),
                    (lambda p: dv.renyi_mutual_information(p, 1.0, 1.5),
                     lambda e: sum(e.partial_by_atom))):
        got, want = mi(pair(s)), mi(pair(0.0))
        assert (abs(key(got) - key(want))
                <= got.quadrature_error + got.gap_bound)


def _far_pair():
    # weights 1/2 near 1e8, where float64 spacing is 1.5e-8
    return AtomicDistribution.from_weights(np.array([1e8, 1e8 + 1.0]),
                                           np.array([0.5, 0.5]))


def _mi_within_its_error(p, sigma, mi, want):
    """The chi^2 MI, or the Renyi MI at lam = 1.5, of p at sigma, checked
    against want within its certified error: that of the part sum for Renyi,
    which moves the value by about error / ((lam - 1) S). No floating-point
    overflow, invalid operation or division by zero may occur."""
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        est = (dv.chi2_mutual_information(p, sigma) if mi == "chi2"
               else dv.renyi_mutual_information(p, sigma, 1.5))
    S = sum(est.partial_by_atom)
    err = est.quadrature_error + est.gap_bound
    if mi == "renyi":
        err /= 0.5 * S
    assert np.isfinite(est.value) and est.n_eval > 0
    assert abs(est.value - want) <= err
    return est


@pytest.mark.parametrize("mi", ["chi2", "renyi"])
def test_mi_takes_a_sigma_below_the_spacing(mi):
    """At sigma = 1e-10 the atoms near 1e8 lie 1e10 sigma apart, and float64
    spacing there is 150 sigma: in y, each window r +- 16 sigma rounded to a
    point, and the MIs were refused. In units of sigma each kernel has its
    own window, and as the two do not overlap the chi^2 MI is 1 and the
    Renyi MI log 2."""
    _mi_within_its_error(_far_pair(), 1e-10, mi,
                         1.0 if mi == "chi2" else math.log(2.0))


@pytest.mark.parametrize("sigma", [1e-9, 3e-9, 1e-3, 0.05])
def test_renyi_mi_keeps_its_tol_at_small_sigma(sigma):
    """Each atom's Renyi integrand is scaled by e^-shift and its error by
    e^shift after. Measured in y, shift was above 0 below sigma ~ 0.4, and
    the summed error reached 1.7e-5 at sigma = 3e-9 against tol 1e-9 before
    each atom's tol was scaled down to match. In units of sigma shift is at
    most -log sqrt(2 pi), and the summed error stays within tol. The two
    kernels do not overlap, so the MI is log 2."""
    tol = 1e-9
    est = dv.renyi_mutual_information(_far_pair(), sigma, 1.5, tol)
    assert est.quadrature_error <= tol
    assert abs(est.value - math.log(2.0)) <= 1e-12


@pytest.mark.parametrize("mi", ["chi2", "renyi"])
@pytest.mark.parametrize("sigma", [1e-16, 1e-306])
def test_mi_of_one_atom_at_tiny_sigma(mi, sigma):
    """One atom's MIs are 0 at every sigma. In y, the Renyi MI raised
    QuadratureError at sigma = 1e-16, its panels below the quadrature's
    absolute width floor, and sigma = 1e-306, whose square is 0.0, was
    refused."""
    p = AtomicDistribution.from_weights(np.array([0.0]), np.array([1.0]))
    assert _mi_within_its_error(p, sigma, mi, 0.0).value == 0.0


@pytest.mark.parametrize("mi", ["chi2", "renyi"])
@pytest.mark.parametrize("sigma", [1e-160, 1.4e-154, 1.5e-154])
def test_mi_takes_a_sigma_whose_square_is_not_normal(mi, sigma):
    """The atoms {0, 1e-150} lie at least 6,000 sigma apart, so the chi^2 MI
    is 1 and the Renyi MI log 2. In y the kernels' exponents divided by
    sigma^2, which is subnormal below sigma = 1.49e-154: there the MIs were
    refused, and at sigma = 1e-160, before that refusal, the chi^2 MI had
    warned of an overflow in exp and both had raised QuadratureError."""
    p = AtomicDistribution.from_weights(np.array([0.0, 1e-150]),
                                        np.array([0.5, 0.5]))
    _mi_within_its_error(p, sigma, mi, 1.0 if mi == "chi2" else math.log(2.0))


@pytest.mark.parametrize("mi", ["chi2", "renyi"])
@pytest.mark.parametrize("case, sigma, want", [
    ("pair", 1e150, 0.0), ("pair", 1e153, 0.0), ("chi2_hard_10", 1e-170, 10.0)])
def test_mi_at_extreme_sigma(mi, case, sigma, want):
    """Finite values within their certified errors where, measured in y,
    the MIs raised or misread: {0, 1} at sigma = 1e150 (the Renyi MI read
    2.24e-13, beyond its error) and 1e153 ((16 sigma)^2 overflowed), and
    the hard example's 11 atoms at sigma = 1e-170, where the kernels are
    apart and the chi^2 MI is atoms - 1 = 10. At 1e-170 atom k's offset from
    the windows far from it is capped (_FAR), so that no relative exponent
    is inf - inf."""
    if case == "pair":
        p = AtomicDistribution.from_weights(np.array([0.0, 1.0]),
                                            np.array([0.5, 0.5]))
    else:
        p = cons.chi2_hard_example(2.0, cons.chi2_admissible_c(2.0), 10)
        if mi == "renyi":
            # apart, I_lam = log(sum_k w_k^(2 - lam)) / (lam - 1)
            want = 2.0 * float(logsumexp(0.5 * p.log_weights))
    _mi_within_its_error(p, sigma, mi, want)


@pytest.mark.parametrize("case", ["chi2_hard_4", "two_point", "random_spread"])
@pytest.mark.parametrize("s", [1e-150, 1e-20, 1e20, 1e150])
def test_mi_is_scale_invariant(case, s):
    """I(S; S + sigma N) = I(sS; sS + s sigma N): the MIs of p.scale(s) at
    s sigma are those of p at sigma within both certified errors (the part
    sum for Renyi)."""
    sigma = 1.0
    if case == "chi2_hard_4":
        p = cons.chi2_hard_example(2.0, cons.chi2_admissible_c(2.0), 4)
    elif case == "two_point":
        p = cons.bernoulli_two_point(2.0, 2.0)
    else:
        p = random_mixture(np.random.default_rng(11), 6, 0.8, 200.0).base
        sigma = 0.8
    for mi, key in ((lambda p, s: dv.chi2_mutual_information(p, s),
                     lambda e: e.value),
                    (lambda p, s: dv.renyi_mutual_information(p, s, 1.5),
                     lambda e: sum(e.partial_by_atom))):
        got, want = mi(p.scale(s), s * sigma), mi(p, sigma)
        slack = (got.quadrature_error + want.quadrature_error
                 + got.gap_bound + want.gap_bound)
        assert abs(key(got) - key(want)) <= slack


def test_renyi_mi_skips_atoms_whose_part_rounds_to_zero():
    """At sigma = 3 the parts of the hard example's atoms 4 to 10 are below
    e^-746, so +0.0. Their integrands e^(g - shift) have |g| up to ~5.5e5
    and round at ~1e-10 relative, so at tol 1e-10 atom 5 exhausted its
    evaluation budget and the MI raised QuadratureError. Those atoms are not
    integrated; the part sum agrees with the one at tol 1e-9 within both
    errors."""
    p = cons.chi2_hard_example(2.0, cons.chi2_admissible_c(2.0), 10)
    est = dv.renyi_mutual_information(p, 3.0, 1.5, 1e-10)
    loose = dv.renyi_mutual_information(p, 3.0, 1.5, 1e-9)
    assert est.partial_by_atom[4:] == (0.0,) * 7
    assert est.quadrature_error <= 1e-10
    assert est.n_eval < 6000
    slack = est.quadrature_error + loose.quadrature_error + est.gap_bound
    assert abs(sum(est.partial_by_atom) - sum(loose.partial_by_atom)) <= slack


def _log_mix_rel_by_points(log_w, v, d, w, k=None):
    # the (points x atoms) formula that the atom-major _log_mix reproduces:
    # point i's offsets d[:, w[i]]; with k, the log-ratio relative to atom k
    sq = (v[:, None] + d[:, w].T) ** 2
    if k is None:
        return logsumexp(log_w[None, :] + sq * -0.5, axis=1)
    delta = ((log_w[None, :] - log_w[k])
             + (sq[:, k:k + 1] - sq) * 0.5)
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
    monkeypatch.setattr(dv, "_log_mix", _log_mix_rel_by_points)
    assert got == bits()


def _mi_atom_quad_by_window(f, seeds, tol):
    # the reference _mi_atom_quad: the integrand called once per window per
    # round, on that window's points alone
    widths = np.array([s[-1] - s[0] for s in seeds])

    def by_window(v, member):
        out = np.empty(v.shape)
        for w in np.unique(member).tolist():
            sel = member == w
            out[sel] = f(v[sel], member[sel])
        return out

    res = dv._simpson_members(by_window, seeds, tol * widths / widths.sum())
    return (float(np.sum([r.total for r in res])),
            float(np.sum([r.error_estimate for r in res])),
            sum(r.n_eval for r in res))


@pytest.mark.parametrize("case", ["chi2_hard", "far_pair", "spread"])
def test_mi_keeps_the_by_window_bits(case, monkeypatch):
    """One integrand call per round for all of an atom's windows, each point
    with its own window, gives every bit of one call per window: value,
    parts, quadrature error and n_eval of both MIs."""
    if case == "chi2_hard":
        p = cons.chi2_hard_example(2.0, cons.chi2_admissible_c(2.0), 10)
    elif case == "far_pair":
        p = AtomicDistribution.from_weights(np.array([0.0, 1e6, 1e8]),
                                            np.array([0.5, 0.3, 0.2]))
    else:
        p = random_mixture(np.random.default_rng(11), 6, 0.8, 200.0).base

    def ests():
        return [(e.value, e.quadrature_error, e.n_eval, *e.partial_by_atom)
                for e in (dv.chi2_mutual_information(p, 1.0),
                          dv.renyi_mutual_information(p, 1.0, 1.5))]

    got = ests()
    monkeypatch.setattr(dv, "_mi_atom_quad", _mi_atom_quad_by_window)
    assert np.array_equal(np.array(got).view(np.int64),
                          np.array(ests()).view(np.int64))


def test_chi2_mi_margin_covers_the_window_reach(monkeypatch):
    """Atom 0's chi^2 integrand on atom 1's window, 1e9 sigma away, is its
    cross-free term w_0 rho wherever that is representable. There lphi - s
    cancels two squares of (v + 1e9), each rounded at its scale, so the
    test for recomputing from log rho needs a margin that grows with the
    window's reach, not with |v| alone."""
    lw = np.array([-700.0, math.log1p(-math.exp(-700.0))])
    p = AtomicDistribution(np.array([0.0, 1e9]), lw)
    fs = []

    def capture(f, seeds, tol):
        fs.append(f)
        return 0.0, 0.0, 0

    monkeypatch.setattr(dv, "_mi_atom_quad", capture)
    dv.chi2_mutual_information(p, 1.0)
    v = np.linspace(-16.0, 16.0, 200_001)
    got = fs[0](v, np.ones(v.size, dtype=int))
    want = np.exp(lw[0] + lw[1] - 0.5 * v * v - dv.LOG_SQRT_2PI)
    live = want > 0.0
    assert live.sum() > 100_000
    np.testing.assert_allclose(got[live], want[live], rtol=1e-9, atol=0.0)


@pytest.mark.parametrize("case", ["chi2_hard", "chi2_hard_offset", "random_0.3",
                                  "random_1", "random_3", "two_point"])
def test_log_mix_rel_matches_points_by_atoms(case):
    """Every bit of every atom's atom-major log-ratio, and of the log-sum, is
    that of the (points x atoms) formula, on a coarse grid over [-Y, Y] and
    a fine one around each atom; where one atom owns a point, both read
    -0.0. chi2_hard_offset takes the points as offsets from the deepest
    atom, as its MI window does."""
    c = 0.0
    if case.startswith("chi2_hard"):
        sigma = 1.0
        p = cons.chi2_hard_example(2.0, cons.chi2_admissible_c(2.0), 10)
        Y = float(np.max(np.abs(p.locations))) + 17.0 * sigma
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
    y = np.concatenate([np.linspace(-Y, Y, 4001),
                        (p.locations[:, None] - c
                         + np.linspace(-8.0, 8.0, 401) * sigma).ravel()])
    v = y[np.abs(y) <= Y] / sigma
    d = ((c - p.locations) / sigma)[:, None]
    w = np.zeros(v.size, dtype=int)
    for k in [*range(p.n_atoms), None]:
        got = dv._log_mix(p.log_weights, v, d, w, k)
        want = _log_mix_rel_by_points(p.log_weights, v, d, w, k)
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), k


@pytest.mark.parametrize("h", [10.0, 55.0])
def test_kl_by_differences_is_scale_free(h):
    """The T2 pair's KL from its weight differences, Q_h = P_h + (dq, -dq),
    is integrated in units of sigma: with the atoms scaled by sigma it keeps
    every bit of its sigma = 1 value, one window (h = 10) or two (h = 55)."""
    P, _, log_dq = fi.check_t2_parameters(h, 2.0, 1.0, 0.1)
    sign, log_delta = np.array([1.0, -1.0]), np.full(2, log_dq)
    want = dv._log_kl_by_differences(P, 1.0, sign, log_delta)
    assert math.isfinite(want)
    for s in (1e-170, 1e-20, 1e20, 1e150):
        P_s = cons.two_point(h * s, float(P.log_weights[1]))
        assert dv._log_kl_by_differences(P_s, s, sign, log_delta) == want, s


@pytest.mark.parametrize("locs, w, delta", [
    ([-1.3, 0.2, 1.1, 3.0], [0.1, 0.4, 0.3, 0.2], [0.05, -0.2, 0.1, 0.05]),
    # two windows, and an atom that Q does not move
    ([-1.3, 0.2, 40.0], [0.3, 0.5, 0.2], [-0.1, 0.0, 0.1]),
], ids=["one_window", "two_windows"])
def test_kl_by_differences_matches_kl_divergence(locs, w, delta):
    """On a pair with mixed-sign weight differences, the KL from the
    differences is the two-mixture KL."""
    p = AtomicDistribution.from_weights(np.array(locs), np.array(w))
    q = AtomicDistribution.from_weights(np.array(locs),
                                        np.array(w) + np.array(delta))
    with np.errstate(divide="ignore"):
        log_delta = np.log(np.abs(delta))
    got = math.exp(dv._log_kl_by_differences(p, 0.8, np.sign(delta),
                                             log_delta))
    want = dv.kl_divergence(SmoothedMixture(p, 0.8), SmoothedMixture(q, 0.8),
                            tol=1e-14)
    assert abs(got - want) <= 1e-9 * want


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
