import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import integrate

from sotlab import functional_ineq as fi, transport
from sotlab.dist_core import (LOG_MASS_EPS, SmoothedMixture, log1mexp,
                              logsumexp)


def test_lsi_partition_sums_to_one():
    probe = fi.lsi_lower_bound(10.0, 2.0, 1.0)
    assert abs(logsumexp(probe.log_q)) <= 1e-12
    assert len(probe.log_q) == 3     # (-inf, x2], (x2, x2+1], (x2+1, inf)
    with pytest.raises(ValueError, match="partition"):
        fi.LSIProbe(h=10.0, x2=probe.x2, log_q=(probe.log_q[0], 0.0, 0.0),
                    lsi_lower=probe.lsi_lower)


def test_lsi_bound_grows_with_h():
    vals = [fi.lsi_lower_bound(h, 2.0, 1.0).lsi_lower
            for h in (5.0, 10.0, 15.0, 20.0)]
    assert all(y > x for x, y in zip(vals, vals[1:]))
    # growth is super-polynomial: successive ratios keep increasing
    ratios = [y / x for x, y in zip(vals, vals[1:])]
    assert all(r > 2.0 for r in ratios[1:])


def test_lsi_deterministic_and_flags():
    a = fi.lsi_lower_bound(12.0, 2.0, 1.0)
    b = fi.lsi_lower_bound(12.0, 2.0, 1.0)
    assert a.lsi_lower == b.lsi_lower
    assert a.x2_separated            # x2 = h sqrt(sigma/K) < h - 1
    assert a.x2 == 12.0 * math.sqrt(0.5)


def test_lsi_guards():
    with pytest.raises(ValueError):
        fi.lsi_lower_bound(80.0, 2.0, 1.0)     # h-atom weight underflows
    with pytest.raises(ValueError):
        fi.lsi_lower_bound(1e-9, 2.0, 1.0)     # h-atom weight rounds to 1


def test_t2_ratio_grows_with_h():
    probes = [fi.t2_lower_bound(h, 2.0, 1.0, 0.1) for h in (10.0, 20.0, 30.0)]
    log_ratios = [p.log_ratio for p in probes]
    assert log_ratios[0] > 0.0
    assert all(y > x for x, y in zip(log_ratios, log_ratios[1:]))
    assert log_ratios[-1] - log_ratios[0] >= math.log(10.0)


def test_lsi_bound_keeps_growing_to_the_end_of_the_h_range():
    # P_h is built from log p_h, so the subnormal h-atom of h = 77 (log p_h
    # = -741.125 at K = 2) still counts, and the x1 -> -inf limit does not
    # cap the bound
    vals = [fi.lsi_lower_bound(h, 2.0, 1.0).lsi_lower
            for h in (60.0, 68.0, 70.0, 77.0)]
    assert all(y > x for x, y in zip(vals, vals[1:]))
    assert math.isfinite(vals[-1])


def test_t2_kl_dominated_by_discrete():
    for h in (10.0, 20.0, 30.0):
        p = fi.t2_lower_bound(h, 2.0, 1.0, 0.1)
        P, _, log_dq = fi.check_t2_parameters(h, 2.0, 1.0, 0.1)
        kl_discrete = fi.discrete_two_point_kl(math.exp(P.log_weights[1]),
                                               math.exp(log_dq))
        assert p.log_kl <= math.log(kl_discrete) + 1e-6


@pytest.mark.parametrize("h", [10.0, 20.0, 30.0, 60.0, 77.0])
def test_t2_kl_below_discrete_chi2(h):
    # KL(P_h*N || Q_h*N) <= KL(P_h || Q_h) <= chi2(P_h || Q_h)
    #                     = dq^2 / (q_h (1 - q_h)), certified at any h
    p = fi.t2_lower_bound(h, 2.0, 1.0, 0.1)
    _, _, log_dq = fi.check_t2_parameters(h, 2.0, 1.0, 0.1)
    log_chi2 = 2.0 * log_dq - p.log_q_h - float(log1mexp(p.log_q_h))
    assert math.isfinite(p.log_kl) and p.log_kl <= log_chi2


def test_t2_kl_matches_independent_quadrature_at_h55():
    # At h = 55 (K = 2, delta = 0.1) the KL is ~1e-298. |u| <= dq/p_h ~ e^-153,
    # so u - log(1+u) = u^2/2 to far below double precision, and the KL
    # divided by the scale 2 dq^2/p_h is p_h/4 int (phi_0 - phi_h)^2 / rho_P,
    # here integrated by scipy from log-densities.
    h = 55.0
    P, _, log_dq = fi.check_t2_parameters(h, 2.0, 1.0, 0.1)
    lp0, log_p = map(float, P.log_weights)
    log_scale = math.log(2.0) + 2.0 * log_dq - log_p
    c = -0.5 * math.log(2.0 * math.pi)

    def f(y):
        e0, eh = c - 0.5 * y * y, c - 0.5 * (y - h) ** 2
        log_rho = np.logaddexp(lp0 + e0, log_p + eh)
        log_diff = max(e0, eh) + math.log(-math.expm1(-abs(e0 - eh)))
        return math.exp(log_p + 2.0 * log_diff - log_rho - math.log(4.0))

    ref = sum(integrate.quad(f, a, b, epsabs=1e-13, epsrel=1e-13, limit=200)[0]
              for a, b in ((-20.0, 0.0), (0.0, 0.5 * h), (0.5 * h, h),
                           (h, h + 20.0)))
    got = math.exp(fi.t2_lower_bound(h, 2.0, 1.0, 0.1).log_kl - log_scale)
    assert abs(got - ref) <= 1e-9      # the quadrature's absolute target


def test_t2_ratio_consistency_and_method():
    p = fi.t2_lower_bound(20.0, 2.0, 1.0, 0.1)
    assert p.log_ratio == p.log_w2sq - p.log_kl
    assert p.method in ("quadrature", "crossing")
    q = fi.t2_lower_bound(10.0, 2.0, 1.0, 0.1)
    assert q.method == "quadrature"      # certified transport cost at small h


# Known defect: from h = 26 Q_h's weights round to P_h's, and the probe
# decides the crossing premise F_Q(t) >= F_P(t + 2) by comparing two rounded
# log-CDFs. In 300-digit arithmetic the premise fails at h = 30 and 40, and
# from h = 35 the reported bound exceeds h^2 dq.
@pytest.mark.xfail(strict=True, reason="crossing premise decided by rounding")
def test_t2_w2_bound_within_unsmoothed_cost():
    """No W2^2 of the smoothed pair exceeds h^2 dq, the cost of moving dq
    of mass from h to 0 before smoothing."""
    h = 35.0
    _, _, log_dq = fi.check_t2_parameters(h, 2.0, 1.0, 0.1)
    assert fi.t2_lower_bound(h, 2.0, 1.0, 0.1).log_w2sq <= \
        math.log(h * h) + log_dq


def test_t2_deterministic():
    a = fi.t2_lower_bound(20.0, 2.0, 1.0, 0.1)
    b = fi.t2_lower_bound(20.0, 2.0, 1.0, 0.1)
    assert (a.log_w2sq, a.log_kl, a.log_ratio) == \
        (b.log_w2sq, b.log_kl, b.log_ratio)


@pytest.mark.parametrize("sigma", [1e-170, 1e-20, 1e20, 1e150])
def test_t2_parameters_are_scale_free(sigma):
    """The perturbation condition and log dq are taken on h/sigma, so the
    pair at h = 10 sigma, K = 2 sigma passes at any sigma, with its sigma = 1
    log dq and weights."""
    P1, Q1, want = fi.check_t2_parameters(10.0, 2.0, 1.0, 0.1)
    P, Q, log_dq = fi.check_t2_parameters(10.0 * sigma, 2.0 * sigma, sigma, 0.1)
    assert math.isclose(log_dq, want, rel_tol=1e-14)
    np.testing.assert_allclose(P.log_weights, P1.log_weights, rtol=1e-14)
    np.testing.assert_allclose(Q.log_weights, Q1.log_weights, rtol=1e-14)


def test_t2_guards():
    with pytest.raises(ValueError):
        fi.t2_lower_bound(10.0, 0.5, 1.0, 0.1)     # requires K > sigma


def test_t2_noise_bound_only_where_it_can_certify(monkeypatch):
    """The probe computes the W2 noise bound only where the coupling
    certifies without it (h = 10 of criterion 12's 10, 20, 30, and not at
    55), and at each h takes the value the full decision gives: the
    coupling's log W2^2 where it certifies with the noise bound computed
    in every case, else the crossing bound."""
    calls = []
    noise_bound = transport._noise_bound

    def spy(*args):
        calls.append(args)
        return noise_bound(*args)

    for h in (10.0, 20.0, 30.0, 55.0):
        calls.clear()
        with monkeypatch.context() as mp:
            mp.setattr(transport, "_noise_bound", spy)
            probe = fi.t2_lower_bound(h, 2.0, 1.0, 0.1)
        assert len(calls) == (1 if h == 10.0 else 0), h
        P, Q, _ = fi.check_t2_parameters(h, 2.0, 1.0, 0.1)
        mP, mQ = SmoothedMixture(P, 1.0), SmoothedMixture(Q, 1.0)
        # P and Q have two atoms each: w2_squared integrates over mP
        ev = transport.w2_squared(mP, mQ)
        ev = replace(ev, noise_bound=transport._noise_bound(mP, mQ, *ev.window))
        if ev.certified():
            want = (math.log(ev.total), "quadrature")
        else:
            best = transport.best_crossing_lower_bound(
                mQ, mP, np.linspace(0.25 * h, h, 41))
            want = (best.log_value, "crossing")
        assert (probe.log_w2sq, probe.method) == want, h


def _t2_always_quadrature(h, K, sigma, delta):
    # the probe with the coupling's quadrature run at every h
    P, Q, log_dq = fi.check_t2_parameters(h, K, sigma, delta)
    log_kl = fi.divergences._log_kl_by_differences(
        P, sigma, np.array([1.0, -1.0]), np.full(2, log_dq))
    mP, mQ = SmoothedMixture(P, sigma), SmoothedMixture(Q, sigma)
    ev = transport.w2_squared(mP, mQ, with_noise_bound=True)
    if ev.certified():
        log_w2sq, method = math.log(ev.total), "quadrature"
    else:
        best = transport.best_crossing_lower_bound(
            mQ, mP, np.linspace(0.25 * h, h, 41))
        if not best.applicable:
            raise RuntimeError("no certified W2 value and no applicable "
                               "crossing bound")
        log_w2sq, method = best.log_value, "crossing"
    return fi.T2Probe(h=h, delta=delta, log_q_h=float(Q.log_weights[1]),
                      log_w2sq=log_w2sq, log_kl=log_kl,
                      log_ratio=log_w2sq - log_kl, method=method)


def test_t2_skips_only_quadratures_that_cannot_certify():
    """Where h^2 dq, a bound on W2^2, is at most ten times the tail bound,
    the probe takes the crossing bound without the coupling's quadrature.
    On h = 5 ... 57.5 in steps of 0.5, 55.9, 57.2 and 77 (K = 2, sigma = 1,
    delta = 0.1) every field, or the exception, is that of the probe that
    always runs it; so it is at h = 10, 20 and 30 sigma for sigma = 1e-170,
    where the tail bound underflows to 0.0."""
    def outcome(probe, h, sigma=1.0):
        try:
            return repr(probe(h * sigma, 2.0 * sigma, sigma, 0.1))
        except Exception as exc:
            return type(exc).__name__, str(exc)

    hs = [5.0 + 0.5 * i for i in range(106)] + [55.9, 57.2, 77.0]
    for h in hs:
        assert outcome(fi.t2_lower_bound, h) == \
            outcome(_t2_always_quadrature, h), h
    for h in (10.0, 20.0, 30.0):
        assert outcome(fi.t2_lower_bound, h, 1e-170) == \
            outcome(_t2_always_quadrature, h, 1e-170), h


def test_t2_runs_one_quadrature_on_one_pair_of_sides(monkeypatch):
    """Criterion 12's probes run the W2 quadrature at h = 10 alone, and each
    solves the deep quantiles of its two sides once, for the skip test and
    the quadrature both."""
    quads, deep = [], []
    integrate = transport._integrate_members
    quantile = SmoothedMixture.quantile_from_log_mass

    def spy_quad(*args):
        quads.append(args)
        return integrate(*args)

    def spy_quantile(self, log_mass, *args, **kwargs):
        if np.all(np.asarray(log_mass) == LOG_MASS_EPS):
            deep.append(log_mass)
        return quantile(self, log_mass, *args, **kwargs)

    monkeypatch.setattr(transport, "_integrate_members", spy_quad)
    monkeypatch.setattr(SmoothedMixture, "quantile_from_log_mass", spy_quantile)
    for h in (10.0, 20.0, 30.0):
        quads.clear()
        deep.clear()
        fi.t2_lower_bound(h, 2.0, 1.0, 0.1)
        assert len(quads) == (1 if h == 10.0 else 0), h
        assert len(deep) == 2, h
