import dataclasses
import math
import time

import pytest

from sotlab import (acceptance, concentration, constructions, divergences,
                    functional_ineq, tail_bounds, transport)
from sotlab.dist_core import EmpiricalMeasure, SmoothedMixture


@pytest.mark.parametrize("fn", acceptance.CRITERIA, ids=lambda f: f.__name__)
def test_criterion_full(fn):
    result = fn(quick=False, seed=acceptance.DEFAULT_SEED)
    assert result.passed, \
        f"criterion {result.criterion} ({result.name}): {result.detail}"


def test_quick_suite_under_two_minutes():
    start = time.monotonic()
    results = acceptance.run_all(quick=True, seed=acceptance.DEFAULT_SEED)
    elapsed = time.monotonic() - start
    assert all(r.passed for r in results), [
        (r.criterion, r.detail) for r in results if not r.passed]
    assert elapsed < 120.0, f"quick suite took {elapsed:.1f}s"


def test_coupling_oracle_quick_at_seed_26():
    # batch means of 20,000-sample sorted couplings gave |z| = 4.69 here:
    # that coupling overestimates W2^2 by O(1/N)
    result = acceptance.check_2_mc_coupling_oracle(quick=True, seed=26)
    assert result.passed, result.detail


# A known defect: with p = e^-8, all 50 quick trials at n = 128 draw no spike
# with probability (1 - e^-8)^(128 * 50) = 0.117 per seed. The early stop then
# takes the 50 equal values as converged, and fit_rate refuses the stderr-0
# point. Seed 25 is the first such seed; a mend of the MC rule, or an exact
# estimator, makes this pass.
@pytest.mark.xfail(strict=True, raises=ValueError,
                   reason="stderr 0 at n = 128: no trial drew the spike")
def test_criterion_4_quick_at_seed_25():
    assert acceptance.check_4_parametric_rate(quick=True, seed=25).passed


def test_run_all_records_a_raising_criterion(monkeypatch):
    """A criterion that raises is a failed result naming the exception, under
    its own number and name; the criteria after it still run."""
    def check_5_nonparametric_rate(quick, seed):
        raise RuntimeError("trial 3 failed: no convergence")
    monkeypatch.setattr(acceptance, "CRITERIA",
                        [check_5_nonparametric_rate,
                         acceptance.check_14_exponent_identities])
    raised, last = acceptance.run_all(quick=True, seed=1)
    assert (raised.criterion, raised.name, raised.passed) == \
        (5, acceptance.NAMES[5], False)
    assert raised.detail == "raised RuntimeError: trial 3 failed: no convergence"
    assert raised.seconds >= 0.0
    assert (last.criterion, last.passed) == (14, True)


def _planted_mi_defect(defect):
    """chi2_mutual_information with one known error: the two-point MI off by
    a relative 1e-5, or the deepest part of a many-atom MI set to 0."""
    real = divergences.chi2_mutual_information

    def wrong(p, sigma, tol=1e-9):
        est = real(p, sigma, tol)
        if defect == "two_point_mi_off" and p.n_atoms == 2:
            return dataclasses.replace(est, value=est.value * (1.0 + 1e-5))
        if defect == "deepest_part_zero" and p.n_atoms > 2:
            return dataclasses.replace(
                est, partial_by_atom=est.partial_by_atom[:-1] + (0.0,))
        return est
    return wrong


@pytest.mark.parametrize("defect", ["two_point_mi_off", "deepest_part_zero"])
def test_criterion_6_rejects_planted_defect(defect, monkeypatch):
    # (a) gates n E[chi2] = I_chi2 on the certified errors, ~5e-10 against
    # an MI of ~0.014; (b) gates every deep increment against a floor
    monkeypatch.setattr(divergences, "chi2_mutual_information",
                        _planted_mi_defect(defect))
    result = acceptance.check_6_chi2_mi_phase(quick=True,
                                              seed=acceptance.DEFAULT_SEED)
    assert not result.passed, result.detail


def test_criterion_13_reports_min_tail_slack():
    # e^(-l^2/2) - (1 - Phi(l)) over l in [0, 10] is least at l = 10 and
    # greatest (5.79e-01) at l = 0.4; the gate rests on the least
    result = acceptance.check_13_subgaussianity(quick=True,
                                                seed=acceptance.DEFAULT_SEED)
    assert result.passed, result.detail
    assert result.detail.endswith("tail check min slack 1.85e-22")


def _w2_off(real):
    def wrong(A, B, *args, **kwargs):
        ev = real(A, B, *args, **kwargs)
        return dataclasses.replace(ev, total=ev.total * (1.0 + 1e-5))
    return wrong


def _lsi_capped(real):
    cap = real(10.0, 2.0, 1.0).lsi_lower

    def wrong(h, K, sigma):
        probe = real(h, K, sigma)
        return dataclasses.replace(probe, lsi_lower=min(probe.lsi_lower, cap))
    return wrong


def _beta_off(real):
    return lambda K: real(K) * 1.25


def _t2_capped(real):
    cap = real(10.0, 2.0, 1.0, 0.1).log_ratio

    def wrong(h, K, sigma, delta):
        probe = real(h, K, sigma, delta)
        return dataclasses.replace(probe, log_ratio=min(probe.log_ratio, cap))
    return wrong


def _prefactor_ignored(real):
    def wrong(p, K, alpha_grid, centered=True, log_prefactor=0.0, tol=1e-9):
        return real(p, K, alpha_grid, centered=centered, tol=tol)
    return wrong


def _alpha_off(real):
    return lambda K, sigma: real(K, sigma) + 0.01


@pytest.mark.parametrize("criterion, module, name, plant", [
    (acceptance.check_1_closed_form_transport, transport, "w2_squared",
     _w2_off),
    # the measured ratios 0.638 and 0.639 sit 0.16 from beta = 0.8, against
    # a gate of +- 0.08
    (acceptance.check_9_tail_density_tightness, tail_bounds, "beta_exponent",
     _beta_off),
    # the bound saturates at its value at h = 10, K = 2, sigma = 1
    (acceptance.check_11_lsi_divergence, functional_ineq, "lsi_lower_bound",
     _lsi_capped),
    # the ratio saturates at its value at h = 10, K = 2, sigma = 1
    (acceptance.check_12_t2_divergence, functional_ineq, "t2_lower_bound",
     _t2_capped),
    # without its log 2 prefactor the schedule family's slack -6.18e-01
    # reads +7.5e-02, against tol 1e-9
    (acceptance.check_13_subgaussianity, constructions,
     "mgf_subgaussian_check", _prefactor_ignored),
    (acceptance.check_14_exponent_identities, tail_bounds, "alpha_exponent",
     _alpha_off),
], ids=["1_w2_off_1e-5", "9_beta_times_1.25", "11_lsi_capped",
        "12_t2_capped", "13_prefactor_ignored", "14_alpha_off_0.01"])
def test_criterion_rejects_planted_defect(criterion, module, name, plant,
                                          monkeypatch):
    """One library function with a known error; the quick criterion at the
    default seed must fail."""
    monkeypatch.setattr(module, name, plant(getattr(module, name)))
    result = criterion(quick=True, seed=acceptance.DEFAULT_SEED)
    assert not result.passed, result.detail


def _crossing_bound_times(factor):
    def plant(real):
        def wrong(A, B, t_grid):
            cb = real(A, B, t_grid)
            return dataclasses.replace(cb, log_value=cb.log_value + math.log(factor))
        return wrong
    return plant


def _w2_times(factor):
    def plant(real):
        def wrong(A, B, *args, **kwargs):
            ev = real(A, B, *args, **kwargs)
            return dataclasses.replace(ev, total=ev.total * factor)
        return wrong
    return plant


# The planted defects of criteria 3 and 10, fixed before any of them ran.
# Criterion 3: the crossing bound 1.5 times its value, and W2^2 half its
# value; either makes the bound exceed W2^2 where it was within a factor 1.5
# or 2 of it.
CRITERION_3_DEFECTS = {
    "bound_times_1.5": ("best_crossing_lower_bound", _crossing_bound_times(1.5)),
    "w2_halved": ("w2_squared", _w2_times(0.5)),
}


# Neither is caught (a known defect): each case's B is A shifted by 2.5 to
# 8, so W2^2 is the shift squared, at least 6.25, while the bound is a
# probability; the quick run's least margin W2^2 - bound is 11.1, and 5.5
# with W2^2 halved.
@pytest.mark.parametrize("defect", [
    pytest.param(d, marks=pytest.mark.xfail(
        strict=True, reason="W2^2 >= 6.25 on every case, the bound <= 1"))
    for d in sorted(CRITERION_3_DEFECTS)])
def test_criterion_3_rejects_planted_defect(defect, monkeypatch):
    name, plant = CRITERION_3_DEFECTS[defect]
    monkeypatch.setattr(transport, name, plant(getattr(transport, name)))
    result = acceptance.check_3_crossing_bound(quick=True,
                                               seed=acceptance.DEFAULT_SEED)
    assert not result.passed, result.detail


# Criterion 10's event {p^_h - p_h <= thr / factor} is a binomial deviation,
# with thr the event threshold and factor = Phi(t - h) - Phi(t) < 0. At the
# quick n = 790 and p_h = e^(-9/8) the threshold sits at z = -0.34, a
# frequency of about 0.37, against the gate 1/16 - 3 sd (about 0.02 at that
# frequency over 400 replications). The planted threshold is 4 or 8 times
# the real one, made by dividing factor (through concentration.ndtr) by 4
# or 8, which scales thr / factor alike. Predicted before running:
# times 4 puts it at z = -1.37, frequency ~0.085, which the gate passes;
# times 8 at z = -2.74, frequency ~0.003, which it fails.
@pytest.mark.parametrize("scale", [
    pytest.param(4.0, marks=pytest.mark.xfail(
        strict=True, reason="a 4x threshold leaves the event frequency "
                            "~0.085, above the 1/16 gate")),
    8.0,
], ids=["threshold_times_4", "threshold_times_8"])
def test_criterion_10_rejects_planted_defect_at_every_seed(scale, monkeypatch):
    real = concentration.ndtr
    monkeypatch.setattr(concentration, "ndtr", lambda x: real(x) / scale)
    passed = [seed for seed in range(20)
              if acceptance.check_10_berry_esseen(quick=True, seed=seed).passed]
    assert passed == []


def _bound_times(factor):
    def plant(real):
        return lambda n, delta: real(n, delta) * factor
    return plant


def _sample_moved(scale, shift):
    def plant(real):
        def wrong(self, n, seed):
            return EmpiricalMeasure(real(self, n, seed).samples * scale + shift)
        return wrong
    return plant


# The planted defects of criterion 8, fixed before any of them ran. Its gate
# is a violation rate of at most 0.1 over 100 replications of the weighted
# statistic sup |F - F_n| / sqrt(1/n v (F ^ (1 - F))) at n = 1024 against
# the N(0, 1) truth, with the bound 16 / sqrt(n) log(2n / delta) = 4.96
# (delta = 0.1). Under the truth the statistic is of order 0.1: about
# sqrt(2 log log n) / sqrt(n) in the body, and (k - n F(x_(k))) / sqrt(n)
# at the floor 1/n in the tails.
# - bound_times_0.25: weighted_concentration_bound a quarter of its value,
#   1.24. Predicted: passed at every seed, the statistic staying far below.
# - sample_shift_0.5: the n draws from N(0.5, 1). Predicted: passed at
#   every seed; the sup is about |Phi(0) - Phi(-0.5)| / sqrt(0.5) = 0.27.
# - sample_scale_2: the n draws from N(0, 4). Predicted: passed at every
#   seed; the sup is about 1.8, near t = -3 and 3.
# - sample_shift_5: the n draws from N(5, 1), a control. Predicted: rejected
#   at every seed; at t = 2.5 the statistic is about 0.99 / sqrt(0.0062),
#   12.5.
CRITERION_8_DEFECTS = {
    "bound_times_0.25": (concentration, "weighted_concentration_bound",
                         _bound_times(0.25)),
    "sample_shift_0.5": (SmoothedMixture, "sample", _sample_moved(1.0, 0.5)),
    "sample_scale_2": (SmoothedMixture, "sample", _sample_moved(2.0, 0.0)),
    "sample_shift_5": (SmoothedMixture, "sample", _sample_moved(1.0, 5.0)),
}


# As predicted, only the control is caught (a known defect): at seed 0 the
# statistic reads 0.04-0.12 under the truth, 0.33-0.48 with the shift 0.5,
# 1.6-2.5 with the scale 2 and about 31 with the shift 5, against 4.96.
_CRITERION_8_MISSED = {
    "bound_times_0.25": "the statistic, of order 0.1, stays below 1.24",
    "sample_shift_0.5": "the statistic, about 0.4, stays below 4.96",
    "sample_scale_2": "the statistic, about 2, stays below 4.96",
}


@pytest.mark.parametrize("defect", [
    pytest.param(d, marks=pytest.mark.xfail(strict=True,
                                            reason=_CRITERION_8_MISSED[d]))
    if d in _CRITERION_8_MISSED else d
    for d in sorted(CRITERION_8_DEFECTS)])
def test_criterion_8_rejects_planted_defect_at_every_seed(defect, monkeypatch):
    owner, name, plant = CRITERION_8_DEFECTS[defect]
    monkeypatch.setattr(owner, name, plant(getattr(owner, name)))
    passed = [seed for seed in range(20)
              if acceptance.check_8_weighted_concentration(quick=True,
                                                           seed=seed).passed]
    assert passed == []
