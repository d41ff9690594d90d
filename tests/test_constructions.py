import math
import warnings

import numpy as np
import pytest
from scipy.special import logsumexp

from sotlab import constructions as cons


def test_two_point_weights():
    p = cons.bernoulli_two_point(2.0, 1.0)
    assert p.n_atoms == 2
    np.testing.assert_allclose(p.weights()[1], math.exp(-2.0), rtol=1e-14)
    assert abs(logsumexp(p.log_weights)) <= 1e-12


def test_two_point_guards():
    with pytest.raises(ValueError):
        cons.bernoulli_two_point(0.0, 1.0)          # degenerate single atom
    with pytest.raises(ValueError):
        cons.bernoulli_two_point(1e6, 1.0)          # weight underflows
    with pytest.raises(ValueError):
        cons.bernoulli_two_point(1e-9, 1.0)         # weight rounds to 1


def test_two_point_log_weight_is_scale_free():
    """Scaled by a power of two, the log-weight keeps the bits of -h^2/(2K^2)
    where the squares are normal floats, and its value where they are not."""
    rng = np.random.default_rng(5)
    for h, K in zip(rng.uniform(1e-3, 80.0, 200), rng.uniform(0.05, 30.0, 200)):
        assert cons.two_point_log_weight(h, K) == -h * h / (2.0 * K * K)
    for s in (1e-170, 1e-20, 1e20, 1e150):
        assert math.isclose(cons.two_point_log_weight(10.0 * s, 2.0 * s), -12.5,
                            rel_tol=1e-14)


def test_two_point_probe_is_scale_free():
    """h, K and sigma scaled together scale the probe with them: at h = 10,
    K = 2, t = 5 + 5/4 in units of sigma, also where sigma^2 underflows or
    sigma^2 h overflows."""
    for s in (1.0, 1e-170, 1e-20, 1e20, 1e150):
        assert cons.two_point_probe(10.0 * s, 2.0 * s, s) / s == 6.25


@pytest.mark.parametrize("K, c", [(2.0, 2.0), (2.0, math.nan), (1.0, 3.0),
                                  (math.nan, 3.0)])
def test_chi2_hard_example_guards(K, c):
    """c > 2 and K > 1, NaN refused too: with c = NaN every atom but 0 had
    been dropped, and a 5-atom request gave 2 atoms."""
    with pytest.raises(ValueError, match="requires"):
        cons.chi2_hard_example(K, c, 4)


def test_two_point_keeps_a_subnormal_h_atom():
    # exp(-741.125) is subnormal but positive, so P_h is still two-point
    p = cons.bernoulli_two_point(77.0, 2.0)
    assert p.n_atoms == 2
    assert p.log_weights[1] == -741.125


def test_chi2_admissible_c():
    c = cons.chi2_admissible_c(2.0)
    assert math.isclose(c, 7.80789, rel_tol=1e-5)
    # the defining quadratic requires 1/(2K^2) coverage at both c and 1/c
    K = 2.0
    ell = 1.0 / (2 * K * K) - 0.5
    for y in (1.0 / c,):
        assert ell / 2 * y * y + y - 1.0 / (2 * K * K) <= 1e-12


def test_chi2_hard_example_normalized():
    c = cons.chi2_admissible_c(2.0)
    p = cons.chi2_hard_example(2.0, c, 10)
    assert p.locations[0] == 0.0 and p.locations[1] == 1.0
    np.testing.assert_allclose(p.locations[2:], c ** np.arange(1, 10),
                               rtol=1e-12)
    assert abs(logsumexp(p.log_weights)) <= 1e-12


def test_hard_examples_subgaussian():
    K = 2.0
    alphas = np.linspace(-10.0 / K, 10.0 / K, 81)
    c = cons.chi2_admissible_c(K)
    hard = cons.chi2_hard_example(K, c, 10)
    assert cons.mgf_subgaussian_check(hard, K, alphas, centered=True).passed
    dist, _ = cons.w2_hard_example(K, 1.0, 4)
    assert cons.mgf_subgaussian_check(dist, K, alphas, centered=False,
                                      log_prefactor=math.log(2.0)).passed


def test_schedule_values():
    dist, sch = cons.w2_hard_example(2.0, 1.0, 4)
    assert math.isclose(sch.kappa, 0.25, rel_tol=1e-14)
    assert math.isclose(sch.M, 13.0 / 3.0, rel_tol=1e-14)
    assert math.isclose(sch.C, 2.5627, rel_tol=1e-3)
    # p_k sum saturates the half-mass budget
    assert math.isclose(math.exp(logsumexp(sch.log_p_k)), 0.5, rel_tol=1e-9)
    # ratios c_k = M^k, scales r_k = M^{k(k-1)/2}
    np.testing.assert_allclose(sch.c_k, sch.M ** np.arange(1, 5), rtol=1e-12)
    np.testing.assert_allclose(
        sch.r_k, sch.M ** (np.arange(1, 5) * np.arange(0, 4) / 2.0), rtol=1e-12)
    # the origin atom carries the residual half mass
    assert dist.locations[0] == 0.0
    assert math.isclose(dist.weights()[0], 0.5, rel_tol=1e-9)
    # only the first sample size is desk-feasible
    assert sch.n_k[0] == 16 and sch.n_k[1] is None


@pytest.mark.parametrize("K, sigma, k_max", [(2.0, 1.0, 4), (1.2, 0.3, 1),
                                             (3.0, 0.5, 5), (8.0, 1.0, 3)])
def test_schedule_mass_scale_is_largest_passing_float(K, sigma, k_max):
    # C is the largest float whose atom mass passes the half-mass test
    _, sch = cons.w2_hard_example(K, sigma, k_max)
    base_log_p = (-math.log(math.sqrt(2.0 * math.pi) * K)
                  - sch.r_k ** 2 / (2.0 * K * K))
    log_mass = cons.logsumexp(base_log_p)
    assert log_mass + math.log(sch.C) <= math.log(0.5)
    assert log_mass + math.log(math.nextafter(sch.C, math.inf)) > math.log(0.5)


def test_schedule_deterministic():
    a = cons.w2_hard_example(2.0, 1.0, 4)
    b = cons.w2_hard_example(2.0, 1.0, 4)
    np.testing.assert_array_equal(a[0].log_weights, b[0].log_weights)
    np.testing.assert_array_equal(a[1].log_p_k, b[1].log_p_k)
    assert a[1].n_k == b[1].n_k and a[1].log_C_u_emp == b[1].log_C_u_emp
    assert a[1].C == b[1].C


def test_schedule_guards():
    with pytest.raises(ValueError):
        cons.w2_hard_example(0.5, 1.0, 4)       # needs kappa < 1


@pytest.mark.parametrize("k_max", [22, 40])
def test_schedule_overflow_names_k_max_without_warnings(k_max):
    """At K = 2 a level's envelope overflows float64 from k_max = 22 (its
    log C_u read nan), and its atom's log-weight from 23: the schedule is
    refused, naming k_max, with no numpy overflow warning. k_max = 21
    builds without one."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(cons.ParameterError) as exc:
            cons.w2_hard_example(2.0, 1.0, k_max)
        assert exc.value.name == "k_max"
        cons.w2_hard_example(2.0, 1.0, 21)


def test_mgf_check_rejects_bad_scale():
    p = cons.bernoulli_two_point(3.0, 2.0)
    rep = cons.mgf_subgaussian_check(p, 0.05, np.linspace(-5, 5, 41),
                                     centered=True)
    assert not rep.passed and rep.max_slack > 0
