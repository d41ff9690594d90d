import math

import numpy as np
import pytest

from sotlab import constructions as cons
from sotlab import tail_bounds as tb
from sotlab.dist_core import AtomicDistribution, SmoothedMixture


def test_beta_examples():
    assert math.isclose(tb.beta_exponent(1.0), 1.0, rel_tol=1e-14)
    assert math.isclose(tb.beta_exponent(3.0), 0.36, rel_tol=1e-14)
    assert tb.beta_exponent(1e6) < 1e-5


def test_alpha_examples():
    assert math.isclose(tb.alpha_exponent(1.0, 1.0), 0.5, rel_tol=1e-14)
    assert math.isclose(tb.alpha_exponent(2.0, 1.0), 25.0 / 68.0, rel_tol=1e-14)
    assert abs(tb.alpha_exponent(1e5, 1.0) - 0.25) < 1e-9


def test_alpha_beta_identity():
    for K in np.geomspace(0.02, 50.0, 60):
        a = tb.alpha_exponent(float(K), 1.0)
        b = tb.beta_exponent(float(K))
        assert abs(2 * a - 1.0 / (2.0 - b)) <= 1e-12


def test_tail_density_point_mass():
    p = AtomicDistribution.from_weights(np.array([0.0]), np.array([1.0]))
    rep = tb.tail_density_inequality_probe(p, 1.0, 0.1,
                                           np.linspace(0.0, 8.0, 81))
    assert np.isfinite(rep.M_hat) and rep.M_hat > 0


def test_tail_density_grid_stability():
    p = cons.bernoulli_two_point(5.0, 2.0)
    r1 = tb.tail_density_inequality_probe(p, 2.0, 0.1,
                                          np.linspace(0.0, 12.0, 101))
    r2 = tb.tail_density_inequality_probe(p, 2.0, 0.1,
                                          np.linspace(0.0, 12.0, 201))
    assert abs(r2.M_hat - r1.M_hat) <= 0.05 * r1.M_hat


def test_tail_density_epsilon_collapse():
    p = AtomicDistribution.from_weights(np.array([0.0]), np.array([1.0]))
    beta = tb.beta_exponent(1.0)
    rep = tb.tail_density_inequality_probe(p, 1.0, beta * (1 - 1e-9),
                                           np.linspace(0.0, 8.0, 81))
    # exponent -> 0 makes the envelope sup(1-F) <= 1 up to density normalizers
    assert rep.M_hat <= 1.0 + 1e-6


@pytest.mark.parametrize("grid", [np.linspace(-6.0, 9.0, 31),
                                  np.linspace(0.0, 9.0, 19),
                                  np.linspace(-9.0, -0.5, 18)],
                         ids=["crosses_zero", "nonnegative", "negative"])
def test_tail_density_sides_match_two_sided_formula(grid):
    """Each half of the grid evaluates only its own side, and the report is
    bitwise what evaluating both sides everywhere gives."""
    p = cons.bernoulli_two_point(4.0, 2.0)
    m = SmoothedMixture(p, 1.0)
    log_tail = np.where(grid >= 0.0, m.log_sf(grid), m.log_cdf(grid))
    log_rho = m.log_pdf(grid)
    env = log_tail - (tb.beta_exponent(2.0) - 0.1) * log_rho
    rep = tb.tail_density_inequality_probe(p, 2.0, 0.1, grid)
    assert rep.log_tail.view(np.int64).tolist() == \
        log_tail.view(np.int64).tolist()
    assert rep.log_M_hat == env.max()
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = log_tail / log_rho
    assert rep.ratio.view(np.int64).tolist() == ratio.view(np.int64).tolist()


def test_tightness_at_two_point_crossover():
    K, h = 2.0, 20.0
    p = cons.bernoulli_two_point(h, K)
    r = (K * K + 1) * h / (2 * K * K)
    beta = tb.beta_exponent(K)
    rep = tb.tail_density_inequality_probe(p, K, 0.01, np.array([r]))
    assert abs(rep.ratio[0] - beta) <= 0.1 * beta


def test_density_lower_probe():
    p0 = AtomicDistribution.from_weights(np.array([0.0]), np.array([1.0]))
    rep = tb.density_tail_lower_probe(p0, 1.0, 0.1, np.linspace(0, 5, 21))
    assert rep.passed                      # empty tails count as +inf ratios
    p = cons.bernoulli_two_point(4.0, 2.0)
    rep = tb.density_tail_lower_probe(p, 2.0, 0.1,
                                      np.linspace(0.0, 8.0, 81))
    assert rep.passed and rep.C_hat > 0
    c = cons.chi2_admissible_c(2.0)
    hard = cons.chi2_hard_example(2.0, c, 7)
    grid = np.linspace(0.0, float(hard.locations[6]), 200)
    rep = tb.density_tail_lower_probe(hard, 2.0, 0.1, grid)
    assert rep.passed and rep.C_hat > 0


def test_interval_prob_matches_monte_carlo():
    # level 1's probe interval on a mixture whose atoms span many scales
    dist, sch = cons.w2_hard_example(2.0, 1.0, 4)
    probe = float(sch.t_k[0] * sch.r_k[0])
    m = SmoothedMixture(dist, 1.0)
    prob = math.exp(float(m.log_interval_prob(probe + 1.0, probe + 2.0)))
    assert prob >= 1e-5
    n = 10_000_000
    x = m.sample(n, 123).samples
    hits = np.count_nonzero((x >= probe + 1.0) & (x <= probe + 2.0))
    est = hits / n
    se = math.sqrt(est * (1 - est) / n)
    assert abs(est - prob) <= 4 * se


def test_upper_interval_constant_not_reusable_across_levels():
    # the implied upper constant shrinks super-exponentially with the level,
    # so sample sizes use the max over levels as a safe envelope
    _, sch = cons.w2_hard_example(2.0, 1.0, 4)
    log_c_u = sch.log_C_u_emp
    assert log_c_u[0] > log_c_u[1] > log_c_u[2]
    assert max(log_c_u) == log_c_u[0]
