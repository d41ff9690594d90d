import math

import pytest

from sotlab import functional_ineq as fi
from sotlab.dist_core import logsumexp


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
    ratios = [p.ratio for p in probes]
    assert ratios[0] > 1.0
    assert all(y > x for x, y in zip(ratios, ratios[1:]))
    assert ratios[-1] / ratios[0] >= 10.0


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
        assert p.kl <= kl_discrete * (1.0 + 1e-6) + 1e-300


def test_t2_ratio_consistency_and_method():
    p = fi.t2_lower_bound(20.0, 2.0, 1.0, 0.1)
    assert math.isclose(p.ratio, p.w2sq / p.kl, rel_tol=1e-12)
    assert p.method in ("quadrature", "crossing")
    q = fi.t2_lower_bound(10.0, 2.0, 1.0, 0.1)
    assert q.method == "quadrature"      # certified transport cost at small h


def test_t2_deterministic():
    a = fi.t2_lower_bound(20.0, 2.0, 1.0, 0.1)
    b = fi.t2_lower_bound(20.0, 2.0, 1.0, 0.1)
    assert (a.w2sq, a.kl, a.ratio) == (b.w2sq, b.kl, b.ratio)


def test_t2_guards():
    with pytest.raises(ValueError):
        fi.t2_lower_bound(10.0, 0.5, 1.0, 0.1)     # requires K > sigma
    with pytest.raises(FloatingPointError, match="underflows"):
        fi.t2_lower_bound(60.0, 2.0, 1.0, 0.1)     # KL below float64
    with pytest.raises(FloatingPointError, match="subnormal"):
        fi.t2_lower_bound(57.2, 2.0, 1.0, 0.1)     # KL ~6e-323, one digit
