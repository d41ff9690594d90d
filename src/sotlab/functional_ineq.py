"""Lower-bound probes for the log-Sobolev and transportation-cost (T2)
constants of Bernoulli-Gaussian mixtures mu_h = P_h * N(0, sigma^2).

Both probes evaluate explicit test constructions, so they certify lower
bounds only. When the subgaussian scale K exceeds the smoothing scale sigma,
both bounds blow up along h, witnessing that no uniform constant exists.

The interesting regime pushes every probability to the bottom of the float
range (masses like exp(-158) appear already at h = 20), so all mass
arithmetic is carried in log-space. The T2 KL is taken from P_h and the
exact log dq that Q_h moves (divergences._log_kl_by_differences), never
from two nearly equal densities; this module integrates nothing itself.
P_h and the T2 probe's Q_h are built from their h-atom's
log-weight (constructions.two_point), so h may run up to ~38.6 K, where that
weight leaves float64.

The LSI bound is taken at its x1 -> -infinity limit: three masses, of
(-inf, x2], (x2, x2+1] and (x2+1, inf) with x2 = h sqrt(sigma/K), kept as
log-masses only. The T2 probe keeps W2^2, the KL and their ratio as logs,
so it runs over P_h's whole h range although the KL leaves float64 near
h = 56 at K = 2.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import constructions, divergences, transport
from .dist_core import SmoothedMixture, _Side, log1mexp, logsumexp


@dataclass(frozen=True)
class LSIProbe:
    h: float
    x2: float
    log_q: tuple                   # log q3, log q4, log q5
    lsi_lower: float
    x2_separated: bool = True      # whether x2 < h - 1 (large-h regime)

    def __post_init__(self):
        if abs(logsumexp(self.log_q)) > 1e-12:
            raise ValueError("q partition must sum to 1")


@dataclass(frozen=True)
class T2Probe:
    h: float
    delta: float
    log_q_h: float
    log_w2sq: float
    log_kl: float
    log_ratio: float               # log W2^2 - log KL
    method: str = "quadrature"     # or "crossing" for the W2 fallback


def lsi_lower_bound(h: float, K: float, sigma: float) -> LSIProbe:
    """Test-function lower bound max(q3 q5 / q4 - 1, 0) on the LSI constant
    of mu_h, with q3, q4 and q5 the mu_h masses of (-inf, x2], (x2, x2+1]
    and (x2+1, inf), x2 = h sqrt(sigma/K).

    This is the x1 -> -infinity limit of the bound q3 (q1+q5)/(q2+q4) - 1 of
    the five-piece partition at x1 < x1+1 < x2 < x2+1: q1 and q2 tend to 0
    and q3 to F(x2). The divergence along h needs x2 well to the left of the
    displaced kernel (x2 < h - 1); smaller h is allowed but the probe marks
    the regime as degenerate. P_h is constructions.bernoulli_two_point, so h
    must lie in its range.
    """
    x2 = h * math.sqrt(sigma / K)
    m = SmoothedMixture(constructions.bernoulli_two_point(h, K), sigma)
    lq = np.array([m.log_cdf(x2), m.log_interval_prob(x2, x2 + 1.0),
                   m.log_sf(x2 + 1.0)])
    log_b = float(lq[0] + lq[2] - lq[1])
    bound = max(math.exp(log_b) - 1.0 if log_b < 700 else math.inf, 0.0)
    return LSIProbe(h=h, x2=x2, log_q=tuple(float(v) for v in lq),
                    lsi_lower=bound, x2_separated=bool(x2 < h - 1.0))


# ---------------------------------------------------------------------------
# T2 probe
# ---------------------------------------------------------------------------

def _g(u: float) -> float:
    """u - log(1+u), nonnegative, exact for tiny u."""
    if abs(u) < 1e-5:
        return u * u * (0.5 - u / 3.0 + u * u / 4.0)
    return u - math.log1p(u)


def discrete_two_point_kl(p: float, dq: float) -> float:
    """D_KL((1-p, p) || (1-q, q)) with q = p - dq.

    The naive two-log form cancels to O(dq^2) between terms of size dq; this
    groups each term with its linear part so both summands are nonnegative.
    """
    return p * _g(-dq / p) + (1.0 - p) * _g(dq / (1.0 - p))


def check_t2_parameters(h: float, K: float, sigma: float, delta: float):
    """(P_h, Q_h, log dq) of t2_lower_bound, Q_h moving dq of the h-atom's
    weight p_h to the origin: log q_h = log p_h + log1mexp(log dq - log p_h).
    Raises ParameterError naming delta or h unless, with kappa =
    sigma^2/K^2, (1 - delta)(1 + kappa)^2 > 4 kappa (so that dq < p_h at
    every h), the perturbation condition (1 - delta)(1 + kappa)^2 r^2 >
    4 kappa holds on r = h/sigma, and P_h and Q_h are two-point measures
    (constructions.two_point). Both conditions and log dq are taken in
    units of sigma, so they hold at any sigma where they hold at 1."""
    kappa = (sigma / K) ** 2
    r = h / sigma
    if not (1.0 - delta) * (1.0 + kappa) ** 2 > 4.0 * kappa:
        raise constructions.ParameterError(
            "delta", f"must be below 1 - 4 kappa / (1 + kappa)^2 = "
                     f"{1.0 - 4.0 * kappa / (1.0 + kappa) ** 2!r} (kappa = "
                     f"sigma^2/K^2), or Q_h moves more mass than the h-atom holds")
    if not (1.0 - delta) * (1.0 + kappa) ** 2 * r * r > 4.0 * kappa:
        raise constructions.ParameterError(
            "h", f"h = {h!r} too small for delta = {delta!r} "
                 "(perturbation condition)")
    P = constructions.bernoulli_two_point(h, K)
    log_p = float(P.log_weights[1])
    log_dq = -(1.0 - delta) * (1.0 + kappa) ** 2 * r * r / 8.0
    Q = constructions.two_point(h, log_p + float(log1mexp(log_dq - log_p)))
    return P, Q, log_dq


def t2_lower_bound(h: float, K: float, sigma: float, delta: float) -> T2Probe:
    """W2^2 / KL ratio for the perturbed two-point pair, a lower bound on the
    squared T2 constant of mu_h = P_h * N(0, sigma^2).

    Q_h shifts exp(-(1-delta)(1+sigma^2/K^2)^2 h^2 / (8 sigma^2)) of mass from
    the h-atom to the origin. W2^2 comes from the exact quantile coupling when
    it is certified with its noise bound (TransportEvaluation.certified), and
    otherwise from the CDF-crossing lower bound (the signal sits far below the
    noise floor of linear-density quadrature for large h). The coupling's
    quadrature runs only where h^2 dq, a bound on W2^2, exceeds ten times
    its tail bound, and its noise bound only where the coupling certifies
    without it: elsewhere no correct value can certify, and the crossing
    bound is taken as it would be with them. All three numbers are logs.
    """
    if not K > sigma:
        raise ValueError("the probe requires K > sigma")
    P, Q, log_dq = check_t2_parameters(h, K, sigma, delta)
    log_kl = divergences._log_kl_by_differences(      # Q_h = P_h + (dq, -dq)
        P, sigma, np.array([1.0, -1.0]), np.full(2, log_dq))
    mP, mQ = SmoothedMixture(P, sigma), SmoothedMixture(Q, sigma)
    # both have two atoms, so w2_squared would integrate over mP
    a, b = _Side([mP]), _Side([mQ])
    tail = transport._tail_bounds(a, b)[0]
    # W2^2 <= h^2 dq, the cost of the unsmoothed coupling, and certified()
    # needs the total above 10 tail_bound: where h^2 dq is not, no correct
    # value can certify, and no quadrature is run. The tail bound is 0.0
    # where the tails' moments underflow, at sigma = 1e-170
    ev = None
    if not (tail > 0.0
            and 2.0 * math.log(h) + log_dq <= math.log(10.0 * tail)):
        ev = transport._w2_on_sides([mP], [mQ], a, b, [tail],
                                    with_noise_bound=True)[0]
    if ev is not None and ev.certified():
        log_w2sq = math.log(ev.total)
        method = "quadrature"
    else:
        t_grid = np.linspace(0.25 * h, h, 41)
        # Q shifts mass toward the origin, so F_Q >= F_P pointwise and the
        # premise F_Q(t) >= F_P(t+2) can hold in the density valley
        best = transport.best_crossing_lower_bound(mQ, mP, t_grid)
        if not best.applicable:
            raise RuntimeError("no certified W2 value and no applicable "
                               "crossing bound")
        log_w2sq = best.log_value
        method = "crossing"
    return T2Probe(h=h, delta=delta, log_q_h=float(Q.log_weights[1]),
                   log_w2sq=log_w2sq, log_kl=log_kl,
                   log_ratio=log_w2sq - log_kl, method=method)
