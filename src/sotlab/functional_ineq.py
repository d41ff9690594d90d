"""Lower-bound probes for the log-Sobolev and transportation-cost (T2)
constants of Bernoulli-Gaussian mixtures mu_h = P_h * N(0, sigma^2).

Both probes evaluate explicit test constructions, so they certify lower
bounds only. When the subgaussian scale K exceeds the smoothing scale sigma,
both bounds blow up along h, witnessing that no uniform constant exists.

The interesting regime pushes every probability to the bottom of the float
range (masses like exp(-158) appear already at h = 20), so all mass
arithmetic is carried in log-space and the T2 KL integral is assembled from
the perturbation difference itself rather than from two nearly equal
densities.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import transport
from ._quad import adaptive_simpson
from .dist_core import (AtomicDistribution, SmoothedMixture, LOG_SQRT_2PI,
                        logdiffexp)


@dataclass(frozen=True)
class LSIProbe:
    h: float
    sigma: float
    K: float
    x1: float
    x2: float
    q1: float
    q2: float
    q3: float
    q4: float
    q5: float
    lsi_lower: float
    log_q: tuple = ()
    x1_sensitivity: float = 0.0    # |bound(x1) - bound(2*x1)| relative
    x2_separated: bool = True      # whether x2 < h - 1 (large-h regime)

    def __post_init__(self):
        total = self.q1 + self.q2 + self.q3 + self.q4 + self.q5
        if abs(total - 1.0) > 1e-12:
            raise ValueError("q partition must sum to 1")


@dataclass(frozen=True)
class T2Probe:
    h: float
    delta: float
    q_h: float
    w2sq: float
    kl: float
    ratio: float
    method: str = "quadrature"     # or "crossing" for the W2 fallback
    kl_discrete: float = float("nan")

    def __post_init__(self):
        if self.kl > 0.0 and np.isfinite(self.ratio):
            if not math.isclose(self.ratio, self.w2sq / self.kl,
                                rel_tol=1e-12, abs_tol=0.0):
                raise ValueError("ratio must equal w2sq/kl")


def _log_partition(m: SmoothedMixture, x1: float, x2: float) -> np.ndarray:
    return np.array([
        float(m.log_cdf(np.array([x1]))[0]),
        float(m.log_interval_prob(x1, x1 + 1.0)),
        float(m.log_interval_prob(x1 + 1.0, x2)),
        float(m.log_interval_prob(x2, x2 + 1.0)),
        float(m.log_sf(np.array([x2 + 1.0]))[0]),
    ])


def _log_bound(lq: np.ndarray) -> float:
    # q3 (q1 + q5) / (q2 + q4), all in log-space
    return float(lq[2] + np.logaddexp(lq[0], lq[4])
                 - np.logaddexp(lq[1], lq[3]))


class ProbeParameterError(ValueError):
    """A probe parameter outside the range its construction needs; `name`
    is the parameter."""

    def __init__(self, name: str, message: str):
        super().__init__(message)
        self.name = name


def two_point_weights(h: float, K: float) -> tuple[float, float]:
    """(log p_h, p_h), p_h = exp(-h^2/(2K^2)) the weight of P_h's atom at h;
    raises ProbeParameterError naming h unless p_h and 1 - p_h are positive
    in float64, which fails for h above ~38.6 K and below ~1e-8 K."""
    log_p = -h * h / (2.0 * K * K)
    p_h = math.exp(log_p)
    if not 0.0 < p_h < 1.0:
        raise ProbeParameterError(
            "h", f"h = {h!r} gives the h-atom weight exp({log_p!r}) = "
                 f"{p_h!r}; both atoms of P_h need a positive float64 weight")
    return log_p, p_h


def lsi_cut_points(h: float, K: float, sigma: float, x1: float | None = None,
                   x2: float | None = None) -> tuple[float, float]:
    """lsi_lower_bound's cut points (x1, x2), defaults filled in; raises
    ProbeParameterError naming x1 or x2 unless x1 < -1 < 0 < x2."""
    if x2 is None:
        x2 = h * math.sqrt(sigma / K)
    if x1 is None:
        x1 = -40.0 * sigma
    for name, ok in (("x1", x1 < -1.0), ("x2", x2 > 0.0)):
        if not ok:
            raise ProbeParameterError(
                name, f"need x1 < -1 < 0 < x2, got x1 = {x1!r}, x2 = {x2!r}")
    return x1, x2


def lsi_lower_bound(h: float, K: float, sigma: float,
                    x1: float | None = None,
                    x2: float | None = None) -> LSIProbe:
    """Test-function lower bound max(q3 (q1+q5)/(q2+q4) - 1, 0) on the LSI
    constant of mu_h, with the five q's the mu_h masses of the partition at
    x1 < x1+1 < x2 < x2+1.

    Defaults: x2 = h sqrt(sigma/K) and x1 = -40 sigma (a computable surrogate
    for the x1 -> -infinity limit; the probe reports the relative change when
    x1 is doubled to -80 sigma). The divergence along h needs x2 well to the
    left of the displaced kernel (x2 < h - 1); smaller h is allowed but the
    probe marks the regime as degenerate.
    """
    x1, x2 = lsi_cut_points(h, K, sigma, x1, x2)
    _, p_h = two_point_weights(h, K)
    p = AtomicDistribution.from_weights(np.array([0.0, h]),
                                        np.array([1.0 - p_h, p_h]))
    m = SmoothedMixture(p, sigma)
    lq = _log_partition(m, x1, x2)
    log_b = _log_bound(lq)
    with np.errstate(over="ignore"):
        bound = max(math.exp(log_b) - 1.0 if log_b < 700 else math.inf, 0.0)
    log_b2 = _log_bound(_log_partition(m, 2.0 * x1, x2))
    sens = abs(math.expm1(log_b2 - log_b)) if math.isfinite(log_b) else 0.0
    q = np.exp(lq)
    q = q / q.sum() if abs(q.sum() - 1.0) <= 1e-12 else q
    return LSIProbe(h=h, sigma=sigma, K=K, x1=x1, x2=x2,
                    q1=float(q[0]), q2=float(q[1]), q3=float(q[2]),
                    q4=float(q[3]), q5=float(q[4]),
                    lsi_lower=bound, log_q=tuple(float(v) for v in lq),
                    x1_sensitivity=float(sens),
                    x2_separated=bool(x2 < h - 1.0))


# ---------------------------------------------------------------------------
# T2 probe
# ---------------------------------------------------------------------------

def _perturbation_kl(h: float, sigma: float, log_p: float, log_dq: float,
                     tol_rel: float = 1e-9) -> float:
    """KL(P_h*N || Q_h*N) where Q_h moves mass exp(log_dq) from the h-atom
    to the 0-atom.

    Uses the Bregman form int rho_P (u - log(1+u)) with
    u = (rho_Q - rho_P)/rho_P = dq (phi_0 - phi_h)/rho_P, assembled from
    log |phi_0 - phi_h| so the two near-equal mixture densities never get
    subtracted in linear arithmetic.
    """
    lp0 = math.log1p(-math.exp(log_p))  # log(1 - p_h)
    log_norm = -math.log(sigma) - LOG_SQRT_2PI

    def integrand(y):
        e0 = -0.5 * (y / sigma) ** 2 + log_norm
        eh = -0.5 * ((y - h) / sigma) ** 2 + log_norm
        log_rho = np.logaddexp(lp0 + e0, log_p + eh)
        hi = np.maximum(e0, eh)
        lo = np.minimum(e0, eh)
        log_diff = logdiffexp(hi, lo)            # log |phi_0 - phi_h|
        sign = np.where(y < 0.5 * h, 1.0, -1.0)  # phi_0 > phi_h left of h/2
        u = sign * np.exp(log_dq + log_diff - log_rho)
        small = np.abs(u) < 1e-5
        safe = np.where(small, 0.0, u)
        g = np.where(small,
                     u * u * (0.5 - u / 3.0 + u * u / 4.0),
                     safe - np.log1p(safe))
        return np.exp(log_rho) * g

    c = 20.0 * sigma
    feats = (np.array([0.0, 0.5 * h, h])[:, None]
             + sigma * np.array([-4.0, -1.0, 0.0, 1.0, 4.0])[None, :]).ravel()
    bp = np.unique(np.concatenate([[-c, h + c], feats]))
    bp = bp[(bp >= -c) & (bp <= h + c)]
    # absolute tolerance scaled to the discrete data-processing bound
    scale = 2.0 * math.exp(min(2.0 * log_dq - log_p, 700.0))
    res = adaptive_simpson(integrand, bp, tol_rel * scale)
    return max(res.total, 0.0)


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
    """(log p_h, log dq, p_h, q_h) of t2_lower_bound's Q_h, which moves dq of
    the h-atom's weight p_h to the origin. Raises ProbeParameterError naming
    delta or h unless, with kappa = sigma^2/K^2, (1 - delta)(1 + kappa)^2 >
    4 kappa (so that dq < p_h at every h), the perturbation condition
    (1 - delta)(1 + kappa)^2 h^2 > 4 kappa sigma^2 holds, and p_h
    (two_point_weights) and q_h = p_h - dq are positive in float64."""
    kappa = (sigma / K) ** 2
    if not (1.0 - delta) * (1.0 + kappa) ** 2 > 4.0 * kappa:
        raise ProbeParameterError(
            "delta", f"must be below 1 - 4 kappa / (1 + kappa)^2 = "
                     f"{1.0 - 4.0 * kappa / (1.0 + kappa) ** 2!r} (kappa = "
                     f"sigma^2/K^2), or Q_h moves more mass than the h-atom holds")
    if not (1.0 - delta) * (1.0 + kappa) ** 2 * h * h > 4.0 * kappa * sigma * sigma:
        raise ProbeParameterError(
            "h", f"h = {h!r} too small for delta = {delta!r} "
                 "(perturbation condition)")
    log_p, p_h = two_point_weights(h, K)
    log_dq = -(1.0 - delta) * (1.0 + kappa) ** 2 * h * h / (8.0 * sigma * sigma)
    q_h = -math.expm1(log_dq - log_p) * p_h    # p_h - dq, stable
    if not q_h > 0.0:
        raise ProbeParameterError(
            "h", f"h = {h!r} leaves Q_h's h-atom weight q_h = {q_h!r} at "
                 f"delta = {delta!r}; it must be positive in float64")
    return log_p, log_dq, p_h, q_h


def t2_lower_bound(h: float, K: float, sigma: float, delta: float) -> T2Probe:
    """W2^2 / KL ratio for the perturbed two-point pair, a lower bound on the
    squared T2 constant of mu_h = P_h * N(0, sigma^2).

    Q_h shifts exp(-(1-delta)(1+sigma^2/K^2)^2 h^2 / (8 sigma^2)) of mass from
    the h-atom to the origin. W2^2 comes from the exact quantile coupling when
    its quadrature noise bound certifies the result, and otherwise from the
    CDF-crossing lower bound (the signal sits far below the noise floor of
    linear-density quadrature for large h).
    """
    if not K > sigma:
        raise ValueError("the probe requires K > sigma")
    log_p, log_dq, p_h, q_h = check_t2_parameters(h, K, sigma, delta)
    P = SmoothedMixture(AtomicDistribution.from_weights(
        np.array([0.0, h]), np.array([1.0 - p_h, p_h])), sigma)
    Q = SmoothedMixture(AtomicDistribution.from_weights(
        np.array([0.0, h]), np.array([1.0 - q_h, q_h])), sigma)

    kl = _perturbation_kl(h, sigma, log_p, log_dq)
    ev = transport.w2_squared(P, Q, with_noise_bound=True)
    if ev.certified():
        w2sq = ev.total
        method = "quadrature"
    else:
        t_grid = np.linspace(0.25 * h, h, 41)
        # Q shifts mass toward the origin, so F_Q >= F_P pointwise and the
        # premise F_Q(t) >= F_P(t+2) can hold in the density valley
        best = transport.best_crossing_lower_bound(Q, P, t_grid)
        if not best.applicable:
            raise RuntimeError("no certified W2 value and no applicable "
                               "crossing bound")
        w2sq = best.value
        method = "crossing"
    ratio = w2sq / kl if kl > 0.0 else math.inf
    return T2Probe(h=h, delta=delta, q_h=q_h, w2sq=w2sq, kl=kl, ratio=ratio,
                   method=method,
                   kl_discrete=discrete_two_point_kl(p_h, math.exp(log_dq)))
