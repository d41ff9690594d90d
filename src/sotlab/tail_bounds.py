"""Tail-mass vs smoothed-density exponent machinery and its empirical probes.

The exponent beta links the tail of a K-subgaussian distribution to the tail of
its Gaussian smoothing (1 - F(r) <~ rho(r)^beta at sigma = 1); alpha is the
resulting W2 convergence exponent. Existential constants are replaced by
empirical envelopes measured over declared grids, always reported with the grid.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dist_core import AtomicDistribution, SmoothedMixture


def beta_exponent(K: float) -> float:
    """4K^2/(1+K^2)^2, the tail-to-density exponent at sigma = 1."""
    if K <= 0:
        raise ValueError("K must be positive")
    return 4.0 * K * K / (1.0 + K * K) ** 2


def alpha_exponent(K: float, sigma: float) -> float:
    """(sigma^2+K^2)^2 / (4 (sigma^4+K^4)), the sharp W2 rate exponent."""
    if K <= 0 or sigma <= 0:
        raise ValueError("K and sigma must be positive")
    a = (sigma * sigma + K * K) ** 2 / (4.0 * (sigma ** 4 + K ** 4))
    # internal consistency with the beta exponent of the rescaled problem
    b = beta_exponent(K / sigma)
    if abs(2.0 * a - 1.0 / (2.0 - b)) > 1e-12:
        raise AssertionError("exponent identity 2*alpha = 1/(2-beta) violated")
    return a


@dataclass(frozen=True)
class TailDensityReport:
    """Empirical envelope for tail mass vs density^exponent on a grid."""

    M_hat: float
    log_M_hat: float
    r_grid: np.ndarray
    log_tail: np.ndarray
    log_density: np.ndarray
    ratio: np.ndarray  # log-tail / log-density tightness diagnostic
    beta: float
    epsilon: float


def tail_density_inequality_probe(p: AtomicDistribution, K: float,
                                  epsilon: float, r_grid) -> TailDensityReport:
    """Measure M_hat = sup_r (1-F(r)) / rho(r)^(beta-eps) for the sigma = 1
    smoothing of p.

    Negative grid points use the mirrored form F(r) / rho(r)^(beta-eps). The
    tightness diagnostic log(1-F)/log(rho) should approach beta where the
    envelope is attained.
    """
    beta = beta_exponent(K)
    if not (0.0 < epsilon < beta):
        raise ValueError("need 0 < epsilon < beta")
    r = np.asarray(r_grid, dtype=float)
    m = SmoothedMixture(p, 1.0)
    upper = r >= 0.0
    log_tail = np.empty(r.shape)
    log_tail[upper] = m.log_sf(r[upper])
    log_tail[~upper] = m.log_cdf(r[~upper])
    log_rho = m.log_pdf(r)
    log_ratio_env = log_tail - (beta - epsilon) * log_rho
    i = int(np.argmax(log_ratio_env))
    with np.errstate(divide="ignore", invalid="ignore"):
        tightness = log_tail / log_rho
    return TailDensityReport(
        M_hat=float(np.exp(log_ratio_env[i])),
        log_M_hat=float(log_ratio_env[i]),
        r_grid=r,
        log_tail=log_tail,
        log_density=log_rho,
        ratio=tightness,
        beta=beta,
        epsilon=epsilon,
    )


@dataclass(frozen=True)
class DensityLowerReport:
    """Empirical floor for rho(r) / P[X >= r]^(1/(beta-eps))."""

    C_hat: float
    log_C_hat: float
    r_grid: np.ndarray
    log_ratio: np.ndarray
    last_decade_min: float
    passed: bool
    beta: float
    epsilon: float


def density_tail_lower_probe(p: AtomicDistribution, K: float,
                             epsilon: float, r_grid) -> DensityLowerReport:
    """Measure C_hat = inf_r rho(r) / P[X >= r]^(1/(beta-eps)), rho the
    density of the sigma = 1 smoothing of p.

    P[X >= r] is the tail of the *unsmoothed* atomic distribution; grid points
    beyond the last atom give an empty tail and count as +inf ratios.
    """
    beta = beta_exponent(K)
    if not (0.0 < epsilon < beta):
        raise ValueError("need 0 < epsilon < beta")
    r = np.asarray(r_grid, dtype=float)
    m = SmoothedMixture(p, 1.0)
    log_rho = m.log_pdf(r)
    log_tail = np.array([p.log_sf_discrete(ri) for ri in r])
    with np.errstate(invalid="ignore"):
        log_ratio = np.where(np.isfinite(log_tail),
                             log_rho - log_tail / (beta - epsilon),
                             np.inf)
    finite = log_ratio[np.isfinite(log_ratio)]
    log_c = float(np.min(finite)) if finite.size else math.inf
    # monitor collapse: minimum over the top decade of the grid
    top = r >= (np.max(r) / 10.0 if np.max(r) > 0 else np.max(r))
    tail_min = log_ratio[top]
    tail_min = tail_min[np.isfinite(tail_min)]
    log_last = float(np.min(tail_min)) if tail_min.size else math.inf
    last_decade = (math.inf if log_last > 700.0 else
                   0.0 if log_last < -745.0 else math.exp(log_last))
    return DensityLowerReport(
        C_hat=float(np.exp(log_c)) if np.isfinite(log_c) else math.inf,
        log_C_hat=log_c,
        r_grid=r,
        log_ratio=log_ratio,
        last_decade_min=last_decade,
        passed=bool(log_c > -np.inf),
        beta=beta,
        epsilon=epsilon,
    )
