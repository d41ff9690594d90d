"""Distribution families with prescribed subgaussian scale K.

Two-point Bernoulli spikes, the geometric-atom family whose chi-square mutual
information with its Gaussian smoothing diverges, and the super-geometric
schedule driving the W2 lower-bound experiments.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dist_core import AtomicDistribution, SmoothedMixture, log1mexp, logsumexp


class ParameterError(ValueError):
    """A parameter outside the range its construction needs; `name` is the
    parameter."""

    def __init__(self, name: str, message: str):
        super().__init__(message)
        self.name = name


def two_point_log_weight(h: float, K: float) -> float:
    """log p_h = -h^2/(2K^2), the log-weight of P_h's atom at h. h and K are
    first scaled by the power of two that brings K into [1/2, 1), which is
    exact: the result has the bits of the formula on h and K wherever their
    squares are normal floats, and depends on h/K alone, so h and K near
    1e-170 or 1e170 give the log-weight they give near 1."""
    e = math.frexp(K)[1]
    h, K = math.ldexp(h, -e), math.ldexp(K, -e)
    return -h * h / (2.0 * K * K)


def two_point_probe(h: float, K: float, sigma: float) -> float:
    """t = h/2 + sigma^2 h / (2K^2), where P_h's smoothed CDF gap is probed.
    h, K and sigma are scaled as in two_point_log_weight and t scaled back,
    so t/sigma depends on h/sigma and K/sigma alone."""
    e = math.frexp(K)[1]
    h, K, sigma = math.ldexp(h, -e), math.ldexp(K, -e), math.ldexp(sigma, -e)
    return math.ldexp(0.5 * h + sigma * sigma * h / (2.0 * K * K), e)


def two_point(h: float, log_w: float) -> AtomicDistribution:
    """(1-w) delta_0 + w delta_h from the h-atom's log-weight log w, with
    log(1-w) = log1mexp(log w). Raises ParameterError naming h unless
    0 < exp(log w) < 1 in float64: the MC atom draws, the discrete KL and
    the event frequencies use the linear weight, and each needs both atoms."""
    w = math.exp(log_w)
    if not 0.0 < w < 1.0:
        raise ParameterError(
            "h", f"h = {h!r} gives the h-atom weight exp({log_w!r}) = {w!r}; "
                 "both atoms of a two-point measure need a positive float64 "
                 "weight")
    return AtomicDistribution(np.array([0.0, h]),
                              np.array([float(log1mexp(log_w)), log_w]))


def bernoulli_two_point(h: float, K: float) -> AtomicDistribution:
    """P_h = (1-p) delta_0 + p delta_h with p = exp(-h^2/(2K^2)), defined
    (two_point) for h between ~1e-8 K and ~38.6 K."""
    if h <= 0 or K <= 0:
        raise ValueError("h and K must be positive")
    return two_point(h, two_point_log_weight(h, K))


def chi2_mixing_constant(K: float) -> float:
    """Largest normalizing constant c1 for the geometric-atom family that still
    certifies a centered K-subgaussian MGF."""
    q = math.exp(-1.0 / (2.0 * K * K))
    return min(
        1.0 / 24.0,
        (1.0 - q) ** 2 / (2.0 * q),
        0.5 * (1.0 - math.exp(-1.0 / (8.0 * K * K))) * (1.0 - q),
        (1.0 - q) / 2.0,
    )


def chi2_admissible_c(K: float) -> float:
    """Smallest geometric ratio c making the per-atom neighborhood argument work.

    With l = 1/(2K^2) - 1/2 < 0 the concave quadratic
    f(y) = (l/2) y^2 + y - 1/(2K^2) must be negative for y >= c and y <= 1/c,
    so c must clear both the upper root of f and the reciprocal lower root.
    """
    if K <= 1:
        raise ValueError("requires K > 1")
    a = 1.0 / (2.0 * K * K)
    l = a - 0.5
    disc = math.sqrt(1.0 + 2.0 * l * a)
    y_hi = (-1.0 - disc) / l
    y_lo = (-1.0 + disc) / l
    c = max(y_hi, 1.0 / y_lo, 2.0)
    return c * (1.0 + 1e-12)


def chi2_hard_example(K: float, c: float, k_max: int) -> AtomicDistribution:
    """Atoms at 0, 1, c, c^2, ... with weights c1 * exp(-r_k^2/(2K^2)).

    The remainder mass sits at 0, so truncation at k_max only moves mass toward
    the origin and cannot hurt the subgaussian certificate.
    """
    if not K > 1:
        raise ValueError("requires K > 1")
    if not c > 2:
        raise ValueError("requires geometric ratio c > 2")
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    c1 = chi2_mixing_constant(K)
    r = c ** (np.arange(1, k_max + 1) - 1.0)
    log_p = math.log(c1) - r * r / (2.0 * K * K)
    keep = np.isfinite(log_p)  # only drop atoms whose log-weight itself overflows
    r, log_p = r[keep], log_p[keep]
    if r.size == 0:
        return AtomicDistribution(np.array([0.0]), np.array([0.0]))
    log_tail = float(logsumexp(log_p))
    if log_tail >= 0.0:
        raise RuntimeError("internal error: atom mass reached 1")
    log_p0 = float(log1mexp(log_tail))
    locs = np.concatenate([[0.0], r])
    logw = np.concatenate([[log_p0], log_p])
    return AtomicDistribution(locs, logw)


@dataclass(frozen=True)
class HardExampleSchedule:
    """Bookkeeping for the super-geometric lower-bound family.

    Arrays are indexed k = 1..k_max. t_k * r_k is where the smoothed CDF gap
    is measured; n_k is the target sample size implied by the interval upper
    bound (None when it overflows desk scale or rounds to zero), and
    log_C_u_emp holds the log of each level's measured upper interval constant.
    """

    kappa: float
    M: float
    C: float
    c_k: np.ndarray
    r_k: np.ndarray
    t_k: np.ndarray
    log_p_k: np.ndarray
    n_k: tuple
    log_C_u_emp: tuple

    def __post_init__(self):
        if not (0.0 < self.kappa < 1.0):
            raise ValueError("kappa must be in (0,1)")
        if np.any(self.c_k < 3.0) or np.any(np.diff(self.c_k) < 0.0):
            raise ValueError("c_k must be >= 3 and nondecreasing")
        if np.any(np.diff(self.r_k) <= 0.0):
            raise ValueError("r_k must be strictly increasing")
        if np.any(self.t_k < 2.0):
            raise ValueError("t_k must be >= 2")

    @property
    def k_max(self) -> int:
        return int(self.c_k.size)


def _schedule_arrays(K: float, sigma: float, k_max: int):
    kappa = sigma * sigma / (K * K)
    M = max(math.sqrt(2.0 / kappa), (kappa + 3.0) / (1.0 - kappa), 3.0)
    k = np.arange(1, k_max + 1)
    c_k = M ** k
    # r_k = c_1 ... c_{k-1} = M^(k(k-1)/2), with r_1 = 1 (empty product)
    r_k = M ** (k * (k - 1) / 2.0)
    t_k = 0.5 * (c_k + 1.0) * (1.0 + kappa)
    return kappa, M, c_k, r_k, t_k


def w2_hard_example(K: float, sigma: float, k_max: int):
    """Distribution + schedule for the W2 lower-bound construction.

    Returns (AtomicDistribution, HardExampleSchedule). The overall weight scale
    C is pushed as high as the total atom mass budget of 1/2 allows, and per-k sample sizes use the empirically measured interval
    constant C_u.
    """
    if sigma >= K:
        raise ParameterError("K", f"K = {K!r} must be > sigma = {sigma!r}")
    if k_max < 1:
        raise ParameterError("k_max", "k_max must be >= 1")
    with np.errstate(over="ignore"):
        kappa, M, c_k, r_k, t_k = _schedule_arrays(K, sigma, k_max)
        base_log_p = (-math.log(math.sqrt(2.0 * math.pi) * K)
                      - r_k ** 2 / (2.0 * K * K))
        # each level's implied upper constant: P(X in (t_k r_k, t_k r_k + 2])
        # over its (r_k - 2)^2 envelope exp(log_env)
        probe = t_k * r_k
        log_env = (-(t_k * t_k - kappa * c_k - c_k) * (r_k - 2.0) ** 2
                   / (2.0 * sigma * sigma))
    if not np.all(np.isfinite(np.concatenate([base_log_p, probe, log_env]))):
        raise ParameterError("k_max", f"k_max = {k_max!r} too large: an "
                             "atom's log-weight or envelope overflows float64")
    # largest C with sum_k p_k <= 1/2: the mass is linear in C, so
    # C = 1/(2 mass) up to rounding, moved to the largest float that passes
    # the test itself (the float a bisection on C ends at)
    log_target, log_mass = math.log(0.5), logsumexp(base_log_p)
    C = math.exp(log_target - log_mass)
    while log_mass + math.log(C) > log_target:
        C = math.nextafter(C, 0.0)
    while log_mass + math.log(math.nextafter(C, math.inf)) <= log_target:
        C = math.nextafter(C, math.inf)
    log_p = math.log(C) + base_log_p
    log_p0 = float(log1mexp(logsumexp(log_p)))
    locs = np.concatenate([[0.0], r_k])
    logw = np.concatenate([[log_p0], log_p])
    p = AtomicDistribution.from_log_weights(locs, logw, normalize=True)
    log_c_u = (SmoothedMixture(p, sigma).log_interval_prob(probe, probe + 2.0)
               - log_env).tolist()
    # the stated (r_k - 2)^2 envelope is loose for k >= 2, so the per-k
    # implied constants decay; the honest k-independent envelope is the max
    log_c_u_env = max(log_c_u)
    n_k = []
    for i in range(k_max):
        log_n = (-math.log(4.0) - 2.0 * log_c_u_env
                 + (t_k[i] ** 2 - c_k[i] * kappa - c_k[i]) * (r_k[i] - 2.0) ** 2 / sigma ** 2
                 - c_k[i] ** 2 * r_k[i] ** 2 / (2.0 * K * K))
        # None where n rounds to zero or lies beyond any feasible run
        n_k.append(int(math.floor(math.exp(log_n)))
                   if 0.0 <= log_n <= math.log(2.0 ** 62) else None)
    sched = HardExampleSchedule(kappa, M, C, c_k, r_k, t_k, log_p,
                                tuple(n_k), tuple(log_c_u))
    return p, sched


@dataclass(frozen=True)
class MGFReport:
    passed: bool
    max_slack: float
    arg_alpha: float
    tol: float


def mgf_subgaussian_check(p: AtomicDistribution, K: float, alpha_grid,
                          centered: bool = True, log_prefactor: float = 0.0,
                          tol: float = 1e-9) -> MGFReport:
    """Check log E[e^{alpha (S - c)}] <= log_prefactor + K^2 alpha^2 / 2 on a grid.

    c = E[S] when centered, else 0. Slack is the signed excess of the left side;
    passing means max slack <= tol.
    """
    alpha = np.asarray(alpha_grid, dtype=float)
    shiftc = p.mean() if centered else 0.0
    x = p.locations - shiftc
    # (n_alpha, n_atoms) exponent matrix; atom counts are small here
    expo = p.log_weights[None, :] + alpha[:, None] * x[None, :]
    log_mgf = logsumexp(expo, axis=1)
    slack = log_mgf - (log_prefactor + 0.5 * K * K * alpha * alpha)
    i = int(np.argmax(slack))
    return MGFReport(passed=bool(slack[i] <= tol), max_slack=float(slack[i]),
                     arg_alpha=float(alpha[i]), tol=tol)
