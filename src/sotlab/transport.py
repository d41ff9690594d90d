"""Exact 1D Wasserstein-2 machinery for Gaussian-smoothed atomic distributions.

W2^2 between two smoothed mixtures is the quantile-coupling integral
int rho_A(t) (T(t) - t)^2 dt with T = F_B^{-1} o F_A. The integral is evaluated
by batched adaptive Gauss-Kronrod (7/15) quadrature over a deep quantile
window, whose quad_error sums the accepted panels' |K15 - G7| estimates, with
a certified analytic remainder for the clipped tails and an optional bound on
the noise the finite-precision quantile solver injects into the displacement.
Where T crosses a deep gap of B that noise is also the quadrature's floor:
panels there stop at it rather than bisect noise until max_eval runs out.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ._quad import _integrate_members, adaptive_simpson
from .dist_core import _RESIDUAL_TOL, SmoothedMixture, _seed_breakpoints, _Side


@dataclass(frozen=True)
class TransportEvaluation:
    """W2^2 quadrature outcome: value, certified remainders, and the panel grid."""

    total: float
    tail_bound: float
    noise_bound: float
    quad_error: float
    n_eval: int
    window: tuple
    grid: np.ndarray            # left edges of accepted panels
    contributions: np.ndarray   # per-panel contributions (same order)

    def certified(self) -> bool:
        """Whether the value is ten times every accounted error source."""
        return self.total > 10.0 * (self.tail_bound + self.noise_bound
                                    + self.quad_error)


def _transport_map(A: SmoothedMixture, B: SmoothedMixture, t: np.ndarray,
                   rows_a=None, rows_b=None):
    """T(t) = F_B^{-1}(F_A(t)), with the log-mass each t was inverted at.
    rows_a and rows_b are optional per-point log-weight rows of A and B (see
    SmoothedMixture).

    Inverts on the better-conditioned side of B (CDF below A's median mass,
    survival above), so deep-tail transport keeps relative mass accuracy.
    """
    lower, la, ls = A._log_sides(t, rows_a)
    log_mass = np.where(lower, la, ls)
    return B.quantile_from_log_mass(log_mass, upper=~lower,
                                    log_weights=rows_b), log_mass


def w2_squared(A: SmoothedMixture, B: SmoothedMixture, tol: float = 1e-9,
               with_noise_bound: bool = False) -> TransportEvaluation:
    """Squared Wasserstein-2 distance between two smoothed mixtures.

    Integrates over whichever measure has more atoms so the per-node quantile
    inversion happens on the cheap side; W2 is symmetric so the value is
    unchanged. Absolute error is bounded by max(tol, quad_error) +
    tail_bound (+ noise_bound when requested); quad_error exceeds tol only
    where panels across a deep gap of B were accepted at the solver's noise.
    The noise bound is computed only where it can change certified(): where
    the value is not ten times its tail and quadrature errors alone, no bound
    >= 0 can certify it, and noise_bound is left 0.
    """
    return _w2_members([A], [B], tol, with_noise_bound)[0]


def _w2_members(As, Bs, tol: float = 1e-9,
                with_noise_bound: bool = False) -> list:
    """w2_squared(As[i], Bs[i], tol, with_noise_bound) for each member i, bit
    for bit, with the kernel calls shared: the As must share atoms and sigma,
    and so must the Bs. Each member keeps its own window, breakpoints and
    quadrature; one integrand call serves all members, and each side's deep
    quantiles and tail moments are taken as _Side says (once for a shared
    truth, on B, or on A after the swap).
    """
    if Bs[0].base.n_atoms > As[0].base.n_atoms:
        As, Bs = Bs, As
    a, b = _Side(As), _Side(Bs)
    return _w2_on_sides(As, Bs, a, b, _tail_bounds(a, b), tol,
                        with_noise_bound)


def _tail_bounds(a: _Side, b: _Side) -> list:
    """Each member's certified remainder of the clipped tails:
    int_{tail} rho_A (T-t)^2 <= (sqrt(M2_A) + sqrt(M2_B))^2 where the M2 are
    one-sided second moments past the equal-mass cut points (T pushes
    rho_A's clipped tail exactly onto rho_B's), summed over both tails."""
    m2a, m2b = a.tail_moments(), b.tail_moments()
    return [sum((math.exp(0.5 * m2a[side, i]) + math.exp(0.5 * m2b[side, i]))
                ** 2 for side in (0, 1)) for i in range(a.members)]


def _w2_on_sides(As, Bs, a: _Side, b: _Side, tails, tol: float = 1e-9,
                 with_noise_bound: bool = False) -> list:
    """_w2_members on its sides a and b of As and Bs, integrated over A,
    with the members' tail bounds (_tail_bounds)."""
    A, B, lo, hi = a.m, b.m, a.lo, a.hi

    def integrand(t, member):
        ra, rb = a.rows(member), b.rows(member)
        T, log_mass = _transport_map(A, B, t, ra, rb)
        dens = np.exp(A.log_pdf(t, ra))
        out = dens * (T - t) ** 2
        # where T crosses a gap of B the solver's stopping rule leaves T
        # loose by far more than tol can absorb; the quadrature takes that
        # noise as a floor there instead of bisecting it forever
        gap = _in_gap(B, T)
        if not np.any(gap):
            return out
        dT = _solver_noise(B, T[gap], log_mass[gap],
                           None if rb is None else rb[gap])
        noise = np.zeros(t.shape)
        noise[gap] = dens[gap] * (2.0 * np.abs(T[gap] - t[gap]) * dT + dT * dT)
        return out, noise

    results = _integrate_members(adaptive_simpson, integrand,
                                 _seed_breakpoints(A, B, lo, hi), tol)
    out = []
    for i, (res, tail) in enumerate(zip(results, tails)):
        window = (float(lo[i]), float(hi[i]))
        ev = TransportEvaluation(
            total=max(res.total, 0.0), tail_bound=tail, noise_bound=0.0,
            quad_error=res.error_estimate, n_eval=res.n_eval, window=window,
            grid=res.panel_edges, contributions=res.panel_values)
        # a noise bound >= 0 only adds to the errors: it can matter only
        # where certified() holds without it
        if with_noise_bound and ev.certified():
            ev = replace(ev, noise_bound=_noise_bound(As[i], Bs[i], *window))
        out.append(ev)
    return out


def _in_gap(B: SmoothedMixture, T: np.ndarray) -> np.ndarray:
    """Whether each T lies between two atoms of B and more than 4 sigma from
    both, where F_B is flat and its inverse ill-conditioned."""
    locs = B.base.locations
    if locs.size < 2:
        return np.zeros(T.shape, dtype=bool)
    j = np.clip(np.searchsorted(locs, T), 1, locs.size - 1)
    return ((T - locs[j - 1] > 4.0 * B.sigma)
            & (locs[j] - T > 4.0 * B.sigma))


def _solver_noise(B: SmoothedMixture, T, log_mass, rows=None):
    """Bound on the displacement error of T = F_B^{-1}(exp(log_mass)) that
    the quantile solver's stopping rule leaves: it stops at |log-mass
    residual| <= _RESIDUAL_TOL or an absolute bracket."""
    with np.errstate(over="ignore"):
        return (_RESIDUAL_TOL
                * np.exp(np.minimum(log_mass - B.log_pdf(T, rows), 700.0))
                + 1e-13 * (1.0 + np.abs(T)))


def _noise_bound(A: SmoothedMixture, B: SmoothedMixture, lo: float,
                 hi: float) -> float:
    """Bound on the W2^2 error that the quantile solver's stopping rule
    injects into the displacement over the window [lo, hi]."""
    grid = np.linspace(lo, hi, 257)
    T, log_mass = _transport_map(A, B, grid)
    dT = _solver_noise(B, T, log_mass)
    dens = np.exp(A.log_pdf(grid))
    point = dens * (2.0 * np.abs(T - grid) * dT + dT * dT)
    return 4.0 * float(np.trapezoid(point, grid))


@dataclass(frozen=True)
class CrossingBound:
    """Certified W2^2 lower bound from a CDF crossing at offset 2."""

    applicable: bool
    t: float
    log_value: float


def best_crossing_lower_bound(A: SmoothedMixture, B: SmoothedMixture,
                              t_grid) -> CrossingBound:
    """Largest applicable crossing bound over a grid of candidate t: where
    F_A(t) >= F_B(t+2), W2(A,B)^2 >= P_B([t+1, t+2])."""
    t = np.asarray(t_grid, dtype=float)
    ok = A.log_cdf(t) >= B.log_cdf(t + 2.0)
    if not np.any(ok):
        return CrossingBound(False, float("nan"), -math.inf)
    tc = t[ok]
    lv = B.log_interval_prob(tc + 1.0, tc + 2.0)
    i = int(np.argmax(lv))
    return CrossingBound(True, float(tc[i]), float(lv[i]))
