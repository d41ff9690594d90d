"""KL and chi-square divergences between smoothed mixtures, and the
chi-square / Renyi mutual informations of an atomic source across the Gaussian
noise channel.

All integrands are assembled from log-densities and exponentiated only inside
quadrature cells, in forms that are pointwise nonnegative where the quantity is
(Bregman form for KL, squared relative error for chi-square), so quadrature
noise cannot produce impossible signs.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from ._quad import (QuadratureError, _integrate_members, _simpson_members,
                    adaptive_simpson)
from .dist_core import (LOG_SQRT_2PI, AtomicDistribution, SmoothedMixture,
                        _deep_quantiles, _logsumexp_atoms, _member_rows,
                        _row_slices, _scratch, _seed_breakpoints, logsumexp)


def _divergence_members(As, Bs, integrand, tol: float):
    """integrand(log rho_A, log rho_B) over each member's joint deep-quantile
    window, seeded by _seed_breakpoints; member i is the pair As[i], Bs[i].
    The As must share atoms and sigma, and so must the Bs: the kernel calls
    are shared, and each member keeps its own window, breakpoints and
    quadrature, so it gets the bits of its lone call. A side that is one
    mixture object for every member (the smoothed truth of an MC batch) has
    its deep quantiles solved once. Returns each member's QuadResult, and
    the windows' lower and upper ends."""
    A, rows_a = As[0], _member_rows(As)
    B, rows_b = Bs[0], _member_rows(Bs)
    every = np.arange(len(As))
    a_lo, a_hi = _deep_quantiles(A, rows_a(every), every.size)
    b_lo, b_hi = _deep_quantiles(B, rows_b(every), every.size)
    lo = [min(float(a), float(b)) for a, b in zip(a_lo, b_lo)]
    hi = [max(float(a), float(b)) for a, b in zip(a_hi, b_hi)]
    results = _integrate_members(
        adaptive_simpson,
        lambda t, member: integrand(A.log_pdf(t, rows_a(member)),
                                    B.log_pdf(t, rows_b(member))),
        _seed_breakpoints(A, B, lo, hi), tol)
    return results, lo, hi


def _kl_integrand(la, lb):
    """rho_B - rho_A - rho_A d with d = lb - la, the Bregman form of KL."""
    d = lb - la
    small = np.abs(d) < 1e-5
    g = np.where(small,
                 0.5 * d * d * (1.0 + d / 3.0 + d * d / 12.0),
                 np.expm1(np.where(small | (d > 30.0), 0.0, d))
                 - np.where(small | (d > 30.0), 0.0, d))
    out = np.exp(la) * g
    big = d > 30.0
    if np.any(big):
        # rho_B from its own log: la + d rounds at the scale of |la|
        out = np.where(big, np.exp(lb) - np.exp(la) * (1.0 + d), out)
    return out


def _chi2_integrand(la, lb):
    """(rho_A - rho_B)^2 / rho_B, as rho_B expm1(la - lb)^2."""
    e = la - lb
    big = e > 300.0
    u = np.expm1(np.where(big, 0.0, e))
    out = np.exp(lb) * u * u
    if np.any(big):
        with np.errstate(over="ignore"):
            out = np.where(big, np.exp(2.0 * (e + lb) - lb), out)
    return out


def kl_divergence(A: SmoothedMixture, B: SmoothedMixture,
                  tol: float = 1e-10) -> float:
    """int rho_A log(rho_A/rho_B), nonnegative by construction.

    Integrates the Bregman form rho_B - rho_A - rho_A d (d = log rho_B/rho_A),
    whose full-line integral equals the KL divergence; the window clipping is
    compensated by the exact clipped-tail masses. A result in [-10 tol, 0)
    is reported as 0.0, and one below -10 tol as it is.
    """
    return _kl_members([A], [B], tol)[0]


def _kl_members(As, Bs, tol: float = 1e-10) -> list:
    """kl_divergence(As[i], Bs[i], tol) for each member i, bit for bit, with
    the kernel calls shared as in _divergence_members."""
    results, lo, hi = _divergence_members(As, Bs, _kl_integrand, tol)
    every = np.arange(len(As))
    a_tail, b_tail = (np.exp(m.log_cdf(lo, rows)) + np.exp(m.log_sf(hi, rows))
                      for m, rows in ((As[0], _member_rows(As)(every)),
                                      (Bs[0], _member_rows(Bs)(every))))
    values = []
    # int_w (rho_B - rho_A) = tail-mass(A) - tail-mass(B)
    for res, corr in zip(results, a_tail - b_tail):
        value = res.total - float(corr)
        if value < 0.0:
            value = 0.0 if value >= -10 * tol else value
        values.append(value)
    return values


def chi2_divergence(A: SmoothedMixture, B: SmoothedMixture,
                    tol: float = 1e-10) -> float:
    """int (rho_A - rho_B)^2 / rho_B over the joint deep-quantile window."""
    return _chi2_members([A], [B], tol)[0]


def _chi2_members(As, Bs, tol: float = 1e-10) -> list:
    """chi2_divergence(As[i], Bs[i], tol) for each member i, bit for bit, with
    the kernel calls shared as in _divergence_members."""
    results, _, _ = _divergence_members(As, Bs, _chi2_integrand, tol)
    return [res.total for res in results]


@dataclass(frozen=True)
class MIEstimate:
    """quadrature_error sums the windows' Gauss-Kronrod error estimates,
    |K15 - G7| per accepted panel; gap_bound is the certified remainder of
    the rest of the line, between and beyond the windows, which is not
    integrated; n_eval counts integrand evaluations over the atoms
    integrated and all their windows (the Renyi MI skips an atom whose part
    provably rounds to +0.0).

    Both errors bound the part sum S = sum(partial_by_atom). For the chi^2
    MI that is `value`; for the Renyi MI `value` is log(S) / (lam - 1), so
    an error eps of S moves it by about eps / ((lam - 1) S)."""
    value: float
    partial_by_atom: tuple
    quadrature_error: float
    gap_bound: float
    n_eval: int


# seeds around each atom, in sigma; the last is the windows' reach. Each
# seed costs a 15-point panel: the hard example's chi^2 MI takes 13,500
# evaluations with these and 16,320 with +-1, 4, 8 for +-2, 6
_MI_OFFSETS = np.array([-16.0, -6.0, -2.0, 0.0, 2.0, 6.0, 16.0])
# each kernel's two-sided tail mass beyond the windows' reach
_GAP_MASS = math.erfc(_MI_OFFSETS[-1] / math.sqrt(2.0))


def _mi_breakpoints(p: AtomicDistribution, sigma: float):
    return (p.locations[:, None] + _MI_OFFSETS[None, :] * sigma).ravel()


def _mi_windows(p: AtomicDistribution, sigma: float) -> list:
    """The windows where the kernels live: the merged intervals
    [r_j - 16 sigma, r_j + 16 sigma], in order, as (lo, hi) pairs whose ends
    are _mi_breakpoints values. The rest of the line lies beyond 16 sigma of
    every kernel, so each kernel has at most _GAP_MASS of its mass there.

    Raises ValueError where sigma^2 is not a normal float, as the kernels'
    exponents divide by it, and where sigma is so far below the float64
    spacing at an atom that r - 16 sigma and r + 16 sigma round to the same
    float: that kernel would have no window, and none of its mass would be
    integrated.
    """
    if not sys.float_info.min <= sigma * sigma <= sys.float_info.max:
        raise ValueError(f"sigma = {sigma!r}: sigma^2 is not a normal float")
    reach = _MI_OFFSETS[-1] * sigma
    locs = np.sort(p.locations)
    collapsed = ~(locs - reach < locs + reach)
    if np.any(collapsed):
        raise ValueError(f"sigma = {sigma!r} is below the float64 spacing at "
                         f"atom {float(locs[collapsed][0])!r}: its window "
                         f"r +- 16 sigma is empty")
    windows = []
    for a, b in zip(locs - reach, locs + reach):
        if windows and a <= windows[-1][1]:
            windows[-1][1] = b
        else:
            windows.append([a, b])
    return [(float(a), float(b)) for a, b in windows]


def _mi_atom_quad(f, bp, windows, locs, tol: float):
    """f integrated over the windows to within tol in total: one
    _simpson_members call whose members are the windows, each seeded with the
    breakpoints inside it and given a share of tol proportional to its width.
    Returns (total, summed error estimate, n_eval).

    Each window is integrated in the offset u = y - c from its atom c nearest
    its midpoint, and f(u, c) is the integrand at c + u: the nodes are exact
    in u, where at |y| ~ 1e8 float64 would move each by up to 7e-9 and the
    panels' |K15 - G7| could not shrink below that noise. A round's points
    of all windows go to f in one call, c holding each point's own atom;
    that atom lies inside its window, so the windows' atoms differ, and f
    tells the windows apart by c. f also takes one scalar c for all
    points."""
    widths = np.array([b - a for a, b in windows])
    refs = np.array([locs[np.argmin(np.abs(locs - 0.5 * (a + b)))]
                     for a, b in windows])
    res = _simpson_members(lambda u, member: f(u, refs[member]),
                           [bp[(bp >= a) & (bp <= b)] - c
                            for (a, b), c in zip(windows, refs)],
                           tol * widths / widths.sum())
    return (float(np.sum([r.total for r in res])),
            float(np.sum([r.error_estimate for r in res])),
            sum(r.n_eval for r in res))


def _window_reach(u, c):
    """max |u| over the points that share each point's c, plus |c|: with c
    one per point (see _mi_atom_quad), each window's own largest offset in
    this call; with a scalar c, the largest of all points."""
    if np.ndim(c) == 0:
        return np.abs(u).max(initial=0.0) + abs(c)
    refs, window = np.unique(c, return_inverse=True)
    reach = np.zeros(refs.size)
    np.maximum.at(reach, window, np.abs(u))
    return reach[window] + np.abs(c)


def _log_mix_rel(p: AtomicDistribution, sigma: float, k: int,
                 u: np.ndarray, c=0.0) -> np.ndarray:
    """s(y) = log(w_k phi_k(y) / rho(y)) <= 0 at y = c + u, built from
    atom-relative exponent differences so no large-magnitude cancellation
    enters. c is one offset for all points or one per point. Each y - r_j is
    formed as u + (c - r_j), so with c an atom near u the nodes keep their
    precision; with c = 0 the bits are those of y.

    The j-th relative exponent (logw_j + logphi_j) - (logw_k + logphi_k) is
    huge in magnitude wherever the two kernels differ a lot, but rounding there
    is harmless because the corresponding term is negligible; near crossovers
    the difference is small and exact.

    The (atoms x points) exponents are built in cache-sized slices of y, in
    the calling thread's kernel scratch, and reduced over the atom axis; the
    bits are those of -logsumexp over the (points x atoms) array.
    """
    locs = p.locations
    lw_rel = (p.log_weights - p.log_weights[k])[:, None]
    out = np.empty(u.shape)
    for r in _row_slices(u.size, locs.size):
        ur, cr = u[r], (c[r] if np.ndim(c) else c)
        delta, e, ties = _scratch((locs.size, ur.size))
        np.add(ur, np.subtract(cr, locs[:, None], out=delta), out=delta)
        np.square(delta, out=delta)
        np.subtract(np.square(ur + (cr - locs[k])), delta, out=delta)
        np.divide(delta, 2.0 * sigma * sigma, out=delta)
        np.add(lw_rel, delta, out=delta)
        out[r] = _logsumexp_atoms(delta, e, ties)
    return np.negative(out, out=out)


def _log_mix_sum(p: AtomicDistribution, sigma: float, u: np.ndarray,
                 c) -> np.ndarray:
    """log sum_j w_j exp(-(y - r_j)^2 / (2 sigma^2)) at y = c + u, each
    y - r_j formed as u + (c - r_j), in cache-sized slices like
    _log_mix_rel."""
    locs = p.locations
    lw = p.log_weights[:, None]
    out = np.empty(u.shape)
    for r in _row_slices(u.size, locs.size):
        ur, cr = u[r], (c[r] if np.ndim(c) else c)
        delta, e, ties = _scratch((locs.size, ur.size))
        np.add(ur, np.subtract(cr, locs[:, None], out=delta), out=delta)
        np.square(delta, out=delta)
        np.divide(delta, -2.0 * sigma * sigma, out=delta)
        np.add(lw, delta, out=delta)
        out[r] = _logsumexp_atoms(delta, e, ties)
    return out


def chi2_mutual_information(p: AtomicDistribution, sigma: float,
                            tol: float = 1e-9) -> MIEstimate:
    """Chi-square mutual information of S ~ p across Y = S + N(0, sigma^2).

    Decomposes as sum_k w_k chi2(phi_k || rho) with phi_k the noise kernel at
    atom k; per-atom increments are integrated separately over the kernels'
    windows (_mi_windows) and reported, and gap_bound covers the rest of the
    line. The integrand is assembled as phi_k e^s (1 - e^(logw_k - s))^2
    with s = log(w_k phi_k / rho), which stays float-stable even when the atom
    weights live at log-scale -1e8.
    """
    bp = _mi_breakpoints(p, sigma)
    windows = _mi_windows(p, sigma)
    log_norm = -math.log(sigma) - LOG_SQRT_2PI
    parts = []
    qerr = gap_bound = 0.0
    n_eval = 0
    per_tol = tol / p.n_atoms
    r_max = np.abs(p.locations).max()
    two_lw_max = 2.0 * np.abs(p.log_weights).max()
    for k in range(p.n_atoms):
        rk = p.locations[k]
        lwk = p.log_weights[k]

        def integrand(u, c, rk=rk, lwk=lwk, k=k):
            lphi = -0.5 * ((u + (c - rk)) / sigma) ** 2 + log_norm
            s = _log_mix_rel(p, sigma, k, u, c)
            # w_k (phi_k - rho)^2 / rho = phi_k e^s (1 - rho/phi_k)^2 with
            # rho/phi_k = exp(logw_k - s); where that ratio overflows the
            # square is dominated by its cross-free term w_k rho
            big = (lwk - s) > 300.0
            ratio = np.exp(np.where(big, 0.0, lwk - s))
            out = np.exp(lphi + s) * (1.0 - ratio) ** 2
            log_wrho = lphi + 2.0 * lwk - s
            out = np.where(big, np.exp(log_wrho), out)
            # lphi - s cancels two (y - r_k)^2 / (2 sigma^2) terms, each
            # rounded at its own scale, by at most
            # 2^-48 ((|u| + |c| + |r|)^2 / sigma^2 + 2 max|lw|) + 1, |u| the
            # largest of the window's points; where w_k rho can be
            # representable, it is taken from log rho itself
            if not big.any():
                return out
            with np.errstate(all="ignore"):
                q = _window_reach(u, c) + r_max
                margin = 2.0 ** -48 * (q * q / (sigma * sigma)
                                       + two_lw_max) + 1.0
            redo = big & (log_wrho > -746.0 - margin)
            if redo.any():
                out[redo] = np.exp(lwk + log_norm + _log_mix_sum(
                    p, sigma, u[redo], c[redo] if np.ndim(c) else c))
            return out

        total, err, evals = _mi_atom_quad(integrand, bp, windows,
                                          p.locations, per_tol)
        parts.append(max(total, 0.0))
        qerr += err
        n_eval += evals
        # w_k (phi_k - rho)^2 / rho <= phi_k + w_k rho, as rho >= w_k phi_k
        gap_bound += (1.0 + math.exp(lwk)) * _GAP_MASS
    return MIEstimate(value=float(np.sum(parts)),
                      partial_by_atom=tuple(parts), quadrature_error=qerr,
                      gap_bound=gap_bound, n_eval=n_eval)


def renyi_mutual_information(p: AtomicDistribution, sigma: float, lam: float,
                             tol: float = 1e-9) -> MIEstimate:
    """I_lam(S;Y) = (1/(lam-1)) log sum_k w_k int phi_k^lam rho^(1-lam) dy.

    Per-atom integrals are carried as logs (they scale like w_k^(1-lam), far
    outside float range for deep atoms); the reported per-atom parts are the
    bounded products w_k * J_k.

    Atom k's integrand is integrated scaled by e^(-shift), shift its largest
    log-value, and its error estimate is scaled back by e^shift. Where
    shift > 0 (sigma below about 0.4) its quadrature gets tol e^(-shift) in
    place of tol, so that the scaled error stays near tol; QuadratureError
    is raised if the summed quadrature_error still exceeds tol.

    An atom whose part w_k J_k provably rounds to +0.0 is not integrated:
    the integrand is <= phi_k <= e^log_norm, as s <= 0, so the part is at
    most w_k^(2-lam) e^log_norm times the windows' total width.
    """
    if not (1.0 < lam < 2.0):
        raise ValueError("lambda must lie in (1, 2)")
    bp = _mi_breakpoints(p, sigma)
    windows = _mi_windows(p, sigma)
    log_norm = -math.log(sigma) - LOG_SQRT_2PI
    ordered = np.sort(bp)
    seed = np.unique(np.concatenate([bp, 0.5 * (ordered[:-1] + ordered[1:])]))
    log_width = math.log(sum(b - a for a, b in windows))
    log_weighted = np.empty(p.n_atoms)
    qerr = gap_bound = 0.0
    n_eval = 0
    for k in range(p.n_atoms):
        rk = p.locations[k]
        # outside the windows, w_k^(2-lam) e^g <= phi_k as s <= 0
        gap_bound += _GAP_MASS
        if (2.0 - lam) * p.log_weights[k] + log_norm + log_width < -746.0:
            log_weighted[k] = -np.inf
            continue

        # phi_k^lam rho^(1-lam) = w_k^(1-lam) exp(g) with
        # g = log phi_k + (lam-1) s, s = log(w_k phi_k / rho) <= 0
        def log_expo(u, c, rk=rk, k=k):
            lphi = -0.5 * ((u + (c - rk)) / sigma) ** 2 + log_norm
            return lphi + (lam - 1.0) * _log_mix_rel(p, sigma, k, u, c)

        shift = float(np.max(log_expo(seed, 0.0)))

        def integrand(u, c, shift=shift, rk=rk, k=k):
            return np.exp(log_expo(u, c, rk, k) - shift)

        # the error is scaled by e^shift below, so where e^shift > 1 the
        # tol is scaled down by it first
        total, err, evals = _mi_atom_quad(
            integrand, bp, windows, p.locations,
            tol if shift <= 0.0 else tol * math.exp(-shift))
        # w_k J_k = w_k^(2-lam) exp(shift) * total, whose error is at most
        # e^shift err, as w_k <= 1; shift <= log_norm < 355
        log_weighted[k] = ((2.0 - lam) * p.log_weights[k] + shift
                           + math.log(max(total, 1e-300)))
        qerr += err * math.exp(shift)
        n_eval += evals
    if qerr > tol:
        raise QuadratureError(f"Renyi MI error above tol = {tol!r}", qerr)
    log_sum = float(logsumexp(log_weighted))
    value = log_sum / (lam - 1.0)
    parts = np.exp(log_weighted)
    return MIEstimate(value=max(value, 0.0) if value > -1e-6 else value,
                      partial_by_atom=tuple(float(v) for v in parts),
                      quadrature_error=qerr, gap_bound=gap_bound,
                      n_eval=n_eval)


def soft_covering_kl_bound(I_lambda: float, lam: float, n: int) -> float:
    """(1/(lam-1)) log(1 + exp((lam-1)(I_lambda - log n))), via softplus."""
    if not (1.0 < lam <= 2.0):
        raise ValueError("lambda must lie in (1, 2]")
    if n < 2:
        raise ValueError("n must be >= 2")
    x = (lam - 1.0) * (I_lambda - math.log(n))
    return float(np.logaddexp(0.0, x)) / (lam - 1.0)
