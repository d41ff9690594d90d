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
from dataclasses import dataclass

import numpy as np

from ._quad import _integrate_members, _simpson_members, adaptive_simpson
from .dist_core import (LOG_SQRT_2PI, AtomicDistribution, SmoothedMixture,
                        _deep_quantiles, _logsumexp_atoms, _member_rows,
                        _row_slices, _scratch, logsumexp)


def _windows(A: SmoothedMixture, B: SmoothedMixture, rows_a=None, rows_b=None,
             members: int = 1):
    """Each member's joint deep-quantile window, as lists of lo and hi; the
    rows are one per member."""
    a_lo, a_hi = _deep_quantiles(A, rows_a, members)
    b_lo, b_hi = _deep_quantiles(B, rows_b, members)
    lo = [min(float(a), float(b)) for a, b in zip(a_lo, b_lo)]
    hi = [max(float(a), float(b)) for a, b in zip(a_hi, b_hi)]
    return lo, hi


def _breakpoints(A: SmoothedMixture, B: SmoothedMixture, lo: float, hi: float):
    feats = [np.array([lo, hi])]
    s = max(A.sigma, B.sigma)
    offs = np.array([-12.0, -4.0, -1.0, 0.0, 1.0, 4.0, 12.0]) * s
    for m in (A, B):
        locs = m.base.locations
        if locs.size > 17:
            locs = locs[np.linspace(0, locs.size - 1, 17).astype(int)]
        feats.append((locs[:, None] + offs[None, :]).ravel())
    return np.clip(np.concatenate(feats), lo, hi)


def _tail_masses(m: SmoothedMixture, lo, hi, rows=None):
    return np.exp(m.log_cdf(lo, rows)) + np.exp(m.log_sf(hi, rows))


def kl_divergence(A: SmoothedMixture, B: SmoothedMixture,
                  tol: float = 1e-10) -> float:
    """int rho_A log(rho_A/rho_B), nonnegative by construction.

    Integrates the Bregman form rho_B - rho_A - rho_A d (d = log rho_B/rho_A),
    whose full-line integral equals the KL divergence; the window clipping is
    compensated by the exact clipped-tail masses.
    """
    return _kl_members([A], [B], tol)[0]


def _kl_members(As, Bs, tol: float = 1e-10) -> list:
    """kl_divergence(As[i], Bs[i], tol) for each member i, bit for bit, with
    the kernel calls shared: the As must share atoms and sigma, and so must
    the Bs. Each member keeps its own window, breakpoints and quadrature."""
    A, rows_a = As[0], _member_rows(As)
    B, rows_b = Bs[0], _member_rows(Bs)
    every = np.arange(len(As))
    lo, hi = _windows(A, B, rows_a(every), rows_b(every), every.size)

    def integrand(t, member):
        la = A.log_pdf(t, rows_a(member))
        d = B.log_pdf(t, rows_b(member)) - la
        small = np.abs(d) < 1e-5
        g = np.where(small,
                     0.5 * d * d * (1.0 + d / 3.0 + d * d / 12.0),
                     np.expm1(np.where(small | (d > 30.0), 0.0, d))
                     - np.where(small | (d > 30.0), 0.0, d))
        out = np.exp(la) * g
        big = d > 30.0
        if np.any(big):
            out = np.where(big, np.exp(la + d) - np.exp(la) * (1.0 + d), out)
        return out

    results = _integrate_members(
        adaptive_simpson, integrand,
        [_breakpoints(A, B, lo[i], hi[i]) for i in every], tol)
    # int_w (rho_B - rho_A) = tail-mass(A) - tail-mass(B)
    mass_corr = (_tail_masses(A, lo, hi, rows_a(every))
                 - _tail_masses(B, lo, hi, rows_b(every)))
    values = []
    for res, corr in zip(results, mass_corr):
        value = res.total - float(corr)
        if value < 0.0:
            value = 0.0 if value >= -10 * tol else value
        values.append(value)
    return values


def chi2_divergence(A: SmoothedMixture, B: SmoothedMixture,
                    tol: float = 1e-10) -> float:
    """int (rho_A - rho_B)^2 / rho_B over the joint deep-quantile window."""
    (lo,), (hi,) = _windows(A, B)

    def integrand(t):
        lb = B.log_pdf(t)
        e = A.log_pdf(t) - lb
        big = e > 300.0
        u = np.expm1(np.where(big, 0.0, e))
        out = np.exp(lb) * u * u
        if np.any(big):
            with np.errstate(over="ignore"):
                out = np.where(big, np.exp(2.0 * (e + lb) - lb), out)
        return out

    res = adaptive_simpson(integrand, _breakpoints(A, B, lo, hi), tol)
    return max(res.total, 0.0)


@dataclass(frozen=True)
class MIEstimate:
    """quadrature_error sums the windows' Richardson estimates; gap_bound is
    the certified remainder of the stretches of [-R, R] between the windows,
    which are not integrated; n_eval counts integrand evaluations over all
    atoms and windows.

    Both errors bound the part sum S = sum(partial_by_atom). For the chi^2
    MI that is `value`; for the Renyi MI `value` is log(S) / (lam - 1), so
    an error eps of S moves it by about eps / ((lam - 1) S)."""
    value: float
    truncation_radius: float
    partial_by_atom: tuple
    quadrature_error: float
    gap_bound: float
    n_eval: int


def _default_radius(p: AtomicDistribution, sigma: float, tol: float) -> float:
    return float(np.max(np.abs(p.locations))
                 + sigma * math.sqrt(2.0 * math.log(1.0 / tol)) + 10.0 * sigma)


_MI_OFFSETS = np.array([-16.0, -8.0, -4.0, -2.0, -1.0, 0.0, 1.0, 2.0, 4.0, 8.0, 16.0])


def _mi_breakpoints(p: AtomicDistribution, sigma: float, R: float):
    offs = _MI_OFFSETS * sigma
    pts = (p.locations[:, None] + offs[None, :]).ravel()
    return np.clip(np.concatenate([[-R, R], pts]), -R, R)


def _mi_windows(p: AtomicDistribution, sigma: float, R: float) -> tuple:
    """(windows, gap_mass). The windows are where the kernels live: the
    merged intervals [r_j - 16 sigma, r_j + 16 sigma] within [-R, R], in
    order, as (lo, hi) pairs whose ends are _mi_breakpoints values. The
    stretches of [-R, R] between them lie beyond 16 sigma of every kernel, so
    each kernel has at most its two-sided tail mass beyond 16 sigma there,
    gap_mass (0 when nothing is left out)."""
    reach = _MI_OFFSETS[-1] * sigma
    locs = np.sort(p.locations)
    windows = []
    for a, b in zip(np.clip(locs - reach, -R, R), np.clip(locs + reach, -R, R)):
        if windows and a <= windows[-1][1]:
            windows[-1][1] = b
        elif a < b:
            windows.append([a, b])
    windows = [(float(a), float(b)) for a, b in windows]
    if windows == [(-R, R)]:
        return windows, 0.0
    return windows, math.erfc(_MI_OFFSETS[-1] / math.sqrt(2.0))


def _mi_atom_quad(f, bp, windows, tol: float):
    """f integrated over the windows to within tol in total: one
    _simpson_members call whose members are the windows, each seeded with the
    breakpoints inside it and given a share of tol proportional to its width.
    Returns (total, summed error estimate, n_eval)."""
    if not windows:
        return 0.0, 0.0, 0
    widths = np.array([b - a for a, b in windows])
    res = _simpson_members(lambda t, member: f(t),
                           [bp[(bp >= a) & (bp <= b)] for a, b in windows],
                           tol * widths / widths.sum())
    return (float(np.sum([r.total for r in res])),
            float(np.sum([r.error_estimate for r in res])),
            sum(r.n_eval for r in res))


def _log_mix_rel(p: AtomicDistribution, sigma: float, k: int,
                 y: np.ndarray) -> np.ndarray:
    """s(y) = log(w_k phi_k(y) / rho(y)) <= 0, built from atom-relative
    exponent differences so no large-magnitude cancellation enters.

    The j-th relative exponent (logw_j + logphi_j) - (logw_k + logphi_k) is
    huge in magnitude wherever the two kernels differ a lot, but rounding there
    is harmless because the corresponding term is negligible; near crossovers
    the difference is small and exact.

    The (atoms x points) exponents are built in cache-sized slices of y, in
    the calling thread's kernel scratch, and reduced over the atom axis; the
    bits are those of -logsumexp over the (points x atoms) array.

    Points inside _owned_interval(p, sigma, k, y) are not built: there every
    other atom's exponent rounds below -746, so its exp is +0.0, atom k's own
    exponent is 0.0 and alone at the max, and the log-sum is
    log1p(0) + log(1) + 0.0, whose negation is -0.0. They get -0.0.
    """
    locs = p.locations
    rk = locs[k]
    lw_rel = (p.log_weights - p.log_weights[k])[:, None]
    lo, hi = _owned_interval(p, sigma, k, y)
    rest = ~((y > lo) & (y < hi))
    y_rest = y[rest]
    rel = np.empty(y_rest.shape)
    for r in _row_slices(y_rest.size, locs.size):
        yr = y_rest[r]
        delta, e, ties = _scratch((locs.size, yr.size))
        np.square(np.subtract(yr, locs[:, None], out=delta), out=delta)
        np.subtract(np.square(yr - rk), delta, out=delta)
        np.divide(delta, 2.0 * sigma * sigma, out=delta)
        np.add(lw_rel, delta, out=delta)
        rel[r] = _logsumexp_atoms(delta, e, ties)
    out = np.zeros(y.shape)
    out[rest] = rel
    return np.negative(out, out=out)


def _owned_interval(p: AtomicDistribution, sigma: float, k: int,
                    y: np.ndarray) -> tuple:
    """(lo, hi) such that, for every point of y in the open interval, each
    atom j != k has a computed exponent of _log_mix_rel below -746.

    That exponent is exactly the linear form
    a_j(y) = (lw_j - lw_k) + (r_j - r_k)(2y - r_j - r_k) / (2 sigma^2),
    so a_j(y) < T bounds y above for r_j > r_k and below for r_j < r_k. With
    T = -746 - M, the margin M covers the float64 rounding of the computed
    exponent (a few u((|y| + |r|)^2 / sigma^2 + |lw_j - lw_k|), u = 2^-53)
    and that of the ends, which moves a_j by a few u(max|r|^2 / sigma^2 +
    |T - (lw_j - lw_k)|); 32 times the first bound plus 1 holds both. Where M
    is not finite (an overflow, or a NaN in y) the interval is empty.
    """
    locs, lw = p.locations, p.log_weights
    d = locs - locs[k]
    with np.errstate(all="ignore"):
        q = np.abs(y).max(initial=0.0) + np.abs(locs).max()
        margin = (32.0 * 2.0 ** -53
                  * (q * q / (sigma * sigma) + 2.0 * np.abs(lw).max()) + 1.0)
        ends = (0.5 * (locs + locs[k])
                + sigma * sigma * (-746.0 - margin - (lw - lw[k])) / d)
    if not np.isfinite(margin):
        return 0.0, 0.0
    # d = 0 only at atom k itself
    return (float(ends[d < 0.0].max(initial=-np.inf)),
            float(ends[d > 0.0].min(initial=np.inf)))


def chi2_mutual_information(p: AtomicDistribution, sigma: float,
                            truncation_radius: float | None = None,
                            tol: float = 1e-9) -> MIEstimate:
    """Chi-square mutual information of S ~ p across Y = S + N(0, sigma^2).

    Decomposes as sum_k w_k chi2(phi_k || rho) with phi_k the noise kernel at
    atom k; per-atom increments are integrated separately over the kernels'
    windows within |y| <= R (_mi_windows) and reported. The integrand is assembled as phi_k e^s (1 - e^(logw_k - s))^2
    with s = log(w_k phi_k / rho), which stays float-stable even when the atom
    weights live at log-scale -1e8.
    """
    R = truncation_radius if truncation_radius is not None else \
        _default_radius(p, sigma, tol)
    bp = _mi_breakpoints(p, sigma, R)
    windows, gap_mass = _mi_windows(p, sigma, R)
    log_norm = -math.log(sigma) - LOG_SQRT_2PI
    parts = []
    qerr = gap_bound = 0.0
    n_eval = 0
    per_tol = tol / p.n_atoms
    for k in range(p.n_atoms):
        rk = p.locations[k]
        lwk = p.log_weights[k]

        def integrand(y, rk=rk, lwk=lwk, k=k):
            lphi = -0.5 * ((y - rk) / sigma) ** 2 + log_norm
            s = _log_mix_rel(p, sigma, k, y)
            # w_k (phi_k - rho)^2 / rho = phi_k e^s (1 - rho/phi_k)^2 with
            # rho/phi_k = exp(logw_k - s); where that ratio overflows the
            # square is dominated by its cross-free term w_k rho
            big = (lwk - s) > 300.0
            ratio = np.exp(np.where(big, 0.0, lwk - s))
            out = np.exp(lphi + s) * (1.0 - ratio) ** 2
            return np.where(big, np.exp(lphi + 2.0 * lwk - s), out)

        total, err, evals = _mi_atom_quad(integrand, bp, windows, per_tol)
        parts.append(max(total, 0.0))
        qerr += err
        n_eval += evals
        # w_k (phi_k - rho)^2 / rho <= phi_k + w_k rho, as rho >= w_k phi_k
        gap_bound += (1.0 + math.exp(lwk)) * gap_mass
    return MIEstimate(value=float(np.sum(parts)), truncation_radius=R,
                      partial_by_atom=tuple(parts), quadrature_error=qerr,
                      gap_bound=gap_bound, n_eval=n_eval)


def renyi_mutual_information(p: AtomicDistribution, sigma: float, lam: float,
                             truncation_radius: float | None = None,
                             tol: float = 1e-9) -> MIEstimate:
    """I_lam(S;Y) = (1/(lam-1)) log sum_k w_k int phi_k^lam rho^(1-lam) dy.

    Per-atom integrals are carried as logs (they scale like w_k^(1-lam), far
    outside float range for deep atoms); the reported per-atom parts are the
    bounded products w_k * J_k.
    """
    if not (1.0 < lam < 2.0):
        raise ValueError("lambda must lie in (1, 2)")
    R = truncation_radius if truncation_radius is not None else \
        _default_radius(p, sigma, tol)
    bp = _mi_breakpoints(p, sigma, R)
    windows, gap_mass = _mi_windows(p, sigma, R)
    log_norm = -math.log(sigma) - LOG_SQRT_2PI
    ordered = np.sort(bp)
    seed = np.unique(np.concatenate([bp, 0.5 * (ordered[:-1] + ordered[1:])]))
    log_weighted = np.empty(p.n_atoms)
    qerr = gap_bound = 0.0
    n_eval = 0
    for k in range(p.n_atoms):
        rk = p.locations[k]

        # phi_k^lam rho^(1-lam) = w_k^(1-lam) exp(g) with
        # g = log phi_k + (lam-1) s, s = log(w_k phi_k / rho) <= 0
        def log_expo(y, rk=rk, k=k):
            lphi = -0.5 * ((y - rk) / sigma) ** 2 + log_norm
            return lphi + (lam - 1.0) * _log_mix_rel(p, sigma, k, y)

        shift = float(np.max(log_expo(seed)))

        def integrand(y, shift=shift, rk=rk, k=k):
            return np.exp(log_expo(y, rk, k) - shift)

        total, err, evals = _mi_atom_quad(integrand, bp, windows, tol)
        # w_k J_k = w_k^(2-lam) exp(shift) * total
        log_weighted[k] = ((2.0 - lam) * p.log_weights[k] + shift
                           + math.log(max(total, 1e-300)))
        if shift < 700.0:
            qerr += err * math.exp(shift)
        n_eval += evals
        # the integrand is <= phi_k e^(-shift), as s <= 0; scaled by e^shift
        # as the error is
        gap_bound += gap_mass
    log_sum = float(logsumexp(log_weighted))
    value = log_sum / (lam - 1.0)
    parts = np.exp(log_weighted)
    return MIEstimate(value=max(value, 0.0) if value > -1e-6 else value,
                      truncation_radius=R,
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
