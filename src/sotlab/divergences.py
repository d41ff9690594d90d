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

from ._quad import (QuadratureError, _integrate_members, _simpson_members,
                    adaptive_simpson)
from .dist_core import (LOG_SQRT_2PI, AtomicDistribution, SmoothedMixture,
                        _logsumexp_atoms, _row_slices, _seed_breakpoints,
                        _Side, logdiffexp, logsumexp)


def _divergence_members(As, Bs, integrand, tol: float):
    """integrand(log rho_A, log rho_B) over each member's joint deep-quantile
    window, seeded by _seed_breakpoints; member i is the pair As[i], Bs[i].
    The As must share atoms and sigma, and so must the Bs: the kernel calls
    are shared, and each member keeps its own window, breakpoints and
    quadrature, so it gets the bits of its lone call. Each side's deep
    quantiles are solved as _Side says (once for a shared truth). Returns
    each member's QuadResult, the windows' lower and upper ends, and the two
    _Sides."""
    a, b = _Side(As), _Side(Bs)
    lo, hi = np.minimum(a.lo, b.lo), np.maximum(a.hi, b.hi)
    results = _integrate_members(
        adaptive_simpson,
        lambda t, member: integrand(a.m.log_pdf(t, a.rows(member)),
                                    b.m.log_pdf(t, b.rows(member))),
        _seed_breakpoints(a.m, b.m, lo, hi), tol)
    return results, lo, hi, a, b


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
    results, lo, hi, a, b = _divergence_members(As, Bs, _kl_integrand, tol)
    a_tail, b_tail = (np.exp(s.m.log_cdf(lo, s.table))
                      + np.exp(s.m.log_sf(hi, s.table)) for s in (a, b))
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
    results = _divergence_members(As, Bs, _chi2_integrand, tol)[0]
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
# the largest |offset| of an atom from a window, in sigma: a kernel farther
# away is exp(-5e299) = 0 there either way, and with the cap every
# (v + d)^2 is finite, so no relative exponent is inf - inf
_FAR = 1e150


def _mi_windows(p: AtomicDistribution, sigma: float):
    """The windows where the kernels live, in units of sigma: each cluster
    of atoms whose gaps are at most 32 sigma, widened by 16 sigma on both
    sides. The rest of the line lies beyond 16 sigma of every kernel, so
    each kernel has at most _GAP_MASS of its mass there.

    Window w is integrated in v = (y - c_w) / sigma, c_w its atom nearest
    its midpoint: the MIs are scale-free, and measured from an atom the
    nodes stay exact, where at |y| ~ 1e8 float64 would move each by up to
    7e-9 and the panels' |K15 - G7| could not shrink below that noise. Returns (d, seeds): d[j, w] = (c_w - r_j) / sigma, capped at
    +-_FAR, is atom j's offset from window w, so that its kernel there is
    the standard normal density at v + d[j, w]; seeds[w] are window w's
    breakpoints -d[j, w] + _MI_OFFSETS over its atoms j, sorted, the
    window's ends among them.
    """
    if not sigma > 0.0:
        raise ValueError("sigma must be positive")
    locs = p.locations
    with np.errstate(over="ignore"):
        cut = np.flatnonzero(np.diff(locs) / sigma > 2.0 * _MI_OFFSETS[-1])
        clusters = np.split(np.arange(locs.size), cut + 1)
        refs = np.array([locs[c][np.argmin(np.abs(
            locs[c] - 0.5 * (locs[c[0]] + locs[c[-1]])))] for c in clusters])
        d = np.clip((refs[None, :] - locs[:, None]) / sigma, -_FAR, _FAR)
    seeds = [np.unique(_MI_OFFSETS[None, :] - d[c, w][:, None])
             for w, c in enumerate(clusters)]
    return d, seeds


def _mi_atom_quad(f, seeds, tol: float):
    """f integrated over the windows to within tol in total: one
    _simpson_members call whose members are the windows, each seeded with
    its breakpoints (see _mi_windows) and given a share of tol proportional
    to its width. f(v, w) is the integrand at points v of the windows w,
    one per point, so a round's points of all windows go to f in one call.
    Returns (total, summed error estimate, n_eval)."""
    widths = np.array([s[-1] - s[0] for s in seeds])
    res = _simpson_members(f, seeds, tol * widths / widths.sum())
    return (float(np.sum([r.total for r in res])),
            float(np.sum([r.error_estimate for r in res])),
            sum(r.n_eval for r in res))


def _log_mix(log_w: np.ndarray, v: np.ndarray, d: np.ndarray,
             w: np.ndarray, k=None) -> np.ndarray:
    """log sum_j w_j exp(-(v + d_j)^2 / 2) at each point v, w_j = e^log_w[j]
    and d_j = d[j, w] its offset from atom j in its window w (_mi_windows).
    With k, the log-ratio s = log(w_k phi_k / rho) <= 0 instead, built from
    the exponents relative to atom k's, log(w_j / w_k) + (v + d_k)^2 / 2
    - (v + d_j)^2 / 2, so no large-magnitude cancellation enters: such an
    exponent is huge in magnitude wherever the two kernels differ a lot, but
    rounding there is harmless because the term is negligible; near
    crossovers the difference is small and exact.

    The (atoms x points) exponents are built on fresh arrays in cache-sized
    slices of the points, each gathering its points' columns of d, and
    reduced over the atom axis; the bits are those of logsumexp over the
    (points x atoms) array.
    """
    lw = (log_w if k is None else log_w - log_w[k])[:, None]
    out = np.empty(v.shape)
    for r in _row_slices(v.size, lw.size):
        x = np.take(d, w[r], axis=1)
        np.add(x, v[r], out=x)
        np.square(x, out=x)
        if k is None:
            np.multiply(x, -0.5, out=x)
        else:
            # numpy reads the row x[k] before writing over it
            np.subtract(x[k], x, out=x)
            np.multiply(x, 0.5, out=x)
        np.add(lw, x, out=x)
        out[r] = _logsumexp_atoms(x, np.empty_like(x),
                                  np.empty(x.shape, dtype=bool))
    return out if k is None else np.negative(out, out=out)


def _log_kl_by_differences(p: AtomicDistribution, sigma: float, sign,
                           log_delta) -> float:
    """log KL(P*N || Q*N) for Q = P + Delta on P's atoms, from P, sigma and
    Delta_j = sign[j] exp(log_delta[j]) (-inf where Q_j = P_j); Q's weights
    must be positive: a = max |Delta_j| / w_j over Delta_j < 0 is below 1.

    The Bregman form rho_P (u - log(1+u)), u = sum_j Delta_j phi_j / rho_P,
    each sign of the sum taken in log space (_log_mix) so that rho_Q and
    rho_P are never subtracted, is integrated over the kernels' windows
    (_mi_windows) in units of sigma, divided inside its one exp by the
    discrete chi^2 scale S = sum_j Delta_j^2 / w_j: tol 1e-9 is relative to
    S. Off the windows u - log(1+u) <= u^2 / (2 (1 - a)) as u >= -a, and
    (sum_j Delta_j phi_j)^2 / rho_P <= sum_j (Delta_j^2 / w_j) phi_j by
    Cauchy-Schwarz; each phi_j has at most _GAP_MASS of its mass there, so
    the remainder is at most _GAP_MASS S / (2 (1 - a)).
    """
    d, seeds = _mi_windows(p, sigma)
    pos = sign > 0
    log_scale = float(logsumexp(2.0 * log_delta - p.log_weights))

    def integrand(v, w):
        log_rho = _log_mix(p.log_weights, v, d, w)
        lp = _log_mix(log_delta[pos], v, d[pos], w)
        ln = _log_mix(log_delta[~pos], v, d[~pos], w)
        log_u = logdiffexp(np.maximum(lp, ln), np.minimum(lp, ln)) - log_rho
        u = np.where(lp >= ln, 1.0, -1.0) * np.exp(log_u)
        small = np.abs(u) < 1e-5
        safe = np.where(small, 1.0, u)
        # log(u - log(1+u)), a series in u on the small branch
        log_g = np.where(small, 2.0 * log_u + np.log(0.5 - u / 3 + u * u / 4),
                         np.log(safe - np.log1p(safe)))
        return np.exp(log_rho - LOG_SQRT_2PI - log_scale + log_g)

    return log_scale + math.log(_mi_atom_quad(integrand, seeds, 1e-9)[0])


def chi2_mutual_information(p: AtomicDistribution, sigma: float,
                            tol: float = 1e-9) -> MIEstimate:
    """Chi-square mutual information of S ~ p across Y = S + N(0, sigma^2).

    Decomposes as sum_k w_k chi2(phi_k || rho) with phi_k the noise kernel at
    atom k; per-atom increments are integrated separately over the kernels'
    windows (_mi_windows), in units of sigma, and reported, and gap_bound
    covers the rest of the line. The integrand is assembled as
    phi_k e^s (1 - e^(logw_k - s))^2 with s = log(w_k phi_k / rho), which
    stays float-stable even when the atom weights live at log-scale -1e8.
    """
    d, seeds = _mi_windows(p, sigma)
    # each window's largest |d|
    reach = np.abs(d).max(axis=0)
    parts = []
    qerr = gap_bound = 0.0
    n_eval = 0
    per_tol = tol / p.n_atoms
    two_lw_max = 2.0 * np.abs(p.log_weights).max()
    for k in range(p.n_atoms):
        lwk = p.log_weights[k]

        def integrand(v, w, k=k, lwk=lwk):
            lphi = -0.5 * (v + d[k, w]) ** 2 - LOG_SQRT_2PI
            s = _log_mix(p.log_weights, v, d, w, k)
            # w_k (phi_k - rho)^2 / rho = phi_k e^s (1 - rho/phi_k)^2 with
            # rho/phi_k = exp(logw_k - s); where that ratio is above e^300
            # this reads 0, and the square is its cross-free term w_k rho
            big = (lwk - s) > 300.0
            ratio = np.exp(np.where(big, 0.0, lwk - s))
            out = np.exp(lphi + s) * (1.0 - ratio) ** 2
            if not big.any():
                return out
            # w_k rho rounds to 0 below e^-746. Its log lphi + 2 logw_k - s
            # errs by what lphi - s cancels, two (v + d_k)^2 / 2 terms each
            # rounded at its own scale: at most
            # 2^-48 ((|v| + max_j |d_j|)^2 + 2 max|lw|) + 1. Where it can be
            # representable, w_k rho is taken from log rho itself
            q = np.abs(v) + reach[w]
            redo = big & (lphi + 2.0 * lwk - s
                          > -746.0 - (2.0 ** -48 * (q * q + two_lw_max) + 1.0))
            if redo.any():
                out[redo] = np.exp(lwk - LOG_SQRT_2PI + _log_mix(
                    p.log_weights, v[redo], d, w[redo]))
            return out

        total, err, evals = _mi_atom_quad(integrand, seeds, per_tol)
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

    Atom k's integrand is integrated in units of sigma (_mi_windows), scaled
    by e^(-shift), shift its largest log-value on the windows' seeds, and
    its error estimate is scaled back by e^shift. There the integrand is at
    most the standard normal density, so shift <= -log sqrt(2 pi) < 0 and
    the scaled error is below the one the quadrature met.
    QuadratureError is raised if the summed quadrature_error exceeds tol.

    An atom whose part w_k J_k provably rounds to +0.0 is not integrated:
    the integrand is <= phi_k <= 1/sqrt(2 pi), as s <= 0, so the part is at
    most w_k^(2-lam) / sqrt(2 pi) times the windows' total width.
    """
    if not (1.0 < lam < 2.0):
        raise ValueError("lambda must lie in (1, 2)")
    d, seeds = _mi_windows(p, sigma)
    # each window's breakpoints and the midpoints between them
    seed = [np.concatenate([s, 0.5 * (s[:-1] + s[1:])]) for s in seeds]
    seed_w = np.repeat(np.arange(len(seed)), [s.size for s in seed])
    seed = np.concatenate(seed)
    log_width = math.log(sum(s[-1] - s[0] for s in seeds))
    log_weighted = np.empty(p.n_atoms)
    qerr = gap_bound = 0.0
    n_eval = 0
    for k in range(p.n_atoms):
        # outside the windows, w_k^(2-lam) e^g <= phi_k as s <= 0
        gap_bound += _GAP_MASS
        if (2.0 - lam) * p.log_weights[k] - LOG_SQRT_2PI + log_width < -746.0:
            log_weighted[k] = -np.inf
            continue

        # phi_k^lam rho^(1-lam) = w_k^(1-lam) exp(g) with
        # g = log phi_k + (lam-1) s, s = log(w_k phi_k / rho) <= 0
        def log_expo(v, w, k=k):
            return (-0.5 * (v + d[k, w]) ** 2 - LOG_SQRT_2PI
                    + (lam - 1.0) * _log_mix(p.log_weights, v, d, w, k))

        shift = float(np.max(log_expo(seed, seed_w)))

        def integrand(v, w, shift=shift, k=k):
            return np.exp(log_expo(v, w, k) - shift)

        total, err, evals = _mi_atom_quad(integrand, seeds, tol)
        # w_k J_k = w_k^(2-lam) exp(shift) * total, whose error is at most
        # e^shift err, as w_k <= 1
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
