"""Batched adaptive Simpson quadrature.

The integrands here (transport displacement densities, divergence integrands)
are expensive per point but fully vectorizable, so the work queue is processed
in batches: every pending panel's two half-panel midpoints are evaluated in a
single call to f. Accepted contributions are summed in left-edge order so a
given (integrand, breakpoints, tol) always reduces to the same float.
Several integrands (members of a batch) can share those calls to f while
each keeps its own panels, so each reduces to the float it gets alone.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class QuadratureError(RuntimeError):
    """Raised when depth-capped panels leave more error than tol allows;
    carries the last estimate."""

    def __init__(self, message: str, estimate: float):
        super().__init__(f"{message} (last estimate {estimate:.6e})")
        self.estimate = estimate


@dataclass(frozen=True)
class QuadResult:
    total: float
    error_estimate: float
    n_eval: int
    panel_edges: np.ndarray      # left edges of accepted panels, sorted
    panel_values: np.ndarray     # contribution of each accepted panel
    converged: bool


def adaptive_simpson(f, breakpoints, tol: float, max_depth: int = 40,
                     max_eval: int = 2_000_000, strict: bool = True) -> QuadResult:
    """Integrate f over [min(breakpoints), max(breakpoints)].

    f maps an ndarray of points to an ndarray of values. Each adjacent pair of
    deduplicated breakpoints seeds one panel; panels split until the local
    Richardson error estimate fits within tol prorated by panel width.

    A panel that reaches max_depth is accepted with whatever error it has.
    Around a near-jump of the integrand (e.g. a transport map crossing a deep
    density gap) such panels carry only evaluation noise, so the integral
    counts as converged while the summed error estimate of all accepted
    panels stays within their summed tolerance.
    """
    return _simpson_members(lambda t, member: f(t), [breakpoints], [tol],
                            max_depth, max_eval, strict)[0]


def _integrate_members(simpson, f, breakpoints, tol: float) -> list:
    """One QuadResult per member: f(t, member) as for _simpson_members. A
    lone member goes through `simpson` (the caller's adaptive_simpson) with
    member None, so that it stays a quadrature call of its own."""
    if len(breakpoints) == 1:
        return [simpson(lambda t: f(t, None), breakpoints[0], tol)]
    return _simpson_members(f, breakpoints, [tol] * len(breakpoints))


def _simpson_members(f, breakpoints, tols, max_depth: int = 40,
                     max_eval: int = 2_000_000, strict: bool = True) -> list:
    """adaptive_simpson of several integrands (members) at once, sharing only
    the calls to f: f(t, member) returns member[j]'s integrand at t[j].

    Member i has its own breakpoints[i], tols[i], panels, n_eval and max_eval
    budget. The pending panels of all members are held in one set of arrays,
    each member's in the order adaptive_simpson would hold them, and all
    arithmetic on them is elementwise, so each member's QuadResult is bit for
    bit the one adaptive_simpson gives it alone. With strict, the first
    unconverged member raises QuadratureError.
    """
    seeds = [np.unique(np.asarray(bp, dtype=float)) for bp in breakpoints]
    if any(pts.size < 2 for pts in seeds):
        raise ValueError("need at least two distinct breakpoints")
    k = len(seeds)
    tol = np.asarray(tols, dtype=float)
    span = np.array([pts[-1] - pts[0] for pts in seeds])
    member = np.repeat(np.arange(k), [pts.size - 1 for pts in seeds])
    lo = np.concatenate([pts[:-1] for pts in seeds])
    hi = np.concatenate([pts[1:] for pts in seeds])
    mid = 0.5 * (lo + hi)
    # first call: each member's breakpoints, then its panel midpoints
    nodes = [np.concatenate([pts, mid[member == i]]) for i, pts in enumerate(seeds)]
    n_eval = np.array([x.size for x in nodes])
    vals = np.asarray(f(np.concatenate(nodes), np.repeat(np.arange(k), n_eval)),
                      dtype=float)
    vals = np.split(vals, np.cumsum(n_eval)[:-1])
    f_lo = np.concatenate([v[: pts.size - 1] for v, pts in zip(vals, seeds)])
    f_hi = np.concatenate([v[1: pts.size] for v, pts in zip(vals, seeds)])
    f_mid = np.concatenate([v[pts.size:] for v, pts in zip(vals, seeds)])
    S = (hi - lo) / 6.0 * (f_lo + 4.0 * f_mid + f_hi)
    depth = np.zeros(lo.shape, dtype=np.int32)

    acc_edges = [[] for _ in range(k)]
    acc_vals = [[] for _ in range(k)]
    acc_err = [0.0] * k
    acc_tol = [0.0] * k
    converged = np.ones(k, dtype=bool)

    while lo.size:
        m1 = 0.5 * (lo + mid)
        m2 = 0.5 * (mid + hi)
        fv = np.asarray(f(np.concatenate([m1, m2]), np.concatenate([member, member])),
                        dtype=float)
        n_eval += 2 * np.bincount(member, minlength=k)
        f_m1 = fv[: m1.size]
        f_m2 = fv[m1.size:]
        Sl = (mid - lo) / 6.0 * (f_lo + 4.0 * f_m1 + f_mid)
        Sr = (hi - mid) / 6.0 * (f_mid + 4.0 * f_m2 + f_hi)
        S2 = Sl + Sr
        err = (S2 - S) / 15.0
        local_tol = tol[member] * np.maximum((hi - lo) / span[member], 1e-300)
        # Richardson estimates below the rounding floor of S2 itself cannot be
        # refined away; accept them rather than splitting forever
        local_tol = np.maximum(local_tol, 8e-16 * np.abs(S2) + 1e-300)
        done = (np.abs(err) <= local_tol) | (depth >= max_depth) | \
               (hi - lo <= 1e-15 * (1.0 + np.abs(lo) + np.abs(hi)))
        # a member past its budget accepts every pending panel
        over = n_eval > max_eval
        if np.any(over):
            done |= over[member]
            converged &= ~over
        # the finished panels grouped by member, each member's in round order
        fin = np.flatnonzero(done)
        fin = fin[np.argsort(member[fin], kind="stable")]
        fin_lo, fin_err, fin_tol = lo[fin], err[fin], local_tol[fin]
        fin_val = S2[fin] + fin_err
        fin_abs = np.abs(fin_err)
        start = 0
        for i, count in enumerate(np.bincount(member[fin], minlength=k).tolist()):
            if count:
                sel = slice(start, start + count)
                start += count
                acc_edges[i].append(fin_lo[sel])
                acc_vals[i].append(fin_val[sel])
                acc_err[i] += float(fin_abs[sel].sum())
                acc_tol[i] += float(fin_tol[sel].sum())
        keep = ~done
        lo, mid, hi, f_lo, f_mid, f_hi, S, depth, Sl, Sr, f_m1, f_m2, m1, m2, member = (
            lo[keep], mid[keep], hi[keep], f_lo[keep], f_mid[keep], f_hi[keep],
            S[keep], depth[keep], Sl[keep], Sr[keep], f_m1[keep], f_m2[keep],
            m1[keep], m2[keep], member[keep])
        # split survivors into their two halves
        lo = np.concatenate([lo, mid])
        hi = np.concatenate([mid, hi])
        f_lo = np.concatenate([f_lo, f_mid])
        f_hi = np.concatenate([f_mid, f_hi])
        mid = np.concatenate([m1, m2])
        f_mid = np.concatenate([f_m1, f_m2])
        S = np.concatenate([Sl, Sr])
        depth = np.concatenate([depth, depth]) + 1
        member = np.concatenate([member, member])

    results = []
    for i in range(k):
        edges = np.concatenate(acc_edges[i]) if acc_edges[i] else np.empty(0)
        values = np.concatenate(acc_vals[i]) if acc_vals[i] else np.empty(0)
        order = np.argsort(edges, kind="stable")
        edges = edges[order]
        values = values[order]
        total = float(np.sum(values))
        ok = bool(converged[i]) and not acc_err[i] > acc_tol[i]
        if strict and not ok:
            raise QuadratureError("quadrature did not converge", total)
        results.append(QuadResult(total=total, error_estimate=acc_err[i],
                                  n_eval=int(n_eval[i]), panel_edges=edges,
                                  panel_values=values, converged=ok))
    return results
