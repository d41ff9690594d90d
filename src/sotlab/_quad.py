"""Batched adaptive Simpson quadrature.

The integrands here (transport displacement densities, divergence integrands)
are expensive per point but fully vectorizable, so the work queue is processed
in batches: every pending panel's two half-panel midpoints are evaluated in a
single call to f. Accepted contributions are summed in left-edge order so a
given (integrand, breakpoints, tol) always reduces to the same float.
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
    pts = np.unique(np.asarray(breakpoints, dtype=float))
    if pts.size < 2:
        raise ValueError("need at least two distinct breakpoints")
    span = pts[-1] - pts[0]
    lo = pts[:-1].copy()
    hi = pts[1:].copy()
    mid = 0.5 * (lo + hi)
    nodes = np.concatenate([pts, mid])
    vals = np.asarray(f(nodes), dtype=float)
    n_eval = nodes.size
    f_lo = vals[: pts.size - 1]
    f_hi = vals[1: pts.size]
    f_mid = vals[pts.size:]
    S = (hi - lo) / 6.0 * (f_lo + 4.0 * f_mid + f_hi)
    depth = np.zeros(lo.shape, dtype=np.int32)

    acc_edges = []
    acc_vals = []
    acc_err = 0.0
    acc_tol = 0.0
    converged = True

    while lo.size:
        m1 = 0.5 * (lo + mid)
        m2 = 0.5 * (mid + hi)
        batch = np.concatenate([m1, m2])
        fv = np.asarray(f(batch), dtype=float)
        n_eval += batch.size
        f_m1 = fv[: m1.size]
        f_m2 = fv[m1.size:]
        Sl = (mid - lo) / 6.0 * (f_lo + 4.0 * f_m1 + f_mid)
        Sr = (hi - mid) / 6.0 * (f_mid + 4.0 * f_m2 + f_hi)
        S2 = Sl + Sr
        err = (S2 - S) / 15.0
        local_tol = tol * np.maximum((hi - lo) / span, 1e-300)
        # Richardson estimates below the rounding floor of S2 itself cannot be
        # refined away; accept them rather than splitting forever
        local_tol = np.maximum(local_tol, 8e-16 * np.abs(S2) + 1e-300)
        done = (np.abs(err) <= local_tol) | (depth >= max_depth) | \
               (hi - lo <= 1e-15 * (1.0 + np.abs(lo) + np.abs(hi)))
        if n_eval > max_eval:
            done = np.ones_like(done)
            converged = False
        if np.any(done):
            acc_edges.append(lo[done])
            acc_vals.append(S2[done] + err[done])
            acc_err += float(np.sum(np.abs(err[done])))
            acc_tol += float(np.sum(local_tol[done]))
        keep = ~done
        lo, mid, hi, f_lo, f_mid, f_hi, S, depth, Sl, Sr, f_m1, f_m2, m1, m2 = (
            lo[keep], mid[keep], hi[keep], f_lo[keep], f_mid[keep], f_hi[keep],
            S[keep], depth[keep], Sl[keep], Sr[keep], f_m1[keep], f_m2[keep],
            m1[keep], m2[keep])
        # split survivors into their two halves
        lo = np.concatenate([lo, mid])
        hi = np.concatenate([mid, hi])
        f_lo = np.concatenate([f_lo, f_mid])
        f_hi = np.concatenate([f_mid, f_hi])
        mid = np.concatenate([m1, m2])
        f_mid = np.concatenate([f_m1, f_m2])
        S = np.concatenate([Sl, Sr])
        depth = np.concatenate([depth, depth]) + 1

    edges = np.concatenate(acc_edges) if acc_edges else np.empty(0)
    values = np.concatenate(acc_vals) if acc_vals else np.empty(0)
    order = np.argsort(edges, kind="stable")
    edges = edges[order]
    values = values[order]
    total = float(np.sum(values))
    if acc_err > acc_tol:
        converged = False
    if strict and not converged:
        raise QuadratureError("quadrature did not converge", total)
    return QuadResult(total=total, error_estimate=acc_err, n_eval=n_eval,
                      panel_edges=edges, panel_values=values, converged=converged)
