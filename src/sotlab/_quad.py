"""Batched adaptive Gauss–Kronrod (7/15) quadrature.

The integrands here (transport displacement densities, divergence integrands)
are expensive per point but fully vectorizable, so the work queue is processed
in batches: every pending panel's 15 Kronrod nodes are evaluated in a single
call to f. A panel's value is its Kronrod sum K15 and its error estimate is
|K15 - G7|, against the 7-point Gauss sum on every other node. G7 is exact to
degree 13 and K15 to degree 22, so on these smooth integrands a panel
converges in a round or two and the estimate is far above K15's own error.
Accepted panels are summed in left-edge order, so a given (integrand,
breakpoints, tol) always gives the same float, also when several integrands
(members of a batch) share the calls to f.

The entry points keep the names `adaptive_simpson` and `_simpson_members` of
the adaptive Simpson rule this replaced, since callers and the benchmark's
tracer bind `adaptive_simpson` by name.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# the 15 Kronrod nodes on [-1, 1] in increasing order, with their Kronrod
# weights; the 7 Gauss nodes are every other one, and _GAUSS is 0 elsewhere
_NODES = np.array([0.9914553711208126, 0.9491079123427585, 0.8648644233597691,
                   0.7415311855993945, 0.5860872354676911, 0.4058451513773972,
                   0.20778495500789848, 0.0])
_NODES = np.concatenate([-_NODES[:-1], _NODES[::-1]])
_KRONROD = np.array([0.022935322010529224, 0.06309209262997856, 0.10479001032225019,
                     0.14065325971552592, 0.1690047266392679, 0.19035057806478542,
                     0.20443294007529889, 0.20948214108472782])
_KRONROD = np.concatenate([_KRONROD, _KRONROD[-2::-1]])
_GAUSS = np.zeros(15)
_GAUSS[1::2] = [0.1294849661688697, 0.27970539148927664, 0.3818300505051189,
                0.4179591836734694, 0.3818300505051189, 0.27970539148927664,
                0.1294849661688697]
# the error rule's node weights K15 - G7, and their magnitudes for noise
_DIFF = _KRONROD - _GAUSS
_ABS_DIFF = np.abs(_DIFF)


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

    f maps an ndarray of points to an ndarray of values, or to (values,
    noise) with noise bounding each value's evaluation error. Each adjacent
    pair of deduplicated breakpoints seeds one panel; panels are bisected
    until the local |K15 - G7| error estimate fits within tol prorated by
    panel width, or within what the noise can make of it, sum |K - G| noise.

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
    arithmetic on them is elementwise or a fixed-order sum over one panel's
    nodes, so each member's QuadResult is bit for bit the one adaptive_simpson
    gives it alone. With strict, the first unconverged member raises
    QuadratureError.
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
    depth, n_eval = np.zeros(lo.shape, dtype=np.int32), np.zeros(k, dtype=np.int64)
    acc_edges, acc_vals = [[] for _ in range(k)], [[] for _ in range(k)]
    acc_err, acc_tol = [0.0] * k, [0.0] * k
    converged = np.ones(k, dtype=bool)

    while lo.size:
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        t = mid[:, None] + half[:, None] * _NODES
        fv = f(t.ravel(), np.repeat(member, 15))
        fv, noise = fv if isinstance(fv, tuple) else (fv, None)
        fv = np.asarray(fv, dtype=float).reshape(t.shape)
        if k == 1:
            n_eval += 15 * lo.size
        else:
            n_eval += 15 * np.bincount(member, minlength=k)
        # per-row sums in a fixed order (not BLAS), so a panel's bits do not
        # depend on which other panels share the round
        value = half * np.add.reduce(fv * _KRONROD, axis=1)
        err = np.abs(half * np.add.reduce(fv * _DIFF, axis=1))
        local_tol = tol[member] * np.maximum((hi - lo) / span[member], 1e-300)
        # a gap of 1.2e-14 |K15| (54 ulp) is within the rounding of the two
        # 15-term sums on a same-signed integrand, which no bisection can
        # remove; accept such a panel rather than split it forever
        local_tol = np.maximum(local_tol, 1.2e-14 * np.abs(value) + 1e-300)
        if noise is not None and np.any(noise):
            noise = np.reshape(noise, t.shape) * _ABS_DIFF
            local_tol = np.maximum(local_tol, half * np.add.reduce(noise, axis=1))
        done = (err <= local_tol) | (depth >= max_depth) | \
               (hi - lo <= 1e-15 * (1.0 + np.abs(lo) + np.abs(hi)))
        # a member past its budget accepts every pending panel
        over = n_eval > max_eval
        if over.any():
            done |= over[member]
            converged &= ~over
        fin = np.flatnonzero(done)
        if k == 1:
            groups = [fin]
        else:
            # the finished panels grouped by member, each member's in round
            # order
            fin = fin[np.argsort(member[fin], kind="stable")]
            groups = np.split(fin, np.cumsum(np.bincount(member[fin],
                                                         minlength=k))[:-1])
        for i, sel in enumerate(groups):
            if sel.size:
                acc_edges[i].append(lo[sel])
                acc_vals[i].append(value[sel])
                acc_err[i] += float(err[sel].sum())
                acc_tol[i] += float(local_tol[sel].sum())
        # bisect the survivors
        keep = ~done
        lo, hi = (np.concatenate([lo[keep], mid[keep]]),
                  np.concatenate([mid[keep], hi[keep]]))
        depth = depth[keep] + 1
        depth = np.concatenate([depth, depth])
        member = member[keep]
        member = np.concatenate([member, member])

    results = []
    for i in range(k):
        edges = np.concatenate(acc_edges[i]) if acc_edges[i] else np.empty(0)
        values = np.concatenate(acc_vals[i]) if acc_vals[i] else np.empty(0)
        order = np.argsort(edges, kind="stable")
        edges, values = edges[order], values[order]
        total = float(np.sum(values))
        ok = bool(converged[i]) and not acc_err[i] > acc_tol[i]
        if strict and not ok:
            raise QuadratureError("quadrature did not converge", total)
        results.append(QuadResult(total=total, error_estimate=acc_err[i],
                                  n_eval=int(n_eval[i]), panel_edges=edges,
                                  panel_values=values, converged=ok))
    return results
