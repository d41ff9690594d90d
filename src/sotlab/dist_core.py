"""Log-space primitives for finite discrete distributions and their Gaussian smoothings.

Everything downstream (transport integrals, divergences, concentration statistics)
leans on the evaluations here being accurate in relative terms far into the tails,
so all mass arithmetic is done on log-weights with logsumexp and Gaussian tails go
through log_ndtr / erfc rather than 1 - ndtr.
"""
from __future__ import annotations

import contextvars
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass

import numpy as np
from scipy.special import log_ndtr, ndtr, ndtri_exp

LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_EPS = float(np.finfo(float).eps)

# log-mass clipped from each tail of a smoothed mixture by the W2 and
# divergence quadrature windows
LOG_MASS_EPS = math.log(1e-30)

# a log F or log S below this is the smaller of the two: F + S = 1, and the
# log-space error of either is ~1e-15
_LOG_HALF_DECIDED = math.log(0.5) - 1e-6

# cap on (#points) x (#atoms) per kernel slice (_row_slices): a slice's
# float scratch arrays are then 512 KB each, so its working set (two of them
# and a bool array, ~1.1 MB) stays in a 2 MB L2, and a call of many points
# has enough blocks to keep every worker of the kernel pool busy. Sweep at
# 16K / 32K / 64K / 128K / 256K / 1M / 4M pairs, median of 9 interleaved runs
# of log_cdf + log_sf + log_pdf on 2 cores (2 MB L2 each), in ms:
#   2000 points x 4096 atoms: 465 / 398 / 362 / 349 / 346 / 387 / 455
#   4000 points x  512 atoms: 127 / 111 / 105 / 101 / 102 / 124 / 222
# and on one of them (taskset -c 0):
#   2000 points x 4096 atoms: 809 / 769 / 735 / 733 / 736 / 764 / 821
#   4000 points x  512 atoms: 189 / 179 / 170 / 155 / 182 / 198 / 218
_BLOCK_BUDGET = 65_536

# SmoothedMixture kernels of up to this many atoms build (atoms x points)
# arrays and reduce them over the leading atom axis (_few_atom_logsum): below
# 8 terms _pairwise_sum is one in-sequence reduce that runs along the points,
# where the row-major kernel runs numpy's inner loop once per short row.
# Sweep of log_pdf + a signed log-mass pass + log_pdf with per-point rows,
# atom-major time over row-major time, median of 15 interleaved runs on 2
# cores, at 32 / 256 / 2048 points:
#    2 atoms: 0.96 / 0.68 / 0.43      4 atoms: 0.97 / 0.67 / 0.49
#    8 atoms: 1.14 / 0.80 / 0.53     11 atoms: 1.18 / 0.80 / 0.71
#   16 atoms: 1.05 / 0.85 / 0.83
_ATOM_MAJOR_MAX = 7

# AtomicDistribution._draw_counts counts the n uniforms below each of the
# k - 1 inner CDF steps of k atoms by one comparison pass each where n is at
# least this many per pass, and otherwise sorts them. Sweep of comparison
# time over sort time, median of 9 runs of 300 calls on 2 cores, at 2 / 3 /
# 4 / 8 / 16 atoms (a 2-atom count at n = 16384 takes 7.4 us against 80):
#   n =   256: 1.24 / 1.53 / 2.37 / 2.82 / 5.80
#   n =  1024: 0.97 / 0.86 / 0.92 / 2.60 / 3.75
#   n =  4096: 0.24 / 0.51 / 0.48 / 1.12 / 1.72
#   n =  8192: 0.16 / 0.31 / 0.29 / 0.81 / 1.13
#   n = 16384: 0.09 / 0.19 / 0.24 / 0.48 / 1.15
_COUNT_PASS_MIN = 1024

# Newton iteration cap of the quantile solver, and the iteration from which a
# step that did not halve its target's bracket is replaced by bisection
_NEWTON_CAP = 200
_BISECT_FROM = 20

# the quantile solver's start table of a multi-atom mixture (_start_grid):
# [r_min - 8 sigma, r_max + 8 sigma] at sigma / 8 spacing, clamped to this
# many points
_TABLE_MIN, _TABLE_MAX = 65, 513


class QuantileSolveError(RuntimeError):
    """Raised when quantile targets are still unconverged at the Newton
    iteration cap; carries how many."""

    def __init__(self, unconverged: int):
        super().__init__(f"{unconverged} quantile target(s) unconverged after "
                         f"{_NEWTON_CAP} Newton iterations")
        self.unconverged = unconverged


def logsumexp(a, axis=None):
    """scipy.special.logsumexp(a, axis) for real input, without scipy's
    array-API dispatch. It runs scipy 1.17's operations in the same order, so
    the bits are the same: the ties at the max are split off as
    log1p(s/m) + log(m) + max, and where that is not finite the result is
    log(sum(exp(a)))."""
    a = np.atleast_1d(np.asarray(a, dtype=float))
    axes = tuple(range(a.ndim)) if axis is None else axis
    out = _logsumexp(a, axes, np.empty(a.shape), np.empty(a.shape, dtype=bool))
    out = out.squeeze(axis=axes)
    return out[()] if out.ndim == 0 else out


def _logsumexp(a, axes, e, ties):
    """logsumexp over `axes` with keepdims, using the scratch arrays e
    (float) and ties (bool) of a's shape."""
    n_terms = math.prod(a.shape[ax] for ax in axes) \
        if isinstance(axes, tuple) else a.shape[axes]
    if n_terms == 1:
        # the bits of the ops below for one term (s = 0, m = 1): log1p(0) +
        # log(1) + a, so -0.0 becomes +0.0 and +-inf and NaN stay
        return 0.0 + a
    # np.add/np.maximum.reduce are what np.sum/np.max call, minus a wrapper
    a_max = np.maximum.reduce(a, axis=axes, keepdims=True)
    np.equal(a, a_max, out=ties)
    m = np.add.reduce(ties, axis=axes, dtype=float, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.exp(np.subtract(a, a_max, out=e), out=e)
        np.copyto(e, 0.0, where=ties)
        # scipy keeps s where s == 0; s / m is the same there, as m >= 1
        # wherever the max is not NaN
        s = np.add.reduce(e, axis=axes, keepdims=True) / m
        out = np.log1p(s) + np.log(m) + a_max
    bad = ~np.isfinite(out)
    if bad.any():
        with np.errstate(divide="ignore", over="ignore"):
            out[bad] = np.log(np.add.reduce(np.exp(a), axis=axes, keepdims=True))[bad]
    return out


def _logsumexp_atoms(a, e, ties):
    """logsumexp(a.T, axis=1) bit for bit for an (atoms x points) array a,
    using the scratch arrays e (float) and ties (bool) of a's shape.

    _logsumexp's operations in the same order, reduced over the leading atom
    axis, so that numpy's inner loops run along the points and not once per
    short row of atoms: the max and the tie count are exact in any order, and
    the two sums run in _pairwise_sum's order, that of numpy summing one
    contiguous row."""
    a_max = np.maximum.reduce(a, axis=0)
    np.equal(a, a_max, out=ties)
    m = np.add.reduce(ties, axis=0, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.exp(np.subtract(a, a_max, out=e), out=e)
        np.copyto(e, 0.0, where=ties)
        s = _pairwise_sum(e) / m
        out = np.log1p(s) + np.log(m) + a_max
    finite = np.isfinite(out)
    if not finite.all():
        bad = ~finite
        with np.errstate(divide="ignore", over="ignore"):
            out[bad] = np.log(_pairwise_sum(np.exp(a[:, bad])))
    return out


def _pairwise_sum(a):
    """np.add.reduce(a, axis=0) of a 2-D array a of terms that are not -0.0,
    with each column summed in the order in which numpy 2.4's pairwise
    summation adds one contiguous row: fewer than 8 terms in sequence from 0;
    up to 128 in 8 partial sums over strides of 8, combined as
    ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), then the remainder in sequence; more
    split at n/2 rounded down to a multiple of 8, the two halves' sums added.
    (numpy adds that to the reduction's initial 0, which changes only a sum of
    -0.0 alone.)"""
    n = a.shape[0]
    if n < 8:
        return np.add.reduce(a, axis=0)
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _pairwise_sum(a[:half]) + _pairwise_sum(a[half:])
    whole = n - n % 8
    # a reduction over a leading axis adds its terms in sequence, from 0
    r = np.add.reduce(a[:whole].reshape(whole // 8, 8, -1), axis=0)
    r = r[0::2] + r[1::2]
    r = r[0::2] + r[1::2]
    res = r[0] + r[1]
    for row in a[whole:]:
        res += row
    return res


def log1mexp(x):
    """log(1 - exp(x)) for x < 0, stable near both ends."""
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        small = x < -math.log(2.0)
        out = np.where(small, np.log1p(-np.exp(np.where(small, x, -1.0))),
                       np.log(-np.expm1(np.where(small, -1.0, x))))
    return out


def logdiffexp(la, lb):
    """log(exp(la) - exp(lb)) assuming la >= lb elementwise."""
    la = np.asarray(la, dtype=float)
    lb = np.asarray(lb, dtype=float)
    diff = lb - la
    # la == lb (including both -inf) -> -inf
    with np.errstate(invalid="ignore"):
        out = np.where(diff < 0.0, la + log1mexp(np.minimum(diff, -1e-300)), -np.inf)
    return out


_pool = None
_pool_lock = threading.Lock()


def _kernel_pool() -> ThreadPoolExecutor:
    """The pool that runs kernel blocks, created on first use: one worker per
    CPU in the process's affinity mask (so `taskset` restricts it)."""
    global _pool
    with _pool_lock:
        if _pool is None:
            try:
                cpus = len(os.sched_getaffinity(0))
            except AttributeError:  # no affinity masks on this OS
                cpus = os.cpu_count() or 1
            _pool = ThreadPoolExecutor(cpus, thread_name_prefix="sotlab-kernel")
        return _pool


def _forget_pool():
    # a forked child has none of the parent's threads
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


_scratch_of_thread = threading.local()


def _scratch(shape):
    """Two float arrays and a bool array of `shape`: views of the calling
    thread's buffers for the row-major kernel (_row_major_logsum), which it
    keeps for its life and grows to the largest block it has run. Reusing
    them spares each block the page faults of fresh temporaries."""
    n = shape[0] * shape[1]
    bufs = getattr(_scratch_of_thread, "bufs", None)
    if bufs is None or bufs[0].size < n:
        size = max(n, _BLOCK_BUDGET)
        bufs = _scratch_of_thread.bufs = (np.empty(size), np.empty(size),
                                          np.empty(size, dtype=bool))
    a, b, flags = bufs
    return a[:n].reshape(shape), b[:n].reshape(shape), flags[:n].reshape(shape)


def _row_slices(n_rows: int, n_atoms: int) -> list:
    """Consecutive slices of range(n_rows), each of at most _BLOCK_BUDGET
    (row x atom) pairs and at least one row."""
    step = max(1, _BLOCK_BUDGET // max(1, n_atoms))
    return [slice(i, min(i + step, n_rows)) for i in range(0, n_rows, step)]


def _one_block(n_rows: int, n_atoms: int) -> bool:
    """Whether n_rows x n_atoms kernel pairs are one block, which runs
    inline: at most _BLOCK_BUDGET pairs, or a single row."""
    return n_rows * n_atoms <= _BLOCK_BUDGET or n_rows == 1


def _row_blocks(n_rows: int, n_atoms: int, block) -> None:
    """Call block(rows) on each slice `rows` of _row_slices(n_rows, n_atoms).

    One block (_one_block) runs inline. More run on the kernel pool, numpy
    and scipy ufunc loops releasing the GIL, each slice in a copy of the
    caller's context so that the caller's np.errstate holds in it; once all
    are done, the first slice to have raised, in row order, raises in the
    caller. A block writes its own rows only and reduces each row along that
    row alone, so the output bits do not depend on the budget or on the
    number of workers.
    """
    if _one_block(n_rows, n_atoms):
        if n_rows:
            block(slice(0, n_rows))
        return
    pool = _kernel_pool()
    futures = [pool.submit(contextvars.copy_context().run, block, rows)
               for rows in _row_slices(n_rows, n_atoms)]
    wait(futures)
    for f in futures:
        f.result()


@dataclass(frozen=True)
class AtomicDistribution:
    """Finite discrete distribution stored as sorted locations + log-weights."""

    locations: np.ndarray
    log_weights: np.ndarray

    def __post_init__(self):
        locs = np.atleast_1d(np.asarray(self.locations, dtype=float)).copy()
        logw = np.atleast_1d(np.asarray(self.log_weights, dtype=float)).copy()
        if locs.ndim != 1 or locs.shape != logw.shape:
            raise ValueError("locations and log_weights must be 1d arrays of equal length")
        if locs.size == 0:
            raise ValueError("need at least one atom")
        if not np.all(np.isfinite(locs)):
            raise ValueError("atom locations must be finite")
        if np.any(np.diff(locs) <= 0.0):
            raise ValueError("atom locations must be strictly increasing")
        if np.any(np.isnan(logw)) or np.any(logw == -np.inf):
            raise ValueError("log-weights must be finite (strictly positive weights)")
        total = float(logsumexp(logw))
        if abs(total) > 1e-12:
            raise ValueError(f"log-weights not normalized: logsumexp = {total:.6e}")
        locs.setflags(write=False)
        logw.setflags(write=False)
        object.__setattr__(self, "locations", locs)
        object.__setattr__(self, "log_weights", logw)

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_weights(cls, locations, weights) -> "AtomicDistribution":
        w = np.asarray(weights, dtype=float)
        if np.any(w <= 0.0):
            raise ValueError("weights must be strictly positive")
        logw = np.log(w)
        return cls.from_log_weights(locations, logw, normalize=True)

    @classmethod
    def from_log_weights(cls, locations, log_weights, normalize=False) -> "AtomicDistribution":
        logw = np.asarray(log_weights, dtype=float)
        if normalize:
            logw = logw - logsumexp(logw)
        return cls(np.asarray(locations, dtype=float), logw)

    @classmethod
    def from_samples(cls, values) -> "AtomicDistribution":
        """Uniform-weight atoms from raw values, merging duplicates by count."""
        vals = np.asarray(values, dtype=float)
        if vals.size == 0:
            raise ValueError("need at least one sample")
        uniq, counts = np.unique(vals, return_counts=True)
        logw = np.log(counts) - math.log(vals.size)
        return cls.from_log_weights(uniq, logw, normalize=True)

    # -- basic queries -------------------------------------------------------

    @property
    def n_atoms(self) -> int:
        return int(self.locations.size)

    def weights(self) -> np.ndarray:
        return np.exp(self.log_weights)

    def mean(self) -> float:
        return float(np.sum(self.weights() * self.locations))

    def shift(self, c: float) -> "AtomicDistribution":
        return AtomicDistribution(self.locations + c, self.log_weights)

    def scale(self, s: float) -> "AtomicDistribution":
        if s <= 0:
            raise ValueError("scale must be positive")
        return AtomicDistribution(self.locations * s, self.log_weights)

    def log_sf_discrete(self, r: float) -> float:
        """log P[X >= r] for the discrete (unsmoothed) variable; -inf if no mass."""
        mask = self.locations >= r
        if not np.any(mask):
            return -np.inf
        return float(logsumexp(self.log_weights[mask]))

    def _draw_cdf(self) -> np.ndarray:
        """The CDF over atom indices from which numpy 2.4's
        rng.choice(n_atoms, p=weights) draws, computed as choice computes it
        (without choice's checks of p)."""
        w = self.weights()
        cdf = (w / w.sum()).cumsum()
        cdf /= cdf[-1]
        return cdf

    def _draw(self, n: int, seed, cdf=None):
        """(cdf, u): the draw of rng.choice(n_atoms, size=n, p=weights),
        whose atom indices are cdf.searchsorted(u, side="right"), made as
        choice makes it: one rng.random(n) call, so the generator ends in the
        same state. cdf is _draw_cdf()'s, or the caller's copy of it."""
        if n < 1:
            raise ValueError("n must be >= 1")
        rng = _as_generator(seed)
        return (self._draw_cdf() if cdf is None else cdf), rng.random(n)

    def _draw_atoms(self, n: int, seed) -> np.ndarray:
        cdf, u = self._draw(n, seed)
        return cdf.searchsorted(u, side="right")

    def _draw_counts(self, n: int, seed, cdf=None) -> np.ndarray:
        """np.bincount(self._draw_atoms(n, seed), minlength=n_atoms): atom j
        is drawn #{u < cdf[j]} - #{u < cdf[j-1]} times. #{u < cdf[-1]} is n
        (cdf[-1] is 1.0 and u < 1); each other count is one comparison pass
        where n >= _COUNT_PASS_MIN per pass, and a search of the sorted u
        otherwise. A caller drawing many samples passes _draw_cdf() once as
        cdf."""
        cdf, u = self._draw(n, seed, cdf)
        if (cdf.size - 1) * _COUNT_PASS_MIN <= n:
            below = np.array([np.count_nonzero(u < c) for c in cdf[:-1]] + [n])
        else:
            below = np.sort(u).searchsorted(cdf)
        below[1:] -= below[:-1]
        return below

    def _from_counts(self, counts: np.ndarray, n: int) -> "AtomicDistribution":
        """P_n of an n-sample that drew atom j counts[j] times: the bits of
        from_log_weights(locations[drawn], log(counts[drawn]) - log(n),
        normalize=True), built without __post_init__'s checks, which the
        drawn atoms of a valid distribution pass by construction (their
        locations a subsequence of self's, their weights positive and just
        normalized)."""
        drawn = counts > 0
        locs = self.locations[drawn]
        logw = np.log(counts[drawn]) - math.log(n)
        logw = logw - logsumexp(logw)
        locs.setflags(write=False)
        logw.setflags(write=False)
        out = object.__new__(AtomicDistribution)
        object.__setattr__(out, "locations", locs)
        object.__setattr__(out, "log_weights", logw)
        return out

    def sample(self, n: int, seed) -> "EmpiricalMeasure":
        return EmpiricalMeasure._from_sorted(
            np.sort(self.locations[self._draw_atoms(n, seed)]))

    def empirical(self, n: int, seed) -> "AtomicDistribution":
        """P_n of an n-sample: sample(n, seed).to_atomic() bit for bit, from
        the same draws, built from the drawn atoms' counts instead of a sort
        of the n sample values."""
        return self._from_counts(self._draw_counts(n, seed), n)

    # -- serialization -------------------------------------------------------

    def to_json_obj(self) -> dict:
        return {"atoms": [{"x": float(x), "logw": float(lw)}
                          for x, lw in zip(self.locations, self.log_weights)]}

    @classmethod
    def from_json_obj(cls, obj: dict) -> "AtomicDistribution":
        atoms = obj["atoms"]
        locs = np.array([a["x"] for a in atoms], dtype=float)
        logw = np.array([a["logw"] for a in atoms], dtype=float)
        order = np.argsort(locs)
        return cls(locs[order], logw[order])


@dataclass(frozen=True)
class EmpiricalMeasure:
    """Sorted i.i.d. sample; the empirical measure puts mass 1/n on each point."""

    samples: np.ndarray

    def __post_init__(self):
        vals = np.atleast_1d(np.asarray(self.samples, dtype=float)).copy()
        if vals.size < 1:
            raise ValueError("n must be >= 1")
        if np.any(np.diff(vals) < 0.0):
            raise ValueError("samples must be sorted ascending")
        vals.setflags(write=False)
        object.__setattr__(self, "samples", vals)

    @classmethod
    def _from_sorted(cls, vals: np.ndarray) -> "EmpiricalMeasure":
        """The measure of a fresh, sorted, non-empty 1-d float array, taken
        as it is: the bits of EmpiricalMeasure(vals) without
        __post_init__'s copy and checks, which such an array passes."""
        vals.setflags(write=False)
        out = object.__new__(cls)
        object.__setattr__(out, "samples", vals)
        return out

    @property
    def n(self) -> int:
        return int(self.samples.size)

    def to_atomic(self) -> AtomicDistribution:
        return AtomicDistribution.from_samples(self.samples)

    def cdf(self, t) -> np.ndarray:
        """Right-continuous empirical CDF F_n(t)."""
        t = np.asarray(t, dtype=float)
        return np.searchsorted(self.samples, t, side="right") / self.n


def seed_sequence(seed) -> np.random.SeedSequence:
    """The one way a seed enters sotlab: a SeedSequence is copied (entropy,
    spawn_key, pool size and children spawned so far), so spawning from the
    result never advances the caller's object; an integer seeds a new root
    sequence."""
    if isinstance(seed, np.random.SeedSequence):
        return np.random.SeedSequence(seed.entropy, spawn_key=seed.spawn_key,
                                      pool_size=seed.pool_size,
                                      n_children_spawned=seed.n_children_spawned)
    if seed is None:
        raise ValueError("an explicit seed is required")
    return np.random.SeedSequence(int(seed))


def _as_generator(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed_sequence(seed))


@dataclass(frozen=True)
class SmoothedMixture:
    """AtomicDistribution convolved with N(0, sigma^2).

    Density, CDF, survival function and their logs are evaluated per atom in
    log-space; the quantile solver inverts log-mass directly so that tail
    quantiles keep full relative precision.

    Signed tails: the kernel evaluates a tail as log Phi(sign * z), sign 1.0
    for log F and -1.0 for log S, one sign for all points or one per point.
    cdf, sf and the W2 transport map use whichever of log F and log S is
    smaller at a point (log F on ties), found by two signed passes
    (_log_sides). quantile_from_log_mass's `upper` is likewise one flag or one
    per target, each target getting the bits of a solve of its tail alone.

    Log-weight rows: log_pdf, log_cdf, log_sf, _log_sides and
    quantile_from_log_mass take optional `log_weights`, one row of log-weights
    per point (or per quantile target) on base's atoms, used in place of
    base.log_weights at that point; _log_sides then compares each point with
    the mean of its own row. One call thus evaluates several mixtures on the
    same atoms and sigma (the members of a batch) together, and each point
    gets the same bits as a call on its own mixture. Without rows every
    point uses base.log_weights.

    Kernel layout: each evaluation is logsumexp(lw + term, axis=1) over the
    (points x atoms) pairs, by one of two kernels chosen by the atom count
    alone. Up to _ATOM_MAJOR_MAX (7) atoms, _few_atom_logsum lays the pairs
    out as (atoms x points) on fresh arrays and reduces them over the atoms
    with _logsumexp_atoms (one atom: _logsumexp's one-term path), so that
    numpy runs along the points rather than once per short row. More atoms
    take _row_major_logsum, on the thread's scratch, reduced with
    _logsumexp. A call of one block (_one_block) calls its kernel directly;
    a larger one calls it once per row block (_row_blocks). Each point's
    operations, and so its bits, are the same whatever the kernel or block.
    """

    base: AtomicDistribution
    sigma: float

    def __post_init__(self):
        if not (self.sigma > 0):
            raise ValueError("sigma must be positive")

    # -- pointwise evaluations ------------------------------------------------

    def _atom_logsum(self, t, sign=None, log_weights=None) -> np.ndarray:
        """logsumexp over the atoms of lw + term, with z = (t - locs) / sigma:
        term is -z^2/2 for the density (sign None) and log Phi(sign * z) for
        a tail, sign being 1.0 (log F) or -1.0 (log S), one for all points or
        one per point. The tail divides by sign * sigma, which IEEE division
        makes sign * z bit for bit."""
        t = np.asarray(t, dtype=float)
        flat = t.reshape(-1)
        locs = self.base.locations
        lw = self.base.log_weights if log_weights is None else \
            np.reshape(log_weights, (flat.size, locs.size))
        scale = self.sigma if sign is None else np.multiply(sign, self.sigma)
        if sign is not None and scale.ndim:
            scale = scale.reshape(-1)
        kernel = _few_atom_logsum if locs.size <= _ATOM_MAJOR_MAX \
            else _row_major_logsum
        if _one_block(flat.size, locs.size):
            out = kernel(flat, locs, scale, sign is None, lw)
        else:
            out = np.empty(flat.shape, dtype=float)

            def block(r):
                out[r] = kernel(flat[r], locs,
                                scale[r] if np.ndim(scale) else scale,
                                sign is None, lw if lw.ndim == 1 else lw[r])

            _row_blocks(flat.size, locs.size, block)
        return out.reshape(t.shape) if t.shape else out[0]

    def log_pdf(self, t, log_weights=None):
        return (self._atom_logsum(t, None, log_weights) - math.log(self.sigma)
                - LOG_SQRT_2PI)

    def pdf(self, t):
        return np.exp(self.log_pdf(t))

    def log_cdf(self, t, log_weights=None):
        return self._atom_logsum(t, 1.0, log_weights)

    def log_sf(self, t, log_weights=None):
        return self._atom_logsum(t, -1.0, log_weights)

    def _log_sides(self, t, log_weights=None):
        """(lower, lc, ls) for points t, with lower == (log_cdf(t) <=
        log_sf(t)) bit for bit.

        A first pass gives each point one side: log F if t <= the mean of its
        row, else log S. A value below log(1/2) - 1e-6 is the smaller side (F
        + S = 1 and the log-space error is ~1e-15), so a second pass evaluates
        the other side only where the first value is not below that cut, NaN
        included. Where it was skipped it holds 0 (log 1), which lies above
        the evaluated side and so orders the pair as the full evaluation
        would; the side that lower selects is always evaluated.
        """
        t = np.asarray(t, dtype=float)
        if log_weights is None:
            mean = self.base.mean()
        else:
            # np.sum(weights * locations) of each point's own row, as mean()
            mean = np.add.reduce(np.exp(log_weights) * self.base.locations,
                                 axis=-1)
        below = t <= mean
        sign = np.where(below, 1.0, -1.0)
        first = self._atom_logsum(t, sign, log_weights)
        other = np.zeros(t.shape)
        todo = ~(first < _LOG_HALF_DECIDED)
        if todo.any():
            other[todo] = self._atom_logsum(
                t[todo], -sign[todo],
                None if log_weights is None else log_weights[todo])
        lc = np.where(below, first, other)
        ls = np.where(below, other, first)
        return lc <= ls, lc, ls

    def cdf(self, t):
        """F(t), with erfc-level relative accuracy in the lower tail."""
        lower, lc, ls = self._log_sides(t)
        return np.where(lower, np.exp(lc), -np.expm1(ls))

    def sf(self, t):
        _, lc, ls = self._log_sides(t)
        return np.where(ls <= lc, np.exp(ls), -np.expm1(lc))

    # -- quantiles -------------------------------------------------------------

    def quantile_from_log_mass(self, log_mass, upper=False,
                               log_weights=None) -> np.ndarray:
        """Solve log F(x) = log_mass (lower) or log S(x) = log_mass (upper).

        `upper` is one flag for all targets or one flag per target, so one
        call inverts targets of both tails. Vectorized safeguarded Newton on
        the log-mass scale; a target is done when its residual log-mass error
        is below 1e-13 or its bracket collapses, and a done target takes no
        log-density pass. A step that leaves the bracket is replaced by
        bisection, and so, from iteration 20 on, is any step after one that
        did not halve the target's bracket: Newton can cycle between points
        just inside both bracket ends, which shrinks the bracket by ~1e-12 a
        step. Every target follows its own elementwise sequence from
        iteration 0, whatever else is solved with it. A target still open
        after 200 iterations raises QuantileSolveError. `log_weights` holds
        one row per target.

        The start bracket provably holds the root. In the lower-tail frame
        (an upper target mirrors r -> -r and x -> -x), with q = ndtri_exp,
        Phi((x - r_max)/sigma) <= F(x) <= Phi((x - r_min)/sigma) puts the root
        in [r_min + sigma q(lm), r_max + sigma q(lm)], and F(x) >= w_j
        Phi((x - r_j)/sigma) puts it below r_j + sigma q(lm - lw_j) for each
        atom j with lw_j > lm, lw_j from the target's own row. The bracket's
        ends are taken at the targets lm -+ tau, tau = 16 eps (1 + |lm|),
        which covers the log-mass error of ndtri_exp, log_ndtr and
        logsumexp, and then moved out by 4 eps (|end| + max |r|), which covers
        the rounding of r + sigma q and of the kernel's (x - r)/sigma, so
        that the log-mass the solver computes straddles the target.

        Newton starts at the least of these upper bounds, the root itself for
        one atom (_quantile_start). A one-atom solve takes iteration 0's
        signed pass at that root before any bracket is built, and builds it
        only for the targets the pass leaves with a residual above 1e-13;
        they go on from iteration 0's bracket update, so every target's
        sequence is the one it has with its bracket built first. A multi-atom
        target starts at that bound except where its bracket lies inside the
        start grid: [r_min - 8 sigma, r_max + 8 sigma] at sigma / 8 spacing,
        clamped to 65-513 points. There it starts where the log-mass of its
        tail, tabulated on the grid and linearly interpolated, meets its
        target, clipped into the bracket. The table is the target's own
        mixture's log F and log S, one signed kernel pass over the grid per
        log-weight row, built once per mixture object and row and cached on
        the object, so a target's start, like the rest of its sequence,
        depends on its own row and log-mass alone. In a density gap the
        per-atom bound can lie far from the root, over log-mass that is
        nearly flat; from the table a gap target of
        bernoulli_two_point(h, 2) at sigma = 1 takes at most 5 signed passes
        at h = 5 to 12, the table's included, where the per-atom start took
        up to 8 to 15.
        """
        lm = np.atleast_1d(np.asarray(log_mass, dtype=float))
        if not ((lm < math.log(0.75)) & (lm > -math.inf)).all():
            raise ValueError("log-mass targets must be finite and <= log(0.75); "
                             "split at the median for the upper half")
        shape = lm.shape
        lm = lm.ravel()
        up = np.empty(shape, dtype=bool)
        up[...] = upper
        up = up.ravel()
        rows = None if log_weights is None else \
            np.reshape(log_weights, (lm.size, self.base.n_atoms))
        # the sign of d(log-mass)/dx: F increases, S decreases
        sign = np.where(up, -1.0, 1.0)
        # the loop state holds the open targets only; `at` is their position
        at = np.arange(lm.size)
        out = np.empty(lm.size)
        logm = None
        if self.base.n_atoms == 1:
            # iteration 0's signed pass at the closed-form root; only the
            # targets it leaves open need a bracket
            x = sign * self._quantile_start(lm, up, rows)[0]
            logm = self._atom_logsum(x, sign, rows)
            done = np.abs(logm - lm) <= 1e-13
            out[done] = x[done]
            keep = ~done
            x, logm, lm, up, sign, at = (a[keep] for a in (x, logm, lm, up,
                                                            sign, at))
            if rows is not None:
                rows = rows[keep]
            if at.size:
                lo, hi, _ = self._quantile_bracket(lm, up, rows)
        else:
            lo, hi, x = self._quantile_bracket(lm, up, rows)
            x = self._table_start(lm, up, rows, lo, hi, x)
        # a Newton step may divide by an underflowed density; bisection
        # takes over there
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            for it in range(_NEWTON_CAP):
                if at.size == 0:
                    break
                if it or logm is None:
                    logm = self._atom_logsum(x, sign, rows)
                g = logm - lm
                # bracket update: the root lies right of x where sign * g < 0
                go_right = sign * g < 0.0
                lo_n = np.where(go_right, x, lo)
                hi_n = np.where(go_right, hi, x)
                done = (np.abs(g) <= 1e-13) | \
                    (hi_n - lo_n <= 1e-14 * (1.0 + np.abs(x)))
                if done.any():
                    out[at[done]] = x[done]
                    keep = ~done
                    x, lo, hi, lo_n, hi_n, g, logm, lm, sign, at = (
                        a[keep] for a in (x, lo, hi, lo_n, hi_n, g, logm, lm,
                                          sign, at))
                    if rows is not None:
                        rows = rows[keep]
                    if at.size == 0:
                        break
                # Newton step on g(x); d/dx log F = pdf/F, d/dx log S = -pdf/S
                step = g / (sign * np.exp(self.log_pdf(x, rows) - logm))
                xn = x - step
                bad = ~np.isfinite(xn) | (xn <= lo_n) | (xn >= hi_n)
                if it >= _BISECT_FROM:
                    bad |= ~(hi_n - lo_n <= 0.5 * (hi - lo))
                x, lo, hi = np.where(bad, 0.5 * (lo_n + hi_n), xn), lo_n, hi_n
        if at.size:
            raise QuantileSolveError(int(at.size))
        return out.reshape(shape)

    def _quantile_start(self, lm, up, rows):
        """(x0, j_best) for quantile_from_log_mass, in each target's frame:
        its per-atom start, the least of r_max + sigma q(lm) and its atoms'
        bounds (see there), the root itself for one atom, and the atom of its
        tightest bound. The per-atom bounds are taken on fresh arrays, in one
        block or in row blocks as the kernel's (see the class docstring)."""
        locs, sigma = self.base.locations, self.sigma
        flip = np.where(up, -1.0, 1.0)
        # the tightest per-atom bound of each target, and its atom
        best = np.empty(lm.size)
        j_best = np.empty(lm.size, dtype=np.intp)

        def bounds(r):
            lw = self.base.log_weights if rows is None else rows[r]
            # lm >= lw_j gives no bound: ndtri_exp(0) = inf
            q = np.subtract(lm[r, None], lw)
            ndtri_exp(np.minimum(q, 0.0, out=q), out=q)
            b = np.multiply(flip[r, None], locs)
            np.add(b, np.multiply(q, sigma, out=q), out=b)
            j_best[r] = j = np.argmin(b, axis=1)
            best[r] = b[np.arange(j.size), j]

        if _one_block(lm.size, locs.size):
            bounds(slice(None))
        else:
            _row_blocks(lm.size, locs.size, bounds)
        r_max = np.where(up, -locs[0], locs[-1])
        return np.minimum(r_max + sigma * ndtri_exp(lm), best), j_best

    def _quantile_bracket(self, lm, up, rows):
        """(lo, hi, x0) for quantile_from_log_mass: each target's start
        bracket and per-atom start point (see there), the bracket widened at
        x0's atom only."""
        locs, sigma = self.base.locations, self.sigma
        flip = np.where(up, -1.0, 1.0)
        x0, j_best = self._quantile_start(lm, up, rows)
        # atom locations in each target's frame; their least and greatest
        r_min = np.where(up, -locs[-1], locs[0])
        r_max = np.where(up, -locs[0], locs[-1])
        tau = 16.0 * _EPS * (1.0 - lm)
        lw_best = self.base.log_weights[j_best] if rows is None else \
            rows[np.arange(lm.size), j_best]
        q_best = ndtri_exp(np.minimum(lm - lw_best + tau, 0.0))
        lo = r_min + sigma * ndtri_exp(lm - tau)
        hi = np.minimum(r_max + sigma * ndtri_exp(lm + tau),
                        flip * locs[j_best] + sigma * q_best)
        r_abs = max(abs(locs[0]), abs(locs[-1]))
        lo -= 4.0 * _EPS * (np.abs(lo) + r_abs)
        hi += 4.0 * _EPS * (np.abs(hi) + r_abs)
        return (np.where(up, -hi, lo), np.where(up, -lo, hi),
                flip * x0)

    def _start_grid(self):
        """The start table's grid (see quantile_from_log_mass), or None where
        its ends overflow; made once per mixture object and cached on it
        beside its start tables."""
        cache = self.__dict__
        if "_grid" not in cache:
            locs, s = self.base.locations, self.sigma
            a, b = locs[0] - 8.0 * s, locs[-1] + 8.0 * s
            grid = None
            if math.isfinite(a) and math.isfinite(b):
                steps = (b - a) / (s / 8.0)
                n = _TABLE_MAX if not steps < _TABLE_MAX else \
                    max(_TABLE_MIN, math.ceil(steps) + 1)
                grid = np.linspace(a, b, n)
            cache["_grid"] = grid
        return cache["_grid"]

    def _table_start(self, lm, up, rows, lo, hi, x0):
        """Newton start points for the targets of a multi-atom mixture in
        quantile_from_log_mass: x0, except that a target whose bracket
        [lo, hi] lies inside the start grid starts where its tail's tabulated
        log-mass, linearly interpolated, meets its target, clipped into
        [lo, hi]."""
        grid = self._start_grid()
        if grid is None:
            return x0
        use = np.flatnonzero((lo >= grid[0]) & (hi <= grid[-1]))
        if use.size == 0:
            return x0
        if rows is None:
            groups = [(None, use)]
        else:
            # the targets of each distinct row, by its bytes
            r = np.ascontiguousarray(rows[use])
            keys = r.view(np.dtype((np.void, r.itemsize * r.shape[1]))).ravel()
            _, first, inv = np.unique(keys, return_index=True,
                                      return_inverse=True)
            split = np.cumsum(np.bincount(inv))[:-1]
            groups = zip(r[first], np.split(use[np.argsort(inv, kind="stable")],
                                            split))
        x = x0.copy()
        for row, at in groups:
            log_f, neg_log_s = self._start_table(grid, row)
            u = up[at]
            for tail, table, sgn in ((~u, log_f, 1.0), (u, neg_log_s, -1.0)):
                if tail.any():
                    x[at[tail]] = _interpolate(grid, table, sgn * lm[at[tail]])
        # np.clip's bits, +-0 ties included, without its wrapper: with array
        # bounds x is np.maximum's first operand
        x[use] = np.minimum(np.maximum(x[use], lo[use]), hi[use])
        return x

    def _start_table(self, grid, row):
        """(log F, -log S) on grid of the mixture with log-weight row `row`
        (None: base's weights), each made nondecreasing. Built once per
        mixture object and row, and cached on the object by the row's bytes,
        so a target's start depends on its own row and log-mass alone."""
        cache = self.__dict__.setdefault("_start_tables", {})
        key = b"" if row is None else row.tobytes()
        if key not in cache:
            sign = np.repeat([1.0, -1.0], grid.size)
            lw = None if row is None else np.broadcast_to(row, (sign.size, row.size))
            lf, ls = self._atom_logsum(np.tile(grid, 2), sign, lw).reshape(2, -1)
            cache[key] = (np.maximum.accumulate(lf), np.maximum.accumulate(-ls))
        return cache[key]

    def quantile(self, u) -> np.ndarray:
        u_arr = np.atleast_1d(np.asarray(u, dtype=float))
        if np.any((u_arr <= 0.0) | (u_arr >= 1.0)):
            raise ValueError("quantile level must lie strictly inside (0,1)")
        low = u_arr <= 0.5
        out = self.quantile_from_log_mass(
            np.where(low, np.log(u_arr), np.log1p(-u_arr)), upper=~low)
        return out.reshape(np.shape(u)) if np.shape(u) else float(out[0])

    def median(self) -> float:
        return float(self.quantile(0.5))

    # -- intervals and tail moments ---------------------------------------------

    def log_interval_prob(self, a, b) -> np.ndarray:
        """log P(a < X <= b), accurate even when the interval sits far in a tail."""
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        if np.any(b < a):
            raise ValueError("need a <= b")
        shape = np.broadcast_shapes(a.shape, b.shape)
        a_f = np.broadcast_to(a, shape).ravel()
        b_f = np.broadcast_to(b, shape).ravel()
        locs = self.base.locations
        logw = self.base.log_weights
        out = np.empty(a_f.shape, dtype=float)

        def block(r):
            za = (a_f[r, None] - locs[None, :]) / self.sigma
            zb = (b_f[r, None] - locs[None, :]) / self.sigma
            # per-atom log(Phi(zb) - Phi(za)) by the better-conditioned side
            right = za >= 0.0
            tail = logdiffexp(log_ndtr(np.where(right, -za, zb)),
                              log_ndtr(np.where(right, -zb, za)))
            term = np.where(right | (zb <= 0.0), tail, np.nan)
            central = ~right & (zb > 0.0)
            if np.any(central):
                with np.errstate(divide="ignore"):
                    term = np.where(central, np.log(ndtr(zb) - ndtr(za)), term)
            out[r] = logsumexp(logw[None, :] + term, axis=1)

        _row_blocks(a_f.size, locs.size, block)
        return out.reshape(shape) if shape else float(out[0])

    def log_tail_second_moment(self, x0, upper, log_weights=None):
        """log of an upper bound on the second moment restricted to one tail.

        Upper bound on int_{t > x0} t^2 rho(t) dt (or the mirrored lower tail),
        obtained per atom from the truncated-Gaussian closed form with absolute
        values so all terms add. x0 and upper are one cut and flag, or one of
        each per row of `log_weights` (rows as in log_pdf); each row gets the
        bits of a call with its own cut, flag and mixture alone.
        """
        x0 = np.asarray(x0, dtype=float)
        up = np.broadcast_to(upper, x0.shape).reshape(-1, 1)
        locs = self.base.locations
        logw = self.base.log_weights[None, :] if log_weights is None else \
            np.reshape(log_weights, (-1, locs.size))
        # a lower tail is the upper tail of the mirrored mixture, its atoms
        # in the mirrored order
        locs = np.where(up, locs, -locs[::-1])
        logw = np.where(up, logw, logw[:, ::-1])
        cut = np.where(up, x0.reshape(-1, 1), -x0.reshape(-1, 1))
        z = (cut - locs) / self.sigma
        log_sf_z = log_ndtr(-z)
        log_phi_z = -0.5 * z * z - LOG_SQRT_2PI
        with np.errstate(divide="ignore"):
            terms = [
                logw + 2.0 * np.log(np.abs(locs) + 1e-300) + log_sf_z,
                logw + math.log(2.0 * self.sigma) + np.log(np.abs(locs) + 1e-300) + log_phi_z,
                logw + 2.0 * math.log(self.sigma) + log_sf_z,
                logw + 2.0 * math.log(self.sigma) + np.log(np.maximum(z, 1e-300)) + log_phi_z,
            ]
        out = logsumexp(np.concatenate(terms, axis=1), axis=1)
        return out.reshape(x0.shape) if x0.shape else float(out[0])

    # -- sampling ------------------------------------------------------------

    def sample(self, n: int, seed) -> EmpiricalMeasure:
        rng = _as_generator(seed)
        idx = self.base._draw_atoms(n, rng)
        vals = self.base.locations[idx] + rng.normal(0.0, self.sigma, size=n)
        return EmpiricalMeasure._from_sorted(np.sort(vals))


def _few_atom_logsum(flat, locs, scale, density, lw):
    """SmoothedMixture._atom_logsum's kernel on at most _ATOM_MAJOR_MAX atoms
    for the points flat: logsumexp(lw + term, axis=1), built as (atoms x
    points) on fresh arrays and reduced over the atoms. scale is sigma, or
    sign * sigma, one for all points or one per point; lw is the atoms'
    log-weights, or one row of them per point. Each point's operations are
    those of _row_major_logsum, so are its bits."""
    z = np.subtract(flat, locs[:, None])
    np.divide(z, scale, out=z)
    if density:
        term = np.multiply(z, -0.5)
        np.multiply(term, z, out=term)
    else:
        term = log_ndtr(z)
    np.add(lw[:, None] if lw.ndim == 1 else lw.T, term, out=term)
    if locs.size == 1:
        # _logsumexp's one-term path
        return 0.0 + term[0]
    return _logsumexp_atoms(term, z, np.empty(term.shape, dtype=bool))


def _row_major_logsum(flat, locs, scale, density, lw):
    """_few_atom_logsum's sum and arguments, for more atoms: built as (points
    x atoms) in this thread's _scratch and reduced along each row with
    _logsumexp, z's array then holding its exp terms."""
    z, term, ties = _scratch((flat.size, locs.size))
    np.divide(np.subtract(flat[:, None], locs, out=z),
              scale[:, None] if np.ndim(scale) else scale, out=z)
    if density:
        np.multiply(np.multiply(z, -0.5, out=term), z, out=term)
    else:
        log_ndtr(z, out=term)
    np.add(lw, term, out=term)
    return _logsumexp(term, 1, z, ties)[:, 0]


def _interpolate(grid, table, y):
    """Where the nondecreasing table, linear between the grid points, meets
    each y; the grid's ends past the table's, and a flat segment's midpoint
    on it."""
    # np.clip's bits, +-0 ties included, without its wrapper: with scalar
    # bounds the bound is np.maximum's and np.minimum's first operand
    i = np.minimum(np.maximum(np.searchsorted(table, y, side="right") - 1, 0),
                   grid.size - 2)
    a, b = table[i], table[i + 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        f = np.minimum(1.0, np.maximum(0.0, (y - a) / (b - a)))
    f = np.where(np.isnan(f), 0.5, f)
    return grid[i] + f * (grid[i + 1] - grid[i])


def _member_rows(mixtures):
    """Log-weight rows for evaluating several mixtures on one set of atoms and
    one sigma through the first of them: a function from per-point member
    indices to rows (see SmoothedMixture), or to None when every member is
    that first mixture, a lone member included."""
    first = mixtures[0]
    if all(m is first for m in mixtures):
        return lambda member: None
    if any(m.sigma != first.sigma
           or not np.array_equal(m.base.locations, first.base.locations)
           for m in mixtures):
        raise ValueError("members must share their atoms and sigma")
    table = np.stack([m.base.log_weights for m in mixtures])
    return lambda member: table[member]


def _deep_quantiles(m: SmoothedMixture, rows, members: int):
    """The lower and upper LOG_MASS_EPS quantiles of m, one of each per
    member, from one solve; rows are one per member, or None where every
    member is m itself (the shared truth of an MC batch), whose two
    quantiles are then solved once. Each target's solve is its own
    elementwise sequence, so the bits are those of a solve per member."""
    k = members if rows is not None else 1
    eps = np.full(2 * k, LOG_MASS_EPS)
    upper = np.arange(2 * k) >= k
    rows = None if rows is None else np.concatenate([rows, rows])
    both = m.quantile_from_log_mass(eps, upper=upper, log_weights=rows)
    return (np.broadcast_to(both[:k], members),
            np.broadcast_to(both[k:], members))


def _seed_breakpoints(A: SmoothedMixture, B: SmoothedMixture, lo,
                      hi) -> list:
    """Seed panel edges of each member's W2 or KL quadrature over its window
    [lo[i], hi[i]]: the window ends, and 0, +-1, +-4 and +-12 sigma around
    the centre of each cluster of the atoms of A and B together, a cluster
    being the atoms within 24 sigma of its first one. The members share
    their atoms and sigma, so the clusters are found once for all of them.
    Every atom then lies within 12 sigma of a centre, so inside a seeded
    panel at most 8 sigma wide, whose 15 Gauss-Kronrod nodes are less than a
    sigma apart: no atom's mass can fall between the nodes of an accepted
    panel. Each further seed costs 15 evaluations, so samples packed into a
    few clusters take a few seeds: a W2 of 4096 draws from N(0, 4),
    sigma = 1, against N(0, 5) takes 240 evaluations."""
    s = max(A.sigma, B.sigma)
    locs = np.union1d(A.base.locations, B.base.locations)
    centres = []
    i = 0
    while i < locs.size:
        j = int(np.searchsorted(locs, locs[i] + 24.0 * s, side="right"))
        centres.append(0.5 * (locs[i] + locs[j - 1]))
        i = j
    offs = np.array([-12.0, -4.0, -1.0, 0.0, 1.0, 4.0, 12.0]) * s
    seeds = (np.array(centres)[:, None] + offs).ravel()
    lo = np.asarray(lo, dtype=float)[:, None]
    hi = np.asarray(hi, dtype=float)[:, None]
    edges = np.concatenate(
        [lo, hi, np.broadcast_to(seeds, (lo.size, seeds.size))], axis=1)
    return list(np.clip(edges, lo, hi))
