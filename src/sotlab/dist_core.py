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
from dataclasses import dataclass, field

import numpy as np
from scipy.special import erfc, log_ndtr, ndtr, ndtri_exp

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

# SmoothedMixture kernels of 2 up to this many atoms build each block as
# (atoms x points) and reduce it over the leading atom axis
# (_logsumexp_atoms): below 8 terms _pairwise_sum is one in-sequence reduce
# that runs along the points, where the row-major reduction runs numpy's
# inner loop once per short row. Sweep of log_pdf + a signed log-mass pass +
# log_pdf with per-point rows, atom-major time over row-major time, median
# of 15 interleaved runs on 2 cores, at 32 / 256 / 2048 points:
#    2 atoms: 0.96 / 0.68 / 0.43      4 atoms: 0.97 / 0.67 / 0.49
#    8 atoms: 1.14 / 0.80 / 0.53     11 atoms: 1.18 / 0.80 / 0.71
#   16 atoms: 1.05 / 0.85 / 0.83
_ATOM_MAJOR_MAX = 7

# Newton iteration cap of the quantile solver, and the iteration from which a
# step that did not halve its target's bracket is replaced by bisection
_NEWTON_CAP = 200
_BISECT_FROM = 20


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
    bad = ~np.isfinite(out)
    if bad.any():
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
    thread's kernel buffers, which it keeps for its life and grows to the
    largest block it has run. Reusing them spares each block the page faults
    of fresh temporaries."""
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


def _row_blocks(n_rows: int, n_atoms: int, block) -> None:
    """Call block(rows) on each slice `rows` of _row_slices(n_rows, n_atoms).

    One slice runs inline. More run on the kernel pool, numpy and scipy
    ufunc loops releasing the GIL, each slice in a copy of the caller's
    context so that the caller's np.errstate holds in it; once all are done,
    the first slice to have raised, in row order, raises in the caller. A
    block writes its own rows only and reduces each row along that row alone,
    so the output bits do not depend on the budget or on the number of
    workers.
    """
    slices = _row_slices(n_rows, n_atoms)
    if len(slices) <= 1:
        for rows in slices:
            block(rows)
        return
    pool = _kernel_pool()
    futures = [pool.submit(contextvars.copy_context().run, block, rows)
               for rows in slices]
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

    def _draw(self, n: int, seed):
        """(cdf, u): the draw of rng.choice(n_atoms, size=n, p=weights),
        whose atom indices are cdf.searchsorted(u, side="right"), made as
        numpy 2.4's choice makes it (one rng.random(n) call, so the generator
        ends in the same state) without choice's checks of p."""
        if n < 1:
            raise ValueError("n must be >= 1")
        rng = _as_generator(seed)
        w = self.weights()
        cdf = (w / w.sum()).cumsum()
        cdf /= cdf[-1]
        return cdf, rng.random(n)

    def _draw_atoms(self, n: int, seed) -> np.ndarray:
        cdf, u = self._draw(n, seed)
        return cdf.searchsorted(u, side="right")

    def _draw_counts(self, n: int, seed) -> np.ndarray:
        """np.bincount(self._draw_atoms(n, seed), minlength=n_atoms): atom j
        is drawn #{u < cdf[j]} - #{u < cdf[j-1]} times."""
        cdf, u = self._draw(n, seed)
        below = np.sort(u).searchsorted(cdf)
        below[1:] -= below[:-1]
        return below

    def _from_counts(self, counts: np.ndarray, n: int) -> "AtomicDistribution":
        """P_n of an n-sample that drew atom j counts[j] times."""
        drawn = counts > 0
        logw = np.log(counts[drawn]) - math.log(n)
        return AtomicDistribution.from_log_weights(self.locations[drawn], logw,
                                                   normalize=True)

    def sample(self, n: int, seed) -> "EmpiricalMeasure":
        return EmpiricalMeasure(np.sort(self.locations[self._draw_atoms(n, seed)]))

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

    Kernel layout: each evaluation is logsumexp(lw + term, axis=1) over a
    (points x atoms) array, cut into row blocks (_row_blocks). A one-atom
    mixture takes _logsumexp's one-term path, and a mixture of more than
    _ATOM_MAJOR_MAX (7) atoms reduces its row-major blocks with _logsumexp.
    A mixture of 2 to 7 atoms builds each block as (atoms x points) and
    reduces it over the atoms with _logsumexp_atoms, so that numpy runs along
    the points rather than once per short row; each point's operations, and
    so its bits, are the same in either layout.
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
        flat = np.atleast_1d(t).ravel()
        locs = self.base.locations
        if log_weights is None:
            rows = self.base.log_weights[None, :]
        else:
            rows = np.reshape(log_weights, (flat.size, locs.size))
        scale = self.sigma if sign is None else np.multiply(sign, self.sigma)
        if np.ndim(scale):
            scale = scale.ravel()[:, None]
        out = np.empty(flat.shape, dtype=float)
        atom_major = 1 < locs.size <= _ATOM_MAJOR_MAX

        # per block: logsumexp(lw + term, axis=1), by the same operations as
        # on fresh arrays, written into this thread's scratch; z's array then
        # holds logsumexp's exp terms. With few atoms the three arrays are
        # transposed views of (atoms x points) scratch (see the class
        # docstring)
        def block(r):
            if atom_major:
                z, term, ties = (a.T for a in _scratch((locs.size, r.stop - r.start)))
            else:
                z, term, ties = _scratch((r.stop - r.start, locs.size))
            np.divide(np.subtract(flat[r, None], locs, out=z),
                      scale[r] if np.ndim(scale) else scale, out=z)
            if sign is None:
                np.multiply(np.multiply(z, -0.5, out=term), z, out=term)
            else:
                log_ndtr(z, out=term)
            lw = rows if log_weights is None else rows[r]
            np.add(lw, term, out=term)
            out[r] = (_logsumexp_atoms(term.T, z.T, ties.T) if atom_major
                      else _logsumexp(term, 1, z, ties)[:, 0])

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
        if np.any(todo):
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
        atom j with lw_j > lm, lw_j from the target's own row. Newton starts
        at the least of these upper bounds, the root itself for one atom. The
        bracket's ends are taken at the targets lm -+ tau, tau = 16 eps (1 +
        |lm|), which covers the log-mass error of ndtri_exp, log_ndtr and
        logsumexp, and then moved out by 4 eps (|end| + max |r|), which covers
        the rounding of r + sigma q and of the kernel's (x - r)/sigma, so
        that the log-mass the solver computes straddles the target.
        """
        lm = np.atleast_1d(np.asarray(log_mass, dtype=float))
        if np.any(lm >= math.log(0.75)) or np.any(~np.isfinite(lm)):
            raise ValueError("log-mass targets must be finite and <= log(0.75); "
                             "split at the median for the upper half")
        shape = lm.shape
        lm = lm.ravel()
        up = np.broadcast_to(np.asarray(upper, dtype=bool), shape).ravel()
        rows = None if log_weights is None else \
            np.reshape(log_weights, (lm.size, self.base.n_atoms))
        lo, hi, x = self._quantile_bracket(lm, up, rows)
        # the sign of d(log-mass)/dx: F increases, S decreases
        sign = np.where(up, -1.0, 1.0)
        # the loop state holds the open targets only; `at` is their position
        at = np.arange(lm.size)
        out = np.empty(lm.size)
        for it in range(_NEWTON_CAP):
            if at.size == 0:
                break
            logm = self._atom_logsum(x, sign, rows)
            g = logm - lm
            # bracket update: the root lies right of x where sign * g < 0
            go_right = sign * g < 0.0
            lo_n = np.where(go_right, x, lo)
            hi_n = np.where(go_right, hi, x)
            done = (np.abs(g) <= 1e-13) | (hi_n - lo_n <= 1e-14 * (1.0 + np.abs(x)))
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
            deriv = sign * np.exp(self.log_pdf(x, rows) - logm)
            with np.errstate(divide="ignore", over="ignore",
                             invalid="ignore"):
                step = g / deriv
            xn = x - step
            bad = ~np.isfinite(xn) | (xn <= lo_n) | (xn >= hi_n)
            if it >= _BISECT_FROM:
                bad |= ~(hi_n - lo_n <= 0.5 * (hi - lo))
            x, lo, hi = np.where(bad, 0.5 * (lo_n + hi_n), xn), lo_n, hi_n
        if at.size:
            raise QuantileSolveError(int(at.size))
        return out.reshape(shape)

    def _quantile_bracket(self, lm, up, rows):
        """(lo, hi, x0) for quantile_from_log_mass: each target's start
        bracket and start point (see there). The per-atom bounds are taken in
        blocks of _row_slices' size, and the widened one at x0's atom only."""
        locs, sigma = self.base.locations, self.sigma
        flip = np.where(up, -1.0, 1.0)
        # atom locations in each target's frame; their least and greatest
        r_min = np.where(up, -locs[-1], locs[0])
        r_max = np.where(up, -locs[0], locs[-1])
        # the tightest per-atom bound of each target, and its atom
        best = np.empty(lm.size)
        j_best = np.empty(lm.size, dtype=np.intp)

        def block(r):
            q, b, _ = _scratch((r.stop - r.start, locs.size))
            lw = self.base.log_weights if rows is None else rows[r]
            # lm >= lw_j gives no bound: ndtri_exp(0) = inf
            np.minimum(np.subtract(lm[r, None], lw, out=q), 0.0, out=q)
            ndtri_exp(q, out=q)
            np.add(np.multiply(flip[r, None], locs, out=b),
                   np.multiply(q, sigma, out=q), out=b)
            j_best[r] = j = np.argmin(b, axis=1)
            best[r] = b[np.arange(j.size), j]

        _row_blocks(lm.size, locs.size, block)
        x0 = np.minimum(r_max + sigma * ndtri_exp(lm), best)
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
        return EmpiricalMeasure(np.sort(vals))


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
    member, from one solve; rows are one per member, or None."""
    eps = np.full(2 * members, LOG_MASS_EPS)
    upper = np.arange(2 * members) >= members
    rows = None if rows is None else np.concatenate([rows, rows])
    both = m.quantile_from_log_mass(eps, upper=upper, log_weights=rows)
    return both[:members], both[members:]


def _seed_breakpoints(A: SmoothedMixture, B: SmoothedMixture, lo: float,
                      hi: float) -> np.ndarray:
    """Seed panel edges of a W2 or KL quadrature over [lo, hi]: the window
    ends, and 0, +-1, +-4 and +-12 sigma around the centre of each cluster of
    the atoms of A and B together, a cluster being the atoms within 24 sigma
    of its first one. Every atom then lies within 12 sigma of a centre, so
    inside a seeded panel at most 8 sigma wide, whose 15 Gauss-Kronrod nodes
    are less than a sigma apart: no atom's mass can fall between the nodes of
    an accepted panel. Each further seed costs 15 evaluations, so samples
    packed into a few clusters take a few seeds: a W2 of 4096 draws from
    N(0, 4), sigma = 1, against N(0, 5) takes 240 evaluations."""
    s = max(A.sigma, B.sigma)
    locs = np.union1d(A.base.locations, B.base.locations)
    centres = []
    i = 0
    while i < locs.size:
        j = int(np.searchsorted(locs, locs[i] + 24.0 * s, side="right"))
        centres.append(0.5 * (locs[i] + locs[j - 1]))
        i = j
    offs = np.array([-12.0, -4.0, -1.0, 0.0, 1.0, 4.0, 12.0]) * s
    return np.clip(np.concatenate([[lo, hi],
                                   (np.array(centres)[:, None] + offs).ravel()]),
                   lo, hi)


@dataclass(frozen=True)
class TailBoundReport:
    """Outcome of checking 1 - Phi(l) <= exp(-l^2/2) on a grid."""

    passed: bool
    max_slack: float
    first_violation: float | None = None
    violations: tuple = field(default_factory=tuple)


def gaussian_tail_bound_check(l_grid) -> TailBoundReport:
    l = np.asarray(l_grid, dtype=float)
    if np.any(l < 0):
        raise ValueError("grid values must be >= 0")
    tail = 0.5 * erfc(l / math.sqrt(2.0))
    bound = np.exp(-0.5 * l * l)
    slack = bound - tail
    bad = np.flatnonzero(slack < 0)
    return TailBoundReport(
        passed=bad.size == 0,
        max_slack=float(np.max(slack)) if l.size else 0.0,
        first_violation=float(l[bad[0]]) if bad.size else None,
        violations=tuple(float(v) for v in l[bad]),
    )
