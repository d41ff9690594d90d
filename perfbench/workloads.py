"""The three benchmark workloads, their output checks and output digests.

A workload turns the run's seed into rounds: round r is a fixed list of ops
whose inputs come from the seed and r alone. `run_round` calls sotlab with
library defaults (no `workers` argument) and times each op through `Ops`.
Every op output is checked and folded into the round's token list, whose
sha256 (floats printed as %.17g) is the round's output digest.
"""
from __future__ import annotations

import contextlib
import hashlib
import math
import time

import numpy as np
from scipy import special

from sotlab import (acceptance, concentration, constructions, divergences,
                    experiments, transport)
from sotlab.dist_core import AtomicDistribution, SmoothedMixture


def token(x) -> str:
    if isinstance(x, (float, np.floating)):
        return "%.17g" % float(x)
    return str(x)


def digest(tokens) -> str:
    h = hashlib.sha256()
    for t in tokens:
        h.update(token(t).encode())
        h.update(b"\n")
    return h.hexdigest()


def finite_nonneg(x) -> bool:
    return math.isfinite(x) and x >= 0.0


def reference_work() -> float:
    """A fixed computation that calls no sotlab code: an interpreter loop,
    many scipy calls on small arrays (the per-call overhead that 2-atom
    evaluations pay) and scipy kernels on a large array (what many-atom
    evaluations pay). Its time tracks how fast the host runs at the moment
    (see README)."""
    s = 0.0
    for i in range(40_000):
        s += math.sqrt(i)
    small = np.linspace(-3.0, 3.0, 16)
    for _ in range(1_000):
        s += float(special.logsumexp(special.log_ndtr(small)))
    x = np.linspace(-8.0, 8.0, 200_000)
    return s + float(special.log_ndtr(x).sum() + special.logsumexp(x))


class Ops:
    """Op boundary: times ops, counts attempted and failed ops, collects
    output tokens. With `probe_every` set, it also times reference_work()
    before an op once that many seconds have passed since the last probe;
    `probe_s` is the time the probes took, for the caller to take out of its
    own timings."""

    def __init__(self, tracer=None, probe_every: float | None = None):
        self.ms: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.tokens: list = []
        self.failures: list[str] = []
        self.tracer = tracer
        self.probe_every = probe_every
        self.ref_s: list[float] = []
        self.probe_s = 0.0
        self._last_probe = -math.inf

    def probe(self, force: bool = False):
        """Time one reference_work() if probes are on and it is due."""
        t0 = time.perf_counter()
        if self.probe_every is None or (
                not force and t0 - self._last_probe < self.probe_every):
            return
        reference_work()
        self._last_probe = time.perf_counter()
        self.ref_s.append(self._last_probe - t0)
        self.probe_s += self._last_probe - t0

    def timed(self, fn):
        """Stand-in for fn that appends each call's latency to `ms` and
        counts nothing else; exceptions still reach the caller."""
        def op(*args, **kwargs):
            self.probe()
            if self.tracer is not None:
                self.tracer.op = len(self.ms)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.ms.append((time.perf_counter() - t0) * 1e3)
        op.__name__ = fn.__name__
        return op

    def call(self, fn, *args, **kwargs):
        """Run one op; an exception counts as a failure and yields None."""
        self.attempted += 1
        try:
            return self.timed(fn)(*args, **kwargs)
        except Exception as exc:
            self.check(False, f"{fn.__name__} raised {exc!r}")
            return None

    def check(self, ok: bool, *toks, label: str = ""):
        """Record one op's outputs; `label` names the op in a failure only."""
        if not ok:
            self.failed += 1
            self.failures.append(" ".join(map(token, (label, *toks) if label else toks)))
        self.tokens.extend(toks)


class _ModuleProxy:
    """Stands in for a module inside `experiments` so that the harness's
    calls to the named functions are timed; everything else passes through."""

    def __init__(self, module, ops: Ops, names):
        self._module = module
        for name in names:
            def forward(*args, _name=name, **kwargs):
                return getattr(module, _name)(*args, **kwargs)
            forward.__name__ = name
            setattr(self, name, ops.timed(forward))

    def __getattr__(self, name):
        return getattr(self._module, name)


def _round_seq(seed: int, r: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(seed, spawn_key=(1, r))


def _warm_seq(seed: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(seed, spawn_key=(0,))


class MCTwoPoint:
    """Monte Carlo trials of W2^2 and KL for two-point P; an op is one trial.

    Ops are counted from the trials each `experiments` call reports back
    (values, MCResult.trials, series rows), so they count however the harness
    runs its trials. Op latency is timed around each W2 / KL call that the
    harness makes per trial; a call whose trials are not made one call each
    gives each of its trials the call's wall time over its trial count."""

    name = "mc_two_point"
    ROUNDS, TRACE_ROUNDS = 2, 1
    # n lists and trial counts of the quick acceptance criteria 4, 5 and 7;
    # the harness stops early once 50 trials reach a 2% relative stderr
    PARAM_N, PARAM_TRIALS = (128, 512, 2048, 8192), 60    # K=0.5, h=2
    SCAN_N, SCAN_TRIALS = (1024, 4096, 16384), 60         # adaptive K=2, eps=0.02
    KL_N, KL_TRIALS = (256, 1024, 4096), 50               # K=2, h=2

    def __init__(self, seed: int):
        self.seed = seed
        self.p_param = constructions.bernoulli_two_point(2.0, 0.5)
        self.p_kl = constructions.bernoulli_two_point(2.0, 2.0)

    def inputs(self, r: int):
        seqs = _round_seq(self.seed, r).spawn(len(self.PARAM_N) + 1 + len(self.KL_N))
        return seqs, digest(int(v) for s in seqs for v in s.generate_state(4))

    @staticmethod
    @contextlib.contextmanager
    def _trials_timed(ops: Ops):
        experiments.transport = _ModuleProxy(transport, ops, ["w2_squared"])
        experiments.divergences = _ModuleProxy(divergences, ops, ["kl_divergence"])
        try:
            yield
        finally:
            experiments.transport = transport
            experiments.divergences = divergences

    def warm_up(self):
        with self._trials_timed(Ops()):
            experiments.mc_w2sq_values(self.p_param, 1.0, self.PARAM_N[0], 2,
                                       _warm_seq(self.seed))

    def run_round(self, seqs, ops: Ops):
        it = iter(seqs)
        with self._trials_timed(ops):
            for n in self.PARAM_N:
                self._mc_call(ops, f"mc_w2sq_values n={n}", self.PARAM_TRIALS,
                              self._values, experiments.mc_w2sq_values,
                              self.p_param, 1.0, n, self.PARAM_TRIALS, next(it))
            self._mc_call(ops, "bernoulli_scan", len(self.SCAN_N) * self.SCAN_TRIALS,
                          self._scan_rows, experiments.bernoulli_scan, 2.0, 1.0,
                          0.02, self.SCAN_N, self.SCAN_TRIALS, next(it))
            for n in self.KL_N:
                self._mc_call(ops, f"mc_expected_kl n={n}", self.KL_TRIALS,
                              self._kl_values, experiments.mc_expected_kl,
                              self.p_kl, 1.0, n, self.KL_TRIALS, next(it))

    @staticmethod
    def _values(values):
        return [(1, [v]) for v in values]

    @staticmethod
    def _kl_values(res):
        return [(1, [v]) for v in res.values]

    @staticmethod
    def _scan_rows(res):
        """The scan returns no per-trial values: one row per n of trial count
        and estimates. A negative or non-finite trial value makes the E[W]
        estimate (a mean of square roots) non-finite, so checking the
        estimates checks every trial."""
        plan, series = res
        return [(w[3], [w[1], w[2], q[1], q[2]])
                for w, q in zip(series.points, plan.w2sq_series.points)]

    @staticmethod
    def _mc_call(ops: Ops, label, budget, rows_of, fn, *args):
        """One harness call: its trials are ops. `rows_of(result)` gives
        (trials, outputs) rows; a row with a negative or non-finite output
        fails all its trials. A raising call fails its whole trial budget."""
        first = len(ops.ms)
        t0 = time.perf_counter()
        try:
            rows = rows_of(fn(*args))
        except Exception as exc:
            ops.attempted += budget
            ops.failed += budget
            ops.failures.append(f"{label} raised {exc!r}")
            return
        call_ms = (time.perf_counter() - t0) * 1e3
        trials = sum(k for k, _ in rows)
        if trials and len(ops.ms) - first != trials:
            ops.ms[first:] = [call_ms / trials] * trials
        ops.attempted += trials
        for k, outputs in rows:
            ok = all(map(finite_nonneg, outputs))
            ops.failed += 0 if ok else k
            if not ok:
                ops.failures.append(" ".join(map(token, (label, *outputs))))
            ops.tokens.extend([k, *outputs])


class ExactManyAtoms:
    """Exact W2^2, KL, weighted CDF statistic and chi2 MI evaluations on the
    sigma=1 smoothing of n N(0, 4) samples against the exact truth N(0, 5);
    an op is one evaluation."""

    name = "exact_many_atoms"
    ROUNDS, TRACE_ROUNDS = 14, 3
    N = (512, 1024, 2048, 4096)
    STAT_N_MAX = 1024   # the statistic alone takes about 1.8 s at n=2048; see README
    K, SIGMA = 2.0, 1.0
    W2_TOL, KL_TOL = 1e-9, 1e-10   # library defaults, used by the checks

    def __init__(self, seed: int):
        self.seed = seed
        self.truth_var = self.K ** 2 + self.SIGMA ** 2
        self.truth = SmoothedMixture(AtomicDistribution.from_weights(
            np.array([0.0]), np.array([1.0])), math.sqrt(self.truth_var))
        c = constructions.chi2_admissible_c(self.K)
        self.hard = constructions.chi2_hard_example(self.K, c, 10)

    def _smoothed_sample(self, rng, n):
        x = rng.normal(0.0, self.K, n)
        return x, SmoothedMixture(AtomicDistribution.from_samples(x), self.SIGMA)

    def inputs(self, r: int):
        rng = np.random.default_rng(_round_seq(self.seed, r))
        pairs = [self._smoothed_sample(rng, n) for n in self.N]
        h = hashlib.sha256()
        for x, _ in pairs:
            h.update(x.tobytes())
        return [m for _, m in pairs], h.hexdigest()

    def warm_up(self):
        rng = np.random.default_rng(_warm_seq(self.seed))
        transport.w2_squared(self._smoothed_sample(rng, self.N[0])[1], self.truth)

    def _gelbrich(self, A: SmoothedMixture) -> float:
        w = A.base.weights()
        x = A.base.locations
        mean = float(np.sum(w * x))
        var = float(np.sum(w * (x - mean) ** 2)) + A.sigma ** 2
        return mean ** 2 + (math.sqrt(var) - math.sqrt(self.truth_var)) ** 2

    def run_round(self, samples, ops: Ops):
        for n, A in zip(self.N, samples):
            ev = ops.call(transport.w2_squared, A, self.truth)
            kl = ops.call(divergences.kl_divergence, A, self.truth)
            if kl is not None:
                ops.check(finite_nonneg(kl), kl, label=f"kl_divergence n={n}")
            if ev is not None:
                slack = self.W2_TOL + ev.quad_error + ev.tail_bound
                ok = finite_nonneg(ev.total) and \
                    ev.total + slack >= self._gelbrich(A)
                if kl is not None:
                    # Talagrand T2 for the Gaussian truth: W2^2 <= 2 var KL
                    ok = ok and ev.total <= 2.0 * self.truth_var * (kl + self.KL_TOL) + slack
                ops.check(ok, ev.total, ev.tail_bound, ev.quad_error, ev.n_eval,
                          label=f"w2_squared n={n}")
            if n <= self.STAT_N_MAX:
                s = ops.call(concentration.weighted_cdf_statistic, self.truth, A, n)
                if s is not None:
                    ops.check(finite_nonneg(s), s, label=f"weighted_cdf_statistic n={n}")
        mi = ops.call(divergences.chi2_mutual_information, self.hard, self.SIGMA)
        if mi is not None:
            parts = mi.partial_by_atom
            ops.check(finite_nonneg(mi.value) and all(map(finite_nonneg, parts)),
                      mi.value, *parts, label="chi2_mutual_information")


class AcceptExact:
    """`acceptance.run_all(quick=True, seed=...)` over criteria 1, 6 and
    8-14; an op is one criterion. Most of these judge an exact inequality.
    Criteria 8 (violation rate over 100 Monte Carlo reps) and 10 (event
    frequency against a band over 400 reps) are statistical gates, kept
    because they passed in every round of every run recorded in BASELINE.md.
    Criteria 2, 4, 5 and 7 are statistical gates that fail on a share of
    seeds and are left out; the MC calls of 4, 5 and 7 are what mc_two_point
    times. Criterion 3 is left out because on some seeds one of its W2
    evaluations runs for minutes (quantile solves hitting the 200-iteration
    Newton cap), past any run's time limit."""

    name = "accept_exact"
    ROUNDS, TRACE_ROUNDS = 14, 3
    CRITERIA = (1, 6, 8, 9, 10, 11, 12, 13, 14)

    def __init__(self, seed: int):
        self.seed = seed

    def inputs(self, r: int):
        seed = int(_round_seq(self.seed, r).generate_state(1)[0])
        return seed, digest([seed])

    def warm_up(self):
        acceptance.CRITERIA[0](quick=True,
                               seed=int(_warm_seq(self.seed).generate_state(1)[0]))

    def run_round(self, seed, ops: Ops):
        def op(f):
            def criterion(**kwargs):
                res = ops.call(f, **kwargs)
                if res is None:
                    return acceptance.AcceptanceResult(0, f.__name__, False, "raised", 0.0)
                ops.check(res.passed, res.criterion, res.name, res.passed, res.detail)
                return res
            return criterion

        original = acceptance.CRITERIA
        acceptance.CRITERIA = [op(f) for f in original
                               if int(f.__name__.split("_")[1]) in self.CRITERIA]
        try:
            acceptance.run_all(quick=True, seed=seed)
        finally:
            acceptance.CRITERIA = original


WORKLOADS = {w.name: w for w in (MCTwoPoint, ExactManyAtoms, AcceptExact)}
