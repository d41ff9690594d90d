import itertools
import math

import numpy as np
import pytest

from sotlab import constructions as cons
from sotlab import divergences, transport
from sotlab import experiments as exp
from sotlab.dist_core import AtomicDistribution, SmoothedMixture


def point_mass():
    return AtomicDistribution.from_weights(np.array([0.0]), np.array([1.0]))


def synthetic_series(slope, ns, noise=0.0, rng=None):
    pts = []
    for n in ns:
        est = float(n) ** slope
        if noise and rng is not None:
            est *= math.exp(noise * rng.standard_normal())
        pts.append((n, est, noise * est if noise else 1e-12 * est, 100))
    return exp.RateSeries(points=tuple(pts))


def test_fit_rate_exact():
    fit = exp.fit_rate(synthetic_series(-1.0, (64, 128, 256, 512)))
    assert abs(fit.slope + 1.0) <= 1e-12
    assert fit.r_squared >= 1.0 - 1e-12


def test_fit_rate_noisy():
    rng = np.random.default_rng(3)
    ns = tuple(2 ** k for k in range(6, 16))
    fit = exp.fit_rate(synthetic_series(-0.5, ns, noise=0.01, rng=rng))
    assert -0.52 <= fit.slope <= -0.48
    assert fit.slope_stderr > 0


def test_fit_rate_guards():
    with pytest.raises(ValueError):
        exp.fit_rate(synthetic_series(-1.0, (64, 128)))
    bad = exp.RateSeries(points=((64, 1.0, 0.1, 10), (128, 0.0, 0.1, 10),
                                 (256, 0.25, 0.1, 10)))
    with pytest.raises(ValueError) as ei:
        exp.fit_rate(bad)
    assert "1" in str(ei.value)


def test_zero_stderr_point_is_an_error():
    # numpy's std(ddof=1) of these 60 equal values is 8.5e-22, not 0
    res = exp._summarize(np.full(60, 2.47347511858429e-06))
    assert res.stderr == 0.0
    series = exp.RateSeries(points=((64, 1.0, 0.0, 4), (128, 0.5, 0.1, 4),
                                    (256, 0.25, 0.0, 4)))
    with pytest.raises(ValueError, match=r"stderr 0 at n = \[64, 256\]"):
        exp.fit_rate(series)


def test_point_mass_trivials():
    res = exp.mc_expected_w2sq(point_mass(), 1.0, 32, 8, 7)
    assert res.estimate <= 1e-12
    kl = exp.mc_expected_kl(point_mass(), 1.0, 32, 8, 7)
    assert kl.estimate <= 1e-10


def test_mc_values_deterministic():
    p = cons.bernoulli_two_point(2.0, 2.0)
    v1 = exp.mc_w2sq_values(p, 1.0, 64, 8, 11)
    v2 = exp.mc_w2sq_values(p, 1.0, 64, 8, 11)
    np.testing.assert_array_equal(v1, v2)
    assert np.all(v1 > 0)


def test_mc_values_leave_a_seed_sequence_unspawned():
    p = cons.bernoulli_two_point(2.0, 2.0)
    ss = np.random.SeedSequence(11)
    v1 = exp.mc_w2sq_values(p, 1.0, 64, 8, ss)
    v2 = exp.mc_w2sq_values(p, 1.0, 64, 8, ss)
    np.testing.assert_array_equal(v1, v2)
    assert ss.n_children_spawned == 0


def _uncached_trials(p, sigma, n, trials, seed, value):
    """The MC loop with no cache and no batches: value(P_n * N) on every
    trial's own draw, one call per trial, stopping after trial 50, 75, 100,
    ... once the relative standard error is below 2%. Also returns the number
    of distinct empirical measures the trials drew."""
    values, keys = [], set()
    for child in np.random.SeedSequence(seed).spawn(trials):
        emp = p.sample(n, np.random.default_rng(child)).to_atomic()
        keys.add((emp.locations.tobytes(), emp.log_weights.tobytes()))
        values.append(value(SmoothedMixture(emp, sigma)))
        if len(values) >= 50 and len(values) % 25 == 0:
            arr = np.asarray(values)
            est = float(arr.mean())
            se = float(arr.std(ddof=1)) / math.sqrt(arr.size)
            if est > 0.0 and se / est < 0.02:
                break
    return np.asarray(values), len(keys)


def _evaluated_members(monkeypatch, module, name):
    """Record the empirical measure of every member that the batched
    evaluator module.name evaluates."""
    members = []
    original = getattr(module, name)

    def recording(As, Bs, *args, **kwargs):
        members.extend((A.base.locations.tobytes(), A.base.log_weights.tobytes())
                       for A in As)
        return original(As, Bs, *args, **kwargs)

    monkeypatch.setattr(module, name, recording)
    return members


@pytest.mark.parametrize("h, K, n, trials, seed, stops_early", [
    (2.0, 2.0, 8, 40, 11, False),     # 9 possible counts: trials repeat
    (2.0, 0.5, 16, 75, 3, True),      # no trial sees the spike: se = 0 at 50
])
def test_w2_cache_matches_uncached_trials(monkeypatch, h, K, n, trials, seed,
                                          stops_early):
    p = cons.bernoulli_two_point(h, K)
    truth = SmoothedMixture(p, 1.0)
    want, distinct = _uncached_trials(
        p, 1.0, n, trials, seed,
        lambda A: transport.w2_squared(A, truth, tol=1e-8).total)
    members = _evaluated_members(monkeypatch, transport, "_w2_members")
    got = exp.mc_w2sq_values(p, 1.0, n, trials, seed)
    assert got.view(np.int64).tolist() == want.view(np.int64).tolist()
    # each distinct measure is evaluated exactly once across the batched calls
    assert len(members) == len(set(members)) == distinct < got.size
    assert (got.size < trials) == stops_early


def test_kl_cache_matches_uncached_trials(monkeypatch):
    p = cons.bernoulli_two_point(2.0, 2.0)
    truth = SmoothedMixture(p, 1.0)
    want, distinct = _uncached_trials(
        p, 1.0, 8, 30, 5,
        lambda A: divergences.kl_divergence(A, truth, tol=1e-10))
    members = _evaluated_members(monkeypatch, divergences, "_kl_members")
    got = exp.mc_expected_kl(p, 1.0, 8, 30, 5)
    assert np.array(got.values).view(np.int64).tolist() == want.view(np.int64).tolist()
    assert got.trials == want.size == 30
    # each distinct measure is evaluated exactly once across the batched calls
    assert len(members) == len(set(members)) == distinct < got.trials


def _trials_keyed_on_measure_bytes(p, n, values_of, trials, seed):
    """The trial loop keyed on each P_n's (locations, log-weights) bytes,
    drawn with p.empirical, that draws a chunk and the next one, and
    evaluates their new measures together, whenever a chunk needs trials not
    yet drawn: the reference for the loop keyed on counts."""
    def chunk_end(start):
        return min(trials, max(exp.MIN_TRIALS, start + exp.CHUNK))

    children = np.random.SeedSequence(seed).spawn(trials)
    seen, keys, values = {}, [], []
    while len(values) < trials:
        start = len(values)
        stop = chunk_end(start)
        if stop > len(keys):
            groups = {}
            for i in range(len(keys), chunk_end(stop)):
                m = p.empirical(n, np.random.default_rng(children[i]))
                key = (m.locations.tobytes(), m.log_weights.tobytes())
                keys.append(key)
                if key not in seen:
                    groups.setdefault(key[0], {})[key] = m
            for group in groups.values():
                seen.update(zip(group, values_of(list(group.values()))))
        values.extend(seen[key] for key in keys[start:stop])
        if stop >= exp.MIN_TRIALS and stop % exp.CHUNK == 0:
            arr = np.asarray(values)
            se = float(arr.std(ddof=1)) / math.sqrt(arr.size)
            if arr.mean() > 0.0 and se / arr.mean() < exp.REL_STOP:
                break
    return np.asarray(values)


@pytest.mark.parametrize("p, n, trials", [
    (cons.bernoulli_two_point(2.0, 0.5), 16, 75),     # e^-8: stops at 50
    (cons.bernoulli_two_point(2.0, 0.5), 4096, 120),
    (cons.bernoulli_two_point(2.0, 2.0), 8, 110),
    (AtomicDistribution.from_weights([-1.0, 0.0, 2.5], [0.2, 0.5, 0.3]), 6, 90),
    (AtomicDistribution.from_weights(np.arange(11.0), np.arange(1.0, 12.0)), 5, 60),
])
def test_trials_keyed_on_counts_match_keying_on_measure_bytes(p, n, trials):
    """Same values, and the same members in the same batches, as the loop
    that draws each P_n with p.empirical and keys it on its bytes."""
    def recording(batches):
        def values_of(measures):
            batches.append([(m.locations.tobytes(), m.log_weights.tobytes())
                            for m in measures])
            # a value that differs between measures, so the early stop varies
            return [float(m.weights() @ m.locations ** 2) + 1.0 for m in measures]
        return values_of

    got_batches, want_batches = [], []
    got = exp._run_trials(p, n, recording(got_batches), trials, 17)
    want = _trials_keyed_on_measure_bytes(p, n, recording(want_batches), trials, 17)
    assert got.view(np.int64).tolist() == want.view(np.int64).tolist()
    assert got_batches == want_batches


def test_failure_in_a_batch_names_the_earliest_failing_trial(monkeypatch):
    p = cons.bernoulli_two_point(2.0, 2.0)
    emps = [p.empirical(8, np.random.default_rng(c))
            for c in np.random.SeedSequence(11).spawn(40)]
    distinct = list(dict.fromkeys(e.log_weights.tobytes() for e in emps))
    # two measures fail; the error names the first trial that drew either
    bad = set(distinct[1:3])
    first_bad = min(i for i, e in enumerate(emps) if e.log_weights.tobytes() in bad)
    original = transport._w2_members

    def failing(As, Bs, *args, **kwargs):
        if any(A.base.log_weights.tobytes() in bad for A in As):
            raise ArithmeticError("injected")
        return original(As, Bs, *args, **kwargs)

    monkeypatch.setattr(transport, "_w2_members", failing)
    with pytest.raises(RuntimeError, match=rf"^trial {first_bad} failed: injected$"):
        exp.mc_w2sq_values(p, 1.0, 8, 40, 11)


@pytest.mark.parametrize("stops_early", [True, False])
def test_a_failure_first_drawn_past_the_stop_never_raises(stops_early):
    """Trials 50-74 are drawn and evaluated with trials 0-49; a measure that
    first appears among them and fails raises only where a chunk the loop
    keeps uses it, naming the first trial that drew it."""
    p = cons.bernoulli_two_point(2.0, 2.0)
    emps = [p.empirical(8, np.random.default_rng(c))
            for c in np.random.SeedSequence(10).spawn(75)]
    first = {}
    for i, e in enumerate(emps):
        first.setdefault(e.log_weights.tobytes(), i)
    late = {key: i for key, i in first.items() if i >= exp.MIN_TRIALS}
    assert sorted(late.values()) == [51, 68]
    failed = set()

    def values_of(measures):
        keys = [m.log_weights.tobytes() for m in measures]
        failed.update(k for k in keys if k in late)
        if failed.intersection(keys):
            raise ArithmeticError("injected")
        # equal values stop the loop at 50 (stderr 0); these spread too far
        # for a 2% stderr at 50 trials
        return [1.0 if stops_early else float(m.weights() @ m.locations ** 2) + 1.0
                for m in measures]

    if stops_early:
        got = exp._run_trials(p, 8, values_of, 75, 10)
        assert got.size == exp.MIN_TRIALS
    else:
        with pytest.raises(RuntimeError, match=r"^trial 51 failed: injected$"):
            exp._run_trials(p, 8, values_of, 75, 10)
    # the look-ahead evaluated both measures either way
    assert failed == set(late)


def test_expected_w2sq_decreases_with_n():
    p = cons.bernoulli_two_point(2.0, 2.0)
    prev = None
    for n in (64, 256, 1024):
        est, se = exp.mc_expected_w2sq(p, 1.0, n, 60, 5)
        if prev is not None:
            assert est <= prev[0] + prev[1] + se
        prev = (est, se)


def test_solve_delta():
    d = exp.solve_delta(2.0, 1.0, 0.02)
    assert 0.0 < d < 0.5
    epsilons = (1e-6, 1e-3, 0.02, 0.08, 0.5, 5.0, 100.0)
    for K, sigma in itertools.product((1.1, 2.0, 10.0, 100.0), (0.1, 0.5, 1.0)):
        kap = (sigma / K) ** 2
        deltas = []
        for epsilon in epsilons:
            d = exp.solve_delta(K, sigma, epsilon)
            # the defining equation, to rounding: a bisection to 1e-10 in
            # delta leaves residuals up to ~1e-8 of the target
            target = (1.0 + kap) ** 2 / (2.0 + 2.0 * kap) + 2.0 * epsilon
            lhs = ((1.0 + d) * (1.0 + kap) ** 2
                   / (2.0 * (1.0 - d) * (1.0 + kap) - 4.0 * d * kap))
            assert abs(lhs - target) <= 1e-12 * target, (K, sigma, epsilon)
            assert 0.0 < d < (1.0 + kap) / (1.0 + 3.0 * kap)
            deltas.append(d)
        # a looser rate target allows a larger perturbation
        assert all(b > a for a, b in zip(deltas, deltas[1:])), (K, sigma)
    for epsilon in (-1.0, 0.0, math.nan):
        with pytest.raises(ValueError, match="must be > 0"):
            exp.solve_delta(2.0, 1.0, epsilon)
    assert math.isclose(exp.zeta_constant(2.0, 1.0), 25.0 / 128.0,
                        rel_tol=1e-14)


def test_bernoulli_scan_refuses_epsilon_past_range(monkeypatch):
    # at K = 2, sigma = 1 delta must stay below 0.36, so epsilon below 0.5444
    plan, _ = exp.bernoulli_scan(2.0, 1.0, 0.540, (128,), 2, 1)
    assert plan.delta < 0.36

    def no_trials(*args):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(exp, "mc_w2sq_values", no_trials)
    for epsilon in (0.545, 5.0):
        with pytest.raises(cons.ParameterError, match="epsilon < 0.544355") as err:
            exp.bernoulli_scan(2.0, 1.0, epsilon, (128, 256, 512), 4, 1)
        assert err.value.name == "epsilon"


def test_scan_h_increases_with_n():
    d = exp.solve_delta(2.0, 1.0, 0.02)
    hs = [exp.scan_h(n, 2.0, 1.0, d) for n in (128, 1024, 8192)]
    assert hs[0] < hs[1] < hs[2]


def test_bernoulli_scan_plan():
    plan, series = exp.bernoulli_scan(2.0, 1.0, 0.02, (128, 256), 10, 21)
    assert plan.K == 2.0 and 0 < plan.delta < 0.5
    assert len(plan.records) == 2 == len(series.points)
    for rec, (n, est, se, trials) in zip(plan.records, series.points):
        assert rec.n == n and est > 0 and trials == 10
        assert rec.t == pytest.approx(rec.h / 2 + rec.h / 8)  # sigma^2/(2K^2)
    with pytest.raises(ValueError):
        exp.bernoulli_scan(0.5, 1.0, 0.02, (128,), 4, 1)
    with pytest.raises(ValueError, match="epsilon = 0.0 must be > 0"):
        exp.bernoulli_scan(2.0, 1.0, 0.0, (128,), 4, 1)


def test_phase_scan():
    assert exp.phase_scan([], 1.0, (64, 128, 256), 8, 3) == []
    rows = exp.phase_scan([0.7], 1.0, (128, 512, 2048), 60, 3, h=1.0)
    assert len(rows) == 1
    assert -1.2 <= rows[0]["slope"] <= -0.7   # K < sigma: parametric regime
