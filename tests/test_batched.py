"""Batched evaluation: several mixtures on one set of atoms evaluated
together give, bit for bit, what one evaluation each gives."""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from sotlab import _quad, constructions, divergences, dist_core, transport
from sotlab._quad import QuadratureError
from sotlab.dist_core import (AtomicDistribution, QuantileSolveError,
                              SmoothedMixture)

from conftest import random_mixture


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64).tolist()


def _members(seed, n_atoms, n_members, span=4.0):
    """Mixtures on one random set of atoms and one sigma, with weights from
    Dirichlet draws of very different concentration (near-point masses to
    near-uniform), so that they need very different panel counts."""
    rng = np.random.default_rng(seed)
    first = random_mixture(rng, n_atoms, float(rng.uniform(0.5, 1.5)), span)
    out = []
    for _ in range(n_members):
        alpha = float(rng.choice([0.05, 1.0, 50.0]))
        w = np.maximum(rng.dirichlet(np.full(n_atoms, alpha)), 1e-12)
        out.append(SmoothedMixture(AtomicDistribution.from_weights(
            first.base.locations, w), first.sigma))
    return out


def _with_duplicates(ms, dup):
    """ms plus, if dup, the first member again and an equal copy of it."""
    if not dup:
        return ms
    copy = SmoothedMixture(AtomicDistribution(ms[0].base.locations,
                                              ms[0].base.log_weights), ms[0].sigma)
    return ms + [ms[0], copy]


pairs = st.tuples(st.integers(0, 10_000), st.integers(1, 4), st.integers(1, 4),
                  st.integers(1, 4), st.booleans(), st.booleans())


def _batch(seed, a_atoms, b_atoms, n_members, vary_b, dup):
    As = _with_duplicates(_members(seed, a_atoms, n_members), dup)
    if vary_b:
        Bs = _with_duplicates(_members(seed + 1, b_atoms, n_members), dup)
    else:
        Bs = [random_mixture(np.random.default_rng(seed + 1), b_atoms)] * len(As)
    return As, Bs


@settings(max_examples=12, deadline=None)
@given(pairs)
def test_batched_w2_matches_one_call_each(case):
    As, Bs = _batch(*case)
    got = transport._w2_members(As, Bs, tol=1e-8)
    assert len(got) == len(As)
    for ev, A, B in zip(got, As, Bs):
        want = transport.w2_squared(A, B, tol=1e-8)
        for field in ("total", "quad_error", "tail_bound", "grid", "contributions",
                      "window"):
            assert _bits(getattr(ev, field)) == _bits(getattr(want, field)), field
        assert ev.n_eval == want.n_eval


@settings(max_examples=12, deadline=None)
@given(pairs)
# rho_B's tail is so much lighter than rho_A's that chi^2 is ~1e232 and
# no panel meets its tol: the lone chi^2 raises, and so must the batch
@example(case=(64, 2, 1, 1, True, False))
def test_batched_kl_matches_one_call_each(case):
    """KL, and chi^2 through the same members driver. Where a lone chi^2
    raises QuadratureError the batch raises it too, with the last estimate
    of the first member that raises alone."""
    As, Bs = _batch(*case)
    got = divergences._kl_members(As, Bs, tol=1e-10)
    want = [divergences.kl_divergence(A, B, tol=1e-10) for A, B in zip(As, Bs)]
    assert _bits(got) == _bits(want)
    want, raised = [], []
    for A, B in zip(As, Bs):
        try:
            want.append(divergences.chi2_divergence(A, B, tol=1e-10))
        except QuadratureError as exc:
            raised.append(exc.estimate)
    if raised:
        with pytest.raises(QuadratureError) as ei:
            divergences._chi2_members(As, Bs, tol=1e-10)
        assert _bits([ei.value.estimate]) == _bits(raised[:1])
        return
    assert _bits(divergences._chi2_members(As, Bs, tol=1e-10)) == _bits(want)


@pytest.mark.parametrize("n", [4, 8])
@pytest.mark.parametrize("h", [2.0, 5.0])
def test_chi2_members_match_one_call_each(n, h):
    """The two-point measures with k = 1 .. n - 1 of n atoms at h, as in
    criterion 6(a)'s binomial sum, against their shared smoothed truth and,
    reversed, against each other: each member's chi^2 has the bits of its
    lone chi2_divergence."""
    ms = [SmoothedMixture(constructions.two_point(h, math.log(k / n)), 1.0)
          for k in range(1, n)]
    rho = SmoothedMixture(constructions.bernoulli_two_point(h, 0.5), 1.0)
    for As, Bs in ((ms, [rho] * len(ms)), (ms, ms[::-1])):
        got = divergences._chi2_members(As, Bs, tol=1e-10)
        want = [divergences.chi2_divergence(A, B, tol=1e-10)
                for A, B in zip(As, Bs)]
        assert _bits(got) == _bits(want)


def test_batched_w2_noise_bound_and_swap():
    # As with fewer atoms than Bs: the batch integrates over the Bs
    As = _members(3, 2, 3)
    B = random_mixture(np.random.default_rng(4), 4)
    got = transport._w2_members(As, [B] * 3, with_noise_bound=True)
    for ev, A in zip(got, As):
        want = transport.w2_squared(A, B, with_noise_bound=True)
        assert _bits([ev.total, ev.noise_bound]) == _bits([want.total, want.noise_bound])


def test_members_must_share_atoms():
    A = _members(1, 2, 1)[0]
    other = _members(2, 2, 1)[0]
    with pytest.raises(ValueError, match="share"):
        transport._w2_members([A, other], [A, A])


# -- a shared truth ---------------------------------------------------------------

def _truth_and_members(shared_on):
    """An MC batch: the smoothed truth, one object shared by every member,
    and members on one support. With shared_on "A" the members have fewer
    atoms than the truth, so the W2 batch swaps the truth onto A: one-atom
    P_n (distinct objects of one measure, and one object twice), and
    two-atom members of a three-atom truth. With "B" they are two-atom P_n
    on the truth's atoms, with different counts."""
    p = constructions.bernoulli_two_point(2.0, 2.0)
    truth = SmoothedMixture(p, 1.0)
    if shared_on == "B":
        ms = [SmoothedMixture(p._from_counts(np.array([64 - k, k]), 64), 1.0)
              for k in (1, 5, 23, 40, 63)]
        return [(truth, ms)]
    ones = [SmoothedMixture(p._from_counts(np.array([64, 0]), 64), 1.0)
            for _ in range(3)]
    three = SmoothedMixture(AtomicDistribution.from_weights(
        np.array([-1.0, 0.5, 3.0]), np.array([0.2, 0.5, 0.3])), 0.8)
    return [(truth, ones + ones[:1]), (three, _members(11, 2, 4))]


def _deep_solves(monkeypatch, truth):
    """Sizes of the deep-quantile solves made on the truth object."""
    sizes = []
    solve = SmoothedMixture.quantile_from_log_mass

    def spy(self, log_mass, *args, **kwargs):
        lm = np.atleast_1d(log_mass)
        if self is truth and np.all(lm == dist_core.LOG_MASS_EPS):
            sizes.append(lm.size)
        return solve(self, log_mass, *args, **kwargs)
    monkeypatch.setattr(SmoothedMixture, "quantile_from_log_mass", spy)
    return sizes


def _tail_moment_cuts(monkeypatch, truth):
    """Numbers of cuts at which the truth object's tail moments are taken."""
    sizes = []
    moment = SmoothedMixture.log_tail_second_moment

    def spy(self, x0, *args, **kwargs):
        if self is truth:
            sizes.append(np.size(x0))
        return moment(self, x0, *args, **kwargs)
    monkeypatch.setattr(SmoothedMixture, "log_tail_second_moment", spy)
    return sizes


@pytest.mark.parametrize("shared_on", ["A", "B"])
def test_batch_with_a_shared_truth_matches_one_call_each(monkeypatch, shared_on):
    """Members against one shared truth object, as in an MC batch, get the
    bits of a lone call each, every field; the truth's two deep quantiles
    are solved as 2 targets per batch, not 2 per member, and a W2 batch
    takes the truth's tail moments at 2 cuts, not 2 per member."""
    for truth, ms in _truth_and_members(shared_on):
        sizes = _deep_solves(monkeypatch, truth)
        cuts = _tail_moment_cuts(monkeypatch, truth)
        got = transport._w2_members(ms, [truth] * len(ms), tol=1e-8)
        kl = divergences._kl_members(ms, [truth] * len(ms), tol=1e-10)
        assert sizes == [2, 2]
        assert cuts == [2]
        monkeypatch.undo()
        for ev, m, value in zip(got, ms, kl):
            want = transport.w2_squared(m, truth, tol=1e-8)
            for field in ("total", "tail_bound", "noise_bound", "quad_error",
                          "window", "grid", "contributions"):
                assert _bits(getattr(ev, field)) == \
                    _bits(getattr(want, field)), field
            assert ev.n_eval == want.n_eval
            want_kl = divergences.kl_divergence(m, truth, 1e-10)
            assert _bits([value]) == _bits([want_kl])


# -- P_n from its counts ---------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 8), st.integers(1, 100_000))
def test_from_counts_is_from_log_weights(seed, n_atoms, n):
    """_from_counts, which skips the constructor's checks, gives the bits and
    the read-only arrays of from_log_weights(..., normalize=True)."""
    rng = np.random.default_rng(seed)
    p = random_mixture(rng, n_atoms).base
    counts = rng.multinomial(n, rng.dirichlet(np.full(n_atoms, 0.3)))
    got = p._from_counts(counts, n)
    drawn = counts > 0
    want = AtomicDistribution.from_log_weights(
        p.locations[drawn], np.log(counts[drawn]) - math.log(n), normalize=True)
    assert type(got) is AtomicDistribution
    for field in ("locations", "log_weights"):
        a, b = getattr(got, field), getattr(want, field)
        assert _bits(a) == _bits(b) and a.dtype == b.dtype == np.float64
        assert not a.flags.writeable and a.flags.owndata
        assert not np.shares_memory(a, getattr(p, field))


@pytest.mark.parametrize("n", [1, 7, 1024, 5000])
@pytest.mark.parametrize("k", [1, 2, 3, 9])
def test_count_draw_with_the_callers_cdf(k, n):
    """A count draw given the caller's _draw_cdf() makes the counts of
    _draw_counts(n, rng) and leaves the generator in the same state."""
    for seed in range(8):
        rng = np.random.default_rng(seed)
        w = np.maximum(rng.dirichlet(np.full(k, (0.05, 1.0, 50.0)[seed % 3])),
                       1e-300)
        p = AtomicDistribution.from_weights(np.arange(k, dtype=float), w)
        cdf = p._draw_cdf()
        mine, theirs = (np.random.default_rng([seed, n]) for _ in range(2))
        for _ in range(3):
            assert p._draw_counts(n, mine, cdf).tolist() == \
                p._draw_counts(n, theirs).tolist()
        assert mine.bit_generator.state == theirs.bit_generator.state


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 64), st.integers(2, 5),
       st.booleans())
def test_log_weight_rows_match_each_mixture(seed, n_atoms, n_members, upper):
    """Every evaluation with per-point rows equals the member's own call;
    up to 64 atoms, so the row sums of the per-member mean take numpy's
    pairwise path."""
    ms = _members(seed, n_atoms, n_members, span=max(4.0, n_atoms / 4.0))
    m0, locs, s = ms[0], ms[0].base.locations, ms[0].sigma
    rng = np.random.default_rng(seed)
    member = rng.integers(0, n_members, 40)
    t = rng.uniform(locs[0] - 8.0 * s, locs[-1] + 8.0 * s, member.size)
    t[:n_members] = [m.base.mean() for m in ms]
    rows = np.stack([m.base.log_weights for m in ms])[member]
    for name in ("log_pdf", "log_cdf", "log_sf"):
        want = [getattr(ms[j], name)(np.array([x]))[0] for j, x in zip(member, t)]
        assert _bits(getattr(m0, name)(t, rows)) == _bits(want), name
    lower, lc, ls = m0._log_sides(t, rows)
    for j, x, lo_, c, sf in zip(member, t, lower, lc, ls):
        w_lower, w_lc, w_ls = ms[j]._log_sides(np.array([x]))
        assert (lo_, *_bits([c, sf])) == (w_lower[0], *_bits([w_lc[0], w_ls[0]]))
    targets = rng.uniform(-40.0, math.log(0.7), member.size)
    got = m0.quantile_from_log_mass(targets, upper=upper, log_weights=rows)
    want = [ms[j].quantile_from_log_mass(np.array([q]), upper=upper)[0]
            for j, q in zip(member, targets)]
    assert _bits(got) == _bits(want)


# -- multi-member quadrature -------------------------------------------------------

INTEGRANDS = (
    lambda t: np.exp(-t * t),
    lambda t: np.sqrt(np.abs(t - 0.3)),      # a kink: many panels
    lambda t: t ** 3 - t,
    lambda t: np.where(t < 0.1, 0.0, 1.0),  # a jump: depth-capped panels
)


def _f(t, member):
    out = np.empty(t.shape)
    for j, g in enumerate(INTEGRANDS):
        on = member == j
        out[on] = g(t[on])
    return out


def _assert_same(got: _quad.QuadResult, want: _quad.QuadResult):
    assert _bits([got.total, got.error_estimate]) == \
        _bits([want.total, want.error_estimate])
    assert (got.n_eval, got.converged) == (want.n_eval, want.converged)
    assert _bits(got.panel_edges) == _bits(want.panel_edges)
    assert _bits(got.panel_values) == _bits(want.panel_values)


@pytest.mark.parametrize("max_eval, max_depth", [
    (2_000_000, 40),   # every member converges on its own terms
    (400, 40),         # the kink and the jump exhaust their budget
    (2_000_000, 6),    # the jump stays unconverged at the depth cap
])
def test_simpson_members_match_solo(max_eval, max_depth):
    bps = [np.linspace(-2.0, 2.0, 5), [-1.0, 0.0, 1.5], [0.0, 3.0],
           [-1.0, 1.0]]
    tols = [1e-10, 1e-9, 1e-12, 1e-11]
    got = _quad._simpson_members(_f, bps, tols, max_depth=max_depth,
                                 max_eval=max_eval, strict=False)
    solo = [_quad.adaptive_simpson(g, bp, tol, max_depth=max_depth,
                                   max_eval=max_eval, strict=False)
            for g, bp, tol in zip(INTEGRANDS, bps, tols)]
    for g, w in zip(got, solo):
        _assert_same(g, w)
    flags = [r.converged for r in got]
    assert any(flags) and (all(flags) == (max_eval > 400 and max_depth > 6))
    if not all(flags):
        with pytest.raises(_quad.QuadratureError):
            _quad._simpson_members(_f, bps, tols, max_depth=max_depth,
                                   max_eval=max_eval)


# -- empirical measures from counts ------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 8), st.integers(1, 5000))
def test_empirical_from_counts_matches_sorted_sample(seed, n_atoms, n):
    p = random_mixture(np.random.default_rng(seed), n_atoms).base
    got = p.empirical(n, np.random.default_rng(seed))
    want = p.sample(n, np.random.default_rng(seed)).to_atomic()
    assert _bits(got.locations) == _bits(want.locations)
    assert _bits(got.log_weights) == _bits(want.log_weights)


@pytest.mark.parametrize("n", [1, 7, 128, 4096])
@pytest.mark.parametrize("k", [1, 2, 3, 11, 64])
def test_count_draw_is_the_choice_draw(k, n):
    """The atom counts and indices drawn from choice's uniforms and CDF are
    rng.choice's, and leave the generator where rng.choice leaves it, for
    weights from near-point masses to near-uniform and for the e^-8
    two-point P."""
    ps = [random_mixture(np.random.default_rng(s), k).base for s in range(30)]
    if k == 2:
        ps.append(constructions.bernoulli_two_point(2.0, 0.5))
    for seed, p in enumerate(ps):
        if k > 2 and seed % 3:
            alpha = 0.05 if seed % 3 == 1 else 50.0
            w = np.maximum(np.random.default_rng(seed).dirichlet(np.full(k, alpha)),
                           1e-300)
            p = AtomicDistribution.from_weights(p.locations, w)
        w = p.weights()
        ref, rng_counts, rng_atoms = (np.random.default_rng(seed) for _ in range(3))
        idx = ref.choice(k, size=n, p=w / w.sum())
        counts = p._draw_counts(n, rng_counts)
        assert counts.tolist() == np.bincount(idx, minlength=k).tolist()
        assert p._draw_atoms(n, rng_atoms).tolist() == idx.tolist()
        state = ref.bit_generator.state
        assert rng_counts.bit_generator.state == rng_atoms.bit_generator.state == state


@pytest.mark.parametrize("k", [1, 2, 3, 8, 9, 50])
def test_draw_counts_are_the_drawn_atoms_counts(k):
    """The counts equal np.bincount of the atoms drawn from the same seed,
    by comparison passes and by the sort: n from 1 to 16384, on both sides
    of n = (k - 1) * _COUNT_PASS_MIN, weights from near-point masses to
    near-uniform."""
    cut = (k - 1) * dist_core._COUNT_PASS_MIN
    ns = sorted({n for n in (1, 2, 7, 128, 1023, 1024, 4096, 16384,
                             cut - 1, cut, cut + 1) if 1 <= n <= 16384})
    for seed in range(6):
        rng = np.random.default_rng(seed)
        alpha = (0.05, 1.0, 50.0)[seed % 3]
        w = np.maximum(rng.dirichlet(np.full(k, alpha)), 1e-300)
        p = AtomicDistribution.from_weights(np.arange(k, dtype=float), w)
        for n in ns:
            atoms = p._draw_atoms(n, np.random.default_rng([seed, n]))
            counts = p._draw_counts(n, np.random.default_rng([seed, n]))
            assert counts.tolist() == np.bincount(atoms, minlength=k).tolist()


# -- the quantile solver converges or raises ----------------------------------------

# Plain safeguarded Newton settles into a cycle between x ~ 2.7277 and
# x ~ 6.0962 for this upper target, each step just inside the bracket, and
# is still open at the cap; with the bisection from iteration _BISECT_FROM on
# it converges at iteration 49. The first five atoms cycled from the old
# per-atom start (found by a search over random mixtures); the start table
# puts that target 3e-5 from its root. The sixth atom, of weight e^-40 and
# ~5000 sigma out, stretches the table's 513-point grid to ~10 sigma spacing,
# which puts the start at x ~ 2.7262, inside the cycle's basin.
TWO_CYCLE = SmoothedMixture(AtomicDistribution(
    np.array([-6.1542075999091335, -6.059549683787808, 2.846055108667544,
              4.232549096563387, 7.936331593023956, 4701.696462923957]),
    np.array([-1.130505683871538, -1.0996822209024502, -2.8445929221955737,
              -1.848321026828306, -2.051874210499546, -40.0])),
    0.9099389986127446)
TWO_CYCLE_TARGET = -1.6353981059606415


def test_quantile_two_cycle_converges(monkeypatch):
    x = TWO_CYCLE.quantile_from_log_mass(np.array([TWO_CYCLE_TARGET]), upper=True)
    assert abs(TWO_CYCLE.log_sf(x)[0] - TWO_CYCLE_TARGET) <= 1e-12
    # the bisection safeguard is what converges it
    monkeypatch.setattr(dist_core, "_BISECT_FROM", dist_core._NEWTON_CAP)
    with pytest.raises(QuantileSolveError):
        TWO_CYCLE.quantile_from_log_mass(np.array([TWO_CYCLE_TARGET]),
                                         upper=True)


def test_quantile_cap_raises_with_the_count(monkeypatch):
    # 49, 4 and 5 iterations with no cap
    monkeypatch.setattr(dist_core, "_NEWTON_CAP", 3)
    targets = np.array([TWO_CYCLE_TARGET, -1.0, math.log(0.5)])
    with pytest.raises(QuantileSolveError, match=r"^3 quantile target\(s\) "
                       r"unconverged after 3 Newton iterations$") as ei:
        TWO_CYCLE.quantile_from_log_mass(targets, upper=True)
    assert ei.value.unconverged == 3 and isinstance(ei.value, RuntimeError)


def _fresh(m):
    """An equal mixture with none of m's cached start tables."""
    return SmoothedMixture(AtomicDistribution(m.base.locations,
                                              m.base.log_weights), m.sigma)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.one_of(st.just(0), st.integers(1, 64)),
       st.integers(0, 400), st.booleans())
def test_mixed_tail_solve_matches_one_solve_per_tail(seed, n_atoms, n_targets,
                                                     with_rows):
    """One solve over targets of both tails gives the bits of one solve per
    tail, and of a lone solve of a few of its targets, with and without
    per-target rows; n_atoms 0 stands for TWO_CYCLE. Targets run from -700
    to just below log(0.75), two fifths of them from -30 (where the start
    table serves), the two-cycle target among them, and there may be none.
    The per-tail and lone solves run on fresh copies of the mixture, so each
    builds its own start tables, from other rows than the mixed solve."""
    rng = np.random.default_rng(seed)
    m = TWO_CYCLE if n_atoms == 0 else random_mixture(
        rng, n_atoms, float(rng.uniform(0.3, 2.0)), span=max(4.0, n_atoms / 4.0))
    top = np.nextafter(math.log(0.75), -math.inf)
    targets = np.minimum(rng.uniform(-700.0, math.log(0.75), n_targets), top)
    near = rng.random(n_targets) < 0.4
    targets[near] = np.minimum(rng.uniform(-30.0, math.log(0.75), near.sum()),
                               top)
    targets[rng.random(n_targets) < 0.2] = TWO_CYCLE_TARGET
    targets[rng.random(n_targets) < 0.1] = top
    upper = rng.random(n_targets) < 0.5
    rows = None
    if with_rows:
        rows = np.log(rng.dirichlet(np.ones(m.base.n_atoms), n_targets))
        rows[rng.random(n_targets) < 0.3] = m.base.log_weights
    got = m.quantile_from_log_mass(targets, upper=upper, log_weights=rows)
    want = np.empty(n_targets)
    for flag in (False, True):
        on = upper == flag
        want[on] = _fresh(m).quantile_from_log_mass(
            targets[on], upper=flag, log_weights=None if rows is None else rows[on])
    assert got.shape == (n_targets,)
    assert _bits(got) == _bits(want)
    for i in rng.choice(n_targets, min(n_targets, 3), replace=False):
        lone = _fresh(m).quantile_from_log_mass(
            targets[i:i + 1], upper=upper[i],
            log_weights=None if rows is None else rows[i:i + 1])
        assert _bits(lone) == _bits(got[i:i + 1])


@pytest.mark.parametrize("cap, per_tail", [(8, [1, 1]), (10, [0, 1])])
def test_mixed_tail_cap_counts_both_tails(monkeypatch, cap, per_tail):
    """At the cap a mixed solve raises with the open targets of both tails:
    the sum of what one solve per tail leaves open. With no cap the lower
    targets take 4, 6 and 10 iterations, the upper ones 49, 5 and 5."""
    monkeypatch.setattr(dist_core, "_NEWTON_CAP", cap)
    targets = np.array([TWO_CYCLE_TARGET, -30.0, math.log(0.5),
                        TWO_CYCLE_TARGET, -30.0, -456.0])
    upper = np.array([True, False, True, False, True, False])
    open_ = []
    for flag in (False, True):
        try:
            TWO_CYCLE.quantile_from_log_mass(targets[upper == flag], upper=flag)
            open_.append(0)
        except QuantileSolveError as exc:
            open_.append(exc.unconverged)
    assert open_ == per_tail
    with pytest.raises(QuantileSolveError) as ei:
        TWO_CYCLE.quantile_from_log_mass(targets, upper=upper)
    assert ei.value.unconverged == sum(per_tail)
