"""Run-time span tracing of sotlab's public entry points, and the per-layer
metrics derived from the spans.

Nothing in `src/` is edited: `install` replaces each public function of each
sotlab module, and each public method of the `dist_core` classes, with a
wrapper that records a span. Functions imported by name into other modules
(for example `adaptive_simpson` in `transport`, `divergences` and
`functional_ineq`) are rebound in every namespace that holds them, and
`acceptance.CRITERIA` is rebuilt from the wrapped checks.

A span is (name, start, end, parent, op, round, extra). Spans live in memory
until the run ends. Work handed to a pool thread has no open span of its own
thread, so its parent is the innermost open span of the installing thread,
which is blocked in the call that handed the work over.
"""
from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import itertools
import threading
import time
from collections import defaultdict

LAYERS = ("dist_core", "_quad", "transport", "divergences", "experiments",
          "concentration", "functional_ineq", "tail_bounds", "constructions",
          "acceptance")
TRACED_CLASSES = ("AtomicDistribution", "SmoothedMixture", "EmpiricalMeasure")

SM = "dist_core.SmoothedMixture."
EVAL = (SM + "log_cdf", SM + "log_sf", SM + "log_pdf")
BOTH_SIDES = (SM + "cdf", SM + "sf")
QUANTILE = SM + "quantile_from_log_mass"
NEWTON_CAP = 200   # iteration cap of SmoothedMixture.quantile_from_log_mass
SAMPLE = (SM + "sample", "dist_core.AtomicDistribution.sample", "dist_core.sample")
QUAD = "_quad.adaptive_simpson"
W2 = "transport.w2_squared"
CROSSING = ("transport.w2_crossing_lower_bound", "transport.best_crossing_lower_bound")
KL = "divergences.kl_divergence"
MI = ("divergences.chi2_mutual_information", "divergences.renyi_mutual_information")
MC_LEAF = ("experiments.mc_w2sq_values", "experiments.mc_expected_kl")


def _size(x) -> int:
    return int(getattr(x, "size", 1))


def _n_atoms(mixture) -> int:
    return int(mixture.base.locations.size)


def _base_key(mixture) -> str:
    base = mixture.base
    return hashlib.sha1(base.locations.tobytes() + base.log_weights.tobytes()).hexdigest()


def _eval_extra(args, kwargs, result):
    return {"pairs": _size(result) * _n_atoms(args[0])}


def _quantile_extra(args, kwargs, result):
    return {"targets": _size(result)}


def _sample_extra(args, kwargs, result):
    return {"n": int(result.samples.size)}


def _quad_extra(args, kwargs, result):
    return {"n_eval": int(result.n_eval), "panels": int(result.panel_edges.size),
            "unconverged": int(not result.converged)}


def _w2_extra(args, kwargs, result):
    return {"uncertified": int(not result.certified()), "key": _base_key(args[0])}


def _kl_extra(args, kwargs, result):
    return {"key": _base_key(args[0])}


def _mc_extra(args, kwargs, result):
    trials = int(args[3] if len(args) > 3 else kwargs["trials"])
    ran = result.trials if hasattr(result, "trials") else len(result)
    return {"budget": trials, "run": int(ran)}


ANNOTATE = {
    **{name: _eval_extra for name in EVAL},
    QUANTILE: _quantile_extra,
    **{name: _sample_extra for name in SAMPLE},
    W2: _w2_extra,
    KL: _kl_extra,
    **{name: _mc_extra for name in MC_LEAF},
}


class Tracer:
    """Collects spans from wrapped callables; `op` and `round` are set by the
    harness and stamped on every span that starts while they hold."""

    def __init__(self):
        self.spans: dict[int, tuple] = {}
        self.op = -1
        self.round = -1
        self._ids = itertools.count()
        self._stacks: dict[int, list] = {}
        self._home = threading.get_ident()
        self._restore: list = []

    def wrap(self, name, fn, annotate=None):
        spans, stacks, ids, home = self.spans, self._stacks, self._ids, self._home
        clock = time.perf_counter

        def traced(*args, **kwargs):
            tid = threading.get_ident()
            stack = stacks.setdefault(tid, [])
            if stack:
                parent = stack[-1]
            else:
                outer = stacks.get(home)
                parent = outer[-1] if outer else -1
            sid = next(ids)
            op, rnd = self.op, self.round
            stack.append(sid)
            extra = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                t1 = clock()
                extra = {"error": type(exc).__name__}
                raise
            else:
                t1 = clock()
                if annotate is not None:
                    extra = annotate(args, kwargs, result)
                return result
            finally:
                stack.pop()
                spans[sid] = (name, t0, t1, parent, op, rnd, extra)

        return functools.wraps(fn)(traced)

    def _quad_wrapper(self, namespace, fn):
        """adaptive_simpson wrapper whose integrand calls become
        `<namespace>.integrand` spans, so `_quad` self time excludes them."""
        inner = self.wrap(QUAD, fn, _quad_extra)
        label = namespace + ".integrand"

        def quad(f, *args, **kwargs):
            return inner(self.wrap(label, f), *args, **kwargs)

        return functools.wraps(fn)(quad)

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every public entry point of every layer; returns self."""
        mods = {layer: importlib.import_module("sotlab." + layer) for layer in LAYERS}
        wrapped = {}
        for layer, mod in mods.items():
            for name, obj in list(vars(mod).items()):
                if (name.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                full = f"{layer}.{name}"
                if full == QUAD:
                    continue
                wrapped[id(obj)] = self.wrap(full, obj, ANNOTATE.get(full))
        dist_core = mods["dist_core"]
        for cls_name in TRACED_CLASSES:
            cls = getattr(dist_core, cls_name)
            for name, attr in list(vars(cls).items()):
                if name.startswith("_"):
                    continue
                full = f"dist_core.{cls_name}.{name}"
                if inspect.isfunction(attr):
                    self._set(cls, name, self.wrap(full, attr, ANNOTATE.get(full)))
                elif isinstance(attr, classmethod):
                    self._set(cls, name, classmethod(self.wrap(full, attr.__func__)))
        quad_fn = mods["_quad"].adaptive_simpson
        for layer, mod in mods.items():
            for name, obj in list(vars(mod).items()):
                if obj is quad_fn:
                    self._set(mod, name, self._quad_wrapper(layer, obj))
                elif inspect.isfunction(obj) and id(obj) in wrapped:
                    self._set(mod, name, wrapped[id(obj)])
        acceptance = mods["acceptance"]
        self._set(acceptance, "CRITERIA",
                  [wrapped.get(id(f), f) for f in acceptance.CRITERIA])
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()


# -- analysis -------------------------------------------------------------------


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of [a, b] intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_a = cur_b = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: dict) -> dict:
    """Span id -> duration minus the part of it covered by its child spans."""
    children = defaultdict(list)
    for sid, s in spans.items():
        children[s[3]].append((s[1], s[2]))
    return {sid: (s[2] - s[1]) - union_length(children.get(sid, ()), s[1], s[2])
            for sid, s in spans.items()}


def layer_metrics(spans: dict, criteria=range(1, 15)) -> dict:
    """Per-layer metrics (name -> (value, unit)) over the given spans;
    `criteria` are the acceptance criteria that get a time metric."""
    self_t = self_times(spans)
    by_name = defaultdict(list)
    for sid, s in spans.items():
        by_name[s[0]].append(sid)

    def ids(*names):
        return [sid for n in names for sid in by_name.get(n, ())]

    def dur(sids):
        return sum(spans[i][2] - spans[i][1] for i in sids)

    def extra_sum(sids, key):
        return sum((spans[i][6] or {}).get(key, 0) for i in sids)

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    ev = ids(*EVAL)
    eval_s = dur(ev)
    pairs = extra_sum(ev, "pairs")
    m["dist_core.eval_calls"] = (len(ev), "count")
    m["dist_core.eval_pairs"] = (pairs, "count")
    m["dist_core.eval_s"] = (eval_s, "s")
    m["dist_core.pairs_per_s"] = (ratio(pairs, eval_s), "1/s")
    m["dist_core.us_per_call"] = (ratio(eval_s * 1e6, len(ev)), "us")
    m["dist_core.cdf_both_sides_calls"] = (len(ids(*BOTH_SIDES)), "count")
    qs = ids(QUANTILE)
    qset = set(qs)
    iters = defaultdict(int)
    for i in ids(SM + "log_pdf"):
        if spans[i][3] in qset:
            iters[spans[i][3]] += 1
    newton = sum(iters.values())
    m["dist_core.quantile_calls"] = (len(qs), "count")
    m["dist_core.quantile_targets"] = (extra_sum(qs, "targets"), "count")
    m["dist_core.newton_iters"] = (newton, "count")
    m["dist_core.newton_iters_per_solve"] = (ratio(newton, len(qs)), "count")
    m["dist_core.newton_cap_hits"] = (sum(v >= NEWTON_CAP for v in iters.values()), "count")
    m["dist_core.quantile_self_s"] = (sum(self_t[i] for i in qs), "s")
    smp = ids(*SAMPLE)
    m["dist_core.sample_s"] = (dur(smp), "s")
    m["dist_core.samples_drawn"] = (extra_sum(smp, "n"), "count")

    quad = ids(QUAD)
    qset = set(quad)
    rounds = sum(1 for s in spans.values()
                 if s[0].endswith(".integrand") and s[3] in qset)
    n_eval = extra_sum(quad, "n_eval")
    m["quad.calls"] = (len(quad), "count")
    m["quad.n_eval"] = (n_eval, "count")
    m["quad.rounds"] = (rounds, "count")
    m["quad.panels"] = (extra_sum(quad, "panels"), "count")
    m["quad.evals_per_call"] = (ratio(n_eval, len(quad)), "count")
    m["quad.unconverged"] = (extra_sum(quad, "unconverged")
                              + sum(1 for i in quad if "error" in (spans[i][6] or {})),
                              "count")
    m["quad.self_s"] = (sum(self_t[i] for i in quad), "s")

    w2 = ids(W2)
    cross = ids(*CROSSING)
    m["transport.w2_calls"] = (len(w2), "count")
    m["transport.w2_s"] = (dur(w2), "s")
    m["transport.w2_self_s"] = (sum(self_t[i] for i in w2), "s")
    m["transport.uncertified"] = (ratio(extra_sum(w2, "uncertified"), len(w2)), "ratio")
    m["transport.crossing_calls"] = (len(cross), "count")
    m["transport.crossing_s"] = (dur(cross), "s")

    kl, mi = ids(KL), ids(*MI)
    div = [i for i, s in spans.items() if s[0].startswith("divergences.")]
    m["divergences.kl_calls"] = (len(kl), "count")
    m["divergences.kl_s"] = (dur(kl), "s")
    m["divergences.mi_calls"] = (len(mi), "count")
    m["divergences.mi_s"] = (dur(mi), "s")
    m["divergences.self_s"] = (sum(self_t[i] for i in div), "s")

    leaf = ids(*MC_LEAF)
    run, budget = extra_sum(leaf, "run"), extra_sum(leaf, "budget")
    leaf_set = set(leaf)
    keys = defaultdict(list)
    for i in ids(W2, KL):
        if spans[i][3] in leaf_set:
            keys[spans[i][3]].append(spans[i][6]["key"])
    trial_count = sum(len(v) for v in keys.values())
    repeats = sum(len(v) - len(set(v)) for v in keys.values())
    exp = [i for i, s in spans.items() if s[0].startswith("experiments.")]
    m["experiments.trials_run"] = (run, "count")
    m["experiments.trials_budget"] = (budget, "count")
    m["experiments.early_stop_ratio"] = (ratio(run, budget), "ratio")
    m["experiments.repeat_share"] = (ratio(repeats, trial_count), "ratio")
    m["experiments.self_s"] = (sum(self_t[i] for i in exp), "s")

    layer_of = {sid: s[0].split(".", 1)[0] for sid, s in spans.items()}
    for layer in ("concentration", "functional_ineq", "tail_bounds", "constructions"):
        entries = [sid for sid, s in spans.items()
                   if layer_of[sid] == layer and layer_of.get(s[3]) != layer]
        m[f"{layer}.s"] = (dur(entries), "s")
        m[f"{layer}.calls"] = (len(entries), "count")

    for k in criteria:
        crit = [sid for sid, s in spans.items()
                if s[0].startswith(f"acceptance.check_{k}_")]
        m[f"acceptance.c{k:02d}_s"] = (dur(crit), "s")
    return m
