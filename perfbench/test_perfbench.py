"""Tests of the benchmark itself: the tail-percentile rule, self time, span
wiring, and repeatable counts and digests per seed.

    python3 -m pytest -q perfbench
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_tail_is_highest_percentile_with_ten_beyond():
    xs = list(range(1, 101))
    assert run.tail(xs) == (90, 90.0)
    assert run.tail(list(reversed(xs))) == (90, 90.0)
    assert run.tail(list(range(11))) == (0, 100.0 / 11)
    assert run.tail(list(range(12))) == (1, 200.0 / 12)


def test_tail_falls_back_to_maximum_with_ten_or_fewer():
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)
    assert run.tail(list(range(10))) == (9, 100.0)


def test_tail_refuses_an_empty_latency_list():
    with pytest.raises(ValueError):
        run.tail([])


def test_wall_and_rate_are_measured_against_the_reference_probes():
    res = {"round_walls": [1.0, 3.0], "op_ms": [5.0] * 12, "ref_s": [0.1, 0.3],
           "ops_per_round": [6, 6], "failed_per_round": [0, 2],
           "attempted": 12, "failed": 2, "peak_rss_mb": 1.0}
    m = run.end_to_end(res, [0.7, 0.5, 0.9])
    assert m["setup_s"][0] == 0.5
    assert m["wall_s"][0] == pytest.approx(2.0)
    assert m["ops_per_s"][0] == pytest.approx(10 / 4.0)
    assert m["wall_ref"][0] == pytest.approx(2.0 / 0.2)
    assert m["ops_per_ref"][0] == pytest.approx(10 * 0.2 / 4.0)
    assert m["failed_frac"][0] == pytest.approx(2 / 12)


def test_probes_run_when_due_and_stay_out_of_op_latency():
    ops = workloads.Ops(probe_every=3600.0)
    op = ops.timed(lambda: None)
    op()
    op()
    assert len(ops.ref_s) == 1 and len(ops.ms) == 2
    assert max(ops.ms) < ops.ref_s[0] * 1e3
    ops.probe(force=True)
    assert len(ops.ref_s) == 2 and ops.probe_s == pytest.approx(sum(ops.ref_s))
    off = workloads.Ops()
    off.timed(lambda: None)()
    off.probe(force=True)
    assert off.ref_s == [] and off.probe_s == 0.0


def test_mc_ops_come_from_the_trials_a_call_returns():
    mc, ops = workloads.MCTwoPoint, workloads.Ops()
    # no per-trial W2 / KL calls were timed: each trial gets the call's mean
    mc._mc_call(ops, "batched", 60, mc._values, lambda: np.array([0.1, 0.2, 0.3]))
    assert (ops.attempted, ops.failed, len(ops.ms)) == (3, 0, 3)
    assert len(set(ops.ms)) == 1
    mc._mc_call(ops, "negative", 60, mc._values, lambda: np.array([0.1, -1.0]))
    assert (ops.attempted, ops.failed) == (5, 1)

    def boom():
        raise RuntimeError("trial 0 failed")
    mc._mc_call(ops, "raises", 60, mc._values, boom)
    assert (ops.attempted, ops.failed, len(ops.failures)) == (65, 61, 2)


def test_union_length_merges_and_clips():
    assert tracing.union_length([(0, 2), (1, 3), (5, 6)], 0, 10) == 4
    assert tracing.union_length([(-1, 2), (8, 12)], 0, 10) == 4
    assert tracing.union_length([], 0, 10) == 0


def test_self_time_subtracts_covered_part_once():
    spans = {
        0: ("a", 0.0, 10.0, -1, 0, 0, None),
        1: ("b", 1.0, 4.0, 0, 0, 0, None),
        2: ("c", 3.0, 6.0, 0, 0, 0, None),   # overlaps b, as a pool thread may
        3: ("d", 2.0, 3.0, 1, 0, 0, None),   # grandchild: b's, not a's
    }
    self_t = tracing.self_times(spans)
    assert self_t[0] == pytest.approx(10.0 - 5.0)
    assert self_t[1] == pytest.approx(3.0 - 1.0)
    assert self_t[2] == pytest.approx(3.0)
    assert self_t[3] == pytest.approx(1.0)


def test_tracer_spans_nest_and_uninstall_restores():
    from sotlab import _quad, divergences, transport
    from sotlab.dist_core import AtomicDistribution, SmoothedMixture

    originals = (transport.w2_squared, transport.adaptive_simpson,
                 divergences.adaptive_simpson, SmoothedMixture.log_pdf)
    A = SmoothedMixture(AtomicDistribution.from_weights(np.array([0.0, 1.0]),
                                                        np.array([0.5, 0.5])), 1.0)
    B = SmoothedMixture(AtomicDistribution.from_weights(np.array([0.5]),
                                                        np.array([1.0])), 1.0)
    plain = transport.w2_squared(A, B).total
    tracer = tracing.Tracer().install()
    try:
        tracer.round = 0
        traced = transport.w2_squared(A, B).total
    finally:
        tracer.uninstall()
    assert traced == plain
    assert (transport.w2_squared, transport.adaptive_simpson,
            divergences.adaptive_simpson, SmoothedMixture.log_pdf) == originals
    assert _quad.adaptive_simpson is originals[1]

    names = {sid: s[0] for sid, s in tracer.spans.items()}
    parent = {sid: s[3] for sid, s in tracer.spans.items()}
    (w2,) = [i for i, n in names.items() if n == "transport.w2_squared"]
    (quad,) = [i for i, n in names.items() if n == "_quad.adaptive_simpson"]
    assert parent[w2] == -1 and parent[quad] == w2
    integrands = [i for i, n in names.items() if n == "transport.integrand"]
    assert integrands and all(parent[i] == quad for i in integrands)
    m = tracing.layer_metrics(tracer.spans)
    assert m["transport.w2_calls"][0] == 1
    assert m["quad.rounds"][0] == len(integrands)
    assert m["dist_core.newton_iters"][0] > 0


def _traced_round(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", workload,
         "--seed", str(seed), "--mode", "trace", "--seconds", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True, timeout=170)
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_counts_and_digests_repeat_per_seed(workload):
    first, again, other = (_traced_round(workload, s) for s in (7, 7, 8))

    def counts(res):
        return {k: v for k, (v, unit) in res["layers"].items() if unit == "count"}

    assert first["failed"] == 0
    assert counts(first) == counts(again)
    assert first["output_digests"] == again["output_digests"]
    assert first["input_digests"] == again["input_digests"]
    assert other["input_digests"] != first["input_digests"]
    assert counts(first)["quad.n_eval"] > 0
