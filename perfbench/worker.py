"""One workload process: set up, then time rounds 0 .. R-1 of the workload.

    python3 perfbench/worker.py --workload NAME --seed N --mode setup|run|trace
                                [--trace-rounds] [--seconds S] [--spans PATH]

The rounds are the workload's ROUNDS, or its TRACE_ROUNDS in trace mode or
with --trace-rounds. --seconds is a cap for a very slow host: no round
starts once the rounds so far took S seconds.

`setup` stops after the warm-up op and reports when it was ready. `run` also
times rounds, and times workloads.reference_work() before the first round,
after the last and before any op that starts a second or more after the
previous probe (`ref_s`; probe time is left out of the round walls).
`trace` times rounds without probes, with every sotlab entry point wrapped
in spans (see tracing.py), and reports per-layer metrics over round 0. The last
stdout line is one JSON object. Times use the system-wide monotonic clock, so
the parent can subtract its spawn time from `ready`.
"""
from __future__ import annotations

import argparse
import gzip
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PROBE_EVERY = 1.0   # seconds between reference probes in a `run` process


def _import_sotlab():
    sys.path.insert(0, str(SRC))
    import sotlab
    if Path(sotlab.__file__).resolve().parent != SRC / "sotlab":
        raise SystemExit(f"sotlab imported from {sotlab.__file__}, not {SRC}")


def _write_spans(path: Path, tracer):
    path.parent.mkdir(parents=True, exist_ok=True)
    names = sorted({s[0] for s in tracer.spans.values()})
    index = {n: i for i, n in enumerate(names)}
    rows = [[sid, index[s[0]], s[1], s[2], s[3], s[4], s[5], s[6]]
            for sid, s in sorted(tracer.spans.items())]
    with gzip.open(path, "wt") as fh:
        json.dump({"fields": ["id", "name", "start", "end", "parent", "op",
                              "round", "extra"],
                   "names": names, "spans": rows}, fh)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--trace-rounds", action="store_true")
    ap.add_argument("--seconds", type=float, default=float("inf"))
    ap.add_argument("--spans", type=Path)
    args = ap.parse_args(argv)

    _import_sotlab()
    import workloads
    wl = workloads.WORKLOADS[args.workload](args.seed)
    wl.warm_up()
    inputs, inputs_digest = wl.inputs(0)
    ready = time.monotonic()
    if args.mode == "setup":
        print(json.dumps({"ready": ready}))
        return 0

    tracer = None
    if args.mode == "trace":
        from tracing import Tracer
        tracer = Tracer().install()
    traced_rounds = tracer is not None or args.trace_rounds
    ops = workloads.Ops(tracer, None if traced_rounds else PROBE_EVERY)
    rounds = wl.TRACE_ROUNDS if traced_rounds else wl.ROUNDS
    ops.probe(force=True)
    walls, digests, input_digests, op_counts, failed = [], [], [inputs_digest], [], []
    for r in range(rounds):
        if r > 0:
            if sum(walls) >= args.seconds:
                break
            inputs, d = wl.inputs(r)
            input_digests.append(d)
        if tracer is not None:
            tracer.round = r
        ops.tokens = []
        attempted_before, failed_before = ops.attempted, ops.failed
        probed = ops.probe_s
        t0 = time.perf_counter()
        wl.run_round(inputs, ops)
        walls.append(time.perf_counter() - t0 - (ops.probe_s - probed))
        if tracer is not None:
            tracer.round = -1
        digests.append(workloads.digest(ops.tokens))
        op_counts.append(ops.attempted - attempted_before)
        failed.append(ops.failed - failed_before)

    ops.probe(force=True)
    out = {"ready": ready, "round_walls": walls, "op_ms": ops.ms, "ref_s": ops.ref_s,
           "ops_per_round": op_counts, "failed_per_round": failed,
           "attempted": ops.attempted, "failed": ops.failed,
           "failures": ops.failures,
           "output_digests": digests, "input_digests": input_digests,
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer is not None:
        tracer.uninstall()
        from tracing import layer_metrics
        first = {sid: s for sid, s in tracer.spans.items() if s[5] == 0}
        out["layers"] = {k: list(v) for k, v in layer_metrics(
            first, workloads.AcceptExact.CRITERIA).items()}
        out["span_count"] = len(tracer.spans)
        if args.spans is not None:
            _write_spans(args.spans, tracer)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
