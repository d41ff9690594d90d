"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload NAME --seeds 1-10 [--seconds S]
                                [--out FILE]

Runs perfbench/run.py once per seed, one after another, and prints for each
end-to-end metric its median, quartiles and spread (quartile distance over
median, quartiles from statistics.quantiles(values, n=4)) next to the bound in
BENCHMARK.json. --out appends the per-run values and the summary as one JSON
line to FILE.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from importlib.metadata import version
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(spec: str) -> list[int]:
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf")}


def environment() -> dict:
    cpu = next((line.split(":", 1)[1].strip()
                for line in Path("/proc/cpuinfo").read_text().splitlines()
                if line.startswith("model name")), platform.processor())
    return {"python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy"), "nproc": os.cpu_count(), "cpu": cpu}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    runs = {}
    for seed in seed_list(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", repr(seconds), "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        runs[seed] = res
        print(f"seed {seed}: correct={res['correct']} failed={res['failed']}/"
              f"{res['attempted']} " + " ".join(
                  f"{k}={v['value']:.5g}" for k, v in res["metrics"].items()),
              flush=True)

    summary = {}
    for name in bounds:
        s = summarize([r["metrics"][name]["value"] for r in runs.values()])
        summary[name] = s
        flag = "" if s["spread"] < bounds[name] / 3 else "  <-- over a third of the bound"
        print(f"{name:12s} median {s['median']:.6g} q1 {s['q1']:.6g} q3 {s['q3']:.6g}"
              f" spread {s['spread']:.4f} bound {bounds[name]}{flag}")
    if args.out:
        with args.out.open("a") as fh:
            fh.write(json.dumps({"workload": args.workload, "seconds": seconds,
                                 "env": environment(), "runs": runs,
                                 "summary": summary}) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
