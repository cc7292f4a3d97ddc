#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

For every end-to-end metric (or per-layer metric with --trace 1) this
prints the median of the runs and the distance between the first and
third quartile as a share of the median -- the statistic the benchmark's
bounds are set against -- and flags a spread above a third of the
metric's bound. Each run's line shows the share of CPU time the
hypervisor stole during it, from the result's host block. Run from the
repository root:

    python3 perfbench/spread.py --workload quiet-pipelined --seeds 1-10
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    key = "per_layer" if args.trace == "1" else "end_to_end"
    bounds = {m["name"]: m.get("bound") for m in bench[key]}

    values = {}
    for seed in args.seeds:
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", args.trace,
        ]
        started = time.monotonic()
        out = subprocess.run(cmd, capture_output=True, text=True)
        wall = time.monotonic() - started
        if out.returncode != 0:
            sys.exit(f"seed {seed}: exit {out.returncode}\n{out.stderr}")
        lines = out.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        steal = json.loads(lines[-2])["host"]["steal_frac"]
        short = " ".join(f"{k}={m['value']:.4g}" for k, m in result["metrics"].items())
        print(f"seed {seed}: {wall:.1f} s wall, steal {steal}, attempted {result['attempted']}, "
              f"failed {result['failed']}: {short}", file=sys.stderr)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])

    worst = 0.0
    print(f"{'metric':<40} {'median':>14} {'iqr/median':>11} {'bound':>6}")
    for name, vs in values.items():
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s" and spread > bound / 3:
            flag = "  > bound/3"
            worst = max(worst, spread / bound)
        print(f"{name:<40} {med:>14.6g} {spread:>11.4f} {bound if bound else '-':>6}{flag}")
    return 1 if worst > 1 else 0


if __name__ == "__main__":
    sys.exit(main())
