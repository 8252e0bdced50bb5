#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload design --seeds 1 2 3 4 5 --seconds 20

For every figure the runs print prints the median, the interquartile
range as a share of the median (statistics.quantiles, n=4), the
metric's bound in BENCHMARK.json, and the values. A spread above a third of its bound is marked
WIDE. Exits 1 if any run fails or reports an incorrect result.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run(workload, seed, seconds, trace):
    """The run's JSON result, and every figure of its printed table."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True)
    if out.returncode != 0:
        raise SystemExit(f"seed {seed}: exit {out.returncode}")
    lines = out.stdout.strip().splitlines()
    table = {}
    for line in lines[:-1]:
        cols = line.split()
        if len(cols) == 3 and cols[0] != "metric":
            try:
                table[cols[0]] = float(cols[1])
            except ValueError:
                pass
    return json.loads(lines[-1]), table


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values = {}
    ok = True
    for seed in args.seeds:
        r, table = run(args.workload, seed, seconds, args.trace)
        ok = ok and r["correct"] and r["failed"] == 0
        print(f"seed {seed}: correct={r['correct']} attempted={r['attempted']} "
              f"failed={r['failed']}", flush=True)
        for name, v in table.items():
            values.setdefault(name, []).append(v)
        for name, m in r["metrics"].items():
            values[name][-1] = m["value"]
    for name, vs in values.items():
        med = statistics.median(vs)
        q = statistics.quantiles(vs, n=4) if len(vs) > 1 else [med, med, med]
        spread = (q[2] - q[0]) / med if med else float("nan")
        bound = bounds.get(name)
        flag = ""
        if bound is not None and spread > bound / 3:
            flag = "WIDE"
        print(f"{name:34s} median {med:14.6g}  spread {spread:7.3f}  "
              f"bound {bound if bound is not None else '-':>5}  {flag:4s} "
              + " ".join(f"{v:.4g}" for v in vs))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
