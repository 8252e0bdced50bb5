#!/usr/bin/env python3
"""The benchmark's own tests. Run from the repository root:

    python3 perfbench/test_bench.py

- a smoke run of every workload, untraced and traced, whose last line
  must be a correct result carrying exactly the metrics BENCHMARK.json
  names, with their units;
- the oracle's negative controls (bench.exe --selftest): doctored
  replies are rejected and counted as failures;
- a directory holding only BENCHMARK.json and the benchmark's files
  must make the benchmark exit non-zero without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

failures = []


def check(name, ok, detail=""):
    print(f"{'ok' if ok else 'FAIL':4s} {name} {detail}", flush=True)
    if not ok:
        failures.append(name)


def run(args, cwd=None):
    return subprocess.run([sys.executable, "perfbench/run.py"] + args, cwd=cwd,
                          stdout=subprocess.PIPE, text=True)


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    expected = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
                1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    for w in bench["workloads"]:
        for trace in (0, 1):
            name = f"smoke {w['name']} --trace {trace}"
            out = run(["--workload", w["name"], "--seed", "7", "--seconds", "1",
                       "--trace", str(trace)])
            if out.returncode != 0:
                check(name, False, f"exit {out.returncode}")
                continue
            r = json.loads(out.stdout.strip().splitlines()[-1])
            units = {k: m["unit"] for k, m in r["metrics"].items()}
            check(name, sorted(r) == ["attempted", "correct", "failed", "metrics"]
                  and r["correct"] and r["failed"] == 0 and r["attempted"] >= 1
                  and units == expected[trace])
    out = run(["--selftest"])
    check("selftest: doctored replies are failures", out.returncode == 0)
    with tempfile.TemporaryDirectory(dir="perfbench/_out") as bare:
        shutil.copy("BENCHMARK.json", bare)
        shutil.copytree("perfbench", os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("_out"))
        out = run(["--workload", "predict", "--seed", "1", "--seconds", "1",
                   "--trace", "0"], cwd=bare)
        check("bare directory: non-zero exit, no result",
              out.returncode != 0 and out.stdout.strip() == "")
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    os.makedirs("perfbench/_out", exist_ok=True)
    sys.exit(main())
