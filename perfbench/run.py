#!/usr/bin/env python3
"""Run one measurement of the benchmark of record.

Builds the wavefront CLI and the benchmark from source with dune, then
runs the benchmark, whose last line of output is the JSON result:

    python3 perfbench/run.py --workload predict --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

Run it from the root of a checkout. Exits non-zero, printing no result,
when the checkout cannot be built.
"""

import os
import signal
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
CLI = "_build/default/bin/main.exe"
BENCH = "_build/default/perfbench/bench.exe"


def main():
    if not (os.path.isfile("dune-project") and os.path.isfile("bin/main.ml")):
        print("run.py: no wavefront sources here (dune-project, bin/main.ml)",
              file=sys.stderr)
        return 2
    # The shared dune cache lives outside the checkout: keep it off.
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "./bin/main.exe",
             "./perfbench/bench.exe"],
            env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1
    if build.returncode != 0:
        return 1
    # The benchmark and the daemon it spawns share a fresh process group,
    # so nothing outlives the run, even on a timeout.
    proc = subprocess.Popen([BENCH, "--wavefront", CLI] + sys.argv[1:],
                            start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: benchmark timed out", file=sys.stderr)
        return 124
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()


if __name__ == "__main__":
    sys.exit(main())
