#!/usr/bin/env python3
"""Build and run the urcgc benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Builds perfbench/ (the library sources under src/ plus the benchmark
program) in Release mode into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench), runs it, checks its result line and
forwards it. The last line of stdout is the JSON result; build
output goes to stderr. Exits non-zero without a result when the checkout
holds no urcgc sources, the build fails, or the run fails or times out.
"""

import argparse
import json
import os
import subprocess
import sys

RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    if not os.path.isfile(os.path.join("src", "harness", "experiment.hpp")):
        fail("no urcgc sources under src/ in the current directory")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "perfbench", "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target",
                  "urcgc_perfbench", "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as err:
            fail(f"build step {cmd[:2]} failed: {err}")
        if done.returncode != 0:
            fail(f"build step {' '.join(cmd[:2])} exited {done.returncode}")
    return os.path.join(build_dir, "urcgc_perfbench")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(target, "perfbench")
    binary = build(build_dir)

    cmd = [binary, f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}",
           f"--spans-dir={os.path.join(target, 'spans')}"]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        result = None
    if proc.returncode != 0 or not isinstance(result, dict) \
            or set(result) != RESULT_KEYS or result["correct"] is not True:
        sys.stderr.write(out)
        fail(f"run failed (exit {proc.returncode})")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
