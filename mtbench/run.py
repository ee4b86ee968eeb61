#!/usr/bin/env python3
"""MTBase benchmark entry point.

Builds the driver (Release) from the source tree this directory sits in,
then runs one workload:

    python3 mtbench/run.py --workload mth-all|mth-own|serving \
        --seed N --seconds S --trace 0|1

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones. The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. The build and all outputs stay under
.bench_build/ at the root of the checkout. See mtbench/README.md.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "mtbench")
DRIVER = os.path.join(BUILD, "mtbench_driver")
OUT_DIR = os.path.join(BUILD, "out")
DRIVER_TIMEOUT_S = 170


def fail(msg):
    print("mtbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    """Configure once, then (re)build the driver; build chatter goes to
    stderr so the result line stays last on stdout."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("the MTBase source tree (CMakeLists.txt, src/) is not next to "
             + os.path.basename(HERE) + "/")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs,
                  "--target", "mtbench_driver"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def run_driver(args):
    """Run the driver to completion, echoing its output; returns its exit
    code. The driver sets every knob it needs; inherited MTBASE_* variables
    (thread budget, admission limit, tracing) must not leak in."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("MTBASE_")}
    try:
        proc = subprocess.run([DRIVER] + args, env=env, cwd=ROOT,
                              stdout=subprocess.PIPE, text=True,
                              timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("driver timed out: " + " ".join(args))
    for line in proc.stdout.splitlines():
        print(line)
    return proc.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["mth-all", "mth-own", "serving"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--corrupt-expected", action="store_true",
                        help="corrupt one expected value: the workload's "
                             "correctness gate must fire (self-test)")
    args = parser.parse_args()

    build()
    os.makedirs(OUT_DIR, exist_ok=True)
    driver_args = ["--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", repr(args.seconds), "--trace",
                   str(args.trace), "--out-dir", OUT_DIR]
    if args.corrupt_expected:
        driver_args.append("--corrupt-expected")

    sys.exit(run_driver(driver_args))


if __name__ == "__main__":
    main()
