#!/usr/bin/env python3
"""Proves each workload's correctness gate fires.

For every workload, a short clean run must pass (exit 0, "correct": true,
no failures) and a run with one corrupted expected value must be caught
(exit 1, "correct": false, at least one failure):

    python3 mtbench/selftest.py

Exits 0 when every case behaves, 1 otherwise.
"""

import json
import os
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
WORKLOADS = ["mth-all", "mth-own", "serving"]


def run(workload, corrupt):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", "0"]
    if corrupt:
        cmd.append("--corrupt-expected")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)
    if proc.returncode not in (0, 1):
        sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result, lines


def main():
    ok = True
    for workload in WORKLOADS:
        for corrupt in (False, True):
            code, result, lines = run(workload, corrupt)
            want_code = 1 if corrupt else 0
            passed = (result is not None and code == want_code
                      and result["correct"] is (not corrupt)
                      and (result["failed"] > 0) is corrupt)
            first = [l for l in lines if l.startswith("correctness:")]
            print("%-8s %-9s exit=%s failed=%s  %s  %s" % (
                workload, "corrupted" if corrupt else "clean", code,
                result["failed"] if result else "-",
                "ok" if passed else "WRONG", first[0] if first else ""))
            ok = ok and passed
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
