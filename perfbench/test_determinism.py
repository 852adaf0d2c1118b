#!/usr/bin/env python3
"""Determinism self-check of the benchmark's traced replay.

For every workload, runs the traced mode twice with the same seed, at the
benchmark's own configuration (BSBM_500k, the fixed replay lengths), and
asserts that the replay's work counters (det.derivations, det.match_rows,
det.log_bytes) repeat exactly, that both runs pass their correctness checks,
and that a different seed yields different counters. These counters are the
deterministic regression gate. Six traced runs take a few minutes.

    python3 perfbench/test_determinism.py
"""

import argparse
import json
import subprocess
import sys

import run

DETERMINISTIC = ("det.derivations", "det.match_rows", "det.log_bytes")
WORKLOADS = ("read_mostly", "write_heavy")


def traced(binary, workload, seed):
    args = argparse.Namespace(workload=workload, seed=seed, seconds=1, trace=1)
    code, stdout = run.run(binary, args, stderr=subprocess.DEVNULL)
    lines = stdout.strip().splitlines()
    if not lines:
        raise AssertionError(f"{workload} seed {seed}: exit {code}, no result")
    result = json.loads(lines[-1])
    if code != 0 or not result["correct"]:
        raise AssertionError(f"{workload} seed {seed}: exit {code}, "
                             f"correct={result['correct']}")
    return {name: result["metrics"][name]["value"] for name in DETERMINISTIC}


def main():
    binary = run.build()
    failures = 0
    for workload in WORKLOADS:
        first = traced(binary, workload, 11)
        second = traced(binary, workload, 11)
        other = traced(binary, workload, 12)
        same = first == second
        differs = other != first
        print(f"{workload}: {first} repeat={same} other_seed_differs={differs}")
        failures += (not same) + (not differs)
    print("PASS" if failures == 0 else f"FAIL ({failures})")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
