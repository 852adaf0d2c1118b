#!/usr/bin/env python3
"""Builds and runs the layered SPARQL-over-HTTP benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload read_mostly --seed 1 --seconds 20 --trace 0

Workloads: read_mostly, write_heavy. The first run configures
and builds the library and the load generator (CMake, Release) under
$CARGO_TARGET_DIR, default .bench_build; later runs only re-check the build.
Build output goes to stderr. The benchmark's last stdout line is one JSON
object: {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ones (see BENCHMARK.json). The
exit code is the benchmark's: 0 when every check passed.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "perfbench")


def build():
    """Configures (once) and builds the perfbench binary; returns its path."""
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", out, "--target", "perfbench",
                    "-j", str(min(4, os.cpu_count() or 1))],
                   check=True, stdout=sys.stderr)
    return os.path.join(out, "perfbench")


def run(binary, args, stderr=None):
    """Runs one measurement; returns (exit code, stdout text)."""
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work", os.path.join(build_dir(), "work")]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=stderr, text=True, timeout=RUN_TIMEOUT_S)
    return done.returncode, done.stdout


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["read_mostly", "write_heavy"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    return parser.parse_args(argv)


def main(argv):
    args = parse_args(argv)
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2
    code, stdout = run(binary, args)
    sys.stdout.write(stdout)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
