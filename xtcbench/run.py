#!/usr/bin/env python3
"""Builds and runs the xtc request benchmark.

    python3 xtcbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first call configures and builds the
benchmark binary (and the xtc libraries it drives) from source under
.bench_build/; later calls rebuild incrementally. Build output goes to
stderr, so the last line of stdout is the benchmark's JSON result. The
traced run (--trace 1) writes its spans to .bench_build/trace/<workload>.tsv.
Exits non-zero when the sources are missing, the build fails, or the
benchmark reports a wrong answer.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "xtcbench"
BINARY = BUILD_DIR / "xtc_request_bench"
WORKLOADS = ("hot_typecheck", "engine_heavy", "cold_compile", "documents")


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit(f"xtc sources not found under {ROOT / 'src'}; nothing to build")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target",
                  "xtc_request_bench", "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit(f"build step failed ({done.returncode}): {' '.join(step)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build()
    command = [str(BINARY), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    if args.trace:
        trace_dir = ROOT / ".bench_build" / "trace"
        trace_dir.mkdir(parents=True, exist_ok=True)
        command += ["--trace-out", str(trace_dir / f"{args.workload}.tsv")]
    sys.stdout.flush()
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
