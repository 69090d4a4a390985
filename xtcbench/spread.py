#!/usr/bin/env python3
"""Run-to-run steadiness report for the xtc request benchmark.

    python3 xtcbench/spread.py --workload <name> [--runs 10] [--seed0 1]
                               [--seconds S] [--trace 0|1]

Runs xtcbench/run.py once per seed (seed0, seed0+1, ...), one after the
other, and prints for every metric its median, first and third quartile
(statistics.quantiles, n=4) and spread = (q3 - q1) / median. With --trace 0
each end-to-end spread is compared against a third of the metric's bound in
BENCHMARK.json. Run from the repository root.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload, seed, seconds, trace):
    command = [sys.executable, str(ROOT / "xtcbench" / "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"seed {seed} failed ({done.returncode}):\n{done.stdout}{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"seed {seed}: wrong answers:\n{done.stdout}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed0", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bounds = {}
    spec_path = ROOT / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text()) if spec_path.is_file() else {}
    for metric in spec.get("end_to_end", []):
        bounds[metric["name"]] = metric["bound"]
    if args.seconds is None:
        args.seconds = spec.get("run_seconds", 10)

    runs = []
    for k in range(args.runs):
        runs.append(run_once(args.workload, args.seed0 + k, args.seconds,
                             args.trace))
        print(f"# run {k + 1}/{args.runs} seed={args.seed0 + k} done",
              file=sys.stderr, flush=True)

    steady = True
    print(f"{'metric':32} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8}  bound/3")
    for name in runs[0]:
        values = [run[name] for run in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median if median else 0.0
        verdict = ""
        if name in bounds:
            ok = spread < bounds[name] / 3
            steady = steady and ok
            verdict = f"{bounds[name] / 3:.4f} {'ok' if ok else 'TOO WIDE'}"
        print(f"{name:32} {median:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.4f}  {verdict}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
