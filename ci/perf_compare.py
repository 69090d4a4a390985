#!/usr/bin/env python3
"""Perf-smoke comparator: fails when a fresh bench run regresses >2x.

Usage: perf_compare.py BASELINE.json FRESH.json [FRESH2.json ...] [max_ratio]

All files are run_benches.sh aggregates ({"suites": {bin: [runs...]}}).
Entries are matched on (suite, bench, params); entries present on only one
side are reported but do not fail the gate (benchmarks may be added or
retired). Each side is reduced to best-of-N before comparing: duplicate
keys inside one file (repeated passes appended by run_benches.sh) take the
minimum ns/op, and when several FRESH files are given the minimum across
all of them is the fresh number. Min-of-N is the right estimator for a
gate — a benchmark's true cost is its fastest observed run; everything
above that is scheduler noise, and noise can only inflate, never deflate,
a min. The ratio gate stays deliberately loose (default 2x) so shared CI
machines do not flake the build; real regressions from algorithmic
backsliding are well past it.
"""
import json
import sys


def index(doc, out=None):
    """Folds one aggregate into a {key: min ns/op} map.

    run_benches.sh may append repeated passes of the same benchmark to one
    suite list; taking the min here (instead of last-write-wins) makes a
    single noisy pass harmless on either side of the comparison.
    """
    if out is None:
        out = {}
    for suite, runs in doc.get("suites", {}).items():
        for run in runs:
            key = (suite, run["bench"], tuple(run["params"]))
            ns = run["ns_per_op"]
            if key not in out or ns < out[key]:
                out[key] = ns
    return out


def load_into(path, out=None):
    with open(path) as f:
        return index(json.load(f), out)


def main():
    args = sys.argv[1:]
    # Trailing numeric argument is the ratio override; everything before it
    # is a file path (BASELINE first, then one or more FRESH runs).
    max_ratio = 2.0
    if args:
        try:
            max_ratio = float(args[-1])
            args = args[:-1]
        except ValueError:
            pass
    if len(args) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    baseline = load_into(args[0])
    fresh = {}
    for path in args[1:]:
        load_into(path, fresh)

    regressions = []
    for key, base_ns in sorted(baseline.items()):
        if "Contention" in key[1]:
            # Scaling rows: their timing is a function of the host's core
            # count relative to the snapshot host's, not of the code.
            # ci/cache_gate.py owns them (with a core-count guard).
            print(f"note: {key} skipped (scaling row)")
            continue
        if key not in fresh:
            print(f"note: {key} only in baseline (retired?)")
            continue
        new_ns = fresh[key]
        if base_ns <= 0:
            continue
        ratio = new_ns / base_ns
        marker = " <-- REGRESSION" if ratio > max_ratio else ""
        suite, bench, params = key
        print(f"{suite}:{bench}{list(params)}: "
              f"{base_ns:.0f} -> {new_ns:.0f} ns/op ({ratio:.2f}x){marker}")
        if ratio > max_ratio:
            regressions.append(key)
    for key in sorted(set(fresh) - set(baseline)):
        print(f"note: {key} only in fresh run (new benchmark)")

    if regressions:
        print(f"\nperf-smoke FAILED: {len(regressions)} benchmark(s) "
              f"regressed more than {max_ratio}x", file=sys.stderr)
        return 1
    print(f"\nperf-smoke OK: no regression beyond {max_ratio}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
