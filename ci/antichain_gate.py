#!/usr/bin/env python3
"""Enforces the antichain-on vs antichain-off speedup on the paired
large-universe inclusion benchmarks (DESIGN.md §3e).

Usage: antichain_gate.py BENCH.json [min_factor]

For each (suite, on_bench, off_bench) pair below, the largest parameter
present in BOTH rows is located and the gate requires

    off_ns_per_op >= min_factor * on_ns_per_op

there (default min_factor 2.0). Smaller parameters are reported for
context but not gated — the pruning win compounds with the subset-lattice
size, so the largest common point is the honest one. Unlike the cache
gate this one carries no core-count guard and is enforced
unconditionally: both sides of each pair are single-threaded runs of the
same engine on the same instance, so the ratio is count-driven (the Off
side explores ~2^k configurations the On side prunes) and survives any
amount of scheduler noise a shared CI box can produce. A missing suite or
pair is an error: the gate exists to catch the benches silently
disappearing as much as the speedup regressing.
"""

import json
import sys

# (suite, antichain-on bench, antichain-off bench)
PAIRS = [
    ("bench_antichain", "BM_AntichainInclusion_On",
     "BM_AntichainInclusion_Off"),
    ("bench_antichain", "BM_AntichainInclusionDense_On",
     "BM_AntichainInclusionDense_Off"),
]


def rows_of(doc, suite, bench):
    rows = {}
    for row in doc.get("suites", {}).get(suite, []):
        if row.get("bench") == bench:
            rows[tuple(row.get("params", []))] = float(row["ns_per_op"])
    return rows


def main():
    if len(sys.argv) < 2 or len(sys.argv) > 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with open(sys.argv[1]) as f:
        doc = json.load(f)
    factor = float(sys.argv[2]) if len(sys.argv) == 3 else 2.0

    failures = []
    for suite, on_bench, off_bench in PAIRS:
        on = rows_of(doc, suite, on_bench)
        off = rows_of(doc, suite, off_bench)
        common = sorted(set(on) & set(off))
        if not common:
            failures.append(f"{suite}: no common params for "
                            f"{on_bench} / {off_bench}")
            continue
        for params in common:
            ratio = off[params] / on[params] if on[params] > 0 else 0.0
            gated = params == common[-1]
            tag = "GATE" if gated else "info"
            print(f"[{tag}] {on_bench} params={list(params)}: "
                  f"on={on[params]:.0f}ns off={off[params]:.0f}ns "
                  f"ratio={ratio:.2f}x (need >= {factor:.2f}x at largest)")
            if gated and ratio < factor:
                failures.append(
                    f"{suite} {on_bench}{list(params)}: off/on ratio "
                    f"{ratio:.2f}x below the {factor:.2f}x floor")

    if failures:
        print("antichain gate FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("antichain gate OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
