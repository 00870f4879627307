#!/usr/bin/env python3
"""Fail CI when a bench metric regresses beyond a threshold.

Compares a freshly generated BENCH_*.json (bench_trajectory.py) against
the committed baseline snapshot.  Only metrics whose baseline
`direction` is "higher" or "lower" are gated; "info" metrics are
reported for the trajectory artifact but never fail the job.  A gated
baseline metric missing from the current run fails (a silently dropped
metric would otherwise hide a regression forever).

A run that names its CMake `buildType` is compared only against a
baseline of the same build type (a baseline without one counts as
RelWithDebInfo): the gate stops before comparing otherwise, because
the optimization level alone moves ratios such as the scalar-over-
vector speedups.

Regression, per direction (threshold t, default 0.25):
    higher:  current < baseline * (1 - t)
    lower:   current > baseline * (1 + t)

Usage:
    check_bench_regression.py \
        --baseline bench/baselines/BENCH_pnr.json \
        --current BENCH_pnr.json [--threshold 0.25]

Refreshing the baseline after an intentional perf change: regenerate
the BENCH file the same way CI does and copy it over the snapshot in
bench/baselines/ (see the README's serving section).
"""

import argparse
import json
import sys


def load(path):
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("schema") != 1:
        raise SystemExit(f"{path}: unsupported schema "
                         f"{doc.get('schema')!r}")
    return doc


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", required=True)
    parser.add_argument("--current", required=True)
    parser.add_argument("--threshold", type=float, default=0.25,
                        help="fractional regression allowed (0.25=25%%)")
    args = parser.parse_args()

    baseline = load(args.baseline)
    current = load(args.current)
    if baseline["bench"] != current["bench"]:
        raise SystemExit(
            f"bench mismatch: baseline {baseline['bench']!r} vs "
            f"current {current['bench']!r}")
    if "buildType" in current:
        base_build = baseline.get("buildType", "RelWithDebInfo")
        if current["buildType"] != base_build:
            raise SystemExit(
                f"build type mismatch: current run is "
                f"{current['buildType']!r}, baseline is {base_build!r}; "
                f"rebuild with -DCMAKE_BUILD_TYPE={base_build} to gate "
                f"against this baseline")

    current_values = {m["metric"]: m["value"]
                      for m in current["metrics"]}
    failures = []
    print(f"{current['bench']}: current {current['commit'][:12]} vs "
          f"baseline {baseline['commit'][:12]} "
          f"(threshold {args.threshold:.0%})")
    for m in baseline["metrics"]:
        name, base, direction = m["metric"], m["value"], m["direction"]
        if name not in current_values:
            if direction != "info":
                failures.append(f"{name}: missing from current run")
            continue
        cur = current_values[name]
        delta = (cur - base) / base if base != 0 else float("inf")
        line = (f"  {name:<32} {base:>12.4f} -> {cur:>12.4f} "
                f"({delta:+.1%}, {direction})")
        regressed = False
        if direction == "higher":
            regressed = cur < base * (1.0 - args.threshold)
        elif direction == "lower":
            regressed = cur > base * (1.0 + args.threshold)
        print(line + ("  REGRESSED" if regressed else ""))
        if regressed:
            failures.append(
                f"{name}: {base:.4f} -> {cur:.4f} ({delta:+.1%}) "
                f"exceeds the {args.threshold:.0%} {direction}-is-"
                f"better budget")

    if failures:
        print(f"\n{len(failures)} regression(s):", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        sys.exit(1)
    print("no regressions")


if __name__ == "__main__":
    main()
