#!/usr/bin/env python3
"""diff.py: compare spine result files metric by metric (stdlib only).

  python3 bench/spine/diff.py BASE.json NEW.json

Result files are what run.py writes (one per run, in
<build>/spine/results/). For every (workload, end-to-end metric) pair in
both sides, diff.py prints each side's value (the statistic run.py
reports: the mean of the fastest 15% of a timed metric's repetitions, the
median of setup_s) with its quartiles, and one verdict, with the bound and
direction from BENCHMARK.json:

  regressed   the new value is worse than the base value by more than
              the bound
  improved    better by more than the bound
  unchanged   within the bound either way
  unresolved  a side's spread exceeds the bound, so a change of that size
              cannot be told from noise — unless every new point reads
              better (improved) or worse (regressed) than every base point

A side's points are its run's repetitions. Its spread is how far the value
moves within the run: the standard deviation of two values, one from the
first half of the run's repetitions and one from the second, over the
whole run's value. Repetitions come in stretches of one speed (co-tenant
load), so they are not independent, and a spread derived from the
quartiles and n would be too small.

A workload whose failed operation count rose is reported as regressed.
Exit code: 1 if any pair regressed, 0 otherwise.
"""

import argparse
import json
import os
import sys

BENCHMARK = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)))), "BENCHMARK.json")


def load(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def run_records(result):
    """{workload: record} for the untraced (end-to-end) records."""
    return {r["workload"]: r for r in result["records"] if r["step"] == "run"}


def describe(entry):
    """(value, p25, p75, spread, points) for one side of a comparison, from
    that side's result-file entry for one metric."""
    value, p25, p75 = entry["value"], entry["p25"], entry["p75"]
    first, second = entry["halves"]
    spread = abs(first - second) / 2 / value if value else 0.0
    return value, p25, p75, spread, entry["samples"]


def verdict(base, new, better, bound):
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * (new[0] - base[0]) / base[0]
    all_better = all(sign * (n - b) < 0 for n in new[4] for b in base[4])
    all_worse = all(sign * (n - b) > 0 for n in new[4] for b in base[4])
    if max(base[3], new[3]) > bound:
        if all_better:
            return "improved", worse
        if all_worse:
            return "regressed", worse
        return "unresolved", worse
    if worse > bound:
        return "regressed", worse
    if worse < -bound:
        return "improved", worse
    return "unchanged", worse


def main(argv):
    parser = argparse.ArgumentParser(
        prog="diff.py", description="compare spine result files")
    parser.add_argument("base", help="the base run's result file")
    parser.add_argument("new", help="the new run's result file")
    args = parser.parse_args(argv)

    metrics = load(BENCHMARK)["end_to_end"]
    base, new = run_records(load(args.base)), run_records(load(args.new))
    workloads = [w for w in base if w in new]

    counts = {}
    print(f"{'workload':10} {'metric':15} {'unit':5} "
          f"{'base value [p25, p75]':>32} {'new value [p25, p75]':>32} "
          f"{'worse':>8} {'bound':>6}  verdict")
    for workload in workloads:
        for metric in metrics:
            name = metric["name"]
            entries = [base[workload]["metrics"].get(name),
                       new[workload]["metrics"].get(name)]
            if None in entries:
                continue
            sides = [describe(entry) for entry in entries]
            outcome, worse = verdict(sides[0], sides[1], metric["better"],
                                     metric["bound"])
            counts[outcome] = counts.get(outcome, 0) + 1
            cells = [f"{s[0]:11.5g} [{s[1]:.5g}, {s[2]:.5g}]" for s in sides]
            print(f"{workload:10} {name:15} {metric['unit']:5} "
                  f"{cells[0]:>32} {cells[1]:>32} {worse:+8.2%} "
                  f"{metric['bound']:6.0%}  {outcome}")
        failed = [base[workload]["failed"], new[workload]["failed"]]
        if failed[1] > failed[0]:
            counts["regressed"] = counts.get("regressed", 0) + 1
            print(f"{workload:10} failed ops rose: {failed[0]} -> "
                  f"{failed[1]}  regressed")
    print("summary: " + ", ".join(f"{n} {v}" for v, n in sorted(
        counts.items())))
    return 1 if counts.get("regressed") else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
