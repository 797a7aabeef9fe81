#!/usr/bin/env python3
"""Compares two sets of aplus_bench result JSONs.

    python3 benchmark/compare.py BASE HEAD          # parent vs change
    python3 benchmark/compare.py --same SET1 SET2   # two sets of the same code

BASE, HEAD, SET1 and SET2 are directories of result JSONs (the files
aplus_bench writes with --out, by default .bench_build/work/result_*.json)
or single files. Untraced results only; runs pair up by workload and seed.

For every workload and end-to-end metric the script prints each side's
median and quartiles, the change of the medians and the pairs the head
side won (ties count for neither), then a verdict:

  worse        the head median is worse than the base median by more than
               the metric's bound
  better       the head side won at least 9 of 10 pairs and the medians
               differ by more than the base side's interquartile range
  unresolved   the base side's own spread (IQR / median) exceeds the bound
  same         otherwise

Bounds come from BENCHMARK.json. The other metrics of the result JSONs
listed in EXTRA_METRICS below (those only some workloads report, such
as open_s, and the wall-clock timings behind the scaled ones) use the
bounds given there; those without a bound are shown with the verdict
"info". With --same the
verdict asks instead whether the two sets agree: the change of the
medians and each side's spread (IQR / median; not for setup_s) must stay
within the bound. The exit code is 1 when any metric is worse (or, with
--same, disagrees).
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# name: (better, bound) for end-to-end metrics not gated in
# BENCHMARK.json. A bound of None marks a metric shown for information
# only. The wall_ timings follow the host core's speed, which drifts by
# up to 1.5x on a shared virtual machine (core_speed shows by how much);
# the timings in BENCHMARK.json are scaled to a reference speed, which
# divides that drift out. The resident set moves with which freed heap
# pages the allocator hands back, and the insert batches' tail with when
# the merger thread runs; neither repeats from run to run there.
EXTRA_METRICS = {
    "wall_setup_s": ("lower", None),
    "wall_p50_ms": ("lower", None),
    "wall_p99_ms": ("lower", None),
    "wall_qps": ("higher", None),
    "core_speed": ("higher", None),
    "rss_mb": ("lower", None),
    "wall_write_p99_ms": ("lower", None),
    "check_s": ("lower", None),
    "open_s": ("lower", 0.25),
    "store_bytes_per_edge": ("lower", 0.02),
    "error_rate": ("lower", 0.0),
}
# Set-up time is judged on its median only, not on its spread.
MEDIAN_ONLY = {"setup_s"}


def load(paths):
    """{workload: {seed: metrics}} from result files and directories."""
    runs = {}
    for path in map(Path, paths):
        files = sorted(path.glob("*.json")) if path.is_dir() else [path]
        for f in files:
            try:
                result = json.loads(f.read_text())
            except (OSError, json.JSONDecodeError):
                continue
            if not isinstance(result, dict) or "workload" not in result or result.get("trace"):
                continue
            metrics = {k: v["value"] for k, v in result.get("metrics", {}).items()}
            runs.setdefault(result["workload"], {})[result["seed"]] = metrics
    return runs


def summary(values):
    if len(values) >= 2:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return median, q1, q3


def spread(values):
    median, q1, q3 = summary(values)
    return (q3 - q1) / median if median else 0.0


def relative(base, head):
    if base == 0:
        return 0.0 if head == 0 else float("inf") if head > 0 else float("-inf")
    return (head - base) / abs(base)


def worse_by(base, head, better):
    """Relative amount by which `head` is worse than `base` (negative when better)."""
    change = relative(base, head)
    return change if better == "lower" else -change


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--same", action="store_true",
                        help="check that two sets of runs of the same code agree")
    parser.add_argument("base", help="result directory or file (base side / first set)")
    parser.add_argument("head", help="result directory or file (head side / second set)")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]]
    metrics += [(name, "", better, bound) for name, (better, bound) in EXTRA_METRICS.items()]
    base_runs, head_runs = load([args.base]), load([args.head])
    if not base_runs or not head_runs:
        print("compare.py: no untraced result JSONs found", file=sys.stderr)
        return 1

    failed = False
    for workload in sorted(set(base_runs) | set(head_runs)):
        base, head = base_runs.get(workload, {}), head_runs.get(workload, {})
        print(f"{workload}: {len(base)} base runs, {len(head)} head runs")
        if not base or not head:
            continue
        print(f"  {'metric':26s} {'base median [q1, q3]':34s} {'head median [q1, q3]':34s}"
              f" {'change':>8s} {'pairs':>6s}  verdict")
        for name, unit, better, bound in metrics:
            b = [m[name] for m in base.values() if name in m]
            h = [m[name] for m in head.values() if name in m]
            if not b or not h:
                continue
            (bm, bq1, bq3), (hm, hq1, hq3) = summary(b), summary(h)
            pairs = [worse_by(base[s][name], head[s][name], better)
                     for s in sorted(set(base) & set(head))
                     if name in base[s] and name in head[s]]
            won = sum(1 for p in pairs if p < 0)
            change = worse_by(bm, hm, better)
            steady = name in MEDIAN_ONLY or bound is not None and \
                spread(b) <= bound and spread(h) <= bound
            if bound is None:
                verdict = "info"
            elif args.same:
                agree = abs(change) <= bound and steady
                verdict = "agree" if agree else "DISAGREE"
                failed |= not agree
            elif change > bound:
                verdict = "WORSE"
                failed = True
            elif spread(b) > bound and name not in MEDIAN_ONLY:
                verdict = "unresolved"
            elif pairs and won >= 0.9 * len(pairs) and abs(hm - bm) > bq3 - bq1:
                verdict = "better"
            else:
                verdict = "same"
            label = f"{name} ({unit})" if unit else name
            base_cell = f"{bm:.4g} [{bq1:.4g}, {bq3:.4g}]"
            head_cell = f"{hm:.4g} [{hq1:.4g}, {hq3:.4g}]"
            print(f"  {label:26s} {base_cell:34s} {head_cell:34s} {relative(bm, hm):+8.1%}"
                  f" {won:>2d}/{len(pairs):<3d}  {verdict}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
