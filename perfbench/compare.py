#!/usr/bin/env python3
"""Compares sets of benchmark runs saved by `perfbench/run.py --save <dir>`.

    python3 perfbench/compare.py spread <dir>
    python3 perfbench/compare.py compare <parent-dir> <change-dir>

Each <dir> holds one <workload>.jsonl per workload, one line per run (only
--trace 0 runs are read). Bounds and better-directions come from
BENCHMARK.json (--benchmark to point elsewhere).

spread: for each workload and end-to-end metric, the median and quartiles
(statistics.quantiles(n=4)) of the runs, and the interquartile distance as a
share of the median. A spread must stay below a third of the metric's bound
for the benchmark to be steady; setup_s is exempt.

compare: for each workload and end-to-end metric, both sides' medians and
quartiles, the share of pairs the change won (runs paired by seed, else in
order; ties count for neither) and a verdict:
  improved      the change won at least 9 of 10 pairs and the medians differ
                by more than the parent's interquartile distance
  worse         the change's median is worse than the parent's by more than
                the bound
  unresolved    the parent's spread is wider than the bound, and not every
                change run is better than every parent run
  within bound  otherwise
Exit status 1 when any verdict is worse or unresolved, else 0: two run sets
of the same code must agree this way.
"""

import argparse
import json
import os
import statistics
import sys


def load_runs(directory):
    runs = {}
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".jsonl"):
            continue
        with open(os.path.join(directory, name)) as f:
            for line in f:
                if line.strip():
                    r = json.loads(line)
                    if r.get("trace", 0) == 0:
                        runs.setdefault(r["workload"], []).append(r)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def fmt(v):
    return f"{v:.6g}"


def spread(bench, directory):
    runs = load_runs(directory)
    steady = True
    for workload, rs in runs.items():
        print(f"{workload} ({len(rs)} runs, seeds {', '.join(str(r['seed']) for r in rs)})")
        print(f"  {'metric':<16s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'iqr/median':>10s} {'bound/3':>8s}")
        for m in bench["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in rs]
            med = statistics.median(vals)
            q1, q3 = quartiles(vals)
            share = (q3 - q1) / med if med else float("inf")
            limit = m["bound"] / 3
            if m["name"] == "setup_s":
                status = "exempt"
            elif share < limit:
                status = "ok"
            else:
                status = "TOO WIDE"
                steady = False
            print(f"  {m['name']:<16s} {fmt(med):>12s} {fmt(q1):>12s} {fmt(q3):>12s} "
                  f"{share:10.4f} {limit:8.4f}  {status}")
    return 0 if steady else 1


def pair(parent, change):
    by_seed = {r["seed"]: r for r in parent}
    if all(r["seed"] in by_seed for r in change):
        return [(by_seed[r["seed"]], r) for r in change]
    return list(zip(parent, change))


def verdict(par, chg, pairs, better, bound):
    sign = 1 if better == "lower" else -1  # sign * (x - y) > 0: x is worse
    pm, cm = statistics.median(par), statistics.median(chg)
    q1, q3 = quartiles(par)
    wins = sum(1 for p, c in pairs if sign * (c - p) < 0)
    won = wins / len(pairs) if pairs else 0.0
    worse_by = sign * (cm - pm) / pm if pm else 0.0
    if won >= 0.9 and sign * (cm - pm) < 0 and abs(cm - pm) > q3 - q1:
        return "improved", won, worse_by
    if worse_by > bound:
        return "worse", won, worse_by
    all_better = all(sign * (c - p) < 0 for c in chg for p in par)
    if pm and (q3 - q1) / pm > bound and not all_better:
        return "unresolved", won, worse_by
    return "within bound", won, worse_by


def compare(bench, parent_dir, change_dir):
    parent, change = load_runs(parent_dir), load_runs(change_dir)
    bad = False
    for workload in sorted(set(parent) | set(change)):
        if workload not in parent or workload not in change:
            print(f"{workload}: runs on one side only; not compared")
            bad = True
            continue
        pr, cr = parent[workload], change[workload]
        pairs = pair(pr, cr)
        print(f"{workload} (parent {len(pr)} runs, change {len(cr)} runs, {len(pairs)} pairs)")
        print(f"  {'metric':<16s} {'parent median [q1, q3]':>34s} {'change median [q1, q3]':>34s} "
              f"{'worse by':>9s} {'won':>5s}  verdict")
        for m in bench["end_to_end"]:
            name = m["name"]
            par = [r["metrics"][name]["value"] for r in pr]
            chg = [r["metrics"][name]["value"] for r in cr]
            pv = [(p["metrics"][name]["value"], c["metrics"][name]["value"]) for p, c in pairs]
            v, won, worse_by = verdict(par, chg, pv, m["better"], m["bound"])
            bad = bad or v in ("worse", "unresolved")
            pq, cq = quartiles(par), quartiles(chg)
            ps = f"{fmt(statistics.median(par))} [{fmt(pq[0])}, {fmt(pq[1])}]"
            cs = f"{fmt(statistics.median(chg))} [{fmt(cq[0])}, {fmt(cq[1])}]"
            print(f"  {name:<16s} {ps:>34s} {cs:>34s} {100 * worse_by:8.2f}% {won:5.2f}  {v}"
                  f" (bound {100 * m['bound']:.0f}%)")
    return 1 if bad else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--benchmark", default="BENCHMARK.json")
    sub = ap.add_subparsers(dest="cmd", required=True)
    sp = sub.add_parser("spread")
    sp.add_argument("dir")
    cp = sub.add_parser("compare")
    cp.add_argument("parent")
    cp.add_argument("change")
    args = ap.parse_args()
    with open(args.benchmark) as f:
        bench = json.load(f)
    if args.cmd == "spread":
        sys.exit(spread(bench, args.dir))
    sys.exit(compare(bench, args.parent, args.change))


if __name__ == "__main__":
    main()
