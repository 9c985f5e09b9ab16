#!/usr/bin/env python3
"""Collect benchmark runs and compare two sets of them.

  # ten seeded runs of every workload from this checkout
  python3 bench/nnlut_bench/compare.py collect runs_a.jsonl --seeds 1-10
  python3 bench/nnlut_bench/compare.py collect runs_b.jsonl --seeds 1-10

  # agree: two sets of runs of ONE commit; medians and spread per metric
  python3 bench/nnlut_bench/compare.py agree runs_a.jsonl runs_b.jsonl

  # ab: parent vs change, collected as pairs in alternating order
  python3 bench/nnlut_bench/compare.py collect ab.jsonl --seeds 1-10 \
      --checkout ../parent --checkout .
  python3 bench/nnlut_bench/compare.py ab ab.jsonl

Bounds come from BENCHMARK.json. Spread is the distance between the first
and third quartile (statistics.quantiles, n=4) as a share of the median.

agree passes a metric when each set's spread is within its bound and the
second median is not worse than the first by more than the bound. A metric
whose spread in either set is wider than its bound is `unresolved`: the
runs cannot tell a change of that size from noise.

ab claims a gain only with at least ten pairs, a win in at least 9/10 of
them (ties count for neither side) and a median difference larger than the
parent's own quartile distance. Any other metric must not be worse than the
parent by more than its bound; where the parent's spread is wider than the
bound the metric is `unresolved` unless every change run beats every
parent run.
"""
import argparse
import collections
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(checkout, workload, seed, seconds):
    """One run.py invocation in `checkout`; returns its result JSON."""
    proc = subprocess.run(
        [sys.executable, os.path.join("bench", "nnlut_bench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        return {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}


def collect(args):
    spec = load_spec()
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    checkouts = [os.path.abspath(c) for c in (args.checkout or [ROOT])]
    seconds = args.seconds or spec["run_seconds"]
    with open(args.out, "a") as out:
        for i, seed in enumerate(parse_seeds(args.seeds)):
            for workload in workloads:
                # With two checkouts, alternate which runs first per pair.
                order = list(range(len(checkouts)))
                if i % 2:
                    order.reverse()
                for pos, k in enumerate(order):
                    res = run_once(checkouts[k], workload, seed, seconds)
                    rec = {"side": k, "first": pos == 0, "workload": workload,
                           "seed": seed, "result": res}
                    out.write(json.dumps(rec) + "\n")
                    out.flush()
                    print("%s side=%d seed=%d correct=%s" % (
                        workload, k, seed, res.get("correct")))


def read_runs(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def values(runs, workload, metric):
    return [r["result"]["metrics"][metric]["value"] for r in runs
            if r["workload"] == workload and metric in r["result"]["metrics"]]


def spread(vals):
    """(median, q1, q3, (q3 - q1) / median)."""
    med = statistics.median(vals)
    q1, _, q3 = statistics.quantiles(vals, n=4)
    return med, q1, q3, (q3 - q1) / abs(med) if med else float("inf")


def worse_by(base, other, better):
    """Share by which `other` is worse than `base` (negative: better)."""
    if base == 0:
        return 0.0
    d = (other - base) / abs(base)
    return d if better == "lower" else -d


def check_correct(runs, label):
    bad = [r for r in runs if not r["result"].get("correct")]
    for r in bad:
        print("FAILED run: %s %s seed %s" % (label, r["workload"], r["seed"]))
    return not bad


def agree(args):
    spec = load_spec()
    a, b = read_runs(args.a), read_runs(args.b)
    ok = check_correct(a, "A") & check_correct(b, "B")
    verdicts = collections.Counter()
    workloads = [w["name"] for w in spec["workloads"]]
    print("%-22s %-20s %5s %12s %12s %8s %8s %8s %6s  %s" % (
        "workload", "metric", "n", "median_A", "median_B", "spread_A",
        "spread_B", "B_worse", "bound", "verdict"))
    for w in workloads:
        for m in spec["end_to_end"]:
            va, vb = values(a, w, m["name"]), values(b, w, m["name"])
            if len(va) < 2 or len(vb) < 2:
                print("%-22s %-20s too few runs" % (w, m["name"]))
                ok = False
                continue
            ma, _, _, sa = spread(va)
            mb, _, _, sb = spread(vb)
            drift = worse_by(ma, mb, m["better"])
            bound = m["bound"]
            if sa > bound or sb > bound:
                verdict = "unresolved"
            elif drift > bound:
                verdict = "DISAGREE"
            else:
                verdict = "agree"
            verdicts[verdict] += 1
            ok &= verdict == "agree"
            print("%-22s %-20s %5d %12.6g %12.6g %8.4f %8.4f %8.4f %6.3f  %s" % (
                w, m["name"], min(len(va), len(vb)), ma, mb, sa, sb, drift,
                bound, verdict))
    print("overall: %s (%s)" % ("agree" if ok else "NOT AGREED", ", ".join(
        "%d %s" % (n, v) for v, n in sorted(verdicts.items()))))
    return 0 if ok else 1


def ab(args):
    spec = load_spec()
    runs = read_runs(args.runs)
    parent = [r for r in runs if r["side"] == 0]
    change = [r for r in runs if r["side"] == 1]
    ok = check_correct(parent, "parent") & check_correct(change, "change")
    print("%-22s %-20s %5s %12s %12s %8s %6s %5s  %s" % (
        "workload", "metric", "pairs", "parent_med", "change_med", "worse",
        "bound", "wins", "verdict"))
    for w in [x["name"] for x in spec["workloads"]]:
        firsts = collections.Counter(
            r["first"] for r in parent if r["workload"] == w)
        if abs(firsts[True] - firsts[False]) > 1:
            print("%-22s order did not alternate between parent and change" % w)
            ok = False
        for m in spec["end_to_end"]:
            name, better = m["name"], m["better"]
            p = {r["seed"]: r["result"]["metrics"][name]["value"]
                 for r in parent if r["workload"] == w
                 and name in r["result"]["metrics"]}
            c = {r["seed"]: r["result"]["metrics"][name]["value"]
                 for r in change if r["workload"] == w
                 and name in r["result"]["metrics"]}
            seeds = sorted(set(p) & set(c))
            if len(seeds) < 2:
                print("%-22s %-20s too few pairs" % (w, name))
                ok = False
                continue
            pv, cv = [p[s] for s in seeds], [c[s] for s in seeds]
            pm, pq1, pq3, ps = spread(pv)
            cm = statistics.median(cv)
            sign = 1 if better == "higher" else -1
            wins = sum(1 for s in seeds if sign * (c[s] - p[s]) > 0)
            worse = worse_by(pm, cm, better)
            if (len(seeds) >= 10 and wins >= 0.9 * len(seeds)
                    and worse < 0 and abs(cm - pm) > pq3 - pq1):
                verdict = "gain"
            elif ps > m["bound"]:
                beats_all = (min(cv) > max(pv) if better == "higher"
                             else max(cv) < min(pv))
                verdict = "better (every run)" if beats_all else "unresolved"
            elif worse > m["bound"]:
                verdict = "REGRESSION"
                ok = False
            else:
                verdict = "within bound"
            print("%-22s %-20s %5d %12.6g %12.6g %8.4f %6.3f %2d/%-2d  %s" % (
                w, name, len(seeds), pm, cm, worse, m["bound"], wins,
                len(seeds), verdict))
    if len({r["seed"] for r in parent}) < 10:
        print("note: fewer than 10 pairs; no gain can be claimed")
    print("overall: %s" % ("no regression" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(
        description=__doc__.split("\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter, epilog=__doc__)
    sub = ap.add_subparsers(dest="mode", required=True)
    c = sub.add_parser("collect", help="run workloads and append results")
    c.add_argument("out")
    c.add_argument("--seeds", default="1-10")
    c.add_argument("--workloads", help="comma list (default: all)")
    c.add_argument("--seconds", type=int, help="default: run_seconds")
    c.add_argument("--checkout", action="append",
                   help="checkout root to run in; give two for ab")
    g = sub.add_parser("agree", help="two sets of runs of one commit")
    g.add_argument("a")
    g.add_argument("b")
    b = sub.add_parser("ab", help="parent (side 0) vs change (side 1)")
    b.add_argument("runs")
    args = ap.parse_args()
    if args.mode == "collect":
        collect(args)
        return 0
    return agree(args) if args.mode == "agree" else ab(args)


if __name__ == "__main__":
    sys.exit(main())
