#!/usr/bin/env python3
"""Compare two sets of end-to-end benchmark runs (standard library only).

usage: python3 bench/e2e/compare.py PARENT_DIR CHANGE_DIR
                                    [--benchmark BENCHMARK.json]

Each directory holds run results: files ending in .json whose last non-empty
line is the JSON object the benchmark prints (a captured stdout or a
--json-out file). A run's workload is its "workload" key, else its file name
up to the first '-'. Runs pair up by file name when both sides have it, else
by sorted file name.

For each (workload, end-to-end metric) the report gives both sides' median
and quartiles, the metric's bound from BENCHMARK.json, how many pairs the
change won, and a verdict:

  improved    the change wins at least 9/10 of the pairs (ties count for
              neither) and the medians differ by more than the parent's
              interquartile range
  unresolved  the parent's spread (IQR / median) is wider than the bound and
              not every change run reads better than every parent run
  regressed   the change's median is worse than the parent's by more than
              the bound
  unchanged   otherwise

failed_ratio (failed / attempted over all runs) regresses on any increase.
Exit status: 0, or 1 when any verdict is "regressed", 2 on bad input.
"""
import argparse
import json
import os
import statistics
import sys


def load_runs(directory):
    """{workload: {file name: result object}}"""
    runs = {}
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".json"):
            continue
        with open(os.path.join(directory, name)) as f:
            lines = [line for line in f.read().splitlines() if line.strip()]
        if not lines:
            raise ValueError(f"{directory}/{name}: empty")
        obj = json.loads(lines[-1])
        workload = obj.get("workload") or name.split("-")[0]
        runs.setdefault(workload, {})[name] = obj
    return runs


def pair_up(parent, change):
    """Parent/change result pairs, by file name or else by sorted order."""
    common = sorted(set(parent) & set(change))
    if common:
        return [(parent[n], change[n]) for n in common]
    return list(zip((parent[n] for n in sorted(parent)),
                    (change[n] for n in sorted(change))))


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def spread_text(values):
    q1, med, q3 = quartiles(values)
    return f"{med:.6g} [{q1:.6g}, {q3:.6g}]"


def failed_ratio(runs):
    attempted = sum(r["attempted"] for r in runs.values())
    return sum(r["failed"] for r in runs.values()) / max(1, attempted)


def verdict(parent, change, pairs, better, bound):
    """Returns (verdict, wins). `better` is "lower" or "higher"."""
    sign = -1.0 if better == "lower" else 1.0
    gain = lambda a, b: sign * (b - a)  # > 0: b is better than a
    wins = sum(1 for a, b in pairs if gain(a, b) > 0)
    q1, med_p, q3 = quartiles(parent)
    med_c = quartiles(change)[1]
    iqr = q3 - q1
    delta = gain(med_p, med_c)
    scale = abs(med_p) if med_p else 1.0
    all_better = (max(change) < min(parent) if better == "lower"
                  else min(change) > max(parent))
    if pairs and wins >= 0.9 * len(pairs) and delta > iqr:
        return "improved", wins
    if iqr / scale > bound and not all_better:
        return "unresolved", wins
    if -delta / scale > bound:
        return "regressed", wins
    return "unchanged", wins


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--benchmark", default="BENCHMARK.json")
    args = ap.parse_args()
    try:
        with open(args.benchmark) as f:
            metrics = json.load(f)["end_to_end"]
        parent_runs = load_runs(args.parent)
        change_runs = load_runs(args.change)
    except (OSError, ValueError, KeyError) as e:
        print(f"compare.py: {e}", file=sys.stderr)
        return 2

    print(f"{'workload':16} {'metric':16} {'parent median [q1, q3]':32} "
          f"{'change median [q1, q3]':32} {'bound':>6} {'wins':>6}  verdict")
    regressed = False
    for workload in sorted(set(parent_runs) | set(change_runs)):
        p_runs = parent_runs.get(workload, {})
        c_runs = change_runs.get(workload, {})
        if not p_runs or not c_runs:
            print(f"{workload:16} missing on one side")
            continue
        pairs = pair_up(p_runs, c_runs)
        for m in metrics:
            name = m["name"]
            value = lambda run: run["metrics"][name]["value"]
            try:
                p = [value(r) for r in p_runs.values()]
                c = [value(r) for r in c_runs.values()]
                pv = [(value(a), value(b)) for a, b in pairs]
            except KeyError:
                continue  # traced runs carry per-layer metrics only
            v, wins = verdict(p, c, pv, m["better"], m["bound"])
            regressed |= v == "regressed"
            print(f"{workload:16} {name:16} {spread_text(p):32} "
                  f"{spread_text(c):32} {m['bound']:>6} "
                  f"{wins:>2}/{len(pv):<3}  {v}")
        fp, fc = failed_ratio(p_runs), failed_ratio(c_runs)
        v = "regressed" if fc > fp else "unchanged"
        regressed |= v == "regressed"
        print(f"{workload:16} {'failed_ratio':16} {fp:<32.6g} {fc:<32.6g} "
              f"{0:>6} {'':6}  {v}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
