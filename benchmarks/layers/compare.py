"""Compare a parent and a change result of the layered benchmark.

::

    python3 benchmarks/layers/run.py --out parent.json     # at the parent
    python3 benchmarks/layers/run.py --out change.json     # at the change
    python3 benchmarks/layers/compare.py parent.json change.json

    # baseline: two independent result sets of the same commit
    python3 benchmarks/layers/compare.py --baseline a.json b.json \
        --out benchmarks/layers/baseline.json

Prints one row per (end-to-end metric, workload) with a verdict:

* ``worse`` -- the change's median is worse than the parent's by more
  than the metric's bound in ``BENCHMARK.json``; for the simulated
  metrics (bound 0) any difference at all;
* ``improved`` -- at least ten pairs ran, the change wins at least nine
  tenths of them (ties count for neither side), and the medians differ
  by more than the parent's own interquartile range;
* ``unresolved`` -- neither, and either side's interquartile range is
  wider than the bound, unless every change run beats every parent run;
  also a would-be gain from fewer than ten pairs;
* ``unchanged`` -- otherwise.

The i-th repetitions of the two results form the i-th pair.  A row per
workload also compares the share of failed operations.  The exit code
is 1 when any row is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from run import END_TO_END, EXACT, host_info, quartiles

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK_JSON = os.path.join(os.path.dirname(os.path.dirname(HERE)),
                              "BENCHMARK.json")
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_bounds(path=BENCHMARK_JSON) -> dict:
    """Allowed worsening per end-to-end metric; 0 for the exact ones."""
    with open(path, encoding="utf-8") as source:
        spec = json.load(source)
    bounds = {entry["name"]: entry["bound"] for entry in spec["end_to_end"]}
    bounds.update(dict.fromkeys(EXACT, 0.0))
    return bounds


def _better(better, a, b) -> bool:
    """Whether ``b`` reads better than ``a``."""
    return b < a if better == "lower" else b > a


def verdict(parent, change, better, bound) -> str:
    """The verdict of one (metric, workload) pair of value series."""
    if bound == 0:
        return "unchanged" if set(parent) == set(change) else "worse"
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    worsening = (cm - pm) if better == "lower" else (pm - cm)
    if worsening > bound * abs(pm):
        return "worse"
    pairs = list(zip(parent, change))
    wins = sum(_better(better, p, c) for p, c in pairs)
    if (_better(better, pm, cm) and wins >= WIN_SHARE * len(pairs)
            and abs(cm - pm) > p3 - p1):
        return "improved" if len(pairs) >= MIN_PAIRS else "unresolved"
    wide = max(p3 - p1, c3 - c1) > bound * abs(pm)
    best_parent = min(parent) if better == "lower" else max(parent)
    dominated = all(_better(better, best_parent, c) for c in change)
    return "unresolved" if wide and not dominated else "unchanged"


def compare(parent, change, bounds) -> list:
    """Rows of (workload, metric, parent median, change median, verdict)."""
    rows = []
    for workload, base in parent["workloads"].items():
        new = change["workloads"].get(workload)
        if new is None:
            rows.append((workload, "present", None, None, "worse"))
            continue
        if new["seed"] != base["seed"]:
            raise SystemExit(f"{workload}: seed {base['seed']} against "
                             f"{new['seed']}; compare runs of one seed")
        for metric, (_, better) in END_TO_END.items():
            before = base["end_to_end"].get(metric, {}).get("values")
            after = new["end_to_end"].get(metric, {}).get("values")
            if not before or not after or None in before + after:
                rows.append((workload, metric, None, None, "unresolved"))
                continue
            rows.append((workload, metric, quartiles(before)[1],
                         quartiles(after)[1],
                         verdict(before, after, better, bounds[metric])))
        shares = [s["failed"] / s["attempted"] if s["attempted"] else 1.0
                  for s in (base, new)]
        rows.append((workload, "ops_failed_share", shares[0], shares[1],
                     "worse" if shares[1] > shares[0] else "unchanged"))
    return rows


def baseline(first, second, bounds) -> dict:
    """Medians and spreads of two independent result sets of one commit."""
    table = {}
    for workload in first["workloads"]:
        entries = {}
        for metric, (unit, better) in END_TO_END.items():
            sets = []
            for result in (first, second):
                values = result["workloads"][workload]["end_to_end"][
                    metric]["values"]
                q1, median, q3 = quartiles(values)
                sets.append({"median": median, "q1": q1, "q3": q3,
                             "iqr_frac": (q3 - q1) / abs(median)
                             if median else 0.0, "n": len(values)})
            bound = bounds[metric]
            worsening = ((sets[1]["median"] - sets[0]["median"])
                         if better == "lower"
                         else (sets[0]["median"] - sets[1]["median"]))
            entries[metric] = {
                "unit": unit, "better": better, "bound": bound,
                "sets": sets,
                "spread_within_bound": all(s["iqr_frac"] <= bound
                                           for s in sets),
                "sets_agree": worsening <= bound * abs(sets[0]["median"]),
            }
        overhead = [result["workloads"][workload]["per_layer"]
                    ["trace.overhead_x"]["value"]
                    for result in (first, second)]
        table[workload] = {"end_to_end": entries,
                           "trace.overhead_x": overhead}
    return {"host": host_info(), "seconds": first["seconds"],
            "workloads": table}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="parent (or first) result JSON")
    parser.add_argument("change", help="change (or second) result JSON")
    parser.add_argument("--baseline", action="store_true",
                        help="summarize two result sets of one commit")
    parser.add_argument("--out", help="baseline JSON path (default stdout)")
    args = parser.parse_args(argv)
    results = []
    for path in (args.parent, args.change):
        with open(path, encoding="utf-8") as source:
            results.append(json.load(source))
    bounds = load_bounds()

    if args.baseline:
        text = json.dumps(baseline(*results, bounds), indent=1) + "\n"
        if args.out:
            with open(args.out, "w", encoding="utf-8") as sink:
                sink.write(text)
        else:
            sys.stdout.write(text)
        return 0

    rows = compare(*results, bounds)
    print(f"{'workload':<20} {'metric':<17} {'parent':>12} {'change':>12} "
          f"{'delta':>8}  verdict")
    for workload, metric, before, after, word in rows:
        delta = (f"{(after - before) / abs(before):+.1%}"
                 if before and after is not None else "")
        print(f"{workload:<20} {metric:<17} "
              f"{'' if before is None else f'{before:.6g}':>12} "
              f"{'' if after is None else f'{after:.6g}':>12} "
              f"{delta:>8}  {word}")
    return 1 if any(row[4] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
