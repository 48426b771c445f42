"""Layered performance benchmark of the LAX simulator.

One command measures every reference workload end to end and breaks the
time down by simulator layer::

    python3 benchmarks/layers/run.py [--seed S] [--seconds N]
    python3 benchmarks/layers/run.py --check          # smoke sizes, ~30 s
    python3 benchmarks/layers/run.py --workload NAME --seed S \
        --seconds N --trace 0|1                       # one workload

Each repetition is a fresh single-threaded process (``cell.py``), run
one at a time.  Untraced repetitions give the end-to-end metrics
(median and quartiles over the repetitions of one invocation); traced
repetitions wrap only ``run()`` in ``cProfile`` and give the per-layer
breakdown, each paired with an untraced one.  Repetitions continue
while the next one still fits in ``--seconds``: at least three untraced
ones, and one traced pair (two in the smoke mode, to compare counts).

Without ``--trace`` every workload runs untraced, then traced; the
tables go to stdout and the full result to ``--out``.  With ``--trace``
(and ``--workload``) the last line of stdout is one JSON object:
``correct``, ``attempted``, ``failed`` and the end-to-end (``--trace
0``) or per-layer (``--trace 1``) metrics.  See ``README.md`` for the
metric glossary and how to read a traced run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata

from cell import PACKAGE_DIR, ROOT, WORKLOADS
from layers import LAYERS

HERE = os.path.dirname(os.path.abspath(__file__))
CELL = os.path.join(HERE, "cell.py")
DEFAULT_OUT = os.path.join(HERE, "out", "result.json")
DEFAULT_SECONDS = 20
#: Fewest untraced repetitions of one invocation: enough for a median
#: that outvotes one repetition the host-speed correction missed.
MIN_REPS = 3
MAX_REPS = 50
#: A repetition is killed (and counted as failed) after this long.
CHILD_TIMEOUT_S = 170

#: End-to-end metrics: name -> (unit, better).  The last two are
#: simulated results: deterministic per seed, compared exactly.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "cpu_s": ("s", "lower"),
    "jobs_per_cpu_s": ("1/s", "higher"),
    "ns_per_event": ("ns", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
    "deadline_ratio": ("fraction", "higher"),
    "p99_latency_us": ("us", "lower"),
}
EXACT = ("deadline_ratio", "p99_latency_us")
#: The end-to-end metrics of a ``--trace 0`` line; the simulated ones
#: vary with the seed, so they ride in the per-layer line as
#: ``metrics.*`` and are checked for exact repeats instead.
HOST_METRICS = tuple(name for name in END_TO_END if name not in EXACT)

#: Program counters read after run(): name -> (unit, numerator,
#: denominator); names are counters, or "jobs" for arrived jobs.
COUNTER_METRICS = {
    "engine.events_committed_per_job": ("events/job", "events_committed",
                                        "jobs"),
    "engine.coalesced_frac": ("fraction", "events_coalesced",
                              "events_committed"),
    "command_processor.admit_frac": ("fraction", "admitted", "jobs"),
    "command_processor.late_reject_frac": ("fraction", "late_rejected",
                                           "jobs"),
    "dispatcher.wgs_issued_per_job": ("wgs/job", "wgs_issued", "jobs"),
    "dispatcher.preempted_frac": ("fraction", "wgs_preempted",
                                  "wgs_issued"),
    "compute_unit.useful_wg_frac": ("fraction", "useful_wgs",
                                    "wg_completions"),
    "schedulers.ticks_per_job": ("ticks/job", "ticks", "jobs"),
    "schedulers.ticks_elided_frac": ("fraction", "ticks_elided", "ticks"),
    "schedulers.walks_recomputed_per_tick": ("walks/tick",
                                             "walks_recomputed", "ticks"),
    "telemetry.decisions_per_job": ("events/job", "decisions", "jobs"),
    "telemetry.windows_closed": ("count", "windows_closed", None),
    "cluster.router_shed_frac": ("fraction", "router_rejected", "jobs"),
    "cluster.load_imbalance": ("ratio", "load_imbalance", None),
}


def per_layer_units() -> dict:
    """Every per-layer metric name and its unit, in report order."""
    units = {}
    for layer in LAYERS:
        units[f"{layer}.self_frac"] = "fraction"
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.calls_per_job"] = "calls/job"
    units.update({name: spec[0] for name, spec in COUNTER_METRICS.items()})
    units["jobs.pool_hit_frac"] = "fraction"
    units["trace.overhead_x"] = "x"
    units["metrics.deadline_ratio"] = "fraction"
    units["metrics.p99_latency_us"] = "us"
    return units


def quartiles(values):
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)``."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def _ratio(numerator, denominator):
    if numerator is None or denominator is None:
        return None
    return numerator / denominator if denominator else 0.0


# ----------------------------------------------------------------------
# Repetitions
# ----------------------------------------------------------------------

def child_env() -> dict:
    """Single-threaded numeric libraries for every repetition."""
    env = dict(os.environ)
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                 "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


def repetition(workload, seed, size, profile) -> dict:
    """Run one repetition in a fresh process; a crash is a failed record."""
    command = [sys.executable, CELL, workload, "--seed", str(seed),
               "--size", size, "--profile", str(int(profile))]
    cells = WORKLOADS[workload]["cells"]
    try:
        done = subprocess.run(command, cwd=ROOT, env=child_env(),
                              capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"attempted": cells, "failed": cells, "profiled": profile,
                "errors": [f"timed out after {CHILD_TIMEOUT_S} s"]}
    lines = done.stdout.strip().splitlines()
    if done.returncode == 0 and lines:
        try:
            return json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    tail = done.stderr.strip().splitlines()[-3:]
    return {"attempted": cells, "failed": cells, "profiled": profile,
            "errors": [f"exit {done.returncode}: " + " | ".join(tail)]}


def repetitions(workload, seed, size, seconds, traced, min_reps) -> list:
    """Untraced repetitions, or untraced/traced pairs, within ``seconds``.

    Stops before a repetition that would end past ``seconds``, judged by
    the length of the last one, once ``min_reps`` have run.
    """
    runs = []
    start = time.monotonic()
    for count in range(1, MAX_REPS + 1):
        began = time.monotonic()
        runs.append(repetition(workload, seed, size, False))
        if traced:
            runs.append(repetition(workload, seed, size, True))
        now = time.monotonic()
        if count >= min_reps and now - start + (now - began) > seconds:
            break
    return runs


# ----------------------------------------------------------------------
# Summaries
# ----------------------------------------------------------------------

#: Fields every repetition of one invocation must repeat exactly.
IDENTICAL = ("digest", "counters", "jobs", "events", "deadline_ratio",
             "p99_latency_us")


def summarize(workload, seed, runs) -> dict:
    """Metrics, failure counts and identity problems of one workload."""
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    problems = [e for r in runs for e in r["errors"]]
    clean = [r for r in runs if r["failed"] == 0]
    untraced = [r for r in clean if not r["profiled"]]
    traced = [r for r in clean if r["profiled"]]
    for field in IDENTICAL:
        if len({json.dumps(r[field], sort_keys=True) for r in clean}) > 1:
            problems.append(f"{field} differs across repetitions")
    for field in ("calls", "job_rebinds", "job_inits"):
        if len({json.dumps(r["profile"][field], sort_keys=True)
                for r in traced}) > 1:
            problems.append(f"traced {field} differ across repetitions")
    summary = {"workload": workload, "seed": seed, "attempted": attempted,
               "failed": failed, "problems": problems,
               "correct": failed == 0 and not problems and bool(clean),
               "end_to_end": {}, "per_layer": {}, "runs": runs}
    if untraced:
        summary["end_to_end"] = end_to_end(untraced)
    if untraced and traced:
        summary["per_layer"] = per_layer(untraced, traced)
    return summary


def end_to_end(untraced) -> dict:
    values = {
        "setup_s": [r["setup_s"] for r in untraced],
        "cpu_s": [r["cpu_s"] for r in untraced],
        "jobs_per_cpu_s": [r["jobs"] / r["cpu_s"] for r in untraced],
        "ns_per_event": [_ratio(r["cpu_s"] * 1e9, r["events"])
                         for r in untraced],
        "peak_rss_mb": [r["peak_rss_mb"] for r in untraced],
        "deadline_ratio": [r["deadline_ratio"] for r in untraced],
        "p99_latency_us": [r["p99_latency_us"] for r in untraced],
    }
    metrics = {}
    for name, (unit, better) in END_TO_END.items():
        series = values[name]
        entry = {"unit": unit, "better": better, "values": series,
                 "median": None, "q1": None, "q3": None}
        if None not in series:
            entry["q1"], entry["median"], entry["q3"] = quartiles(series)
        metrics[name] = entry
    return metrics


def per_layer(untraced, traced) -> dict:
    """Per-layer metrics: traced self-time shares, counts, counters."""
    units = per_layer_units()
    cpu = statistics.median(r["cpu_s"] for r in untraced)
    # Traced repetitions take no speed probes: compare raw with raw.
    overhead = (statistics.median(r["raw_cpu_s"] for r in traced)
                / statistics.median(r["raw_cpu_s"] for r in untraced))
    first = traced[0]
    profile, counters, jobs = first["profile"], first["counters"], \
        first["jobs"]
    values = {}
    for layer in LAYERS:
        frac = statistics.median(
            r["profile"]["self_s"][layer] / r["profile"]["total_s"]
            for r in traced)
        values[f"{layer}.self_frac"] = frac
        values[f"{layer}.self_s"] = frac * cpu
        values[f"{layer}.calls_per_job"] = profile["calls"][layer] / jobs
    counts = dict(counters, jobs=jobs)
    for name, (_, numerator, denominator) in COUNTER_METRICS.items():
        value = counts.get(numerator)
        values[name] = (value if denominator is None
                        else _ratio(value, counts.get(denominator)))
    values["jobs.pool_hit_frac"] = _ratio(
        profile["job_rebinds"], profile["job_rebinds"] + profile["job_inits"])
    values["trace.overhead_x"] = overhead
    values["metrics.deadline_ratio"] = first["deadline_ratio"]
    values["metrics.p99_latency_us"] = first["p99_latency_us"]
    return {name: {"unit": units[name], "value": values[name]}
            for name in units}


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------

def _fmt(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def print_summary(summary) -> None:
    print(f"== {summary['workload']} (seed {summary['seed']}): "
          f"{summary['attempted']} ops attempted, {summary['failed']} "
          f"failed, correct={summary['correct']}")
    for problem in summary["problems"]:
        print(f"   problem: {problem}")
    if summary["end_to_end"]:
        print(f"   {'metric':<16} {'unit':<9} {'median':>12} {'q1':>12} "
              f"{'q3':>12}  n")
        for name, entry in summary["end_to_end"].items():
            print(f"   {name:<16} {entry['unit']:<9} "
                  f"{_fmt(entry['median']):>12} {_fmt(entry['q1']):>12} "
                  f"{_fmt(entry['q3']):>12}  {len(entry['values'])}")
    layer_metrics = summary["per_layer"]
    if layer_metrics:
        columns = ("self_frac", "self_s", "calls_per_job")
        print(f"   {'layer':<18}" + "".join(f"{c:>14}" for c in columns))
        for layer in LAYERS:
            print(f"   {layer:<18}" + "".join(
                f"{_fmt(layer_metrics[f'{layer}.{c}']['value']):>14}"
                for c in columns))
        for name, entry in layer_metrics.items():
            if not name.endswith(columns):
                print(f"   {name:<40} {_fmt(entry['value']):>14} "
                      f"{entry['unit']}")


def result_line(summary, traced) -> dict:
    """The one-line result of a single-workload ``--trace`` run."""
    if traced:
        metrics = {name: {"value": entry["value"], "unit": entry["unit"]}
                   for name, entry in summary["per_layer"].items()}
    else:
        metrics = {name: {"value": summary["end_to_end"][name]["median"],
                          "unit": END_TO_END[name][0]}
                   for name in HOST_METRICS}
    return {"correct": summary["correct"],
            "attempted": summary["attempted"], "failed": summary["failed"],
            "metrics": metrics}


def host_info() -> dict:
    try:
        numpy = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy = None
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run one workload (default: all)")
    parser.add_argument("--seed", type=int,
                        help="input seed (default: each workload's own)")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="time budget per workload and phase "
                             f"(default {DEFAULT_SECONDS})")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="one phase only, with a final JSON line")
    parser.add_argument("--check", action="store_true",
                        help="smoke mode: reduced sizes, minimum "
                             "repetitions")
    parser.add_argument("--out", default=DEFAULT_OUT,
                        help="result JSON path (runs without --trace)")
    args = parser.parse_args(argv)
    if args.seed is not None and args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.trace is not None and args.workload is None:
        parser.error("--trace needs --workload")
    if not os.path.isfile(os.path.join(PACKAGE_DIR, "__init__.py")):
        print(f"error: no simulator sources at {PACKAGE_DIR}",
              file=sys.stderr)
        return 2

    size = "check" if args.check else "full"
    seconds = 0.0 if args.check else args.seconds
    names = [args.workload] if args.workload else list(WORKLOADS)
    phases = (False, True) if args.trace is None else (bool(args.trace),)
    summaries = {}
    for name in names:
        seed = WORKLOADS[name]["seed"] if args.seed is None else args.seed
        runs = []
        for traced in phases:
            # A full-size traced pair costs over four untraced
            # repetitions; the smoke mode runs two to compare counts.
            min_reps = (2 if args.check else 1) if traced else MIN_REPS
            runs += repetitions(name, seed, size, seconds, traced, min_reps)
        summaries[name] = summarize(name, seed, runs)
        print_summary(summaries[name])
        sys.stdout.flush()

    if args.trace is not None:
        summary = summaries[args.workload]
        needed = summary["per_layer"] if args.trace else \
            summary["end_to_end"]
        if not needed:
            print("error: no repetition completed", file=sys.stderr)
            return 1
        print(json.dumps(result_line(summary, args.trace)))
        return 0

    result = {"size": size, "seconds": seconds, "host": host_info(),
              "workloads": summaries}
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as sink:
        json.dump(result, sink, indent=1)
        sink.write("\n")
    print(f"wrote {os.path.relpath(args.out)}")
    return 0 if all(s["correct"] for s in summaries.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
