"""Streaming-scale soak: a million-job sustained cell at O(live) memory.

The streaming subsystem (lazy arrival sources feeding the engine
through a bounded look-ahead window, plus job retirement at terminal
transitions — see ``repro/workloads/streaming.py`` and
``GPUSystem(retire=True)``) makes three claims this bench measures, writing
``BENCH_streaming_scale.json`` at the repository root:

* **prefix identity** — the lazy stream truncated at N jobs is
  bit-identical (outcomes, event counts, clocks, admission counters) to
  pre-generating the same N jobs as a finite list, and retirement
  changes no derived aggregate, only where the bookkeeping lives;
* **flat memory** — the ``tracemalloc`` peak of a streamed + retired
  run does not grow with run length (a >= 1M-job cell stays within
  1.2x of a 100k-job reference), while the same cell with retirement
  off demonstrably grows;
* **the knee** — sweeping arrival rate over ``x0.5 .. x2.5`` of the
  SUSTAINED high rate with streamed, retired runs charts SLO attainment
  against offered load; attainment must degrade past the knee, which
  the cell is calibrated to place inside the sweep.

Usage::

    PYTHONPATH=src python benchmarks/bench_streaming_scale.py             # full (1M jobs)
    PYTHONPATH=src python benchmarks/bench_streaming_scale.py --check     # CI: identity only
    PYTHONPATH=src python benchmarks/bench_streaming_scale.py --validate  # + invariants
    PYTHONPATH=src python benchmarks/bench_streaming_scale.py --soak      # CI soak preset (100k)

``--check`` asserts prefix identity and retirement equivalence only —
never a wall-clock or memory threshold, so shared CI runners cannot
flake on machine noise.  ``--soak`` is the CI soak preset: a 100k-job
cell with the memory pin, the knee sweep at reduced size and the
invariant-checked run, all in a few minutes.  The committed JSON comes
from a full run.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time
import tracemalloc

from repro.config import SimConfig
from repro.harness.formatting import format_table
from repro.schedulers.registry import make_scheduler
from repro.sim.device import GPUSystem
from repro.sim.time import to_ms
from repro.units import SEC
from repro.workloads.registry import benchmark_spec
from repro.workloads.streaming import (SUSTAINED_RATES, build_sustained_jobs,
                                       sustained_source)

BENCHMARK = "SUSTAINED"
SCHEDULER = "LAX"
RATE = SUSTAINED_RATES["high"]
SEED = 1

#: Jobs for the prefix-identity / retirement-equivalence section.
CHECK_JOBS = 2000
#: Jobs for the invariant-checked streamed run (--validate).
VALIDATE_JOBS = 5000
#: The full soak cell and its flat-memory reference.
FULL_JOBS = 1_000_000
FULL_MEM_REF = 100_000
#: The CI soak preset (--soak).
SOAK_JOBS = 100_000
SOAK_MEM_REF = 10_000
#: Flat-memory acceptance: peak(main) <= 1.2x peak(reference).
MEM_RATIO_LIMIT = 1.2
#: Growth demonstration: no-retire peak at N > 2x peak at N/5.
GROWTH_FACTOR = 2.0

#: The knee sweep: multipliers of the SUSTAINED high rate.
KNEE_LEVELS = ("x0.5", "x0.75", "x1", "x1.5", "x2", "x2.5")
KNEE_JOBS = 20_000
SOAK_KNEE_JOBS = 4_000

#: Schedulers the identity section covers: the paper's contribution, a
#: fair-rotation baseline and a hybrid.
IDENTITY_SCHEDULERS = ("LAX", "RR", "LAX-PREMA")

RESULT_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           os.pardir, "BENCH_streaming_scale.json")


def _streamed_run(num_jobs, retire, scheduler=SCHEDULER, validator=None):
    """One streamed sustained run; returns (wall seconds, metrics, system)."""
    system = GPUSystem(make_scheduler(scheduler), SimConfig(),
                       validator=validator, retire=retire)
    start = time.perf_counter()
    system.submit_stream(sustained_source(RATE, seed=SEED).jobs(),
                         max_jobs=num_jobs)
    metrics = system.run()
    return time.perf_counter() - start, metrics, system


def _finite_run(num_jobs, scheduler=SCHEDULER):
    jobs = build_sustained_jobs(num_jobs, RATE, SEED, SimConfig().gpu)
    system = GPUSystem(make_scheduler(scheduler), SimConfig(), retire=False)
    system.submit_workload(jobs)
    return system.run(), system


def _signature(metrics, system):
    """Everything a streaming divergence could touch, flattened."""
    admission = getattr(system.policy, "admission", None)
    return ([(o.job_id, o.accepted, o.completion, o.wgs_executed, o.latency)
             for o in metrics.outcomes],
            metrics.end_time, metrics.wg_completions,
            system.sim.events_fired, system.sim.now,
            system.dispatcher.wgs_issued, system.dispatcher.wgs_preempted,
            system.host.commands_sent,
            (admission.accepted, admission.rejected)
            if admission is not None else None)


def _aggregates(metrics):
    """The derived metrics retirement must not change exactly.

    p99 is checked separately with a tolerance: past the latency
    reservoir's capacity the retired run's percentile is a sampled
    estimate, exact-by-construction only below it.
    """
    return (metrics.num_jobs, metrics.jobs_meeting_deadline,
            metrics.jobs_rejected, metrics.num_latency_sensitive,
            metrics.wg_completions, metrics.effective_wg_fraction,
            metrics.end_time)


def _p99_close(retired, baseline, tolerance=0.15) -> bool:
    exact = baseline.p99_latency_ticks
    estimate = retired.p99_latency_ticks
    if exact is None or estimate is None:
        return exact == estimate
    return abs(estimate - exact) <= tolerance * exact


def identity_check(num_jobs=CHECK_JOBS) -> dict:
    """Prefix identity per scheduler + retirement aggregate equivalence."""
    per_scheduler = {}
    for scheduler in IDENTITY_SCHEDULERS:
        finite = _signature(*_finite_run(num_jobs, scheduler))
        _, metrics, system = _streamed_run(num_jobs, retire=False,
                                           scheduler=scheduler)
        per_scheduler[scheduler] = _signature(metrics, system) == finite
    _, retired, _ = _streamed_run(num_jobs, retire=True)
    baseline, _ = _finite_run(num_jobs)
    equivalent = (retired.outcomes == []
                  and retired.stream is not None
                  and retired.stream.jobs == num_jobs
                  and _aggregates(retired) == _aggregates(baseline)
                  and _p99_close(retired, baseline))
    return {
        "num_jobs": num_jobs,
        "prefix_identical": per_scheduler,
        "all_identical": all(per_scheduler.values()),
        "retirement_aggregates_equivalent": equivalent,
    }


def memory_pins(num_jobs, ref_jobs) -> dict:
    """Traced peaks: flat with retirement on, growing with it off."""
    def traced_peak(n, retire):
        gc.collect()
        tracemalloc.start()
        try:
            _streamed_run(n, retire=retire)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    _streamed_run(200, retire=True)  # warmup: one-time allocations
    retired_ref = traced_peak(ref_jobs, True)
    retired_main = traced_peak(num_jobs, True)
    ratio = retired_main / max(retired_ref, 1)
    grow_small = max(2000, ref_jobs // 5)
    unretired_small = traced_peak(grow_small, False)
    unretired_ref = traced_peak(ref_jobs, False)
    return {
        "ref_jobs": ref_jobs,
        "num_jobs": num_jobs,
        "retired_ref_peak_bytes": retired_ref,
        "retired_peak_bytes": retired_main,
        "retired_peak_ratio": ratio,
        "ratio_limit": MEM_RATIO_LIMIT,
        "flat": ratio <= MEM_RATIO_LIMIT,
        "unretired_jobs": [grow_small, ref_jobs],
        "unretired_peak_bytes": [unretired_small, unretired_ref],
        "unretired_grows": unretired_ref > GROWTH_FACTOR * unretired_small,
    }


def throughput_run(num_jobs) -> dict:
    """The headline cell: untraced wall clock of the streamed+retired run."""
    seconds, metrics, system = _streamed_run(num_jobs, retire=True)
    return {
        "num_jobs": num_jobs,
        "wall_seconds": seconds,
        "jobs_per_wall_second": num_jobs / seconds,
        "events_fired": system.sim.events_fired,
        "events_per_job": system.sim.events_fired / num_jobs,
        "sim_span_ms": to_ms(metrics.makespan_ticks),
        "offered_rate_jobs_per_s": RATE,
        "deadline_ratio": metrics.deadline_ratio,
        "jobs_rejected": metrics.jobs_rejected,
        "p99_latency_ms": to_ms(metrics.p99_latency_ticks),
    }


def knee_sweep(num_jobs) -> dict:
    """SLO attainment vs offered load, one streamed retired run per level."""
    spec = benchmark_spec(BENCHMARK)
    rates = []
    for level in KNEE_LEVELS:
        rate = spec.rate(level)
        system = GPUSystem(make_scheduler(SCHEDULER), SimConfig(),
                           retire=True)
        system.submit_stream(sustained_source(rate, seed=SEED).jobs(),
                             max_jobs=num_jobs)
        metrics = system.run()
        p99 = metrics.p99_latency_ticks
        rates.append({
            "level": level,
            "rate_jobs_per_s": rate,
            "slo_attainment": metrics.deadline_ratio,
            "rejected_fraction": metrics.jobs_rejected / metrics.num_jobs,
            "p99_latency_ms": to_ms(p99) if p99 is not None else None,
        })
    rates.sort(key=lambda row: row["rate_jobs_per_s"])
    # The knee is visible when attainment degrades across the sweep.
    degradation = rates[0]["slo_attainment"] - rates[-1]["slo_attainment"]
    return {
        "num_jobs_per_rate": num_jobs,
        "scheduler": SCHEDULER,
        "rates": rates,
        "attainment_degrades": degradation > 0.05,
    }


def validated_run(num_jobs=VALIDATE_JOBS) -> dict:
    """A streamed+retired cell under the invariant checker + oracles."""
    from repro.validation import InvariantChecker, audit_run
    checker = InvariantChecker()
    _, metrics, system = _streamed_run(num_jobs, retire=True,
                                       validator=checker)
    failures = audit_run(system, [], metrics)
    summary = checker.summary()
    return {
        "num_jobs": num_jobs,
        "checks": summary["total_checks"],
        "job_retirements": summary["checks"].get("job_retirement", 0),
        "violations": len(summary["violations"]),
        "oracle_failures": failures,
    }


def measure(jobs=FULL_JOBS, mem_ref=FULL_MEM_REF, knee_jobs=KNEE_JOBS,
            check_only=False, validate=False) -> dict:
    result = {
        "benchmark": BENCHMARK,
        "scheduler": SCHEDULER,
        "rate_jobs_per_s": RATE,
        "seed": SEED,
        "mode": "check" if check_only else "full",
        # Host facts every bench JSON records: the streamed cell is
        # single-process, so a 1-core host never invalidates it.
        "cpus": os.cpu_count() or 1,
        "skip_reason": None,
        "identity": identity_check(),
    }
    if validate:
        result["invariants"] = validated_run()
    if check_only:
        return result
    result["throughput"] = throughput_run(jobs)
    result["memory"] = memory_pins(jobs, mem_ref)
    result["knee"] = knee_sweep(knee_jobs)
    return result


def write_result(result: dict) -> None:
    with open(RESULT_PATH, "w", encoding="utf-8") as sink:
        json.dump(result, sink, indent=2)
        sink.write("\n")


def print_result(result: dict) -> None:
    identity = result["identity"]
    print(f"prefix identity (n={identity['num_jobs']}): "
          + ", ".join(f"{name}={'ok' if ok else 'DIVERGED'}"
                      for name, ok in identity["prefix_identical"].items())
          + f"; retirement equivalent="
            f"{identity['retirement_aggregates_equivalent']}")
    if "invariants" in result:
        inv = result["invariants"]
        print(f"invariants (n={inv['num_jobs']}): {inv['checks']} checks, "
              f"{inv['job_retirements']} retirements, "
              f"{inv['violations']} violations, "
              f"{len(inv['oracle_failures'])} oracle failures")
    if "throughput" in result:
        thr = result["throughput"]
        print(f"sustained cell: {thr['num_jobs']} jobs in "
              f"{thr['wall_seconds']:.1f}s "
              f"({thr['jobs_per_wall_second']:.0f} jobs/s wall, "
              f"{thr['events_per_job']:.2f} events/job, "
              f"SLO {thr['deadline_ratio']:.4f})")
    if "memory" in result:
        mem = result["memory"]
        print(f"memory: retired peak {mem['retired_peak_bytes'] / 1e3:.0f}KB "
              f"at {mem['num_jobs']} jobs vs "
              f"{mem['retired_ref_peak_bytes'] / 1e3:.0f}KB at "
              f"{mem['ref_jobs']} ({mem['retired_peak_ratio']:.2f}x, "
              f"limit {mem['ratio_limit']}x); unretired "
              f"{mem['unretired_peak_bytes'][0] / 1e3:.0f}KB -> "
              f"{mem['unretired_peak_bytes'][1] / 1e3:.0f}KB "
              f"(grows={mem['unretired_grows']})")
    if "knee" in result:
        rows = [(row["level"], f"{row['rate_jobs_per_s']:.0f}",
                 f"{row['slo_attainment']:.4f}",
                 f"{row['rejected_fraction']:.4f}",
                 f"{row['p99_latency_ms']:.3f}"
                 if row["p99_latency_ms"] is not None else "-")
                for row in result["knee"]["rates"]]
        print(format_table(
            ("rate level", "jobs/s", "SLO attainment", "rejected", "p99 ms"),
            rows,
            title=f"load-vs-SLO knee "
                  f"(n={result['knee']['num_jobs_per_rate']} per rate)"))
    print(f"wrote {os.path.normpath(RESULT_PATH)}")


def failures_of(result: dict, check_only: bool) -> list:
    failures = []
    if not result["identity"]["all_identical"]:
        failures.append("streamed prefix diverged from the finite workload")
    if not result["identity"]["retirement_aggregates_equivalent"]:
        failures.append("retirement changed derived aggregates")
    if "invariants" in result:
        inv = result["invariants"]
        if inv["violations"]:
            failures.append(f"{inv['violations']} invariant violations")
        if inv["oracle_failures"]:
            failures.append(f"oracle failures: {inv['oracle_failures']}")
        if inv["job_retirements"] != inv["num_jobs"]:
            failures.append("not every job was retired exactly once")
    if check_only:
        return failures
    mem = result["memory"]
    if not mem["flat"]:
        failures.append(
            f"retired-run memory not flat: {mem['retired_peak_ratio']:.2f}x "
            f"over the {mem['ref_jobs']}-job reference "
            f"(limit {mem['ratio_limit']}x)")
    if not mem["unretired_grows"]:
        failures.append("retirement-off run failed to demonstrate growth")
    if not result["knee"]["attainment_degrades"]:
        failures.append("knee sweep shows no SLO degradation — "
                        "cell miscalibrated")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="prefix identity + retirement equivalence "
                             "only (no memory or wall-clock thresholds)")
    parser.add_argument("--validate", action="store_true",
                        help="also run a streamed cell under the invariant "
                             "checker and the analytic oracles")
    parser.add_argument("--soak", action="store_true",
                        help=f"CI soak preset: {SOAK_JOBS}-job cell, "
                             f"memory pin vs {SOAK_MEM_REF}, reduced knee "
                             "sweep, implies --validate")
    parser.add_argument("--jobs", type=int, default=None,
                        help=f"override the main cell size "
                             f"(default {FULL_JOBS}, soak {SOAK_JOBS})")
    args = parser.parse_args(argv)

    if args.soak:
        jobs = args.jobs or SOAK_JOBS
        mem_ref, knee_jobs = SOAK_MEM_REF, SOAK_KNEE_JOBS
        validate = True
    else:
        jobs = args.jobs or FULL_JOBS
        mem_ref, knee_jobs = min(FULL_MEM_REF, max(jobs // 10, 1)), KNEE_JOBS
        validate = args.validate
    result = measure(jobs=jobs, mem_ref=mem_ref, knee_jobs=knee_jobs,
                     check_only=args.check, validate=validate)
    if args.soak:
        result["mode"] = "soak"
    write_result(result)
    print_result(result)
    failures = failures_of(result, args.check)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


def test_streaming_scale(benchmark):
    """Pytest-benchmark wrapper: identity + invariants at CI size.

    The committed JSON's million-job numbers come from a dedicated full
    run of ``main()``; under pytest only the machine-independent claims
    are asserted so shared runners cannot flake.
    """
    from conftest import print_block, run_once

    result = run_once(benchmark, measure, SOAK_JOBS, SOAK_MEM_REF,
                      SOAK_KNEE_JOBS, True, True)
    print_block(
        f"Streaming prefix identity on the {BENCHMARK}/{SCHEDULER} cell",
        json.dumps(result["identity"], indent=2))
    assert result["identity"]["all_identical"]
    assert result["identity"]["retirement_aggregates_equivalent"]
    assert result["invariants"]["violations"] == 0
    assert result["invariants"]["oracle_failures"] == []


if __name__ == "__main__":
    sys.exit(main())
