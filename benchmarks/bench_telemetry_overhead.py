"""Telemetry overhead: CPU-second cost of the observability layer.

Two cells, each timed with telemetry off and on:

* **LSTM/LAX/high** (``REPRO_NUM_JOBS`` jobs, default 128) with (a) no
  telemetry, (b) the ``--emit-telemetry`` default (decision events on,
  WG events off), (c) the streaming JSONL sink, (d) windowed metrics
  plus the live SLO monitor and (e) the full WG-level trace;
* **SUSTAINED/LAX**, streamed with retirement (``SUSTAINED_JOBS`` jobs
  at the 600k jobs/s "high" rate), with no telemetry and with the hub
  the layered benchmark's ``sustained_telemetry`` workload attaches: a
  ``ring:4096`` sink, 2 ms windows and the live SLO monitor.

The comparison goes to ``BENCH_telemetry_overhead.json`` at the
repository root.  Targets: decision events stay under 10 % over no
telemetry on the LSTM cell, the streaming modes (JSONL sink,
windowed+monitor) under 5 % over the in-memory default they replace
(``overhead_vs_default`` isolates the cost of the sink swap or
windowing from the cost of collecting the events at all), and the
sustained hub under 15 % over no telemetry on the SUSTAINED cell.  WG
events are the documented expensive option and are only reported.

Every timing is process CPU time (``time.process_time``) around
``run()`` alone; building the system and the workload stays outside.
Modes are timed in interleaved round-robin order for ``REPEATS`` rounds
on freshly built (identical, seeded) systems, keeping each mode's
fastest run: interleaving stops CPU frequency drift from biasing
whichever mode happens to run later, and the minimum strips
scheduler-noise outliers from a CPU-bound measurement.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import tempfile
import time

from conftest import print_block

from repro.config import SimConfig
from repro.harness.formatting import format_table
from repro.schedulers.registry import make_scheduler
from repro.sim.device import GPUSystem
from repro.telemetry import TelemetryHub
from repro.units import MS
from repro.workloads import SUSTAINED_RATES, sustained_source
from repro.workloads.registry import build_workload

REPEATS = 7
TARGET_OVERHEAD = 0.10
STREAM_TARGET_OVERHEAD = 0.05
SUSTAINED_TARGET_OVERHEAD = 0.15
STREAMING_MODES = ("jsonl_stream", "windowed_slo")
#: SUSTAINED cell size: the layered benchmark's 16,000-job cell.
SUSTAINED_JOBS = 16_000
SUSTAINED_HUB = {"sink": "ring:4096", "window_ms": 2, "slo_monitor": True}
RESULT_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           os.pardir, "BENCH_telemetry_overhead.json")


def _timed_run(system: GPUSystem):
    """CPU seconds of ``system.run()`` and the run's metrics."""
    start = time.process_time()
    metrics = system.run()
    return time.process_time() - start, metrics


def _lstm_system(num_jobs: int, hub) -> GPUSystem:
    jobs = build_workload("LSTM", "high", num_jobs=num_jobs, seed=1,
                          gpu=SimConfig().gpu)
    system = GPUSystem(make_scheduler("LAX"), SimConfig(), telemetry=hub)
    system.submit_workload(jobs)
    return system


def _sustained_system(num_jobs: int, hub) -> GPUSystem:
    system = GPUSystem(make_scheduler("LAX"), SimConfig(), telemetry=hub,
                       retire=True)
    system.submit_stream(sustained_source(SUSTAINED_RATES["high"]).jobs(),
                         max_jobs=num_jobs)
    return system


def _digest(system, metrics) -> tuple:
    """Everything a run decides, retired or not, as a comparable value."""
    return ([(o.job_id, o.accepted, o.completion, o.wgs_executed)
             for o in metrics.outcomes], metrics.num_jobs,
            metrics.jobs_meeting_deadline, metrics.jobs_rejected,
            metrics.wg_completions, metrics.end_time,
            system.sim.events_committed)


def _best_of(factories, build, num_jobs: int) -> dict:
    """Each mode's fastest ``run()`` over interleaved rounds, in CPU s."""
    best = {name: math.inf for name, _ in factories}
    digests = {}
    for round_index in range(REPEATS):
        for name, make_hub in factories:
            hub = make_hub(f"{name}-{round_index}")
            system = build(num_jobs, hub)
            seconds, metrics = _timed_run(system)
            if hub is not None:
                hub.close()
            best[name] = min(best[name], seconds)
            digests[name] = _digest(system, metrics)
    for name in best:
        assert digests[name] == digests["off"], \
            f"{name} telemetry changed results"
    return best


def measure_lstm(num_jobs: int) -> dict:
    scratch = tempfile.mkdtemp(prefix="bench-telemetry-")
    factories = (
        ("off", lambda tag: None),
        ("decision_events", lambda tag: TelemetryHub()),
        ("jsonl_stream", lambda tag: TelemetryHub(
            sink="jsonl", sink_dir=os.path.join(scratch, tag))),
        ("windowed_slo", lambda tag: TelemetryHub(
            window=2 * MS, slo_monitor=True)),
        ("wg_events", lambda tag: TelemetryHub(wg_events=True)))
    try:
        best = _best_of(factories, _lstm_system, num_jobs)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    baseline = best.pop("off")
    default = best["decision_events"]
    modes = {name: {
        "seconds": seconds,
        "overhead_fraction": seconds / baseline - 1.0,
    } for name, seconds in best.items()}
    for name in STREAMING_MODES:
        modes[name]["overhead_vs_default"] = \
            best[name] / default - 1.0
    return {
        "benchmark": "LSTM",
        "scheduler": "LAX",
        "rate": "high",
        "num_jobs": num_jobs,
        "baseline_seconds": baseline,
        "modes": modes,
        "target_overhead_fraction": TARGET_OVERHEAD,
        "within_target":
            modes["decision_events"]["overhead_fraction"] < TARGET_OVERHEAD,
        "streaming_target_overhead_fraction": STREAM_TARGET_OVERHEAD,
        "streaming_within_target": all(
            modes[name]["overhead_vs_default"] < STREAM_TARGET_OVERHEAD
            for name in STREAMING_MODES),
    }


def measure_sustained(num_jobs: int) -> dict:
    factories = (
        ("off", lambda tag: None),
        ("hub", lambda tag: TelemetryHub(
            sink=SUSTAINED_HUB["sink"],
            window=SUSTAINED_HUB["window_ms"] * MS,
            slo_monitor=SUSTAINED_HUB["slo_monitor"])))
    best = _best_of(factories, _sustained_system, num_jobs)
    overhead = best["hub"] / best["off"] - 1.0
    return {
        "benchmark": "SUSTAINED",
        "scheduler": "LAX",
        "rate": "high",
        "num_jobs": num_jobs,
        "retire": True,
        "hub": SUSTAINED_HUB,
        "baseline_seconds": best["off"],
        "hub_seconds": best["hub"],
        "overhead_fraction": overhead,
        "target_overhead_fraction": SUSTAINED_TARGET_OVERHEAD,
        "within_target": overhead < SUSTAINED_TARGET_OVERHEAD,
    }


def measure_overhead(num_jobs: int) -> dict:
    return {
        "clock": "process_time around run()",
        "repeats": REPEATS,
        # Host facts every bench JSON records: the overhead ratio is
        # single-process, so a 1-core host never invalidates it.
        "cpus": os.cpu_count() or 1,
        "skip_reason": None,
        **measure_lstm(num_jobs),
        "sustained": measure_sustained(SUSTAINED_JOBS),
    }


def test_telemetry_overhead(num_jobs):
    result = measure_overhead(num_jobs)
    with open(RESULT_PATH, "w", encoding="utf-8") as sink:
        json.dump(result, sink, indent=2)
        sink.write("\n")
    rows = [("off (baseline)", f"{result['baseline_seconds']:.3f}",
             "-", "-")]
    for name, mode in result["modes"].items():
        versus_default = mode.get("overhead_vs_default")
        rows.append((name, f"{mode['seconds']:.3f}",
                     f"{mode['overhead_fraction'] * 100:+.1f}%",
                     f"{versus_default * 100:+.1f}%"
                     if versus_default is not None else "-"))
    print_block(
        f"Telemetry overhead on the LSTM/LAX/high cell, {num_jobs} jobs "
        f"(best of {REPEATS}; target < {TARGET_OVERHEAD:.0%} for "
        f"decision events, < {STREAM_TARGET_OVERHEAD:.0%} vs default "
        "for streaming modes)",
        format_table(("mode", "CPU seconds", "vs off", "vs default"),
                     rows))
    sustained = result["sustained"]
    print_block(
        f"Telemetry overhead on the SUSTAINED/LAX streamed cell, "
        f"{sustained['num_jobs']} jobs (best of {REPEATS}; target < "
        f"{SUSTAINED_TARGET_OVERHEAD:.0%})",
        format_table(("mode", "CPU seconds", "vs off"), [
            ("off (baseline)", f"{sustained['baseline_seconds']:.3f}", "-"),
            ("ring:4096 + 2 ms windows + SLO monitor",
             f"{sustained['hub_seconds']:.3f}",
             f"{sustained['overhead_fraction'] * 100:+.1f}%")]))
    print(f"wrote {os.path.normpath(RESULT_PATH)}")

    # The default --emit-telemetry configuration must stay cheap, and
    # the streaming sink/window modes must stay close to it.  Bounds
    # are much looser than the recorded targets because shared-CI boxes
    # measure telemetry-attached runs 10-20 % slower than idle ones;
    # the JSON records the measured values.
    assert result["modes"]["decision_events"]["overhead_fraction"] < 0.35
    for name in STREAMING_MODES:
        assert result["modes"][name]["overhead_vs_default"] < 0.15, name
