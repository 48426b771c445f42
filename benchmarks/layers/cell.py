"""One repetition of one benchmark workload, in a process of its own.

``run.py`` starts this script once per repetition, so every repetition
pays its own imports (part of ``setup_s``), starts with empty
process-global caches and pools, and reports its own ``ru_maxrss``::

    python3 benchmarks/layers/cell.py sustained_stream --seed 1 [--profile 1]

It builds the workload's inputs from the seed through the simulator's
public API, times each ``run()`` call with ``time.process_time`` (and
corrects the times for the host's speed, see :class:`HostSpeed`), checks
every cell's outputs and prints one JSON record as its last line.  With
``--profile 1`` the ``run()`` calls (and nothing else) run under
``cProfile`` and the record carries the per-layer attribution.

Module import touches only the standard library: the workload table
below is read by ``run.py``, which never imports the simulator.
"""

from __future__ import annotations

import argparse
import cProfile
import dataclasses
import hashlib
import heapq
import json
import os
import pstats
import resource
import signal
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
PACKAGE_DIR = os.path.join(SRC, "repro")

#: The reference workloads.  ``jobs`` is the requested job count of one
#: cell at full size and at ``--size check`` (the smoke mode); ``cells``
#: is the number of simulated cells (operations) in one repetition.
WORKLOADS = {
    "paper_grid": {
        "why": "Table-4 benchmarks x LAX/RR/PREMA, 32 jobs per cell: "
               "RR/PREMA backlogs and preemption make dispatcher and CU "
               "dominate",
        "seed": 1, "jobs": {"full": 32, "check": 8}, "cells": 24},
    "fleet_backlog": {
        "why": "hundreds of co-resident FLEET jobs: LAX tick and bucketed "
               "dispatcher dominate; the bypass case for event-queue and "
               "streaming work",
        "seed": 7, "jobs": {"full": 640, "check": 160}, "cells": 1},
    "sustained_stream": {
        "why": "streamed SUSTAINED/LAX with retirement: per-event "
               "constants of engine, CU, command processor and metrics "
               "dominate",
        "seed": 1, "jobs": {"full": 20000, "check": 2000}, "cells": 1},
    "fleet4_overload": {
        "why": "4 devices at x2 load behind the laxity router: router and "
               "admission reject paths run instead of accept paths",
        "seed": 1, "jobs": {"full": 16000, "check": 2000}, "cells": 1},
    "sustained_telemetry": {
        "why": "sustained_stream with a telemetry hub attached: the only "
               "workload where the telemetry layer runs",
        "seed": 1, "jobs": {"full": 16000, "check": 2000}, "cells": 1},
}

#: Table-4 benchmark order and the paper_grid schedulers.
PAPER_BENCHMARKS = ("LSTM", "GRU", "VAN", "HYBRID",
                    "IPV6", "CUCKOO", "GMM", "STEM")
PAPER_SCHEDULERS = ("LAX", "RR", "PREMA")
#: SUSTAINED "high" arrival rate (jobs/s, per device).
SUSTAINED_RATE = 600_000.0


#: Host-speed sampling: every PROBE_PERIOD_S of process CPU a SIGPROF
#: handler times a reference probe of PROBE_ROUNDS steps.  PROBE_REF_S
#: is the probe's time at full speed on the reference host (a 2-core
#: x86_64 virtual machine), so corrected times read as that host's CPU
#: seconds.
PROBE_PERIOD_S = 0.025
PROBE_ROUNDS = 900
PROBE_REF_S = 7.3e-4


class _ProbeItem:
    __slots__ = ("when", "count")

    def __init__(self, when):
        self.when = when
        self.count = 0


def reference_probe() -> float:
    """Wall seconds of a fixed interpreter-bound loop: the host's speed.

    A miniature event loop (heap, dict, attribute and call traffic, like
    the simulator's) that touches no simulator code, so a change to the
    repository cannot move it, while a slower host slows it with the
    simulator.  Wall time, because the process CPU clock does not
    advance inside a signal handler on every kernel.
    """
    start = time.perf_counter()
    heap, table = [], {}
    for step in range(PROBE_ROUNDS):
        item = _ProbeItem((step * 7919) % 10007)
        heapq.heappush(heap, (item.when, step, item))
        slot = table.get(step & 255)
        if slot is None:
            table[step & 255] = item
        else:
            slot.count += 1
        if len(heap) > 128:
            heapq.heappop(heap)[2].count += 1
    return time.perf_counter() - start


class HostSpeed:
    """Samples how fast the host runs while this process measures.

    On a shared machine the same work can take 1.7x the CPU time while
    a neighbour loads the sibling hardware thread, and the load changes
    within a second.  Probing through the run and dividing each stretch
    of CPU time by the slowdown its probe saw gives the CPU time the
    work would have taken at full speed; the probes' own time is taken
    out first.  Samples are kept per phase (``setup`` or ``run``); none
    are taken while ``phase`` is None.
    """

    def __init__(self) -> None:
        self.phase = "setup"
        self.samples = {"setup": [], "run": []}

    def __enter__(self) -> "HostSpeed":
        signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def _tick(self, signum, frame) -> None:
        if self.phase is not None:
            self.samples[self.phase].append(reference_probe())

    def corrected(self, phase, cpu) -> float:
        """``cpu`` seconds of ``phase`` at the reference host's speed."""
        samples = self.samples[phase]
        if not samples:
            return cpu
        return (cpu - sum(samples)) * statistics.fmean(
            PROBE_REF_S / sample for sample in samples)


def import_simulator():
    """Import ``repro`` from this checkout's ``src``, and nowhere else."""
    if not os.path.isfile(os.path.join(PACKAGE_DIR, "__init__.py")):
        raise SystemExit(f"no simulator sources at {PACKAGE_DIR}")
    sys.path.insert(0, SRC)
    import repro
    if os.path.dirname(os.path.abspath(repro.__file__)) != PACKAGE_DIR:
        raise SystemExit(f"imported repro from {repro.__file__}, "
                         f"not from {PACKAGE_DIR}")
    return repro


# ----------------------------------------------------------------------
# Workloads: each yields (cell name, requested jobs, build) where build()
# constructs a submitted system and returns (system, telemetry hub).
# ----------------------------------------------------------------------

def paper_grid(seed, jobs):
    from repro import GPUSystem, SimConfig, build_workload, make_scheduler
    for index, (bench, scheduler) in enumerate(
            (b, s) for b in PAPER_BENCHMARKS for s in PAPER_SCHEDULERS):
        # One input draw per cell: 24 independent draws average the
        # seed-to-seed swing in RNN sequence lengths.
        def build(bench=bench, scheduler=scheduler,
                  cell_seed=seed * len(PAPER_SCHEDULERS)
                  * len(PAPER_BENCHMARKS) + index):
            system = GPUSystem(make_scheduler(scheduler), SimConfig(),
                               retire=False)
            system.submit_workload(
                build_workload(bench, "high", jobs, seed=cell_seed))
            return system, None
        yield f"{bench}/{scheduler}", jobs, build


def fleet_backlog(seed, jobs):
    from repro import GPUSystem, make_scheduler
    from repro.core.calibration import warm_table
    from repro.workloads import (build_fleet_jobs, fleet_config,
                                 fleet_warm_rates)

    def build():
        config = fleet_config()
        system = GPUSystem(make_scheduler("LAX"), config, retire=False)
        warm_table(system.profiler, fleet_warm_rates(config.gpu))
        system.submit_workload(
            build_fleet_jobs(num_jobs=jobs, seed=seed, gpu=config.gpu))
        return system, None
    yield "FLEET/LAX", jobs, build


def _sustained(seed, jobs, telemetry):
    from repro import GPUSystem, SimConfig, make_scheduler
    from repro.workloads import sustained_source

    def build():
        hub = telemetry()
        system = GPUSystem(make_scheduler("LAX"), SimConfig(),
                           telemetry=hub, retire=True)
        system.submit_stream(sustained_source(SUSTAINED_RATE, seed=seed)
                             .jobs(), max_jobs=jobs, lookahead=1)
        return system, hub
    return build


def sustained_stream(seed, jobs):
    yield "SUSTAINED/LAX", jobs, _sustained(seed, jobs, lambda: None)


def sustained_telemetry(seed, jobs):
    from repro.telemetry import TelemetryHub
    from repro.units import MS

    def hub():
        return TelemetryHub(sink="ring:4096", window=2 * MS,
                            slo_monitor=True)
    yield "SUSTAINED/LAX+telemetry", jobs, _sustained(seed, jobs, hub)


def fleet4_overload(seed, jobs):
    from repro import ClusterSystem, SimConfig
    from repro.workloads import sustained_fleet_source

    def build():
        fleet = ClusterSystem("LAX", SimConfig(), num_devices=4,
                              router="laxity", seed=seed, retire=True,
                              workers=1)
        fleet.submit_stream(
            sustained_fleet_source(4, 2 * SUSTAINED_RATE, seed=seed),
            max_jobs=jobs)
        return fleet, None
    yield "SUSTAINED/LAX x4 laxity x2", jobs, build


BUILDERS = {"paper_grid": paper_grid, "fleet_backlog": fleet_backlog,
            "sustained_stream": sustained_stream,
            "fleet4_overload": fleet4_overload,
            "sustained_telemetry": sustained_telemetry}


# ----------------------------------------------------------------------
# Reading a finished cell from outside
# ----------------------------------------------------------------------

def _per_device(system, metrics):
    """(GPUSystem, RunMetrics) pairs of a single device or a fleet."""
    devices = getattr(system, "devices", None)
    if devices is None:
        return [(system, metrics)]
    return [(device, run) for device, run in zip(devices, metrics.per_device)
            if device is not None]


def _add(total, value):
    if value is None:
        return total
    return value if total is None else total + value


def _counters(system, metrics, hub) -> dict:
    """Program counters of one finished cell; None where one is missing."""
    counts = {}
    for device, run in _per_device(system, metrics):
        admission = getattr(device.policy, "admission", None)
        ticks = getattr(device.policy, "tick_stats", None)
        for name, value in (
                ("events_committed",
                 getattr(device.sim, "events_committed", None)),
                ("events_coalesced",
                 getattr(device.sim, "events_coalesced", None)),
                ("admitted", getattr(device.metrics, "admitted", None)),
                ("late_rejected", getattr(admission, "late_rejected", None)),
                ("wgs_issued", getattr(device.dispatcher, "wgs_issued", None)),
                ("wgs_preempted",
                 getattr(device.dispatcher, "wgs_preempted", None)),
                ("wg_completions", run.wg_completions),
                ("useful_wgs",
                 round(run.effective_wg_fraction * run.wg_completions)),
                ("ticks", getattr(ticks, "ticks", None)),
                ("ticks_elided", getattr(ticks, "ticks_elided", None)),
                ("walks_recomputed",
                 getattr(ticks, "walks_recomputed", None))):
            counts[name] = _add(counts.get(name), value)
    decisions = getattr(hub, "decisions", None)
    windows = getattr(hub, "windows", None)
    counts["decisions"] = 0 if decisions is None else len(decisions)
    counts["windows_closed"] = (0 if windows is None
                                else getattr(windows, "windows_closed", None))
    counts["router_rejected"] = getattr(metrics, "router_rejected", 0)
    counts["load_imbalance"] = getattr(metrics, "load_imbalance", 1.0)
    return counts


def _run_digest(run):
    return ([dataclasses.astuple(o) for o in run.outcomes], run.num_jobs,
            run.jobs_meeting_deadline, run.jobs_rejected,
            run.num_latency_sensitive, run.wg_completions, run.wgs_preempted,
            run.first_arrival, run.end_time,
            sorted(run.completed_latencies()))


def _digest(system, metrics) -> str:
    """Per-job rows or stream aggregates, committed events, final clocks."""
    parts = [(_run_digest(run), device.sim.events_committed, device.sim.now)
             for device, run in _per_device(system, metrics)]
    if getattr(system, "devices", None) is not None:
        parts.append((metrics.lane_sizes, metrics.router_rejected,
                      sorted(metrics.decision_reasons.items())))
    return hashlib.sha256(repr(parts).encode()).hexdigest()


def _completed_late(run) -> int:
    """Jobs that finished without meeting a deadline, counted per job."""
    late = sum(1 for o in run.outcomes
               if o.completion is not None and not o.met_deadline)
    stream = run.stream
    if stream is not None:
        late += stream.completed - stream.deadline_met
    return late


def check_cell(system, metrics, requested) -> None:
    """Raise unless the cell conserved every job it was given.

    Fleet cells were already audited by ``audit_routing`` inside
    ``run()``; here every cell must show arrivals equal to the request
    and met + rejected + completed-late equal to arrivals (a job left
    unfinished, or counted twice, breaks the sum).
    """
    arrived = metrics.num_jobs
    if arrived != requested:
        raise AssertionError(f"{arrived} arrivals for {requested} jobs")
    late = sum(_completed_late(run)
               for _, run in _per_device(system, metrics))
    met, rejected = metrics.jobs_meeting_deadline, metrics.jobs_rejected
    if met + rejected + late != arrived:
        raise AssertionError(f"met {met} + rejected {rejected} + late "
                             f"{late} != arrived {arrived}")


# ----------------------------------------------------------------------
# One repetition
# ----------------------------------------------------------------------

def run_cells(workload, seed, size, profile) -> dict:
    """Build, run and check every cell of one workload repetition.

    Untraced repetitions sample the host's speed throughout; traced ones
    do not (the profiler would bill the probes to the simulator).
    """
    speed = HostSpeed()
    if profile:
        return _run_cells(workload, seed, size, cProfile.Profile(), speed)
    with speed:
        return _run_cells(workload, seed, size, None, speed)


def _run_cells(workload, seed, size, profiler, speed) -> dict:
    repro = import_simulator()
    from repro.units import US
    # Process CPU so far: interpreter start-up and every import.
    setup = time.process_time()
    record = {"workload": workload, "seed": seed, "size": size,
              "profiled": profiler is not None, "attempted": 0, "failed": 0,
              "errors": [], "jobs": 0}
    cpu = 0.0
    counters, digests = {}, []
    met = sensitive = 0
    latencies = []
    jobs = WORKLOADS[workload]["jobs"][size]
    for name, requested, build in BUILDERS[workload](seed, jobs):
        record["attempted"] += 1
        speed.phase = "setup"
        start = time.process_time()
        try:
            system, hub = build()
            speed.phase = "run"
            begin = time.process_time()
            setup += begin - start
            if profiler is not None:
                profiler.enable()
            try:
                metrics = system.run()
            finally:
                if profiler is not None:
                    profiler.disable()
                cpu += time.process_time() - begin
                speed.phase = None
            check_cell(system, metrics, requested)
        except Exception as exc:  # a failing cell is counted, not dropped
            record["failed"] += 1
            record["errors"].append(f"{name}: {type(exc).__name__}: {exc}")
            continue
        for key, value in _counters(system, metrics, hub).items():
            # load_imbalance is a ratio: the (one) fleet cell's value.
            counters[key] = (value if key == "load_imbalance"
                             else _add(counters.get(key), value))
        record["jobs"] += metrics.num_jobs
        digests.append(_digest(system, metrics))
        met += metrics.jobs_meeting_deadline
        sensitive += metrics.num_latency_sensitive
        latencies.extend(metrics.completed_latencies())
    record["raw_setup_s"], record["raw_cpu_s"] = setup, cpu
    record["setup_s"] = speed.corrected("setup", setup)
    record["cpu_s"] = speed.corrected("run", cpu)
    record["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    record["digest"] = hashlib.sha256("".join(digests).encode()).hexdigest()
    record["counters"] = counters
    record["events"] = counters.get("events_committed")
    record["deadline_ratio"] = met / sensitive if sensitive else None
    record["p99_latency_us"] = (repro.p99(latencies) / US
                                if latencies else None)
    if profiler is not None:
        record["profile"] = _profile_record(repro, profiler)
    return record


def _profile_record(repro, profiler) -> dict:
    from layers import attribute
    stats = pstats.Stats(profiler).stats
    result = attribute(stats, PACKAGE_DIR)

    def calls(function):
        if function is None:
            return 0
        code = function.__code__
        entry = stats.get((code.co_filename, code.co_firstlineno,
                           code.co_name))
        return 0 if entry is None else entry[1]

    # Pool hits rebind a parked Job; misses construct one.
    result["job_rebinds"] = calls(getattr(repro.Job, "rebind", None))
    result["job_inits"] = calls(repro.Job.__init__)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=("full", "check"), default="full")
    parser.add_argument("--profile", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    record = run_cells(args.workload, args.seed, args.size, args.profile)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
