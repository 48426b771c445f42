"""Record the golden corpus: what the simulator decides on a fixed matrix.

Every cell below runs through the public API only and is reduced to the
facts a scheduling change would move: per-job outcome rows (or the
stream aggregate of a retired run), the admission counters, WG issue and
preemption counts, committed events, the final clock and the bytes of a
WG-level trace.  ``tests/test_golden_corpus.py`` re-runs every cell and
compares against ``corpus.json``, so a refactor that claims to keep the
simulator's decisions is checked against the recorded runs instead of a
live copy of older code.

Regenerate (only when a change is *meant* to alter decisions)::

    PYTHONPATH=src python tests/golden/record.py

The matrix:

* ``paper/<benchmark>/<policy>`` -- the eight Table-4 benchmarks x all
  registered policies, 8 jobs at the ``high`` rate, WG-traced;
* ``fleet/LAX`` -- 160 co-resident FLEET jobs on a warm profiling table,
  enough live jobs and active kernels to cross the scalar/array gates;
* ``sustained/<policy>/<variant>`` -- 2000 SUSTAINED jobs under LAX, RR
  and LAX-PREMA, streamed with and without retirement and as a finite
  list;
* ``dag-stream/LAX`` -- a stream of fork-join DAG jobs;
* ``fleet4/laxity/x2`` -- four devices behind the laxity router at twice
  the sustained rate;
* ``telemetry/...`` -- cells run with a telemetry hub attached, which
  also record what the hub observed: LSTM/LAX, HYBRID/LAX-PREMA and
  GMM/LAX at 64 jobs, the 160-job fleet cell, and a streamed, retired
  SUSTAINED run with a ring sink, 2 ms windows and the SLO monitor;
* ``tracker/LSTM/LAX`` -- LSTM/LAX with a prediction tracker, recording
  every tracked job's samples.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import random
import sys
from typing import Callable, Dict, Iterator, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
CORPUS_PATH = os.path.join(HERE, "corpus.json")

PAPER_JOBS = 8
FLEET_JOBS = 160
SUSTAINED_JOBS = 2000
SUSTAINED_POLICIES = ("LAX", "RR", "LAX-PREMA")
SUSTAINED_VARIANTS = ("stream-retired", "stream", "finite")
DAG_JOBS = 200
FLEET4_JOBS = 2000
TELEMETRY_JOBS = 64
#: Enough streamed jobs for several 2 ms windows and a ring sink that
#: evicts decision events.
SUSTAINED_TELEMETRY_JOBS = 6000
TELEMETRY_CELLS = (("LSTM", "LAX"), ("HYBRID", "LAX-PREMA"), ("GMM", "LAX"))


def _sha(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _trace_fields(trace) -> Dict[str, object]:
    if trace is None:
        return {}
    data = "\n".join(event.as_json_line() for event in trace.events)
    return {"trace_events": len(trace.events),
            "trace_sha256": hashlib.sha256(data.encode()).hexdigest()}


def _device_fields(system, metrics) -> Dict[str, object]:
    """The recorded facts of one finished single-device run."""
    admission = getattr(system.policy, "admission", None)
    fields: Dict[str, object] = {
        "jobs": metrics.num_jobs,
        "met": metrics.jobs_meeting_deadline,
        "rejected": metrics.jobs_rejected,
        "outcome_rows": len(metrics.outcomes),
        "outcomes_sha256": _sha([dataclasses.astuple(o)
                                 for o in metrics.outcomes]),
        "latencies_sha256": _sha(sorted(metrics.completed_latencies())),
        "admission": None if admission is None else [
            admission.accepted, admission.rejected,
            admission.fast_accepted, admission.late_rejected],
        "wgs_issued": system.dispatcher.wgs_issued,
        "wgs_preempted": system.dispatcher.wgs_preempted,
        "events_committed": system.sim.events_committed,
        "final_clock": system.sim.now,
    }
    stream = metrics.stream
    if stream is not None:
        fields["stream"] = {f.name: getattr(stream, f.name)
                            for f in dataclasses.fields(stream)
                            if f.name != "latencies"}
    return fields


def _finish(fields: Dict[str, object]) -> Dict[str, object]:
    fields["digest"] = _sha(fields)
    return fields


def _traced_run(policy: str, config, submit: Callable, retire: bool,
                prepare: Callable = None) -> Dict[str, object]:
    from repro import GPUSystem, TraceRecorder, make_scheduler
    trace = TraceRecorder(wg_events=True)
    system = GPUSystem(make_scheduler(policy), config, trace=trace,
                       retire=retire)
    if prepare is not None:
        prepare(system)
    submit(system)
    metrics = system.run()
    fields = _device_fields(system, metrics)
    fields.update(_trace_fields(trace))
    return _finish(fields)


def _observed_run(policy, config, submit: Callable, retire: bool,
                  hub=None, tracker=None,
                  prepare: Callable = None) -> Dict[str, object]:
    """One run with a telemetry hub and/or a prediction tracker attached;
    records the run's facts plus the digests of what they observed."""
    from repro import GPUSystem, make_scheduler
    kwargs = {} if tracker is None else {"tracker": tracker}
    system = GPUSystem(make_scheduler(policy, **kwargs), config,
                       telemetry=hub, retire=retire)
    if prepare is not None:
        prepare(system)
    submit(system)
    metrics = system.run()
    fields = _device_fields(system, metrics)
    if hub is not None:
        fields.update(_hub_fields(hub))
    if tracker is not None:
        fields.update(_tracker_fields(tracker))
    return _finish(fields)


def _hub_fields(hub) -> Dict[str, object]:
    """Decision events (exact counts, retained events' bytes), the
    window series and the SLO monitor's state."""
    decisions = hub.decisions
    data = "\n".join(event.as_json_line() for event in decisions.events)
    fields: Dict[str, object] = {
        "decision_counts": dict(sorted(decisions.counts().items())),
        "decisions_retained": len(decisions.events),
        "decisions_sha256": hashlib.sha256(data.encode()).hexdigest(),
    }
    if hub.windows is not None:
        records = hub.windows.records
        fields["windows"] = len(records)
        fields["windows_sha256"] = _sha([r.as_dict() for r in records])
    if hub.monitor is not None:
        fields["monitor_sha256"] = _sha(hub.monitor.snapshot())
    return fields


def _tracker_fields(tracker) -> Dict[str, object]:
    traces = tracker.traces()
    return {
        "tracked_jobs": len(traces),
        "tracker_samples": sum(len(trace.samples) for trace in traces),
        "tracker_sha256": _sha([dataclasses.astuple(trace)
                                for trace in traces]),
    }


# ----------------------------------------------------------------------
# Cells
# ----------------------------------------------------------------------

def _paper_cell(benchmark: str, policy: str):
    def run():
        from repro import SimConfig, build_workload
        config = SimConfig()
        jobs = build_workload(benchmark, "high", PAPER_JOBS, seed=1,
                              gpu=config.gpu)
        return _traced_run(policy, config,
                           lambda s: s.submit_workload(jobs), retire=False)
    return run


def _fleet_cell():
    from repro.core.calibration import warm_table
    from repro.workloads import (build_fleet_jobs, fleet_config,
                                 fleet_warm_rates)
    config = fleet_config()
    jobs = build_fleet_jobs(num_jobs=FLEET_JOBS, seed=7, gpu=config.gpu)
    return _traced_run(
        "LAX", config, lambda s: s.submit_workload(jobs), retire=False,
        prepare=lambda s: warm_table(s.profiler,
                                     fleet_warm_rates(config.gpu)))


def _sustained_cell(policy: str, variant: str):
    def run():
        from repro import SimConfig
        from repro.workloads.streaming import (SUSTAINED_RATES,
                                               build_sustained_jobs,
                                               sustained_source)
        config = SimConfig()
        rate = SUSTAINED_RATES["high"]
        if variant == "finite":
            jobs = build_sustained_jobs(SUSTAINED_JOBS, rate, 1, config.gpu)
            submit = lambda s: s.submit_workload(jobs)  # noqa: E731
        else:
            submit = lambda s: s.submit_stream(  # noqa: E731
                sustained_source(rate, seed=1, gpu=config.gpu).jobs(),
                max_jobs=SUSTAINED_JOBS)
        return _traced_run(policy, config, submit,
                           retire=variant == "stream-retired")
    return run


def _dag_jobs() -> Iterator:
    """Fork-join diamonds (k0 -> k1, k2 -> k3) with Poisson arrivals."""
    from repro import Job, KernelDescriptor
    from repro.units import US
    rng = random.Random(11)
    shapes = [KernelDescriptor(
        name=f"dag.k{i}", num_wgs=2 + i, threads_per_wg=256,
        wg_work=(20 + 10 * i) * US, vgpr_bytes_per_wg=8192,
        lds_bytes_per_wg=2048, context_bytes=64 * 1024,
        cu_concurrency=4) for i in range(4)]
    arrival = 0
    for job_id in range(DAG_JOBS):
        arrival += int(rng.expovariate(1.0 / (10 * US)))
        deadline = (2 + rng.randrange(8)) * 100 * US
        yield Job(job_id=job_id, benchmark="DAG", descriptors=shapes,
                  arrival=arrival, deadline=deadline,
                  dependencies={1: (0,), 2: (0,), 3: (1, 2)})


def _dag_cell():
    from repro import SimConfig
    config = SimConfig()
    return _traced_run(
        "LAX", config,
        lambda s: s.submit_stream(_dag_jobs()), retire=False)


def _fleet4_cell():
    from repro import ClusterSystem, SimConfig
    from repro.workloads.streaming import (SUSTAINED_RATES,
                                           sustained_fleet_source)
    fleet = ClusterSystem("LAX", SimConfig(), num_devices=4,
                          router="laxity", seed=1, retire=True, workers=1)
    fleet.submit_stream(
        sustained_fleet_source(4, 2 * SUSTAINED_RATES["high"], seed=1),
        max_jobs=FLEET4_JOBS)
    metrics = fleet.run()
    fields: Dict[str, object] = {
        "jobs": metrics.num_jobs,
        "met": metrics.jobs_meeting_deadline,
        "rejected": metrics.jobs_rejected,
        "lane_sizes": list(metrics.lane_sizes),
        "router_rejected": metrics.router_rejected,
        "decision_reasons": dict(sorted(metrics.decision_reasons.items())),
        "devices": [None if device is None
                    else _device_fields(device, run)
                    for device, run in zip(fleet.devices,
                                           metrics.per_device)],
    }
    return _finish(fields)


def _telemetry_paper_cell(benchmark: str, policy: str):
    def run():
        from repro import SimConfig, build_workload
        from repro.telemetry import TelemetryHub
        config = SimConfig()
        jobs = build_workload(benchmark, "high", TELEMETRY_JOBS, seed=1,
                              gpu=config.gpu)
        return _observed_run(policy, config,
                             lambda s: s.submit_workload(jobs), retire=False,
                             hub=TelemetryHub(self_profile=False))
    return run


def _telemetry_fleet_cell():
    from repro.core.calibration import warm_table
    from repro.telemetry import TelemetryHub
    from repro.workloads import (build_fleet_jobs, fleet_config,
                                 fleet_warm_rates)
    config = fleet_config()
    jobs = build_fleet_jobs(num_jobs=FLEET_JOBS, seed=7, gpu=config.gpu)
    return _observed_run(
        "LAX", config, lambda s: s.submit_workload(jobs), retire=False,
        hub=TelemetryHub(self_profile=False),
        prepare=lambda s: warm_table(s.profiler,
                                     fleet_warm_rates(config.gpu)))


def _telemetry_sustained_cell():
    """The layered benchmark's ``sustained_telemetry`` hub: ring sink,
    2 ms windows and the live SLO monitor on a streamed, retired run."""
    from repro import SimConfig
    from repro.telemetry import TelemetryHub
    from repro.units import MS
    from repro.workloads.streaming import SUSTAINED_RATES, sustained_source
    config = SimConfig()
    source = sustained_source(SUSTAINED_RATES["high"], seed=1,
                              gpu=config.gpu)
    return _observed_run(
        "LAX", config,
        lambda s: s.submit_stream(source.jobs(),
                                  max_jobs=SUSTAINED_TELEMETRY_JOBS),
        retire=True, hub=TelemetryHub(sink="ring:4096", window=2 * MS,
                                      slo_monitor=True))


def _tracker_cell():
    from repro import SimConfig, build_workload
    from repro.metrics.tracking import PredictionTracker
    config = SimConfig()
    jobs = build_workload("LSTM", "high", TELEMETRY_JOBS, seed=1,
                          gpu=config.gpu)
    return _observed_run("LAX", config, lambda s: s.submit_workload(jobs),
                         retire=False, tracker=PredictionTracker())


def cells() -> List[Tuple[str, Callable[[], Dict[str, object]]]]:
    """The corpus matrix as (name, run) pairs, in recording order."""
    from repro import ALL_SCHEDULERS, BENCHMARK_ORDER
    matrix = [(f"paper/{benchmark}/{policy}", _paper_cell(benchmark, policy))
              for benchmark in BENCHMARK_ORDER for policy in ALL_SCHEDULERS]
    matrix.append(("fleet/LAX", _fleet_cell))
    matrix += [(f"sustained/{policy}/{variant}",
                _sustained_cell(policy, variant))
               for policy in SUSTAINED_POLICIES
               for variant in SUSTAINED_VARIANTS]
    matrix.append(("dag-stream/LAX", _dag_cell))
    matrix.append(("fleet4/laxity/x2", _fleet4_cell))
    matrix += [(f"telemetry/{benchmark}/{policy}",
                _telemetry_paper_cell(benchmark, policy))
               for benchmark, policy in TELEMETRY_CELLS]
    matrix.append(("telemetry/fleet/LAX", _telemetry_fleet_cell))
    matrix.append(("telemetry/sustained/LAX/stream-retired",
                   _telemetry_sustained_cell))
    matrix.append(("tracker/LSTM/LAX", _tracker_cell))
    return matrix


def record() -> Dict[str, Dict[str, object]]:
    """Run every cell; name -> recorded fields."""
    return {name: run() for name, run in cells()}


def main() -> int:
    corpus = record()
    with open(CORPUS_PATH, "w") as handle:
        json.dump(corpus, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(corpus)} cells to {CORPUS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
