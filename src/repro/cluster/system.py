"""The cluster tier: N independent device models behind one router.

:class:`ClusterSystem` implements the :class:`~repro.sim.protocol
.Device` protocol over a fleet of :class:`~repro.sim.device.GPUSystem`
instances — each its own command processor, dispatcher and scheduler,
completely unmodified.  A registry :class:`~repro.cluster.routers
.Router` assigns every arrival to exactly one device lane (or rejects
it at the router tier); each lane then runs as an ordinary
single-device simulation and the per-device summaries fold into one
:class:`~repro.cluster.metrics.ClusterMetrics`.

Two workload paths, mirroring the single-device API:

* ``submit_workload(jobs)`` routes the finite list up front and holds
  the per-device lanes in memory;
* ``submit_stream(source, max_jobs=)`` with a replayable
  :class:`~repro.workloads.streaming.ArrivalSource` keeps O(live)
  memory: a first counting pass routes the stream (emitting router
  telemetry), then each device replays the deterministic source
  through a fresh router and keeps only its own lane.  Plain finite
  iterables are accepted too, at the cost of materializing them.

Devices are fully independent once lanes are fixed, so ``workers > 1``
fans the per-device simulations out over a ``ProcessPoolExecutor`` —
the same worker-process pattern as the sweep runner — and is
bit-identical to serial execution: a worker either re-receives the
pickled lane (finite path) or re-derives it by deterministic router
replay (streamed path).

Determinism: per-device seeds come from the documented spawn scheme
(:func:`~repro.cluster.routers.derive_device_seed`), the router's own
RNG from ``derive_router_seed``; re-running the same spec is
bit-identical, and device ``i``'s seed never depends on fleet size.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from itertools import islice
from time import perf_counter
from typing import Dict, Iterable, List, Optional, Sequence, TYPE_CHECKING

from ..config import DEFAULT_CONFIG, SimConfig
from ..errors import ConfigError, SimulationError
from ..schedulers.registry import make_scheduler
from ..sim.device import GPUSystem
from ..sim.job import Job
from .metrics import ClusterMetrics
from .routers import REJECTED, Router, derive_device_seed, make_router

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..telemetry.hub import TelemetryHub


class ClusterSystem:
    """A routed fleet of independent simulated GPUs (a ``Device``).

    ``telemetry`` receives the *router's* decision stream
    (``router_decision`` events through the schema-validated hub);
    per-device telemetry attaches via ``device_telemetry`` (one hub
    per device, serial execution only — hubs do not cross process
    boundaries).  ``validate=True`` attaches a fresh
    :class:`~repro.validation.invariants.InvariantChecker` to every
    device (pool-safe, same contract as ``RunOptions.validate``) and
    the router-conservation audit always runs.
    """

    def __init__(self, scheduler: str = "LAX",
                 config: SimConfig = DEFAULT_CONFIG,
                 num_devices: int = 1, router: str = "round-robin",
                 seed: int = 1, scheduler_args: Sequence = (),
                 telemetry: "TelemetryHub" = None,
                 retire: bool = False, validate: bool = False,
                 workers: int = 1,
                 device_telemetry: Optional[Sequence] = None) -> None:
        if num_devices < 1:
            raise ConfigError(
                f"cluster needs at least one device, got {num_devices}")
        if workers < 1:
            raise ConfigError(f"workers must be >= 1, got {workers}")
        if device_telemetry is not None:
            if workers > 1:
                raise ConfigError(
                    "device_telemetry requires serial execution "
                    "(workers=1); telemetry hubs do not cross processes")
            if len(device_telemetry) != num_devices:
                raise ConfigError(
                    f"device_telemetry needs one entry per device "
                    f"({num_devices}), got {len(device_telemetry)}")
        self.scheduler = scheduler
        self.config = config
        self.num_devices = num_devices
        self.router_name = router
        self.seed = seed
        self.scheduler_args = tuple(scheduler_args)
        self.telemetry = telemetry
        self.retire = bool(retire)
        self.validate = validate
        self.workers = workers
        self.device_telemetry = device_telemetry
        #: Documented per-device seed spawn (stable under fleet growth).
        self.device_seeds = tuple(derive_device_seed(seed, d)
                                  for d in range(num_devices))
        # Build eagerly so bad router/scheduler names fail at
        # construction; finite submissions route through this instance.
        self.router: Router = make_router(router, num_devices,
                                          config.gpu, seed)
        make_scheduler(scheduler, **dict(self.scheduler_args))
        #: Per-device systems, populated by serial execution only.
        self.devices: List[Optional[GPUSystem]] = [None] * num_devices
        self._submitted = False
        self._mode: Optional[str] = None
        self._lanes: Optional[List[List[Job]]] = None
        self._source = None
        self._max_jobs: Optional[int] = None
        self._lookahead = 1
        self._decision_reasons: Dict[str, int] = {}
        self._rejected_sensitive = 0

    # ------------------------------------------------------------------
    # Submission (the Device protocol surface)
    # ------------------------------------------------------------------

    def submit_workload(self, jobs: Iterable[Job]) -> None:
        """Route a finite job list into per-device lanes; once."""
        self._mark_submitted()
        job_list = sorted(jobs, key=lambda j: (j.arrival, j.job_id))
        if not job_list:
            raise SimulationError("empty workload")
        self._mode = "finite"
        self._lanes = [[] for _ in range(self.num_devices)]
        for job in job_list:
            decision = self.router.route(job, job.arrival)
            self._record_decision(job, decision)
            if decision.device != REJECTED:
                self._lanes[decision.device].append(job)

    def submit_stream(self, jobs, max_jobs: Optional[int] = None,
                      lookahead: int = 1) -> None:
        """Route a lazy arrival stream; once.

        A replayable :class:`~repro.workloads.streaming.ArrivalSource`
        (``max_jobs`` required) keeps O(live) memory via deterministic
        router replay; any other iterable is materialized up front and
        routed as a finite list.
        """
        self._mark_submitted()
        if lookahead < 1:
            raise SimulationError(
                f"stream lookahead must be >= 1, got {lookahead}")
        if hasattr(jobs, "jobs") and callable(jobs.jobs):
            if max_jobs is None:
                raise SimulationError(
                    "cluster streaming from an ArrivalSource needs "
                    "max_jobs: the stream is replayed per device and "
                    "must be bounded")
            if max_jobs < 1:
                raise SimulationError(
                    f"stream max_jobs must be >= 1, got {max_jobs}")
            self._mode = "stream"
            self._source = jobs
            self._max_jobs = max_jobs
            self._lookahead = lookahead
        else:
            self._submitted = False  # re-entering via the finite path
            stream = iter(jobs)
            if max_jobs is not None:
                stream = islice(stream, max_jobs)
            self.submit_workload(list(stream))
            self._lookahead = lookahead

    def _mark_submitted(self) -> None:
        if self._submitted:
            raise SimulationError("workload already submitted")
        self._submitted = True

    # ------------------------------------------------------------------
    # Routing bookkeeping
    # ------------------------------------------------------------------

    def _record_decision(self, job: Job, decision) -> None:
        self._decision_reasons[decision.reason] = \
            self._decision_reasons.get(decision.reason, 0) + 1
        if decision.device == REJECTED and job.deadline is not None:
            self._rejected_sensitive += 1
        hub = self.telemetry
        if hub is not None and hub.decisions is not None:
            fields: Dict[str, object] = {
                "job_id": decision.job_id,
                "device": decision.device,
                "accepted": decision.accepted,
                "reason": decision.reason,
                "backlog": decision.backlog,
            }
            if decision.laxity is not None:
                fields["laxity"] = decision.laxity
            hub.decisions.emit(job.arrival, "router_decision",
                               self.router_name, **fields)

    def _replay_jobs(self) -> Iterable[Job]:
        return islice(self._source.jobs(), self._max_jobs)

    def _routing_pass(self) -> None:
        """Pass 1 of a streamed run: route and count, keep no jobs."""
        router = self.router
        for job in self._replay_jobs():
            self._record_decision(job, router.route(job, job.arrival))
        if router.routed == 0:
            raise SimulationError("empty workload")

    def _lane_stream(self, index: int) -> Iterable[Job]:
        """Device ``index``'s lane, re-derived by router replay.

        A fresh router over the replayed source makes the identical
        decisions (deterministic policy + seeded RNG), so each device
        — possibly in its own worker process — filters the shared
        stream down to its own lane without an assignment table.
        """
        router = make_router(self.router_name, self.num_devices,
                             self.config.gpu, self.seed)
        for job in self._replay_jobs():
            if router.route(job, job.arrival).device == index:
                yield job

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def run(self) -> ClusterMetrics:
        """Run every device lane to completion; fold the fleet summary.

        Serial when ``workers == 1`` (devices stay inspectable via
        :attr:`devices`); otherwise per-device simulations fan out over
        a process pool, bit-identical to serial execution.
        """
        if not self._submitted:
            raise SimulationError("no workload submitted")
        if self._mode == "stream":
            self._routing_pass()
        lane_sizes = tuple(self.router.lane_counts)
        live = [d for d in range(self.num_devices) if lane_sizes[d] > 0]
        per_device: List[Optional[object]] = [None] * self.num_devices
        diagnostics: List[Optional[Dict[str, object]]] = \
            [None] * self.num_devices
        started = perf_counter()
        if self.workers > 1 and len(live) > 1:
            payloads = [self._worker_payload(d) for d in live]
            with ProcessPoolExecutor(
                    max_workers=min(self.workers, len(live))) as pool:
                for index, metrics, diag in pool.map(_device_worker,
                                                     payloads):
                    per_device[index] = metrics
                    diagnostics[index] = diag
        else:
            for d in live:
                metrics, diag = self._run_device(d)
                per_device[d] = metrics
                diagnostics[d] = diag
        wall = perf_counter() - started
        fleet = ClusterMetrics(
            router=self.router_name, num_devices=self.num_devices,
            lane_sizes=lane_sizes, router_rejected=self.router.rejected,
            router_rejected_sensitive=self._rejected_sensitive,
            per_device=tuple(per_device), diagnostics=tuple(diagnostics),
            decision_reasons=dict(self._decision_reasons),
            wall_seconds=wall, workers=self.workers)
        from ..validation.router import audit_routing
        audit_routing(self.router, fleet)
        if self.telemetry is not None:
            self.telemetry.flush()
        return fleet

    def _build_device(self, index: int,
                      telemetry=None) -> GPUSystem:
        policy = make_scheduler(self.scheduler, **dict(self.scheduler_args))
        validator = None
        if self.validate:
            from ..validation.invariants import InvariantChecker
            validator = InvariantChecker()
        return GPUSystem(policy, self.config, telemetry=telemetry,
                         validator=validator, retire=self.retire)

    def _run_device(self, index: int):
        hub = None
        if self.device_telemetry is not None:
            hub = self.device_telemetry[index]
        system = self._build_device(index, telemetry=hub)
        self.devices[index] = system
        if self._mode == "finite":
            system.submit_workload(self._lanes[index])
        else:
            system.submit_stream(self._lane_stream(index),
                                 lookahead=self._lookahead)
        started = perf_counter()
        metrics = system.run()
        return metrics, _device_diagnostics(system,
                                            perf_counter() - started)

    def _worker_payload(self, index: int) -> Dict[str, object]:
        if self._mode == "finite":
            workload = ("jobs", self._lanes[index])
        else:
            workload = ("stream", self._source, self._max_jobs,
                        self.router_name, self.seed, self.num_devices)
        return {
            "index": index,
            "scheduler": self.scheduler,
            "scheduler_args": self.scheduler_args,
            "config": self.config,
            "retire": self.retire,
            "validate": self.validate,
            "lookahead": self._lookahead,
            "workload": workload,
        }


def _device_diagnostics(system: GPUSystem,
                        wall_seconds: float) -> Dict[str, object]:
    """The engine-state signature the identity tests compare."""
    admission = getattr(system.policy, "admission", None)
    return {
        "events_fired": system.sim.events_fired,
        "now": system.sim.now,
        "wgs_issued": system.dispatcher.wgs_issued,
        "wgs_preempted": system.dispatcher.wgs_preempted,
        "commands_sent": system.host.commands_sent,
        "admission": (admission.accepted, admission.rejected)
        if admission is not None else None,
        "wall_seconds": wall_seconds,
    }


def _device_worker(payload: Dict[str, object]):
    """Run one device lane in a pool worker; module-level, picklable.

    Mirrors the ``harness.runner._pool_worker`` pattern: rebuild
    everything from the pickled payload, return plain picklable
    results.
    """
    index = payload["index"]
    policy = make_scheduler(payload["scheduler"],
                            **dict(payload["scheduler_args"]))
    validator = None
    if payload["validate"]:
        from ..validation.invariants import InvariantChecker
        validator = InvariantChecker()
    system = GPUSystem(policy, payload["config"], validator=validator,
                       retire=payload["retire"])
    workload = payload["workload"]
    if workload[0] == "jobs":
        system.submit_workload(workload[1])
    else:
        _, source, max_jobs, router_name, seed, num_devices = workload
        config = payload["config"]
        router = make_router(router_name, num_devices, config.gpu, seed)
        lane = (job for job in islice(source.jobs(), max_jobs)
                if router.route(job, job.arrival).device == index)
        system.submit_stream(lane, lookahead=payload["lookahead"])
    started = perf_counter()
    metrics = system.run()
    return index, metrics, _device_diagnostics(system,
                                               perf_counter() - started)
