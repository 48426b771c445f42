"""The cluster tier: N independent device models behind one router.

:class:`ClusterSystem` implements the :class:`~repro.sim.protocol
.Device` protocol over a fleet of :class:`~repro.sim.device.GPUSystem`
instances — each its own command processor, dispatcher and scheduler,
completely unmodified.  A registry :class:`~repro.cluster.routers
.Router` assigns every arrival to exactly one device lane (or rejects
it at the router tier); each lane then runs as an ordinary
single-device simulation and the per-device summaries fold into one
:class:`~repro.cluster.metrics.ClusterMetrics`.

Every workload is one replayable arrival sequence, drawn lazily:
``submit_stream(source, max_jobs=)`` takes an
:class:`~repro.workloads.streaming.ArrivalSource`, and
``submit_workload(jobs)`` (or ``submit_stream`` over any other finite
iterable) sorts the list by ``(arrival, job_id)`` and replays that.

* Serially (``workers == 1``), one pass draws and routes every arrival
  exactly once and demultiplexes it into per-device FIFOs, while the
  devices advance in lockstep so those FIFOs stay short (see
  :meth:`ClusterSystem._run_lockstep`).  Devices nobody routes to are
  never built.
* With ``workers > 1``, a counting pass routes the sequence once in
  the parent (lane sizes, decision telemetry), then each live lane
  runs in a ``ProcessPoolExecutor`` worker — the same worker-process
  pattern as the sweep runner — which replays the sequence through a
  fresh router and keeps its own jobs.  Routing is a deterministic
  function of (policy, seed, job sequence), so the pool is
  bit-identical to the serial path.

Determinism: the router's RNG comes from ``derive_router_seed``, and
:attr:`ClusterSystem.device_seeds` exposes the documented per-device
spawn (:func:`~repro.cluster.routers.derive_device_seed`) for
stochastic device models; re-running the same spec is bit-identical.
"""

from __future__ import annotations

from collections import deque
from concurrent.futures import ProcessPoolExecutor
from itertools import islice
from time import perf_counter
from typing import (Callable, Deque, Dict, Iterable, Iterator, List,
                    Optional, Sequence, TYPE_CHECKING)

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
        # construction; every run routes its arrivals through this
        # instance once (the pool's workers replay their own copies).
        self.router: Router = make_router(router, num_devices,
                                          config.gpu, seed)
        make_scheduler(scheduler, **dict(self.scheduler_args))
        #: Per-device systems, populated by serial execution only.
        self.devices: List[Optional[GPUSystem]] = [None] * num_devices
        self._submitted = False
        # The arrival sequence: a zero-argument callable that starts it
        # afresh (``ArrivalSource.jobs`` or a sorted list's
        # ``__iter__``; both pickle), truncated at ``_max_jobs``.
        self._jobs: Optional[Callable[[], Iterator[Job]]] = None
        self._max_jobs: Optional[int] = None
        self._lookahead = 1
        self._decision_reasons: Dict[str, int] = {}
        self._rejected_sensitive = 0

    # ------------------------------------------------------------------
    # Submission (the Device protocol surface)
    # ------------------------------------------------------------------

    def submit_workload(self, jobs: Iterable[Job]) -> None:
        """Submit a finite job list, replayed in ``(arrival, job_id)``
        order; once."""
        self._mark_submitted()
        job_list = sorted(jobs, key=lambda j: (j.arrival, j.job_id))
        if not job_list:
            raise SimulationError("empty workload")
        self._jobs = job_list.__iter__
        self._max_jobs = len(job_list)

    def submit_stream(self, jobs, max_jobs: Optional[int] = None,
                      lookahead: int = 1) -> None:
        """Submit a lazy arrival stream; once.

        A replayable :class:`~repro.workloads.streaming.ArrivalSource`
        (``max_jobs`` required) keeps O(live) memory: its arrivals are
        drawn while the devices run.  Any other iterable is finite: its
        first ``max_jobs`` jobs are submitted as by
        :meth:`submit_workload`.
        """
        if lookahead < 1:
            raise SimulationError(
                f"stream lookahead must be >= 1, got {lookahead}")
        if hasattr(jobs, "jobs") and callable(jobs.jobs):
            self._mark_submitted()
            if max_jobs is None:
                raise SimulationError(
                    "cluster streaming from an ArrivalSource needs "
                    "max_jobs: the source is unbounded")
            if max_jobs < 1:
                raise SimulationError(
                    f"stream max_jobs must be >= 1, got {max_jobs}")
            self._jobs = jobs.jobs
            self._max_jobs = max_jobs
        else:
            self.submit_workload(islice(jobs, max_jobs))
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

    def _arrivals(self) -> Iterator[Job]:
        return islice(self._jobs(), self._max_jobs)

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
        per_device: List[Optional[object]] = [None] * self.num_devices
        diagnostics: List[Optional[Dict[str, object]]] = \
            [None] * self.num_devices
        started = perf_counter()
        if self.workers == 1:
            self._run_lockstep(per_device, diagnostics)
        else:
            self._run_pool(per_device, diagnostics)
        if self.router.routed == 0:
            raise SimulationError("empty workload")
        wall = perf_counter() - started
        fleet = ClusterMetrics(
            router=self.router_name, num_devices=self.num_devices,
            lane_sizes=tuple(self.router.lane_counts),
            router_rejected=self.router.rejected,
            router_rejected_sensitive=self._rejected_sensitive,
            per_device=tuple(per_device), diagnostics=tuple(diagnostics),
            decision_reasons=dict(self._decision_reasons),
            wall_seconds=wall, workers=self.workers)
        from ..validation.router import audit_routing
        audit_routing(self.router, fleet)
        if self.telemetry is not None:
            self.telemetry.flush()
        return fleet

    def _run_lockstep(self, per_device: List[Optional[object]],
                      diagnostics: List[Optional[Dict[str, object]]]
                      ) -> None:
        """Serial run: every arrival drawn and routed once.

        A :class:`_LaneDemux` feeds the devices' lanes.  A device is
        built when its first job is routed (idle devices stay
        unbuilt), and the built ones advance together: each step runs
        every engine through the demux frontier as it stood when the
        step began.  During a step each device delivers its arrivals up
        to that horizon and pulls its next job, which moves the
        frontier on, so only the arrivals between one horizon and the
        next wait in the FIFOs, however long the stream.  Devices
        share nothing but the demux, so each one fires exactly the
        events of a solo run over its lane.
        """
        demux = _LaneDemux(self)
        hubs = self.device_telemetry or [None] * self.num_devices
        running: List[int] = []
        wall = [0.0] * self.num_devices
        while True:
            while demux.fresh:
                index = demux.fresh.popleft()
                system = _build_device(self._device_spec(), hubs[index])
                self.devices[index] = system
                system.submit_stream(demux.lane(index),
                                     lookahead=self._lookahead)
                running.append(index)
            if demux.exhausted:
                break
            if not running:
                demux.pull()  # nothing routed to a device yet
                continue
            horizon = demux.frontier
            for index in running:
                begin = perf_counter()
                self.devices[index].advance(horizon)
                wall[index] += perf_counter() - begin
        for index in running:
            system = self.devices[index]
            begin = perf_counter()
            system.advance()
            per_device[index] = system.finish()
            diagnostics[index] = _device_diagnostics(
                system, wall[index] + perf_counter() - begin)

    def _run_pool(self, per_device: List[Optional[object]],
                  diagnostics: List[Optional[Dict[str, object]]]) -> None:
        """Pool run: route once here, then replay each live lane in a
        worker.

        The counting pass fixes the lane sizes and emits the decision
        telemetry; lanes cannot cross processes without an assignment
        table, so every worker re-derives its own from the arrival
        sequence.  A run whose router sheds every job starts no pool.
        """
        router = self.router
        for job in self._arrivals():
            self._record_decision(job, router.route(job, job.arrival))
        live = [d for d, size in enumerate(router.lane_counts) if size > 0]
        if not live:
            return
        payload = {
            "device": self._device_spec(),
            "jobs": self._jobs,
            "max_jobs": self._max_jobs,
            "lookahead": self._lookahead,
            "router": (self.router_name, self.num_devices, self.seed),
        }
        with ProcessPoolExecutor(
                max_workers=min(self.workers, len(live))) as pool:
            for index, metrics, diag in pool.map(
                    _device_worker, [dict(payload, index=d) for d in live]):
                per_device[index] = metrics
                diagnostics[index] = diag

    def _device_spec(self) -> tuple:
        """What :func:`_build_device` needs; plain values that pickle."""
        return (self.scheduler, self.scheduler_args, self.config,
                self.retire, self.validate)


class _LaneDemux:
    """One pass over the arrival sequence, fanned out to per-device FIFOs.

    :meth:`pull` draws the next arrival, routes it through the
    cluster's router, records the decision (so router telemetry keeps
    global arrival order) and queues the job on its device's FIFO.
    Device ``d``'s :meth:`lane` pops that FIFO; when it runs dry the
    lane pulls global arrivals in order until a ``d``-job or the end of
    the stream turns up.
    """

    def __init__(self, cluster: ClusterSystem) -> None:
        self._cluster = cluster
        self._stream = cluster._arrivals()
        self._buffers: List[Deque[Job]] = \
            [deque() for _ in range(cluster.num_devices)]
        #: Arrival time of the last pulled job: the lockstep horizon.
        self.frontier = 0
        #: True once the source (or the max_jobs budget) ran dry.
        self.exhausted = False
        #: Devices whose first job was routed, in routing order.
        self.fresh: Deque[int] = deque()

    def pull(self) -> None:
        """Draw, route and queue one arrival."""
        job = next(self._stream, None)
        if job is None:
            self.exhausted = True
            return
        cluster = self._cluster
        router = cluster.router
        decision = router.route(job, job.arrival)
        cluster._record_decision(job, decision)
        self.frontier = job.arrival
        device = decision.device
        if device != REJECTED:
            if router.lane_counts[device] == 1:  # its first job
                self.fresh.append(device)
            self._buffers[device].append(job)

    def lane(self, device: int) -> Iterator[Job]:
        """Device ``device``'s jobs, in arrival order, pulled on demand."""
        buffer = self._buffers[device]
        while True:
            while not buffer:
                if self.exhausted:
                    return
                self.pull()
            yield buffer.popleft()


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


def _build_device(spec: tuple, telemetry=None) -> GPUSystem:
    """A fresh device for one lane, from :meth:`ClusterSystem._device_spec`."""
    scheduler, scheduler_args, config, retire, validate = spec
    validator = None
    if validate:
        from ..validation.invariants import InvariantChecker
        validator = InvariantChecker()
    return GPUSystem(make_scheduler(scheduler, **dict(scheduler_args)),
                     config, telemetry=telemetry, validator=validator,
                     retire=retire)


def _device_worker(payload: Dict[str, object]):
    """Run one device lane in a pool worker; module-level, picklable.

    Mirrors the ``harness.runner._pool_worker`` pattern: rebuild
    everything from the pickled payload, replay the arrival sequence
    through a fresh router, keep this lane's jobs, return plain
    picklable results.
    """
    index = payload["index"]
    system = _build_device(payload["device"])
    router_name, num_devices, seed = payload["router"]
    router = make_router(router_name, num_devices, system.config.gpu, seed)
    lane = (job for job in islice(payload["jobs"](), payload["max_jobs"])
            if router.route(job, job.arrival).device == index)
    system.submit_stream(lane, lookahead=payload["lookahead"])
    started = perf_counter()
    metrics = system.run()
    return index, metrics, _device_diagnostics(system,
                                               perf_counter() - started)
