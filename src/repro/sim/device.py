"""Top-level assembly: one GPU system ready to run a workload.

:class:`GPUSystem` wires the simulator, compute units, WG dispatcher,
queue pool, command processor, profiling table, host channel, energy meter
and metrics collector together around a scheduling policy, then runs a job
list to completion.  This is the object the public API and the experiment
harness construct.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, TYPE_CHECKING

from ..config import DEFAULT_CONFIG, SimConfig
from ..core.profiling import KernelProfilingTable
from ..errors import SimulationError
from ..metrics.collector import MetricsCollector, RunMetrics
from .command_processor import CommandProcessor
from .dispatcher import WGDispatcher
from .energy import EnergyMeter
from .engine import Simulator
from .host import Host
from .job import Job
from .queues import QueuePool

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..schedulers.base import SchedulerPolicy
    from ..telemetry.hub import TelemetryHub


class GPUSystem:
    """A simulated GPU + host pair driven by one scheduling policy.

    ``trace`` attaches a bare :class:`~repro.sim.trace.TraceRecorder`;
    ``telemetry`` attaches a full :class:`~repro.telemetry.hub
    .TelemetryHub` (lifecycle trace, decision log, metrics registry and
    simulator self-profiler).  With neither, the telemetry layer stays
    completely detached and runs are bit-identical to the untraced path.
    ``retire=True`` folds each terminal job into the metrics' stream
    aggregate and releases its kernel state (O(live) memory for long
    streams; ``RunMetrics`` then carries aggregates, not per-job rows).
    """

    def __init__(self, policy: "SchedulerPolicy",
                 config: SimConfig = DEFAULT_CONFIG,
                 trace=None, telemetry: "TelemetryHub" = None,
                 validator=None, retire: bool = False) -> None:
        from ..schedulers.base import DeviceContext

        self.config = config
        self.policy = policy
        #: Optional TelemetryHub collecting this run's full telemetry.
        self.telemetry = telemetry
        if trace is None and telemetry is not None:
            trace = telemetry.trace
        #: Optional TraceRecorder capturing this run's events.
        self.trace = trace
        self.sim = Simulator(max_time=config.max_sim_time)
        if telemetry is not None and telemetry.profiler is not None:
            self.sim.profiler = telemetry.profiler
        self.energy = EnergyMeter(config.energy)
        self.dispatcher = WGDispatcher(self.sim, config.gpu, self.energy)
        self.pool = QueuePool(config.gpu.num_queues)
        self.profiler = KernelProfilingTable(config.overheads.lax_update_period)
        self.dispatcher.profiler = self.profiler
        self.dispatcher.trace = trace
        self.metrics = MetricsCollector(
            registry=telemetry.registry if telemetry is not None else None)
        self.metrics.trace = trace
        if telemetry is not None and telemetry.windows is not None:
            self.metrics.windows = telemetry.windows
            if telemetry.windows.occupancy_probe is None:
                cus = self.dispatcher.cus
                telemetry.windows.occupancy_probe = \
                    lambda: sum(cu.num_residents for cu in cus)
        self.ctx = DeviceContext(self.sim, config, self.pool,
                                 self.dispatcher, self.profiler, self.metrics,
                                 energy=self.energy)
        self.ctx.telemetry = telemetry
        self.cp = CommandProcessor(self.sim, config.overheads, self.pool,
                                   self.dispatcher, policy, self.profiler,
                                   self.metrics)
        # Job retirement (streaming memory mode): fold each terminal job
        # into the metrics stream aggregate and release its kernel state.
        self.cp.retire = bool(retire)
        self.cp.trace = trace
        self.ctx.cp = self.cp
        self.host = Host(self.sim, config.overheads, self.cp, self.metrics)
        self.ctx.host = self.host
        self.dispatcher.attach_policy(policy)
        policy.bind(self.ctx)
        policy.start()
        #: Optional InvariantChecker auditing this run (see
        #: :mod:`repro.validation.invariants`); attaching threads it
        #: through the simulator, CP, dispatcher and every CU.
        self.validator = validator
        if validator is not None:
            validator.attach(self)
        self._submitted = False
        self._advanced = False

    def submit_workload(self, jobs: Iterable[Job]) -> None:
        """Submit a finite job list; may be called once per system.

        A finite list is a stream in ``(arrival, job_id)`` order: the
        sorted list goes to :meth:`submit_stream`, so the engine holds
        one pending arrival at a time rather than the whole list.
        """
        self.submit_stream(sorted(jobs, key=lambda j: (j.arrival, j.job_id)))

    def submit_stream(self, jobs: Iterable[Job],
                      max_jobs: Optional[int] = None,
                      lookahead: int = 1) -> "StreamFeeder":
        """Feed a lazy job stream; only in-flight jobs are materialized.

        ``jobs`` may be an unbounded generator with monotone
        non-decreasing arrival times (ties fire in stream order);
        ``max_jobs`` truncates it.  The feeder keeps at most
        ``lookahead`` future arrivals scheduled: each delivery pulls the
        next job from the generator, so memory holds the live jobs plus
        the look-ahead window instead of the whole workload.  Arrival
        events ride the engine's dedicated arrival lane
        (:meth:`~repro.sim.engine.Simulator.schedule_arrival`).  This is
        the only way arrivals enter a run; :meth:`submit_workload` is
        this over a list sorted by ``(arrival, job_id)``.
        """
        if self._submitted:
            raise SimulationError("workload already submitted")
        self._submitted = True
        feeder = StreamFeeder(self, jobs, max_jobs, lookahead)
        feeder.prime()
        return feeder

    def run(self) -> RunMetrics:
        """Run the workload to completion and return the run summary."""
        self.advance()
        return self.finish()

    def advance(self, until: Optional[int] = None) -> None:
        """Drive the engine through simulated time ``until``; resumable.

        ``None`` runs to completion.  A caller slicing the run (the
        cluster's lockstep driver) ends with ``advance()`` and then
        :meth:`finish`, exactly what :meth:`run` does in one go.
        """
        if not self._submitted:
            raise SimulationError("no workload submitted")
        if not self._advanced:
            self._advanced = True
            if self.sim.profiler is not None:
                self.sim.profiler.begin_run()
        self.sim.run(until)

    def finish(self) -> RunMetrics:
        """Close a drained run: audit the drain, fold and return metrics."""
        profiler = self.sim.profiler
        if profiler is not None:
            profiler.end_run(self.sim.events_fired, self.sim.now)
        if self.pool.num_bound or self.pool.backlog:
            raise SimulationError(
                f"run drained with {self.pool.num_bound} bound jobs and "
                f"{len(self.pool.backlog)} backlogged jobs; "
                "a kernel chain stalled")
        end_time = self.metrics.last_completion or self.sim.now
        telemetry = self.telemetry
        if telemetry is not None:
            if telemetry.windows is not None:
                telemetry.windows.finalize(end_time)
            telemetry.flush()
        metrics = self.metrics.finalize(
            end_time, self.energy,
            wgs_preempted=self.dispatcher.wgs_preempted)
        if self.validator is not None:
            self.validator.on_run_end(self, metrics)
        return metrics


class StreamFeeder:
    """Pulls jobs from a generator and schedules their arrivals lazily.

    Built by :meth:`GPUSystem.submit_stream`.  The feeder is the only
    reference to jobs that have not yet arrived, so with retirement on
    the run holds O(live + lookahead) job state regardless of how many
    jobs flow through.
    """

    def __init__(self, system: GPUSystem, jobs: Iterable[Job],
                 max_jobs: Optional[int], lookahead: int) -> None:
        if lookahead < 1:
            raise SimulationError(
                f"stream lookahead must be >= 1, got {lookahead}")
        if max_jobs is not None and max_jobs < 1:
            raise SimulationError(
                f"stream max_jobs must be >= 1, got {max_jobs}")
        self._system = system
        self._iter: Iterator[Job] = iter(jobs)
        self._remaining = max_jobs
        self._lookahead = lookahead
        self._last_arrival: Optional[int] = None
        #: Jobs whose arrival has been scheduled so far.
        self.fed = 0
        #: True once the generator (or the max_jobs budget) ran dry.
        self.exhausted = False

    def prime(self) -> None:
        """Schedule the first ``lookahead`` arrivals; reject empty streams."""
        for _ in range(self._lookahead):
            if not self._pull():
                break
        if self.fed == 0:
            raise SimulationError("empty workload")

    def _pull(self) -> bool:
        if self.exhausted:
            return False
        if self._remaining is not None and self._remaining <= 0:
            self.exhausted = True
            return False
        job = next(self._iter, None)
        if job is None:
            self.exhausted = True
            return False
        if (self._last_arrival is not None
                and job.arrival < self._last_arrival):
            raise SimulationError(
                f"stream arrivals must be non-decreasing: job "
                f"{job.job_id} arrives at {job.arrival} after "
                f"{self._last_arrival}")
        self._last_arrival = job.arrival
        if self._remaining is not None:
            self._remaining -= 1
        self._system.sim.schedule_arrival(job.arrival, self._deliver, job)
        self.fed += 1
        return True

    def _deliver(self, job: Job) -> None:
        system = self._system
        system.metrics.on_job_arrival(job, system.sim.now)
        system.policy.on_job_arrival(job)
        self._pull()


def run_workload(policy: "SchedulerPolicy", jobs: Iterable[Job],
                 config: SimConfig = DEFAULT_CONFIG) -> RunMetrics:
    """Convenience one-shot: build a system, run ``jobs``, return metrics."""
    system = GPUSystem(policy, config)
    system.submit_workload(jobs)
    return system.run()
