"""Run-time metrics collection.

The :class:`MetricsCollector` is wired into the CP's event path and keeps
one :class:`JobOutcome` per job plus device-level counters.  At the end of
a run :meth:`finalize` snapshots everything into a :class:`RunMetrics`,
the object the harness aggregates into the paper's tables and figures.

Streaming runs (see :mod:`repro.workloads.streaming`) retire jobs as they
reach a terminal state: :meth:`MetricsCollector.retire_job` pops the job's
:class:`JobOutcome` and folds it into a :class:`StreamAggregate`, so the
collector holds O(live jobs) state instead of O(all jobs).  The aggregate
also banks the work-ledger terms the validation oracles need (completed
lane-time, preempted bounds, offered work), because the job's kernel
chain is released right after the fold.  :class:`RunMetrics` adds the
aggregate's contributions back into every derived metric, so downstream
consumers (tables, reports, ``deadline_counts``) see identical numbers
whether jobs were retired or kept.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, TYPE_CHECKING

from ..errors import SimulationError
from ..telemetry.registry import MetricsRegistry
from ..units import MS, SEC
from .percentile import ReservoirEstimator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..sim.energy import EnergyMeter
    from ..sim.job import Job
    from ..sim.kernel import KernelInstance


@dataclass
class JobOutcome:
    """Final record of one job's trip through the system."""

    job_id: int
    benchmark: str
    tag: Optional[str]
    arrival: int
    #: Relative deadline; None for latency-insensitive work.
    deadline: Optional[int]
    num_kernels: int
    total_wgs: int
    accepted: Optional[bool] = None
    completion: Optional[int] = None
    #: WG completion events attributed to this job (incl. re-execution).
    wgs_executed: int = 0

    @property
    def latency(self) -> Optional[int]:
        """Response time in ticks; None for rejected/unfinished jobs."""
        if self.completion is None:
            return None
        return self.completion - self.arrival

    @property
    def is_latency_sensitive(self) -> bool:
        """Whether the job carried a deadline."""
        return self.deadline is not None

    @property
    def met_deadline(self) -> bool:
        """Completed at or before the absolute deadline."""
        return (self.deadline is not None
                and self.completion is not None
                and self.completion <= self.arrival + self.deadline)


@dataclass
class StreamAggregate:
    """Folded outcomes of retired jobs (the streaming memory mode).

    One instance accumulates everything :class:`RunMetrics` would
    otherwise derive from the retired jobs' :class:`JobOutcome` records,
    at O(1) memory per run: counts, WG attribution, a seeded reservoir
    of completed-job latencies (exact while the run stays within the
    reservoir capacity, an unbiased sample beyond), and the work-ledger
    terms (:mod:`repro.validation.oracles`) that must be banked before
    :meth:`repro.sim.job.Job.retire` clears the kernel chain.
    """

    jobs: int = 0
    completed: int = 0
    rejected: int = 0
    latency_sensitive: int = 0
    deadline_met: int = 0
    wgs_executed: int = 0
    #: WGs executed by deadline-meeting jobs (Figure 9 numerator).
    useful_wgs: int = 0
    #: Lane-ticks the retired jobs offered (sum of job total work).
    offered_work: float = 0.0
    #: Lane-ticks owed by retired jobs' completed WGs.
    completed_work: float = 0.0
    completed_wgs: int = 0
    #: Upper bound on lane-ticks lost to retired jobs' evicted WGs.
    preempted_bound: float = 0.0
    #: Largest CU concurrency any retired job's kernel declared.
    max_concurrency: int = 0
    latencies: ReservoirEstimator = field(
        default_factory=ReservoirEstimator)

    def fold(self, outcome: JobOutcome, job: "Job") -> None:
        """Fold one terminal job; call before its kernels are released."""
        self.jobs += 1
        if outcome.accepted is False:
            self.rejected += 1
        if outcome.is_latency_sensitive:
            self.latency_sensitive += 1
        if outcome.completion is not None:
            self.completed += 1
            self.latencies.add(outcome.latency)
        if outcome.met_deadline:
            self.deadline_met += 1
            self.useful_wgs += outcome.wgs_executed
        self.wgs_executed += outcome.wgs_executed
        self.offered_work += job.total_work
        for kernel in job.kernels:
            descriptor = kernel.descriptor
            work = descriptor.wg_work
            self.completed_work += kernel.wgs_completed * work
            self.completed_wgs += kernel.wgs_completed
            self.preempted_bound += kernel.wgs_preempted * work
            if descriptor.cu_concurrency > self.max_concurrency:
                self.max_concurrency = descriptor.cu_concurrency


class MetricsCollector:
    """Accumulates job outcomes and device counters during a run.

    The device counters live in a :class:`~repro.telemetry.registry
    .MetricsRegistry` (a private one by default, or the hub's when a
    telemetry hub is attached), so every count the collector sees is
    exportable as Prometheus text / JSON without a second bookkeeping
    path.  The old integer attributes (``arrivals`` etc.) remain as
    read-only properties.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self._outcomes: Dict[int, JobOutcome] = {}
        #: StreamAggregate of retired jobs; created on first retirement
        #: so finite (non-retiring) runs carry no stream state at all.
        self.stream: Optional[StreamAggregate] = None
        #: Optional TraceRecorder mirroring job/kernel lifecycle events.
        self.trace = None
        #: Optional WindowedMetrics fed from the same hooks (wired by
        #: GPUSystem when the telemetry hub carries windows).
        self.windows = None
        self.registry = registry if registry is not None \
            else MetricsRegistry(prefix="repro")
        reg = self.registry
        self._arrivals = reg.counter(
            "jobs_arrived_total", "Jobs that entered the system")
        self._admitted = reg.counter(
            "jobs_admitted_total", "Jobs accepted by admission control")
        self._rejected = reg.counter(
            "jobs_rejected_total",
            "Jobs refused at admission or late-rejected")
        self._completed = reg.counter(
            "jobs_completed_total", "Jobs whose last kernel finished")
        self._deadline_met = reg.counter(
            "jobs_deadline_met_total",
            "Latency-sensitive jobs completed by their deadline")
        self._deadline_missed = reg.counter(
            "jobs_deadline_missed_total",
            "Latency-sensitive jobs completed after their deadline")
        self._wg_completions = reg.counter(
            "wg_completions_total", "Workgroup executions finished")
        self._kernel_completions = reg.counter(
            "kernel_completions_total", "Kernel launches fully finished")
        self._latency_ms = reg.histogram(
            "job_latency_ms", "Completed job response time (milliseconds)")
        self.first_arrival: Optional[int] = None
        self.last_completion: Optional[int] = None

    # -- registry-backed counter views ---------------------------------

    @property
    def arrivals(self) -> int:
        """Jobs that arrived."""
        return int(self._arrivals.value)

    @property
    def admitted(self) -> int:
        """Jobs accepted by admission control."""
        return int(self._admitted.value)

    @property
    def rejected(self) -> int:
        """Jobs refused by admission control."""
        return int(self._rejected.value)

    @property
    def completed(self) -> int:
        """Jobs completed."""
        return int(self._completed.value)

    @property
    def wg_completions(self) -> int:
        """WG executions finished."""
        return int(self._wg_completions.value)

    @property
    def kernel_completions(self) -> int:
        """Kernel launches finished."""
        return int(self._kernel_completions.value)

    # ------------------------------------------------------------------
    # Event hooks (called by the CP / arrival source)
    # ------------------------------------------------------------------

    def on_job_arrival(self, job: "Job", now: int) -> None:
        """Register a job entering the system."""
        if job.job_id in self._outcomes:
            raise SimulationError(f"job {job.job_id} arrived twice")
        self._outcomes[job.job_id] = JobOutcome(
            job_id=job.job_id, benchmark=job.benchmark, tag=job.tag,
            arrival=job.arrival, deadline=job.deadline,
            num_kernels=job.num_kernels, total_wgs=job.total_wgs)
        self._arrivals.inc()
        if self.first_arrival is None or now < self.first_arrival:
            self.first_arrival = now
        if self.trace is not None:
            self.trace.emit(now, "job_arrival", job_id=job.job_id)
        if self.windows is not None:
            self.windows.on_arrival(now)

    def on_job_admitted(self, job: "Job") -> None:
        """Admission accepted the job."""
        self._outcome(job).accepted = True
        self._admitted.inc()
        if self.trace is not None:
            self.trace.emit(job.start_time or job.arrival, "job_admitted",
                            job_id=job.job_id)
        if self.windows is not None:
            self.windows.on_admitted(job.start_time or job.arrival)

    def on_job_rejected(self, job: "Job") -> None:
        """Admission refused the job."""
        self._outcome(job).accepted = False
        self._rejected.inc()
        if self.trace is not None:
            self.trace.emit(job.rejection_time or job.arrival,
                            "job_rejected", job_id=job.job_id)
        if self.windows is not None:
            self.windows.on_rejected(job.rejection_time or job.arrival)

    def on_wg_complete(self, kernel: "KernelInstance") -> None:
        """One WG execution finished."""
        self._wg_completions.inc()
        self._outcome(kernel.job).wgs_executed += 1

    def on_kernel_complete(self, kernel: "KernelInstance") -> None:
        """One kernel launch fully finished."""
        self._kernel_completions.inc()
        if self.trace is not None:
            self.trace.emit(kernel.finish_time, "kernel_complete",
                            job_id=kernel.job.job_id, kernel=kernel.name,
                            detail=kernel.num_wgs)

    def on_job_complete(self, job: "Job") -> None:
        """Job's last kernel finished."""
        outcome = self._outcome(job)
        outcome.completion = job.completion_time
        self._completed.inc()
        if outcome.latency is not None:
            self._latency_ms.observe(outcome.latency / MS)
        if outcome.is_latency_sensitive:
            if outcome.met_deadline:
                self._deadline_met.inc()
            else:
                self._deadline_missed.inc()
        if (self.last_completion is None
                or job.completion_time > self.last_completion):
            self.last_completion = job.completion_time
        if self.trace is not None:
            self.trace.emit(job.completion_time, "job_complete",
                            job_id=job.job_id)
        if self.windows is not None and outcome.latency is not None:
            self.windows.on_complete(
                job.completion_time, outcome.latency,
                outcome.is_latency_sensitive, outcome.met_deadline)

    def _outcome(self, job: "Job") -> JobOutcome:
        outcome = self._outcomes.get(job.job_id)
        if outcome is None:
            raise SimulationError(f"job {job.job_id} never arrived")
        return outcome

    def retire_job(self, job: "Job") -> None:
        """Fold a terminal job's outcome into the stream aggregate.

        Pops the per-job :class:`JobOutcome` — the collector's only
        O(all jobs) structure — and folds it (plus the job's work-ledger
        terms, read from its still-intact kernels) into
        :attr:`stream`.  Called by the CP's retirement path *before* the
        job releases its kernel chain.
        """
        outcome = self._outcomes.pop(job.job_id, None)
        if outcome is None:
            raise SimulationError(
                f"cannot retire job {job.job_id}: no outcome recorded")
        if outcome.accepted is not False and outcome.completion is None:
            raise SimulationError(
                f"cannot retire job {job.job_id}: not terminal")
        if self.stream is None:
            self.stream = StreamAggregate()
        self.stream.fold(outcome, job)

    # ------------------------------------------------------------------
    # Finalisation
    # ------------------------------------------------------------------

    def outcomes(self) -> List[JobOutcome]:
        """All job outcomes in job-id order."""
        return [self._outcomes[jid] for jid in sorted(self._outcomes)]

    def finalize(self, end_time: int, energy: "EnergyMeter",
                 wgs_preempted: int = 0) -> "RunMetrics":
        """Snapshot the run into an immutable summary."""
        energy.set_makespan(end_time)
        return RunMetrics(
            outcomes=self.outcomes(),
            end_time=end_time,
            first_arrival=self.first_arrival or 0,
            total_energy_joules=energy.total_joules,
            dynamic_energy_joules=energy.dynamic_joules,
            static_energy_joules=energy.static_joules,
            wg_completions=self.wg_completions,
            wgs_preempted=wgs_preempted,
            stream=self.stream,
        )


@dataclass
class RunMetrics:
    """Immutable summary of one simulation run."""

    outcomes: List[JobOutcome]
    end_time: int
    first_arrival: int
    total_energy_joules: float
    dynamic_energy_joules: float
    static_energy_joules: float
    wg_completions: int
    wgs_preempted: int = 0
    #: Aggregate of retired jobs (streaming runs); None without retirement.
    #: Every derived metric below adds its contribution back in.
    stream: Optional[StreamAggregate] = None
    extras: Dict[str, object] = field(default_factory=dict)

    # -- deadline metrics ----------------------------------------------

    @property
    def num_jobs(self) -> int:
        """Jobs that arrived."""
        count = len(self.outcomes)
        if self.stream is not None:
            count += self.stream.jobs
        return count

    @property
    def jobs_meeting_deadline(self) -> int:
        """Figure 6/7/8 numerator: jobs completed by their deadlines."""
        count = sum(1 for o in self.outcomes if o.met_deadline)
        if self.stream is not None:
            count += self.stream.deadline_met
        return count

    @property
    def jobs_rejected(self) -> int:
        """Jobs refused by admission control."""
        count = sum(1 for o in self.outcomes if o.accepted is False)
        if self.stream is not None:
            count += self.stream.rejected
        return count

    @property
    def num_latency_sensitive(self) -> int:
        """Jobs that carried a deadline."""
        count = sum(1 for o in self.outcomes if o.is_latency_sensitive)
        if self.stream is not None:
            count += self.stream.latency_sensitive
        return count

    @property
    def deadline_ratio(self) -> float:
        """Fraction of latency-sensitive jobs meeting their deadline."""
        sensitive = self.num_latency_sensitive
        if sensitive == 0:
            return 0.0
        return self.jobs_meeting_deadline / sensitive

    # -- throughput / latency (Table 5a, 5b) ----------------------------

    @property
    def makespan_ticks(self) -> int:
        """First arrival to last completion (or end of run)."""
        return max(1, self.end_time - self.first_arrival)

    @property
    def successful_throughput(self) -> float:
        """Successful jobs per second (Table 5a)."""
        return self.jobs_meeting_deadline / (self.makespan_ticks / SEC)

    def completed_latencies(self) -> List[int]:
        """Latencies of completed (non-rejected) jobs, ticks.

        With retired jobs the stream aggregate contributes its latency
        reservoir — exact while the run fits the reservoir capacity, a
        uniform sample beyond — so percentiles over this list remain
        meaningful (if approximate) at millions of jobs.
        """
        latencies = [o.latency for o in self.outcomes
                     if o.latency is not None]
        if self.stream is not None:
            latencies.extend(self.stream.latencies.sample())
        return latencies

    @property
    def p99_latency_ticks(self) -> Optional[float]:
        """99-percentile latency over completed jobs (Table 5b)."""
        from .percentile import p99
        latencies = self.completed_latencies()
        if not latencies:
            return None
        return p99(latencies)

    # -- energy (Table 5c) ----------------------------------------------

    @property
    def energy_per_successful_job_mj(self) -> Optional[float]:
        """Consumed energy over successful jobs, millijoules (Table 5c)."""
        successes = self.jobs_meeting_deadline
        if successes == 0:
            return None
        return (self.total_energy_joules / successes) * 1e3

    # -- scheduling effectiveness (Figure 9) -----------------------------

    @property
    def effective_wg_fraction(self) -> float:
        """Fraction of executed WGs belonging to deadline-meeting jobs."""
        executed = sum(o.wgs_executed for o in self.outcomes)
        useful = sum(o.wgs_executed for o in self.outcomes if o.met_deadline)
        if self.stream is not None:
            executed += self.stream.wgs_executed
            useful += self.stream.useful_wgs
        if executed == 0:
            return 0.0
        return useful / executed

    @property
    def wasted_wg_fraction(self) -> float:
        """Complement of :attr:`effective_wg_fraction` (paper's "wasted")."""
        return 1.0 - self.effective_wg_fraction
