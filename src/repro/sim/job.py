"""Jobs: chains of dependent kernels with a deadline.

A job is the unit the paper schedules — one inference request, one packet
batch, one query.  All of a job's kernels are enqueued on a single stream
(compute queue) and have sequential dependencies, so kernel ``i + 1`` may
only start once kernel ``i`` has completed.
"""

from __future__ import annotations

import enum
from typing import List, Mapping, Optional, Sequence

from ..errors import SimulationError, WorkloadError
from .kernel import KernelDescriptor, KernelInstance, KernelPhase


class JobState(enum.Enum):
    """Job lifecycle, matching the paper's Job Table states plus terminals.

    The paper's Job Table uses *init*, *ready* and *running*; a finished job
    leaves the table, which we represent with *completed*; *rejected* marks
    jobs the admission control refused to offload.
    """

    #: Arrived but not yet admitted (stream inspection / admission pending).
    INIT = "init"
    #: Admitted; first not-yet-activated kernel is schedulable.
    READY = "ready"
    #: At least one WG has been issued to a CU.
    RUNNING = "running"
    #: All kernels finished.
    COMPLETED = "completed"
    #: Refused by admission control; never touched the GPU.
    REJECTED = "rejected"


#: States in which a job still holds device-side bookkeeping.
LIVE_STATES = frozenset({JobState.INIT, JobState.READY, JobState.RUNNING})


class Job:
    """A chain of dependent kernels submitted on one stream.

    Latency-sensitive jobs carry a relative ``deadline``; passing
    ``deadline=None`` makes the job *latency-insensitive* (batch work the
    programmer attached no deadline to).  Per Section 5.2, "LAX does not
    affect latency-insensitive applications because the programmer does
    not provide a deadline for them": such jobs are never rejected, never
    counted in deadline metrics, and run at the lowest priority under
    deadline-aware policies.
    """

    __slots__ = (
        "job_id", "benchmark", "kernels", "arrival", "deadline", "state",
        "queue_id", "start_time", "first_issue_time", "completion_time",
        "rejection_time", "user_priority", "priority", "tag",
        "released_kernels", "dependencies", "_next_cursor", "rank_version",
        "retired", "reserve_counted",
    )

    def __init__(self, job_id: int, benchmark: str,
                 descriptors: Sequence[KernelDescriptor], arrival: int,
                 deadline: Optional[int], user_priority: int = 0,
                 tag: Optional[str] = None,
                 dependencies: Optional[Mapping[int, Sequence[int]]] = None,
                 ) -> None:
        if not descriptors:
            raise WorkloadError(f"job {job_id} has no kernels")
        if deadline is not None and deadline <= 0:
            raise WorkloadError(f"job {job_id} deadline must be positive")
        if arrival < 0:
            raise WorkloadError(f"job {job_id} arrival must be >= 0")
        if dependencies is not None:
            dependencies = {index: tuple(deps)
                            for index, deps in dependencies.items()}
            for index, deps in dependencies.items():
                if not 0 <= index < len(descriptors):
                    raise WorkloadError(
                        f"job {job_id}: dependency on unknown kernel {index}")
                for dep in deps:
                    if not 0 <= dep < index:
                        raise WorkloadError(
                            f"job {job_id}: kernel {index} may only depend "
                            f"on earlier kernels, got {dep}")
        self.job_id = job_id
        self.benchmark = benchmark
        self.kernels: List[KernelInstance] = [
            KernelInstance(desc, self, index)
            for index, desc in enumerate(descriptors)
        ]
        #: Absolute arrival time, ticks.
        self.arrival = arrival
        #: Relative deadline, ticks after arrival; None for
        #: latency-insensitive (best-effort) work.
        self.deadline = deadline
        self.state = JobState.INIT
        #: Compute queue currently bound to this job's stream.
        self.queue_id: Optional[int] = None
        #: Time the job was enqueued on the device (Job Table StartTime).
        self.start_time: Optional[int] = None
        self.first_issue_time: Optional[int] = None
        self.completion_time: Optional[int] = None
        self.rejection_time: Optional[int] = None
        #: WGs this job contributes to the admission reserve counter
        #: while READY (see ``LaxityScheduler._ready_reserve``); 0 once
        #: the first serve (or a late rejection) releases the promise.
        self.reserve_counted = 0
        #: Static application-level priority (PREMA's user priority).
        self.user_priority = user_priority
        #: Dynamic priority register; lower values run first, 0 is highest.
        self.priority: float = 0.0
        #: Free-form label used by workload generators (e.g. "seq=21").
        self.tag = tag
        #: Kernels visible to the CP.  Device-side schedulers release the
        #: whole stream at submission; host-side schedulers launch kernels
        #: one at a time and advance this marker per launch.
        self.released_kernels = 0
        #: Optional explicit dependency DAG: kernel index -> prerequisite
        #: indices.  None means the default in-order chain (each kernel
        #: depends on its predecessor); an empty tuple for an index means
        #: that kernel is dependency-free.  HSA-style DAG streams let a
        #: job expose intra-job parallelism to the dispatcher.
        self.dependencies = dependencies
        # Cursor past the completed prefix of the chain (kernels complete
        # strictly in order, and completion is irreversible, so this only
        # ever advances).
        self._next_cursor = 0
        #: Whether :meth:`retire` released this job's kernel state (the
        #: streaming-workload memory mode, ``GPUSystem(retire=True)``).
        self.retired = False
        #: Bumped whenever this job's remaining-work inputs change (a WG
        #: completes, or kernels are appended to the stream).  Preemption
        #: does *not* bump it: evicted WGs re-execute, so the WGList's
        #: outstanding count — what the laxity estimate reads — is
        #: unchanged.  Cached estimates key on this (see
        #: :class:`repro.core.laxity.RemainingTimeCache`).
        self.rank_version = 0

    # ------------------------------------------------------------------
    # Static shape
    # ------------------------------------------------------------------

    @property
    def num_kernels(self) -> int:
        """Number of kernel launches in the job."""
        return len(self.kernels)

    @property
    def total_wgs(self) -> int:
        """Total WGs across all kernels."""
        return sum(k.num_wgs for k in self.kernels)

    @property
    def total_work(self) -> int:
        """Aggregate lane-time demand, ticks (sum over kernels)."""
        return sum(k.descriptor.total_work for k in self.kernels)

    @property
    def is_latency_sensitive(self) -> bool:
        """Whether the programmer attached a deadline."""
        return self.deadline is not None

    @property
    def absolute_deadline(self) -> Optional[int]:
        """Wall-clock deadline (arrival + relative), or None."""
        if self.deadline is None:
            return None
        return self.arrival + self.deadline

    def isolated_time(self, gpu) -> int:
        """Wall time of the job running alone (kernels back to back)."""
        return sum(k.descriptor.isolated_time(gpu) for k in self.kernels)

    # ------------------------------------------------------------------
    # Dynamic state
    # ------------------------------------------------------------------

    @property
    def wgs_completed(self) -> int:
        """Total WGs completed so far across all kernels."""
        return sum(k.wgs_completed for k in self.kernels)

    @property
    def is_live(self) -> bool:
        """Whether the job still holds device bookkeeping."""
        return self.state in LIVE_STATES

    @property
    def is_done(self) -> bool:
        """Whether the job reached a terminal state."""
        return self.state in (JobState.COMPLETED, JobState.REJECTED)

    def next_kernel(self) -> Optional[KernelInstance]:
        """First kernel that has not completed, or None when done."""
        kernels = self.kernels
        cursor = self._next_cursor
        while cursor < len(kernels) and kernels[cursor].is_done:
            cursor += 1
        self._next_cursor = cursor
        if cursor < len(kernels):
            return kernels[cursor]
        return None

    def kernel_dependencies(self, index: int) -> Sequence[int]:
        """Prerequisite kernel indices of kernel ``index``."""
        if self.dependencies is not None:
            return self.dependencies.get(index, ())
        return (index - 1,) if index > 0 else ()

    def dependencies_met(self, kernel: KernelInstance) -> bool:
        """Whether every prerequisite of ``kernel`` has completed."""
        return all(self.kernels[dep].is_done
                   for dep in self.kernel_dependencies(kernel.index))

    def ready_kernels(self) -> List[KernelInstance]:
        """Released, not-yet-activated kernels whose prerequisites are done.

        For default chain jobs this is at most one kernel (the head); DAG
        jobs may expose several concurrently-runnable kernels.

        Chain jobs take an O(1) cursor path: kernels in a chain complete
        strictly in order, so a kernel's predecessor being done implies
        the whole prefix is done — the first not-done kernel is the only
        possible candidate, and it is ready exactly when it is released
        and still QUEUED — the same list the full scan (kept for DAG
        jobs) builds.
        """
        if self.dependencies is None:
            kernels = self.kernels
            cursor = self._next_cursor
            while cursor < len(kernels) and kernels[cursor].is_done:
                cursor += 1
            self._next_cursor = cursor
            if (cursor < self.released_kernels
                    and kernels[cursor].phase is KernelPhase.QUEUED):
                return [kernels[cursor]]
            return []
        ready = []
        for kernel in self.kernels:
            if kernel.index >= self.released_kernels:
                break
            if (kernel.phase is KernelPhase.QUEUED
                    and self.dependencies_met(kernel)):
                ready.append(kernel)
        return ready

    @property
    def is_dag(self) -> bool:
        """Whether this job carries an explicit dependency DAG."""
        return self.dependencies is not None

    def elapsed(self, now: int) -> int:
        """Time since the job entered the system (Job Table durTime).

        Measured from arrival so that deadline arithmetic is consistent
        whether the job was offloaded immediately (device-side schedulers,
        where enqueue trails arrival by microseconds) or aged on the host
        first (CPU-side schedulers).
        """
        return max(0, now - self.arrival)

    @property
    def latency(self) -> Optional[int]:
        """End-to-end response time (completion - arrival), ticks."""
        if self.completion_time is None:
            return None
        return self.completion_time - self.arrival

    @property
    def met_deadline(self) -> bool:
        """Whether the job completed at or before its absolute deadline.

        Latency-insensitive jobs have no deadline to meet (False here;
        metrics exclude them from deadline counts entirely).
        """
        return (self.deadline is not None
                and self.completion_time is not None
                and self.completion_time <= self.absolute_deadline)

    # ------------------------------------------------------------------
    # Transitions
    # ------------------------------------------------------------------

    def append_kernels(self, descriptors: Sequence[KernelDescriptor]) -> None:
        """Enqueue additional work on this job's stream.

        Supports the paper's footnote 1: "If additional work is later
        enqueued to the job's stream, LAX will update its prediction" —
        the WGList grows and every estimator picks the new kernels up on
        its next pass.  Only legal while the job is live.
        """
        if self.is_done:
            raise SimulationError(
                f"job {self.job_id} finished; cannot extend its stream")
        if not descriptors:
            raise WorkloadError(f"job {self.job_id}: nothing to append")
        start = len(self.kernels)
        self.kernels.extend(
            KernelInstance(desc, self, start + index)
            for index, desc in enumerate(descriptors))
        self.rank_version += 1

    def mark_enqueued(self, now: int, queue_id: int) -> None:
        """Bind the job to a compute queue; records Job Table StartTime."""
        if self.state is not JobState.INIT:
            raise SimulationError(f"job {self.job_id} enqueued while {self.state}")
        self.queue_id = queue_id
        if self.start_time is None:
            self.start_time = now

    def mark_ready(self) -> None:
        """Admission accepted the job."""
        if self.state is not JobState.INIT:
            raise SimulationError(f"job {self.job_id} ready while {self.state}")
        self.state = JobState.READY

    def mark_running(self, now: int) -> None:
        """First WG issued to a CU."""
        if self.state is JobState.READY:
            self.state = JobState.RUNNING
            if self.first_issue_time is None:
                self.first_issue_time = now
        elif self.state is not JobState.RUNNING:
            raise SimulationError(f"job {self.job_id} running while {self.state}")

    def mark_completed(self, now: int) -> None:
        """All kernels finished."""
        if self.state is not JobState.RUNNING:
            raise SimulationError(f"job {self.job_id} completed while {self.state}")
        if any(not k.is_done for k in self.kernels):
            raise SimulationError(f"job {self.job_id} completed with pending kernels")
        self.state = JobState.COMPLETED
        self.completion_time = now

    def mark_rejected(self, now: int) -> None:
        """Admission control refused (or later evicted) the job.

        Algorithm 1 runs continuously, so a job can be rejected while
        *ready* or even *running* — "Cannot complete job in time, tell
        CPU" — not only at arrival.
        """
        if self.state not in LIVE_STATES:
            raise SimulationError(f"job {self.job_id} rejected while {self.state}")
        self.state = JobState.REJECTED
        self.rejection_time = now

    def retire(self) -> None:
        """Release the job's per-kernel state after a terminal transition.

        Streaming runs push orders of magnitude more jobs through one
        engine than ever coexist; once a job's outcome has been folded
        into the run's streaming aggregate (see
        :meth:`repro.metrics.collector.MetricsCollector.retire_job`),
        its WGList — the kernel-instance chain — is the last O(job)
        state left.  Retiring drops it so a completed or rejected job
        costs O(1) memory for the rest of the run.  Only legal once the
        job is terminal; idempotent.
        """
        if not self.is_done:
            raise SimulationError(
                f"job {self.job_id} retired while {self.state}")
        self.retired = True
        self.kernels = []
        self.dependencies = None
        self.released_kernels = 0
        self._next_cursor = 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<Job {self.job_id} {self.benchmark} {self.state.value} "
                f"kernels={self.num_kernels} deadline={self.deadline}>")
