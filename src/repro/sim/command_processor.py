"""Command processor (CP): queue management, inspection, kernel chaining.

The CP is the integrated microprocessor that parses queue packets and
launches kernels (Section 2.1 of the paper).  Here it:

* binds each submitted job's stream to a hardware compute queue (or the
  backlog when all 128 are busy),
* models **stream inspection** with a parser bank that handles four streams
  in parallel every 2 us (Section 5), producing the WGList the policy's
  admission logic consumes,
* runs the policy's admission decision and either readies or rejects the
  job,
* chains dependent kernels: when kernel ``i`` completes, kernel ``i + 1``
  activates after one CP parse latency, and
* retires jobs, releasing their queues to backlogged arrivals.
"""

from __future__ import annotations

from typing import List, TYPE_CHECKING

from ..config import OverheadConfig
from ..errors import SimulationError
from .engine import Simulator
from .job import Job, JobState
from .kernel import KernelInstance

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..core.profiling import KernelProfilingTable
    from ..metrics.collector import MetricsCollector
    from ..schedulers.base import SchedulerPolicy
    from .dispatcher import WGDispatcher
    from .queues import QueuePool


class _ParserBank:
    """Four-wide stream parser: each inspection occupies a slot for 2 us."""

    def __init__(self, width: int, latency: int) -> None:
        self._free_at = [0] * width
        self._latency = latency

    def admit(self, now: int) -> int:
        """Reserve the earliest slot; return the inspection-done time."""
        index = min(range(len(self._free_at)), key=self._free_at.__getitem__)
        start = max(now, self._free_at[index])
        done = start + self._latency
        self._free_at[index] = done
        return done


class CommandProcessor:
    """Scheduling brain of the simulated GPU."""

    def __init__(self, sim: Simulator, overheads: OverheadConfig,
                 pool: "QueuePool", dispatcher: "WGDispatcher",
                 policy: "SchedulerPolicy",
                 profiler: "KernelProfilingTable",
                 metrics: "MetricsCollector") -> None:
        self._sim = sim
        self._overheads = overheads
        self._pool = pool
        self._dispatcher = dispatcher
        self._policy = policy
        self._profiler = profiler
        self._metrics = metrics
        self._parser = _ParserBank(overheads.cp_parse_width,
                                   overheads.cp_parse_period)
        #: Device-side WG scheduler (read by the host's priority-register
        #: writes to mark the dispatcher's standing issue order stale).
        self.dispatcher = dispatcher
        #: Optional TraceRecorder mirroring queue-binding and kernel
        #: activations (set by the GPUSystem alongside the other sinks).
        self.trace = None
        #: Optional InvariantChecker auditing job lifecycle transitions
        #: and stream FIFO order (same off-path pattern as ``trace``).
        self.validator = None
        #: Whether terminal jobs are retired (outcome folded into the
        #: metrics stream aggregate, kernel state released).  Set by the
        #: GPUSystem's ``retire`` argument; off keeps one JobOutcome per
        #: job.
        self.retire = False
        dispatcher.on_wg_complete = self._on_wg_complete

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------

    def submit_job(self, job: Job, skip_inspection: bool = False) -> None:
        """Accept a job's stream onto the device.

        ``skip_inspection`` is used by CPU-side schedulers: the host already
        knows the job's contents, made its own admission decision, and pays
        its own communication latency, so the device-side inspection and
        admission steps are bypassed.
        """
        if job.state is not JobState.INIT:
            raise SimulationError(
                f"job {job.job_id} submitted while {job.state}")
        queue = self._pool.try_bind(job)
        if queue is None:
            # Backlogged; (re-)submitted when a queue frees up.
            return
        job.mark_enqueued(self._sim.now, queue.queue_id)
        if self.trace is not None:
            self.trace.emit(self._sim.now, "job_enqueued",
                            job_id=job.job_id, queue=queue.queue_id)
        if skip_inspection:
            self._admit_job(job, inspected=False)
        else:
            done = self._parser.admit(self._sim.now)
            self._sim.schedule_at(done, self._on_inspected, job)

    def _on_inspected(self, job: Job) -> None:
        if job.state is not JobState.INIT:
            return  # rejected while inspection was in flight
        self._admit_job(job, inspected=True)

    def _admit_job(self, job: Job, inspected: bool) -> None:
        if inspected and not self._policy.admit(job):
            self.reject_job(job)
            return
        job.mark_ready()
        self._metrics.on_job_admitted(job)
        self._policy.on_job_admitted(job)
        if self.validator is not None:
            self.validator.on_job_event(job, "admitted")
        self._try_activate(job)

    def reject_job(self, job: Job) -> None:
        """Refuse ``job``: free its queue, tell the CPU (rejectJob())."""
        job.mark_rejected(self._sim.now)
        self._metrics.on_job_rejected(job)
        self._policy.on_job_rejected(job)
        self._release_queue(job)
        if self.validator is not None:
            self.validator.on_job_event(job, "rejected")
        self.retire_job(job)

    def cancel_job(self, job: Job) -> None:
        """Late-reject a ready/running job (Algorithm 1, line 21).

        Any active kernel is dropped from the dispatcher, resident WGs are
        evicted without saving state, and the queue frees up for the
        backlog.  Executed WGs stay counted (they are the wasted work the
        Figure 9 metric charges the scheduler for).
        """
        if not job.is_live:
            return
        for kernel in job.kernels:
            if kernel.phase.value == "active":
                self._dispatcher.cancel_kernel(kernel)
        job.mark_rejected(self._sim.now)
        self._metrics.on_job_rejected(job)
        self._policy.on_job_rejected(job)
        self._release_queue(job)
        if self.validator is not None:
            self.validator.on_job_event(job, "cancelled")
        self.retire_job(job)

    # ------------------------------------------------------------------
    # Kernel chaining
    # ------------------------------------------------------------------

    def append_work(self, job: Job, descriptors) -> None:
        """Enqueue more kernels on a live job's stream (footnote 1).

        When the whole stream was already released (device-side
        schedulers), the new packets are released too; host-side
        schedulers keep control of their release marker.
        """
        fully_released = job.released_kernels >= job.num_kernels
        job.append_kernels(descriptors)
        if fully_released:
            job.released_kernels = job.num_kernels
        self._policy.on_job_extended(job)
        self.poke(job)

    def poke(self, job: Job) -> None:
        """Re-check a job's queue head (host released another kernel)."""
        if job.is_live and job.state is not JobState.INIT:
            self._try_activate(job)

    def _try_activate(self, job: Job) -> None:
        for kernel in self._pool.queue_of(job).ready_kernels():
            self._sim.schedule(self._overheads.cp_parse_period,
                               self._activate, kernel)

    def _activate(self, kernel: KernelInstance) -> None:
        job = kernel.job
        # The job may have been preempt-rearranged; guard against repeats.
        if job.is_done or kernel.phase.value != "queued":
            return
        if self.trace is not None:
            self.trace.emit(self._sim.now, "kernel_activate",
                            job_id=kernel.job.job_id, kernel=kernel.name,
                            detail=kernel.num_wgs)
        self._dispatcher.add_kernel(kernel)

    # ------------------------------------------------------------------
    # Completion path
    # ------------------------------------------------------------------

    def _on_wg_complete(self, kernel: KernelInstance, now: int) -> None:
        self._profiler.record_wg_completion(kernel.name, now)
        self._metrics.on_wg_complete(kernel)
        self._policy.on_wg_complete(kernel)
        if kernel.is_done:
            self._on_kernel_complete(kernel, now)

    def _on_kernel_complete(self, kernel: KernelInstance, now: int) -> None:
        self._metrics.on_kernel_complete(kernel)
        self._policy.on_kernel_complete(kernel)
        if self.validator is not None:
            self.validator.on_kernel_complete(kernel)
        job = kernel.job
        if job.next_kernel() is None:
            job.mark_completed(now)
            self._metrics.on_job_complete(job)
            self._policy.on_job_complete(job)
            self._release_queue(job)
            if self.validator is not None:
                self.validator.on_job_event(job, "completed")
            self.retire_job(job)
        else:
            self._try_activate(job)

    def retire_job(self, job: Job) -> None:
        """Fold a terminal job into the stream aggregate and drop its state.

        Runs *after* every completion/rejection hook (metrics, policy,
        validator) so each sees the job's kernels intact; no-op unless
        retirement is enabled.  The metrics fold happens before
        :meth:`Job.retire` clears the WGList, because the streaming
        aggregate also banks the work-ledger terms the oracles audit.
        """
        if not self.retire:
            return
        if self.validator is not None:
            self.validator.on_job_retired(job, self._pool)
        self._metrics.retire_job(job)
        job.retire()

    def _release_queue(self, job: Job) -> None:
        follower = self._pool.release(job)
        if follower is not None:
            self._resubmit(follower)

    def _resubmit(self, job: Job) -> None:
        """Drain one backlogged job into the freed queue."""
        if job.state is not JobState.INIT:
            raise SimulationError(
                f"backlogged job {job.job_id} in state {job.state}")
        # Host-side schedulers manage their own backlog before submission,
        # so anything in the device backlog takes the normal inspected path
        # unless the policy marked it pre-approved via released_kernels < 0.
        self.submit_job(job, skip_inspection=self._policy.host_side)


# List of public names (keeps `from ... import *` honest in examples).
__all__: List[str] = ["CommandProcessor"]
