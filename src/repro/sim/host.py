"""Simulated CPU host for CPU-side schedulers.

BAT, BAY, PRO and LAX-SW/LAX-CPU run their logic on the host and talk to
the GPU over an interconnect.  Per Section 5.1, every command (kernel
launch, priority-register write) costs one ``host_device_latency`` (4 us),
and the host learns about device events (kernel/job completions) the same
latency late.  The :class:`Host` provides those delayed command channels;
the CPU-side policy base class layers control loops on top.

Host-side rejection (a job the host never offloads) is also handled here,
so rejected jobs consume no device resources at all.
"""

from __future__ import annotations

from typing import Callable, TYPE_CHECKING

from ..config import OverheadConfig
from ..errors import SimulationError
from .engine import Simulator
from .job import Job, JobState

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..metrics.collector import MetricsCollector
    from .command_processor import CommandProcessor


class Host:
    """Command channel between a CPU-side scheduler and the GPU."""

    def __init__(self, sim: Simulator, overheads: OverheadConfig,
                 cp: "CommandProcessor", metrics: "MetricsCollector") -> None:
        self._sim = sim
        self._overheads = overheads
        self._cp = cp
        self._metrics = metrics
        #: Kernel launches sent (diagnostics).
        self.commands_sent = 0

    @property
    def latency(self) -> int:
        """One-way host-device communication latency, ticks."""
        return self._overheads.host_device_latency

    # ------------------------------------------------------------------
    # Commands (each pays one interconnect crossing)
    # ------------------------------------------------------------------

    def submit_job(self, job: Job, release: int = 1) -> None:
        """Offload ``job`` with its first ``release`` kernels launched.

        The device-side inspection/admission steps are skipped — the host
        already knows the stream contents and made its own decision.
        """
        if job.state is not JobState.INIT:
            raise SimulationError(
                f"host submitting job {job.job_id} in state {job.state}")
        if not 1 <= release <= job.num_kernels:
            raise SimulationError(
                f"host release count {release} invalid for job {job.job_id}")
        self.commands_sent += 1
        self._sim.schedule(self.latency, self._do_submit, job, release)

    def release_next_kernel(self, job: Job) -> None:
        """Launch the job's next kernel (one more stream packet)."""
        self.commands_sent += 1
        self._sim.schedule(self.latency, self._do_release, job)

    def release_all_kernels(self, job: Job) -> None:
        """Launch every remaining kernel at once (one command; the device
        chains dependent kernels itself).  Used by LAX-CPU."""
        self.commands_sent += 1
        self._sim.schedule(self.latency, self._do_release_all, job)

    def set_priority(self, job: Job, priority: float) -> None:
        """Write the job's queue-priority register (LAX-CPU's API)."""
        self.commands_sent += 1
        self._sim.schedule(self.latency, self._do_set_priority, job, priority)

    def reject_job(self, job: Job) -> None:
        """Decline to offload ``job``; it never touches the device."""
        job.mark_rejected(self._sim.now)
        self._metrics.on_job_rejected(job)
        self._cp.retire_job(job)

    def cancel_job(self, job: Job) -> None:
        """Late-reject an already-offloaded job (one command crossing)."""
        self.commands_sent += 1
        self._sim.schedule(self.latency, self._do_cancel, job)

    def _do_cancel(self, job: Job) -> None:
        if job.is_live:
            self._cp.cancel_job(job)

    # ------------------------------------------------------------------
    # Notifications: run ``callback`` latency ticks after the event
    # ------------------------------------------------------------------

    def notify(self, callback: Callable[..., None], *args: object) -> None:
        """Deliver a device event to host software, one crossing late."""
        self._sim.schedule(self.latency, callback, *args)

    # ------------------------------------------------------------------
    # Deferred executions (device side)
    # ------------------------------------------------------------------

    def _do_submit(self, job: Job, release: int) -> None:
        if job.is_done:
            return
        job.released_kernels = release
        self._cp.submit_job(job, skip_inspection=True)

    def _do_release(self, job: Job) -> None:
        if job.is_done:
            return
        if job.released_kernels < job.num_kernels:
            job.released_kernels += 1
        self._cp.poke(job)

    def _do_release_all(self, job: Job) -> None:
        if job.is_done:
            return
        job.released_kernels = job.num_kernels
        self._cp.poke(job)

    def _do_set_priority(self, job: Job, priority: float) -> None:
        if job.is_done:
            return
        job.priority = priority
        # The register write may reorder the job's active kernels: mark
        # the standing issue order stale so the next pump re-keys it.
        self._cp.dispatcher.invalidate_order()
