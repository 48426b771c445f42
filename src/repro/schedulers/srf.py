"""Shortest Remaining-time job First (SRF).

SRF is the paper's strongest non-laxity CP scheduler: it borrows LAX's
dynamic remaining-execution-time estimator (WGList / per-kernel completion
rates) but ranks jobs purely by estimated remaining time — no laxity, no
deadline, no queuing-delay model.  Priorities refresh on the same 100 us
cadence LAX uses.
"""

from __future__ import annotations

from typing import Optional

from ..core.laxity import estimate_remaining_time
from ..sim.engine import PeriodicTask
from ..sim.job import Job
from .base import SchedulerPolicy


class ShortestRemainingFirstScheduler(SchedulerPolicy):
    """Dynamic shortest-remaining-time-first using LAX's estimator."""

    name = "SRF"

    def __init__(self) -> None:
        super().__init__()
        self._updater: Optional[PeriodicTask] = None

    def start(self) -> None:
        self._updater = PeriodicTask(
            self.ctx.sim, self.ctx.config.overheads.lax_update_period,
            self._update_priorities, self._any_live_jobs)

    def on_job_admitted(self, job: Job) -> None:
        job.priority = self._estimate(job)
        self._updater.ensure_running()

    def on_job_complete(self, job: Job) -> None:
        self._updater.ensure_running()

    def _estimate(self, job: Job) -> float:
        now = self.ctx.now
        estimate = estimate_remaining_time(job, self.ctx.profiler, now)
        if estimate <= 0.0:
            # No rate information yet; fall back to the offline profile so
            # the ranking is defined from the first dispatch.
            estimate = float(job.isolated_time(self.ctx.config.gpu))
        return estimate

    def _update_priorities(self) -> None:
        for job in self.ctx.live_jobs():
            job.priority = self._estimate(job)
        # The dispatcher's standing issue order is keyed by priorities:
        # mark it stale so its next bucketed pump re-keys it.
        self.ctx.dispatcher.invalidate_order()
