"""LAX+PREMA hybrid: the future-work scheduler Section 6.1.2 sketches.

"LAX outperforms all other schedulers except on STEM, indicating that a
hybrid solution which combines elements of LAX and PREMA could be
interesting future work."  This policy is that hybrid:

* **from LAX** — stream inspection, the Little's-Law admission test with
  late rejection, and laxity-driven priorities refreshed every 100 us;
* **from PREMA** — checkpoint-based preemption on its 250 us epochs: when
  the least-lax jobs cannot get WG slots because resident work with far
  more laxity occupies them, the laxity-richest residents are evicted
  (paying context-save time and energy) so urgent work runs closer to
  full rate.

Preemption is gated on a laxity gap (victim laxity must exceed the
urgent job's by the victim's own re-execution cost) so short-deadline
workloads get PREMA's responsiveness without LAX's many-kernel wins
drowning in checkpoint traffic.
"""

from __future__ import annotations

import math
from typing import Optional

from ..core.laxity import laxity_time
from ..sim.engine import PeriodicTask
from ..sim.job import Job
from ..sim.kernel import KernelInstance
from .lax import LaxityScheduler


class LaxityPremaHybridScheduler(LaxityScheduler):
    """LAX's estimates and admission + PREMA's epoch preemption."""

    name = "LAX-PREMA"

    def __init__(self, max_preemptions_per_epoch: int = 8,
                 **lax_kwargs: object) -> None:
        super().__init__(**lax_kwargs)
        self._max_preemptions = max_preemptions_per_epoch
        self._epoch_task: Optional[PeriodicTask] = None
        #: Preemption operations performed (diagnostics).
        self.preemption_events = 0

    def start(self) -> None:
        super().start()
        self._epoch_task = PeriodicTask(
            self.ctx.sim, self.ctx.config.overheads.prema_interval,
            self._epoch, self._any_live_jobs)

    def on_job_admitted(self, job: Job) -> None:
        super().on_job_admitted(job)
        self._epoch_task.ensure_running()

    # ------------------------------------------------------------------
    # Preemption-aware admission
    # ------------------------------------------------------------------

    def _outstanding_time(self, now: int, exclude: Job) -> None:
        """Scalar fallback always: hybrid admission sums a laxity-filtered
        subset of the live jobs (see :meth:`admit`), which the rank SoA's
        whole-table sum cannot express."""
        return None

    def admit(self, job: Job) -> bool:
        """Algorithm 1, but slack-rich work does not block the candidate.

        LAX's queuing-delay model assumes everything ahead must drain
        first; with PREMA-style preemption available, a resident job whose
        laxity exceeds the candidate's whole deadline can be checkpointed
        out of the way and still finish, so it contributes no queuing
        delay to this decision.
        """
        if not self._enable_admission:
            if self.decisions_enabled:
                self.emit_decision("admission_verdict", job_id=job.job_id,
                                   accepted=True, reason="policy_default")
            return True
        if job.deadline is None:
            if self.decisions_enabled:
                self.emit_decision("admission_verdict", job_id=job.job_id,
                                   accepted=True, reason="no_deadline")
            return True
        now = self.ctx.now
        profiler = self.ctx.profiler
        blocking = [
            other for other in self.ctx.live_jobs()
            if laxity_time(other, profiler, now) <= job.deadline
        ]
        verdict = self._admission.evaluate(
            job, blocking, now, cus=self.ctx.dispatcher.cus,
            reserved_wgs=self._reserved_wgs(job))
        if self.decisions_enabled:
            self._emit_admission(job)
        return verdict

    # ------------------------------------------------------------------
    # PREMA-style epoch: evict laxity-rich residents for urgent work
    # ------------------------------------------------------------------

    def _epoch(self) -> None:
        now = self.ctx.now
        profiler = self.ctx.profiler
        dispatcher = self.ctx.dispatcher
        urgent = self._most_urgent_blocked_kernel(now)
        if urgent is None:
            return
        urgent_laxity = laxity_time(urgent.job, profiler, now)
        victims = self._victims_by_laxity(urgent, now)
        preempted = 0
        for victim_laxity, victim in victims:
            if preempted >= self._max_preemptions:
                break
            if self._fits_somewhere(urgent):
                break
            # Gate: the victim must be able to afford re-executing its
            # resident WGs and still have more slack than the urgent job.
            reexecution_cost = victim.descriptor.wg_work
            if victim_laxity - reexecution_cost <= urgent_laxity:
                break
            evicted = dispatcher.preempt_kernel(
                victim, self._hold_time(victim))
            if evicted:
                preempted += 1
                self.preemption_events += 1
                if self.decisions_enabled:
                    self.emit_decision(
                        "preemption_cause", job_id=victim.job.job_id,
                        kernel=victim.name, evicted=evicted,
                        cause="epoch_laxity_gap",
                        urgent_job_id=urgent.job.job_id,
                        victim_laxity=victim_laxity,
                        urgent_laxity=urgent_laxity)
                if self.ctx.energy is not None:
                    self.ctx.energy.add_context_traffic(
                        victim.descriptor.context_bytes)
        if preempted:
            dispatcher.request_pump()

    def _most_urgent_blocked_kernel(self, now: int) -> Optional[KernelInstance]:
        """Least-laxity active kernel with pending WGs that do not fit."""
        best: Optional[KernelInstance] = None
        best_priority = math.inf
        for kernel in self.ctx.dispatcher.active_kernels:
            if kernel.wgs_pending <= 0:
                continue
            if kernel.job.priority >= best_priority:
                continue
            if self._fits_somewhere(kernel):
                continue
            best = kernel
            best_priority = kernel.job.priority
        return best

    def _fits_somewhere(self, kernel: KernelInstance) -> bool:
        return any(cu.can_accept(kernel.descriptor)
                   for cu in self.ctx.dispatcher.cus)

    def _victims_by_laxity(self, urgent: KernelInstance, now: int):
        """Resident kernels of other jobs, laxity-richest first."""
        profiler = self.ctx.profiler
        dispatcher = self.ctx.dispatcher
        candidates = []
        for kernel in dispatcher.active_kernels:
            if kernel.job is urgent.job:
                continue
            if dispatcher.resident_wgs(kernel) == 0:
                continue
            candidates.append(
                (laxity_time(kernel.job, profiler, now),
                 kernel.job.job_id, kernel))
        candidates.sort(key=lambda item: (-item[0], item[1]))
        return [(laxity, kernel) for laxity, _, kernel in candidates]

    def _hold_time(self, kernel: KernelInstance) -> int:
        bw = self.ctx.config.gpu.context_bw_bytes_per_ns
        return max(1, math.ceil(kernel.descriptor.context_bytes / bw))
