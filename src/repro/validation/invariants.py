"""Runtime invariant checking for the discrete-event core.

The :class:`InvariantChecker` is an opt-in hook layer the simulator's four
hot-path modules call into when one is attached (``GPUSystem(...,
validator=checker)``).  Each hook re-derives a conservation or occupancy
law from first principles and raises a structured
:class:`InvariantViolation` the moment the simulated state disagrees —
with the event context (time, job, kernel, CU, the numbers that failed)
attached, so a violation is a post-mortem, not a stack trace.

The invariants enforced, per event:

* **clock_monotonic** — the engine never executes an event scheduled
  before the current clock;
* **wg_conservation** — per kernel and per job, every workgroup is in
  exactly one of {completed, resident-on-a-CU, queued}:
  ``num_wgs == completed + resident + pending`` and
  ``resident == issued - completed`` matches the CUs' own residency;
* **cu_occupancy** — per CU, used + held threads / wavefronts / VGPR /
  LDS never exceed the Table 2 limits nor go negative, and the occupancy
  counters equal the sum over resident WGs;
* **stream_fifo** — a kernel only completes after every prerequisite in
  its stream (chain order, or the job's explicit DAG) has completed, and
  the host release marker stays within ``[0, num_kernels]``;
* **laxity_consistency** — Equation 1 identities: the remaining-time
  estimate is non-negative and finite, and
  ``laxity == deadline - elapsed - remaining`` reproduces
  :func:`repro.core.laxity.laxity_priority` exactly;
* **queue_pool** — queue bindings are a bijection (every bound queue maps
  back to its job, free + bound covers all queues, no job is both bound
  and backlogged);
* **job_lifecycle** — terminal jobs carry their timestamps, completed
  jobs have no unfinished kernels, accounting matches the metrics.

Disabled (no checker attached) the hooks cost one ``is not None``
attribute check per event — the same off-path discipline as the
telemetry layer, leaving untraced runs bit-identical.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, TYPE_CHECKING

from ..core.laxity import (estimate_remaining_time, laxity_priority,
                           laxity_time)
from ..errors import SimulationError
from ..sim.job import JobState
from ..sim.kernel import KernelPhase

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..sim.compute_unit import ComputeUnit
    from ..sim.device import GPUSystem
    from ..sim.dispatcher import WGDispatcher
    from ..sim.job import Job
    from ..sim.kernel import KernelInstance

#: Float slack for identities over processor-sharing accumulators.
FLOAT_TOLERANCE = 1e-6


class InvariantViolation(SimulationError):
    """A machine-checked simulator invariant failed.

    Carries the invariant name, the simulated time and a structured
    ``context`` mapping so callers (CLI, telemetry bundle) can render or
    serialise the failure without parsing the message.
    """

    def __init__(self, invariant: str, message: str, time: int,
                 context: Optional[Dict[str, object]] = None) -> None:
        self.invariant = invariant
        self.time = time
        self.context: Dict[str, object] = dict(context or {})
        super().__init__(f"invariant {invariant!r} violated at t={time}: "
                         f"{message}")

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready record of the violation."""
        return {
            "invariant": self.invariant,
            "time": self.time,
            "message": str(self),
            "context": dict(self.context),
        }


class InvariantChecker:
    """Opt-in runtime validator for one :class:`GPUSystem` run.

    Attach with :meth:`attach` (the ``GPUSystem`` constructor does this
    when given ``validator=``); every hook either passes silently or
    raises :class:`InvariantViolation`.  :meth:`summary` reports how many
    checks ran per invariant plus any violations observed — the record
    the telemetry bundle embeds.
    """

    def __init__(self) -> None:
        self.checks: Dict[str, int] = {}
        self.violations: List[Dict[str, object]] = []
        self._system: Optional["GPUSystem"] = None
        self._sim = None
        self._config = None
        self._pool = None
        self._dispatcher: Optional["WGDispatcher"] = None
        self._profiler = None
        self._last_event_time = 0

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------

    def attach(self, system: "GPUSystem") -> "InvariantChecker":
        """Hook this checker into every component of ``system``."""
        self._system = system
        self._sim = system.sim
        self._config = system.config
        self._pool = system.pool
        self._dispatcher = system.dispatcher
        self._profiler = system.profiler
        system.sim.validator = self
        system.cp.validator = self
        system.dispatcher.validator = self
        for cu in system.dispatcher.cus:
            cu.validator = self
        return self

    @property
    def total_checks(self) -> int:
        """Total invariant evaluations performed."""
        return sum(self.checks.values())

    def summary(self) -> Dict[str, object]:
        """Checks-per-invariant and violations, JSON-ready."""
        return {
            "checks": dict(sorted(self.checks.items())),
            "total_checks": self.total_checks,
            "violations": list(self.violations),
        }

    # ------------------------------------------------------------------
    # Violation plumbing
    # ------------------------------------------------------------------

    def _count(self, invariant: str) -> None:
        self.checks[invariant] = self.checks.get(invariant, 0) + 1

    def _fail(self, invariant: str, message: str,
              context: Optional[Dict[str, object]] = None) -> None:
        now = self._sim.now if self._sim is not None else 0
        violation = InvariantViolation(invariant, message, now, context)
        self.violations.append(violation.as_dict())
        raise violation

    # ------------------------------------------------------------------
    # Engine hook
    # ------------------------------------------------------------------

    def on_event(self, event: list, now: int) -> None:
        """Engine is about to execute ``event`` (a ``[when, seq,
        callback, args]`` list); clock must not rewind."""
        self._count("clock_monotonic")
        when = event[0]
        if when < now:
            name = getattr(event[2], "__qualname__", "?")
            self._fail("clock_monotonic",
                       f"event {name} scheduled at {when} fired with "
                       f"clock already at {now}",
                       {"event_time": when, "clock": now,
                        "callback": name})
        self._last_event_time = when

    # ------------------------------------------------------------------
    # Compute-unit hook
    # ------------------------------------------------------------------

    def on_cu_update(self, cu: "ComputeUnit") -> None:
        """Residency changed on ``cu``; occupancy must stay within limits."""
        self._count("cu_occupancy")
        config = self._config.gpu
        limits = (
            ("threads", cu.used_threads, cu._held_threads,
             config.threads_per_cu),
            ("wavefronts", cu.used_wavefronts, cu._held_wavefronts,
             config.max_wavefronts_per_cu),
            ("vgpr_bytes", cu.used_vgpr, cu._held_vgpr,
             config.vgpr_bytes_per_cu),
            ("lds_bytes", cu.used_lds, cu._held_lds,
             config.lds_bytes_per_cu),
        )
        for name, used, held, limit in limits:
            if used < 0 or held < 0:
                self._fail("cu_occupancy",
                           f"CU{cu.cu_id} {name} accounting went negative "
                           f"(used={used}, held={held})",
                           {"cu": cu.cu_id, "resource": name,
                            "used": used, "held": held, "limit": limit})
            if used + held > limit:
                self._fail("cu_occupancy",
                           f"CU{cu.cu_id} over-committed {name}: "
                           f"used={used} + held={held} > limit={limit}",
                           {"cu": cu.cu_id, "resource": name,
                            "used": used, "held": held, "limit": limit})
        # The counters must equal the sum over resident WGs.
        wavefront_size = config.wavefront_size
        expect_threads = sum(wg.threads for wg in cu._residents)
        expect_waves = sum(wg.wavefronts for wg in cu._residents)
        if expect_threads != cu.used_threads or expect_waves != cu.used_wavefronts:
            self._fail("cu_occupancy",
                       f"CU{cu.cu_id} counters drifted from residents: "
                       f"threads {cu.used_threads} vs {expect_threads}, "
                       f"wavefronts {cu.used_wavefronts} vs {expect_waves}",
                       {"cu": cu.cu_id, "used_threads": cu.used_threads,
                        "resident_threads": expect_threads,
                        "used_wavefronts": cu.used_wavefronts,
                        "resident_wavefronts": expect_waves,
                        "wavefront_size": wavefront_size})

    # ------------------------------------------------------------------
    # Dispatcher hook
    # ------------------------------------------------------------------

    def on_dispatch(self, dispatcher: "WGDispatcher") -> None:
        """A pump / preemption / cancel finished; audit WG conservation."""
        self._count("wg_conservation")
        seen_jobs = {}
        for kernel in dispatcher.active_kernels:
            self._check_kernel_conservation(kernel, dispatcher)
            seen_jobs.setdefault(kernel.job.job_id, kernel.job)
        for job in seen_jobs.values():
            self._check_job_conservation(job, dispatcher)

    def _check_kernel_conservation(self, kernel: "KernelInstance",
                                   dispatcher: "WGDispatcher") -> None:
        num = kernel.descriptor.num_wgs
        completed = kernel.wgs_completed
        issued = kernel.wgs_issued
        pending = kernel.wgs_pending
        context = {"job": kernel.job.job_id, "kernel": kernel.name,
                   "index": kernel.index, "num_wgs": num,
                   "completed": completed, "issued": issued,
                   "pending": pending}
        if not 0 <= completed <= issued <= num:
            self._fail("wg_conservation",
                       f"kernel {kernel.name}#{kernel.index} counters out of "
                       f"order: completed={completed} issued={issued} "
                       f"num_wgs={num}", context)
        resident = dispatcher.resident_wgs(kernel)
        context["resident"] = resident
        if resident != issued - completed:
            self._fail("wg_conservation",
                       f"kernel {kernel.name}#{kernel.index} has {resident} "
                       f"resident WGs but issued-completed="
                       f"{issued - completed}", context)
        if completed + resident + pending != num:
            self._fail("wg_conservation",
                       f"kernel {kernel.name}#{kernel.index} loses WGs: "
                       f"completed({completed}) + resident({resident}) + "
                       f"queued({pending}) != dispatched({num})", context)

    def _check_job_conservation(self, job: "Job",
                                dispatcher: "WGDispatcher") -> None:
        total = job.total_wgs
        completed = sum(k.wgs_completed for k in job.kernels)
        resident = sum(dispatcher.resident_wgs(k) for k in job.kernels)
        queued = sum(k.wgs_pending for k in job.kernels)
        if completed + resident + queued != total:
            self._fail("wg_conservation",
                       f"job {job.job_id} loses WGs: completed({completed}) "
                       f"+ resident({resident}) + queued({queued}) != "
                       f"dispatched({total})",
                       {"job": job.job_id, "total_wgs": total,
                        "completed": completed, "resident": resident,
                        "queued": queued})

    # ------------------------------------------------------------------
    # Command-processor hooks
    # ------------------------------------------------------------------

    def on_kernel_complete(self, kernel: "KernelInstance") -> None:
        """A kernel finished; its stream prerequisites must all be done."""
        self._count("stream_fifo")
        job = kernel.job
        for dep in job.kernel_dependencies(kernel.index):
            predecessor = job.kernels[dep]
            if not predecessor.is_done:
                self._fail("stream_fifo",
                           f"kernel {kernel.name}#{kernel.index} of job "
                           f"{job.job_id} completed before its prerequisite "
                           f"#{dep} ({predecessor.name})",
                           {"job": job.job_id, "kernel": kernel.name,
                            "index": kernel.index, "prerequisite": dep,
                            "prerequisite_phase": predecessor.phase.value})
        if kernel.phase is not KernelPhase.DONE:
            self._fail("stream_fifo",
                       f"kernel {kernel.name}#{kernel.index} reported "
                       f"complete while {kernel.phase.value}",
                       {"job": job.job_id, "kernel": kernel.name,
                        "index": kernel.index, "phase": kernel.phase.value})

    def on_job_event(self, job: "Job", event: str) -> None:
        """A job changed state; audit lifecycle, release marker, laxity."""
        self._count("job_lifecycle")
        context = {"job": job.job_id, "event": event,
                   "state": job.state.value}
        if not 0 <= job.released_kernels <= job.num_kernels:
            self._fail("stream_fifo",
                       f"job {job.job_id} release marker "
                       f"{job.released_kernels} outside "
                       f"[0, {job.num_kernels}]", context)
        if job.state is JobState.COMPLETED:
            if job.completion_time is None:
                self._fail("job_lifecycle",
                           f"job {job.job_id} completed without a "
                           "completion time", context)
            if any(not k.is_done for k in job.kernels):
                self._fail("job_lifecycle",
                           f"job {job.job_id} completed with unfinished "
                           "kernels", context)
        if job.state is JobState.REJECTED and job.rejection_time is None:
            self._fail("job_lifecycle",
                       f"job {job.job_id} rejected without a rejection "
                       "time", context)
        if job.is_live and job.deadline is not None:
            self._check_laxity(job)
        self._check_queue_pool()

    def on_job_retired(self, job: "Job", pool) -> None:
        """A terminal job is about to release its kernel state.

        Retirement must be the *last* thing that happens to a job: it may
        not fire while the job is live, still bound to (or backlogged
        behind) a compute queue, or still owns resident WGs on any CU.
        """
        self._count("job_retirement")
        context = {"job": job.job_id, "state": job.state.value}
        if not job.is_done:
            self._fail("job_retirement",
                       f"job {job.job_id} retired while {job.state.value}",
                       context)
        if job.retired:
            self._fail("job_retirement",
                       f"job {job.job_id} retired twice", context)
        if job.job_id in pool._by_job:
            self._fail("job_retirement",
                       f"job {job.job_id} retired while bound to queue "
                       f"{pool._by_job[job.job_id].queue_id}", context)
        if any(j.job_id == job.job_id for j in pool.backlog):
            self._fail("job_retirement",
                       f"job {job.job_id} retired while backlogged", context)
        dispatcher = self._dispatcher
        if dispatcher is not None:
            resident = sum(dispatcher.resident_wgs(k) for k in job.kernels)
            if resident:
                self._fail("job_retirement",
                           f"job {job.job_id} retired with {resident} "
                           "resident WGs",
                           {"job": job.job_id, "resident": resident})
            for kernel in job.kernels:
                if kernel in dispatcher.active_kernels:
                    self._fail("job_retirement",
                               f"job {job.job_id} retired with kernel "
                               f"{kernel.name}#{kernel.index} still active",
                               {"job": job.job_id, "kernel": kernel.name})

    def _check_laxity(self, job: "Job") -> None:
        """Equation 1 identities between the laxity helpers."""
        self._count("laxity_consistency")
        now = self._sim.now
        table = self._profiler
        remaining = estimate_remaining_time(job, table, now)
        context = {"job": job.job_id, "deadline": job.deadline,
                   "elapsed": job.elapsed(now), "remaining": remaining}
        if remaining < 0 or not math.isfinite(remaining):
            self._fail("laxity_consistency",
                       f"job {job.job_id} remaining-time estimate is "
                       f"{remaining}", context)
        laxity = laxity_time(job, table, now)
        expected = job.deadline - (job.elapsed(now) + remaining)
        context["laxity"] = laxity
        if abs(laxity - expected) > FLOAT_TOLERANCE:
            self._fail("laxity_consistency",
                       f"job {job.job_id} laxity {laxity} != deadline - "
                       f"elapsed - remaining = {expected}", context)
        priority = laxity_priority(job, table, now)
        context["priority"] = priority
        if job.elapsed(now) > job.deadline:
            if priority != math.inf:
                self._fail("laxity_consistency",
                           f"job {job.job_id} is past its deadline but "
                           f"priority is {priority}, not infinite", context)
        elif priority < 0:
            self._fail("laxity_consistency",
                       f"job {job.job_id} priority {priority} is negative",
                       context)

    def _check_queue_pool(self) -> None:
        """Queue bindings are a bijection; backlog and queues are disjoint."""
        self._count("queue_pool")
        pool = self._pool
        bound = 0
        for queue in pool.queues:
            job = queue.job
            if job is None:
                continue
            bound += 1
            mapped = pool._by_job.get(job.job_id)
            if mapped is not queue:
                self._fail("queue_pool",
                           f"queue {queue.queue_id} holds job {job.job_id} "
                           "but the pool maps that job elsewhere",
                           {"queue": queue.queue_id, "job": job.job_id})
        if bound != pool.num_bound:
            self._fail("queue_pool",
                       f"pool reports {pool.num_bound} bound queues but "
                       f"{bound} queues hold jobs",
                       {"reported": pool.num_bound, "actual": bound})
        if pool.num_free + pool.num_bound != len(pool.queues):
            self._fail("queue_pool",
                       f"free({pool.num_free}) + bound({pool.num_bound}) != "
                       f"queues({len(pool.queues)})",
                       {"free": pool.num_free, "bound": pool.num_bound,
                        "queues": len(pool.queues)})
        backlogged = {job.job_id for job in pool.backlog}
        for queue in pool.queues:
            if queue.job is not None and queue.job.job_id in backlogged:
                self._fail("queue_pool",
                           f"job {queue.job.job_id} is both bound to queue "
                           f"{queue.queue_id} and backlogged",
                           {"queue": queue.queue_id,
                            "job": queue.job.job_id})

    # ------------------------------------------------------------------
    # End of run
    # ------------------------------------------------------------------

    def on_run_end(self, system: "GPUSystem", metrics) -> None:
        """Final audit: the device drained and the books balance."""
        self._count("run_end")
        pool = system.pool
        if pool.num_bound or pool.backlog:
            self._fail("run_end",
                       f"run ended with {pool.num_bound} bound and "
                       f"{len(pool.backlog)} backlogged jobs",
                       {"bound": pool.num_bound,
                        "backlogged": len(pool.backlog)})
        for cu in system.dispatcher.cus:
            if cu.num_residents:
                self._fail("run_end",
                           f"CU{cu.cu_id} ended the run with "
                           f"{cu.num_residents} resident WGs",
                           {"cu": cu.cu_id, "residents": cu.num_residents})
        outcomes = metrics.outcomes
        terminal = sum(1 for o in outcomes
                       if o.completion is not None or o.accepted is False)
        if terminal != len(outcomes):
            self._fail("run_end",
                       f"{len(outcomes) - terminal} of {len(outcomes)} jobs "
                       "ended the run without a terminal outcome",
                       {"jobs": len(outcomes), "terminal": terminal})
        completed_wgs = sum(o.total_wgs for o in outcomes
                            if o.completion is not None)
        # Retired jobs banked their completed-WG counts in the stream
        # aggregate before their outcomes were folded away.
        if metrics.stream is not None:
            completed_wgs += metrics.stream.completed_wgs
        if metrics.wg_completions < completed_wgs:
            self._fail("run_end",
                       f"only {metrics.wg_completions} WG completions "
                       f"recorded but completed jobs dispatched "
                       f"{completed_wgs}",
                       {"wg_completions": metrics.wg_completions,
                        "completed_job_wgs": completed_wgs})
