"""LAX: the laxity-aware CP scheduler (Section 4, the paper's contribution).

The pieces, all device-resident:

* **Stream inspection** builds each job's WGList when it is submitted
  (latency modelled by the CP's parser bank).
* The **Job Table** tracks per-queue state; the **Kernel Profiling Table**
  tracks per-kernel-type WG completion rates over 100 us windows.
* **Admission** (Algorithm 1) rejects jobs whose Little's-Law queuing
  delay plus own estimate would overrun the deadline.
* Every 100 us, **Algorithm 2** reassigns each live job's priority from
  its laxity (Equation 1): smallest laxity first, predicted-missers behind
  everyone with positive laxity, past-deadline jobs last.  The tick (and
  Algorithm 1's late-reject sweep before it) is masked array math over
  the Job Table's rows at every population, with decision telemetry or a
  prediction tracker attached or not; ``laxity_priority`` and
  ``steady_state_pass`` stay as the per-job reference implementations.
* New jobs start at the **highest** priority — the empirically best choice
  per the paper's footnote 2; ``init_priority`` exposes the two
  alternatives the footnote compares for the ablation bench.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Optional

import numpy as _np

from ..core.admission import QueuingDelayAdmission
from ..core.job_table import JobTable
from ..core.laxity import (INFINITE_PRIORITY, RemainingTimeCache,
                           laxity_priority)
from ..errors import ConfigError
from ..metrics.tracking import PredictionTracker
from ..sim.engine import PeriodicTask
from ..sim.job import Job
from .base import SchedulerPolicy

#: Valid ``init_priority`` modes (paper footnote 2).
INIT_PRIORITY_MODES = ("highest", "lowest", "estimate")

#: Tabled-job count below which admission's ``totRemTime`` is one
#: flattened loop over the cache (``RemainingTimeCache.outstanding_sum``)
#: rather than a cumulative sum over the Job Table's rows: numpy's fixed
#: per-op cost dominates tiny arrays, and admission runs once per
#: arrival (``docs/performance.md``, "One LAX tick", times both).  The
#: only population gate left in LAX; the tick has none.  Both sides make
#: the same decisions, so the gate is purely a cost model.
_VEC_MIN_JOBS = 64

#: Priority order used by the prediction sampler: precomputed attrgetter
#: instead of a per-tick lambda (same tuples, no closure dispatch).
_PRIORITY_KEY = attrgetter("priority", "arrival", "job_id")


class TickStats:
    """Accounting of the epoch-gated Algorithm 2 tick.

    A tick is *elided* when every live job's remaining-time estimate came
    out of the :class:`~repro.core.laxity.RemainingTimeCache` — the rank
    epoch stood still, so the tick ran without a single WGList walk or
    profiling-table read.  *Incremental* ticks recomputed only the
    epoch-dirty jobs.  Either way the O(live) priority refresh still runs:
    laxity drifts with the clock, so the published values must track
    ``now`` even when the ordering inputs are unchanged.
    """

    __slots__ = ("ticks", "ticks_elided", "ticks_incremental",
                 "walks_recomputed", "walks_reused", "jobs_ranked")

    def __init__(self) -> None:
        self.ticks = 0
        self.ticks_elided = 0
        self.ticks_incremental = 0
        self.walks_recomputed = 0
        self.walks_reused = 0
        self.jobs_ranked = 0

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}


class LaxityScheduler(SchedulerPolicy):
    """The integrated laxity-aware scheduler (LAX)."""

    name = "LAX"

    def __init__(self, init_priority: str = "highest",
                 enable_admission: bool = True,
                 tracker: Optional[PredictionTracker] = None,
                 warm_rates: Optional[dict] = None) -> None:
        super().__init__()
        if init_priority not in INIT_PRIORITY_MODES:
            raise ConfigError(
                f"init_priority must be one of {INIT_PRIORITY_MODES}")
        self._init_priority = init_priority
        self._enable_admission = enable_admission
        self._tracker = tracker
        #: Offline-profiled per-kernel rates seeded into the profiling
        #: table at start (see :mod:`repro.core.calibration`).
        self._warm_rates = dict(warm_rates) if warm_rates else None
        self._admission: Optional[QueuingDelayAdmission] = None
        self._updater: Optional[PeriodicTask] = None
        self.job_table: Optional[JobTable] = None
        self._remaining_cache: Optional[RemainingTimeCache] = None
        #: Tick accounting.
        self.tick_stats = TickStats()
        #: O(1) admission reserve: sum of first-kernel WG counts over
        #: READY jobs, maintained incrementally by the lifecycle hooks
        #: (admit adds, first serve / late reject subtracts the same
        #: amount, recorded on the job).  See :meth:`_reserved_wgs`.
        self._ready_reserve = 0

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------

    def start(self) -> None:
        self.job_table = JobTable(self.ctx.config.gpu.num_queues)
        self._remaining_cache = RemainingTimeCache(self.ctx.profiler)
        self._remaining_cache.on_invalidated = self.job_table.mark_jobs_stale
        self._admission = QueuingDelayAdmission(
            self.ctx.profiler, estimate=self._cached_estimate,
            outstanding=self._outstanding_time)
        if self._warm_rates:
            from ..core.calibration import warm_table
            warm_table(self.ctx.profiler, self._warm_rates)
        self._updater = PeriodicTask(
            self.ctx.sim, self.ctx.config.overheads.lax_update_period,
            self._update_priorities, self._any_live_jobs)

    @property
    def admission(self) -> Optional[QueuingDelayAdmission]:
        """Admission statistics (None before :meth:`start`)."""
        return self._admission

    def _cached_estimate(self, job: Job, table, now: int) -> float:
        """``estimate_remaining_time`` through the rank-epoch cache.

        Signature-compatible with the free function so Algorithm 1's
        helpers accept it unchanged.
        """
        return self._remaining_cache.remaining(job, now)

    # ------------------------------------------------------------------
    # Admission (Algorithm 1)
    # ------------------------------------------------------------------

    def admit(self, job: Job) -> bool:
        if not self._enable_admission:
            if self.decisions_enabled:
                self.emit_decision("admission_verdict", job_id=job.job_id,
                                   accepted=True, reason="policy_default")
            return True
        verdict = self._admission.evaluate(
            job, self.ctx.live_jobs(), self.ctx.now,
            cus=self.ctx.dispatcher.cus,
            reserved_wgs=self._reserved_wgs(job))
        if self.decisions_enabled:
            self._emit_admission(job)
        return verdict

    def _emit_admission(self, job: Job) -> None:
        """Mirror the admission verdict (with its Little's-Law inputs)
        into the decision log."""
        decision = self._admission.last_decision
        self.emit_decision(
            "admission_verdict", job_id=job.job_id,
            accepted=decision.accepted, reason=decision.reason,
            tot_rem_time=decision.tot_rem_time,
            hold_time=decision.hold_time, dur_time=decision.dur_time,
            deadline=decision.deadline)

    def _outstanding_time(self, now: int, exclude: Job) -> Optional[float]:
        """Algorithm 1's ``totRemTime`` (lines 3-10) over the live jobs.

        Below :data:`_VEC_MIN_JOBS` tabled jobs, one flattened loop over
        the rank-epoch cache (:meth:`RemainingTimeCache.outstanding_sum`).
        At the gate and above, a cumulative sum over the Job Table's
        rows, which is :func:`repro.core.admission.total_outstanding_time`
        bit for bit:

        * the table holds exactly the live past-*init* jobs the scalar
          loop sums (admission inserts, completion and rejection remove;
          the candidate ``exclude`` is still *init*, so it is never
          tabled), and deadline-less rows are masked out;
        * :meth:`JobTable.rows` yields queue-id order, the order
          ``QueuePool.live_jobs`` gives the scalar loop, and ``cumsum``
          accumulates left to right like the loop, so the same floats
          are added in the same order;
        * each term is the cached estimate with the cold-start deadline
          fallback of ``remaining_time_or_deadline``;
        * the cache is synced up front, as the scalar loop's first
          estimate would, and only then are stale rows refreshed through
          it (the sync may mark more rows stale).  The refresh may warm
          rows the scalar sum skips, which is unobservable.
        """
        table = self.job_table
        if len(table) < _VEC_MIN_JOBS:
            return self._remaining_cache.outstanding_sum(
                self.ctx.live_jobs(), now, exclude)
        self._remaining_cache.sync(now)
        rows = table.rows()
        stale = rows[table.stale[rows]]
        if stale.size:
            self._refresh_rows(stale, now)
        rows = rows[~_np.isnan(table.deadline[rows])]
        if rows.size == 0:
            return 0.0
        remaining = table.remaining[rows]
        # remaining_time_or_deadline: a zero estimate (no rates anywhere
        # for the job's kernels) charges the remaining deadline budget.
        # elapsed = max(0, now - arrival); int64 -> float64 is lossless at
        # simulation magnitudes (< 2**53).
        budget = table.deadline[rows] - _np.maximum(
            now - table.arrival[rows], 0)
        values = _np.where(remaining > 0.0, remaining,
                           _np.maximum(budget, 0.0))
        return float(values.cumsum()[-1])

    def _refresh_rows(self, rows, now: int) -> int:
        """Recompute the given stale rows' estimates through the cache and
        return how many were refreshed.  The cache stays the one source
        of the values, so the scalar admission sum sees them warm."""
        table = self.job_table
        jobs = table.jobs
        remaining = table.remaining
        stale = table.stale
        estimate = self._remaining_cache.remaining
        rows = rows.tolist()
        for row in rows:
            remaining[row] = estimate(jobs[row], now)
            stale[row] = False
        return len(rows)

    def _reserved_wgs(self, candidate: Job) -> int:
        """WGs promised to admitted jobs whose work is not yet resident.

        The O(1) counter ``_ready_reserve``: the sum of ``wgs_pending``
        over READY jobs' next kernels.  The candidate is still *init* and
        never counted; READY jobs have issued nothing, so each counted
        amount equals the job's live ``wgs_pending``.
        """
        return self._ready_reserve

    # ------------------------------------------------------------------
    # Job lifecycle
    # ------------------------------------------------------------------

    def on_job_admitted(self, job: Job) -> None:
        kernel = job.next_kernel()
        if kernel is not None:
            # Job is READY here (the CP marks it before this hook) and
            # nothing has issued yet, so ``wgs_pending`` equals the first
            # kernel's full WG count.  Record the amount on the job so
            # the serve/reject hooks subtract exactly what was added.
            job.reserve_counted = kernel.wgs_pending
            self._ready_reserve += kernel.wgs_pending
        job.priority = self._initial_priority(job)
        self.job_table.insert(job)
        self._updater.ensure_running()

    def on_job_complete(self, job: Job) -> None:
        if job.reserve_counted:
            # Defensive: a job cannot complete without issuing, so the
            # serve hook normally cleared this already.
            self._ready_reserve -= job.reserve_counted
            job.reserve_counted = 0
        self._remaining_cache.forget(job)
        self.job_table.remove(job)
        if self._tracker is not None:
            self._tracker.finalize_job(job)

    def on_job_rejected(self, job: Job) -> None:
        if job.reserve_counted:
            # Late (steady-state sweep) rejection of a still-READY job;
            # arrival-time rejects were never counted.
            self._ready_reserve -= job.reserve_counted
            job.reserve_counted = 0
        # Arrival-time candidates are cached by the admission estimator,
        # so even never-tabled jobs must be pruned.
        self._remaining_cache.forget(job)
        # Arrival-time rejections never reached the table; late rejections
        # (steady-state sweep) did and must leave it.
        if job in self.job_table:
            self.job_table.remove(job)

    def on_wg_complete(self, kernel) -> None:
        self.job_table.mark_stale(kernel.job)

    def on_job_extended(self, job: Job) -> None:
        self.job_table.mark_stale(job)

    def on_kernels_served(self, kernels) -> None:
        mark_running = self.job_table.mark_running
        for kernel in kernels:
            job = kernel.job
            # The dispatcher marked the job running; mirror the
            # READY -> RUNNING edge into its row (the sweep treats
            # running jobs differently — they are never estimate-rejected).
            mark_running(job)
            counted = job.reserve_counted
            if counted:
                # READY -> RUNNING edge: the job's promised WGs are now
                # (partly) resident, so the admission scan stops counting
                # it — drop the amount recorded at admission.
                self._ready_reserve -= counted
                job.reserve_counted = 0

    def _initial_priority(self, job: Job) -> float:
        if not job.is_latency_sensitive:
            # Best-effort work backfills from the start (Section 5.2).
            return INFINITE_PRIORITY
        if self._init_priority == "highest":
            return 0.0
        if self._init_priority == "lowest":
            return INFINITE_PRIORITY
        return laxity_priority(job, self.ctx.profiler, self.ctx.now)

    # ------------------------------------------------------------------
    # Algorithm 2: the 100 us priority update
    # ------------------------------------------------------------------

    def _update_priorities(self) -> None:
        """Algorithm 2, after Algorithm 1's late-reject sweep, as masked
        math over the Job Table's rows: one tick at every population,
        with or without a decision log or prediction tracker.

        Makes a walking tick's decisions
        (:func:`~repro.core.admission.steady_state_pass`, then
        :func:`laxity_priority` per live job) without its redundant walks;
        ``docs/performance.md`` has the full argument:

        * estimates come from the :class:`RemainingTimeCache`, the exact
          float a fresh walk returns; a row's ``remaining`` mirrors it and
          is refreshed through the cache exactly when the entry is (or
          would be) stale;
        * ``cache.sync(now)`` runs iff some row needs an estimate, where a
          walking tick first reads the profiling table, so the window
          rolls at the same times; with decisions on, every deadline
          row's estimate is read, past-deadline rows included, for the
          events' laxity;
        * each elementwise float64 operation is one scalar operation of
          :func:`laxity_priority`, with no reduction order to perturb;
          int64 -> float64 conversions are exact below 2**53 ticks;
        * priorities are written in ``ctx.live_jobs()`` order, which is
          :meth:`JobTable.rows` order; *init* jobs (bound to a queue,
          admission pending, not tabled) take :func:`laxity_priority`'s
          value through the cache at their positions, so events come out
          in a walking tick's order.  The tracker samples afterwards.

        The O(live) refresh runs every tick, because laxity drifts with
        ``now``; the epoch gates only the walks and table reads.
        """
        now = self.ctx.now
        cache = self._remaining_cache
        table = self.job_table
        stats = self.tick_stats
        emit = self.decisions_enabled
        recomputed_before = cache.recomputed
        reused_before = cache.reused
        if self._enable_admission:
            self._steady_state_rejects(now, emit)
        rows = table.rows()
        values, estimates = [], []
        estimated = refreshed = 0
        if rows.size:
            deadline = table.deadline[rows]
            elapsed = _np.maximum(now - table.arrival[rows], 0)
            # NaN deadlines (latency-insensitive) compare False here and
            # fall into the INFINITE_PRIORITY fill below, like
            # laxity_priority's ``deadline is None`` branch.
            eligible = elapsed <= deadline
            need = ~_np.isnan(deadline) if emit else eligible
            estimated = int(_np.count_nonzero(need))
            if estimated:
                cache.sync(now)
                # Read staleness only after the sync: its invalidation
                # callback may have marked additional rows stale.
                stale = table.stale[rows] & need
                if stale.any():
                    refreshed = self._refresh_rows(rows[stale], now)
            rem = table.remaining[rows]
            completion = rem + elapsed
            priority = _np.where(deadline > completion,
                                 deadline - completion, completion)
            priority[~eligible] = INFINITE_PRIORITY
            values = priority.tolist()
            if emit:
                estimates = rem.tolist()
        jobs = table.jobs
        if self.ctx.pool.num_bound == len(values):
            # Every live job is tabled: the rows are the live set, in
            # queue-id order (cheaper than rebuilding the pool's list).
            live = list(map(jobs.__getitem__, rows.tolist()))
        else:
            # Untabled live jobs are *init* jobs, bound to a queue with
            # their admission decision in flight: insert laxity_priority's
            # value through the cache at their queue-id positions.
            live = self.ctx.live_jobs()
            for position, job in enumerate(live):
                if jobs[job.queue_id] is not job:
                    value, remaining = self._init_job_priority(job, now,
                                                               emit)
                    values.insert(position, value)
                    if emit:
                        estimates.insert(position, remaining)
        if emit:
            self._emit_priority_updates(live, values, estimates, now)
        for job, value in zip(live, values):
            job.priority = value
        if self._tracker is not None:
            self._record_predictions(live, now)
        # The standing issue order is keyed by the priorities just
        # rewritten: mark it stale, and its next bucketed pump re-keys it
        # in place.
        self.ctx.dispatcher.invalidate_order()
        walked = cache.recomputed - recomputed_before
        stats.ticks += 1
        stats.walks_recomputed += walked
        # Rows consumed without touching the dict cache are reuses too:
        # the mirror held the exact cached float.
        stats.walks_reused += (cache.reused - reused_before
                               + estimated - refreshed)
        stats.jobs_ranked += len(live)
        if walked:
            stats.ticks_incremental += 1
        else:
            stats.ticks_elided += 1

    def _emit_priority_updates(self, live, priorities, estimates,
                               now: int) -> None:
        """One ``priority_update`` per deadline job whose priority is
        about to change, in queue-id order, with its Equation 1 laxity
        and the estimate behind it."""
        for job, priority, remaining in zip(live, priorities, estimates):
            previous = job.priority
            if priority != previous and job.deadline is not None:
                self.emit_decision(
                    "priority_update", job_id=job.job_id, priority=priority,
                    previous=previous,
                    laxity=job.deadline - (job.elapsed(now) + remaining),
                    remaining_estimate=remaining)

    def _init_job_priority(self, job: Job, now: int, emit: bool) -> tuple:
        """:func:`laxity_priority` for an untabled *init* job, with the
        walk replaced by the cache; returns ``(priority, remaining)``.
        With decisions on, a past-deadline job's estimate is read too."""
        deadline = job.deadline
        elapsed = job.elapsed(now)
        if deadline is None or (elapsed > deadline and not emit):
            return INFINITE_PRIORITY, None
        remaining = self._remaining_cache.remaining(job, now)
        if elapsed > deadline:
            return INFINITE_PRIORITY, remaining
        completion = remaining + elapsed
        return (deadline - completion if deadline > completion
                else completion), remaining

    def _steady_state_rejects(self, now: int, emit: bool) -> None:
        """Algorithm 1's continuous sweep over the Job Table's rows
        (:func:`~repro.core.admission.steady_state_pass`'s decisions):
        evict jobs that can no longer make their deadlines so their work
        stops wasting the device.

        Walks the same standing ``(start_time, job_id)`` order with the
        same sequential ``totRemTime`` prefix — ``np.add.accumulate`` is
        a left-to-right sum, and skipped jobs contribute exact 0.0 terms
        (``x + 0.0 == x`` for the non-negative estimates involved), so
        every candidate sees bit-for-bit the scalar pass's prefix.
        Rejects are discovered first-to-last: each discovery removes that
        job's contribution and rescans only positions after it, mirroring
        the scalar pass where a rejected job never enters the prefix.
        The whole pass decides before any ``cancel_job`` runs, exactly
        like the scalar pass (which returns a list); with decisions on,
        each ``late_reject`` is emitted just before its cancellation, its
        ``tot_rem_time`` read from the cache at that moment.
        """
        table = self.job_table
        order = table.order()
        if order.size == 0:
            return
        deadline = table.deadline[order]
        elapsed = _np.maximum(now - table.arrival[order], 0)
        past = elapsed > deadline  # NaN deadline -> False: never past
        need = ~_np.isnan(deadline) & ~past
        if need.any():
            self._remaining_cache.sync(now)
            stale = table.stale[order] & need
            if stale.any():
                self._refresh_rows(order[stale], now)
        rem = table.remaining[order]
        contrib = need & (rem > 0.0)
        cand = contrib & ~table.running[order]
        rejected = past.copy()
        if cand.any():
            vals = _np.where(contrib, rem, 0.0)
            start = 0
            while True:
                cum = _np.add.accumulate(vals)
                tot_excl = _np.empty_like(cum)
                tot_excl[0] = 0.0
                tot_excl[1:] = cum[:-1]
                # Scalar association order: (tot + remaining) + dur.
                cond = cand & ((tot_excl + rem) + elapsed >= deadline)
                hits = _np.nonzero(cond[start:])[0]
                if hits.size == 0:
                    break
                first = start + int(hits[0])
                rejected[first] = True
                cand[first] = False
                vals[first] = 0.0
                start = first + 1
        if not rejected.any():
            return
        jobs = table.jobs
        rejects = [jobs[row] for row in order[rejected].tolist()]
        cp = self.ctx.cp
        for job in rejects:
            self._admission.late_rejected += 1
            if emit:
                dur = job.elapsed(now)
                self.emit_decision(
                    "late_reject", job_id=job.job_id,
                    reason=("past_deadline" if dur > job.deadline
                            else "queuing_delay"),
                    elapsed=dur, deadline=job.deadline,
                    tot_rem_time=self._remaining_cache.remaining(job, now))
            cp.cancel_job(job)

    def _record_predictions(self, live, now: int) -> None:
        """Sample Figure 10's predicted completion time per tracked job.

        The prediction is prefix-aware, mirroring Algorithm 1's queue
        walk: a job's completion estimate is its elapsed time plus the
        drain time of every job ahead of it in the current priority order
        plus its own remaining estimate — consistent with the service
        order the laxity priorities themselves induce.
        """
        cache = self._remaining_cache
        ordered = sorted(live, key=_PRIORITY_KEY)
        prefix = 0.0
        for job in ordered:
            remaining = cache.remaining(job, now)
            prefix += remaining
            if self._tracker.tracks(job):
                predicted = job.elapsed(now) + prefix
                self._tracker.record(job, now, predicted, job.priority)
