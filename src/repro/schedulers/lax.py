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
  everyone with positive laxity, past-deadline jobs last.
* New jobs start at the **highest** priority — the empirically best choice
  per the paper's footnote 2; ``init_priority`` exposes the two
  alternatives the footnote compares for the ablation bench.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Optional

import numpy as _np

from ..core import rank_soa
from ..core.admission import QueuingDelayAdmission, steady_state_pass
from ..core.job_table import JobTable
from ..core.laxity import (INFINITE_PRIORITY, RemainingTimeCache,
                           laxity_priority)
from ..core.rank_soa import RankSoA
from ..errors import ConfigError
from ..metrics.tracking import PredictionTracker
from ..sim.engine import PeriodicTask
from ..sim.job import Job
from .base import SchedulerPolicy

#: Valid ``init_priority`` modes (paper footnote 2).
INIT_PRIORITY_MODES = ("highest", "lowest", "estimate")

#: Tabled-job count below which the scalar tick and admission sum beat
#: the SoA path (numpy's fixed per-op cost dominates tiny arrays) — the
#: rank-level analogue of ``dispatcher._BUCKETED_MIN_ACTIVE``.  The
#: SUSTAINED streaming cells retire jobs and hold ~50 live, so they stay
#: on the scalar path; the 1280-job fleet cell crosses over as soon as
#: its backlog builds.  Both sides make the same decisions, so the gate
#: is purely a cost model.
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
        #: Struct-of-arrays rank state; ``None`` for host-side variants.
        self._rank_soa: Optional[RankSoA] = None
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
        self._remaining_cache = RemainingTimeCache(self.ctx.profiler)
        # Host-side variants rank on the host and never read the SoA.
        if not self.host_side:
            self._rank_soa = RankSoA(self._remaining_cache)
        self._admission = QueuingDelayAdmission(
            self.ctx.profiler, estimate=self._cached_estimate,
            outstanding=self._outstanding_time)
        self.job_table = JobTable(self.ctx.config.gpu.num_queues)
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
        """Algorithm 1's ``totRemTime`` over the live jobs.

        At :data:`_VEC_MIN_JOBS` tabled jobs and above, a cumulative sum
        over the rank SoA, which tracks exactly the live past-*init* jobs
        Algorithm 1 sums and permutes its slots into the scalar loop's
        queue-id iteration order (see :meth:`RankSoA.outstanding_time`);
        below it, one flattened loop over the rank-epoch cache
        (:meth:`RemainingTimeCache.outstanding_sum`).  Both accumulate
        the same floats left to right.
        """
        soa = self._rank_soa
        if soa is not None and len(soa) >= _VEC_MIN_JOBS:
            return soa.outstanding_time(now, exclude)
        return self._remaining_cache.outstanding_sum(
            self.ctx.live_jobs(), now, exclude)

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
        if self._rank_soa is not None:
            self._rank_soa.add(job)
        self._updater.ensure_running()

    def on_job_complete(self, job: Job) -> None:
        if job.reserve_counted:
            # Defensive: a job cannot complete without issuing, so the
            # serve hook normally cleared this already.
            self._ready_reserve -= job.reserve_counted
            job.reserve_counted = 0
        if self._remaining_cache is not None:
            self._remaining_cache.forget(job)
        if self._rank_soa is not None:
            self._rank_soa.remove(job)
        self.job_table.remove(job)
        if self._tracker is not None:
            self._tracker.finalize_job(job)

    def on_job_rejected(self, job: Job) -> None:
        if job.reserve_counted:
            # Late (steady-state sweep) rejection of a still-READY job;
            # arrival-time rejects were never counted.
            self._ready_reserve -= job.reserve_counted
            job.reserve_counted = 0
        if self._remaining_cache is not None:
            # Arrival-time candidates are cached by the admission
            # estimator, so even never-tabled jobs must be pruned.
            self._remaining_cache.forget(job)
        if self._rank_soa is not None:
            # No-op for never-tabled (arrival-time) rejects: they were
            # never assigned a slot.
            self._rank_soa.remove(job)
        # Arrival-time rejections never reached the table; late rejections
        # (steady-state sweep) did and must leave it.
        if self.job_table is None or job.queue_id is None:
            return
        entry = self.job_table.get(job.queue_id)
        if entry is not None and entry.job is job:
            self.job_table.remove(job)

    def on_wg_complete(self, kernel) -> None:
        if self._rank_soa is not None:
            self._rank_soa.mark_stale(kernel.job)

    def on_job_extended(self, job: Job) -> None:
        if self._rank_soa is not None:
            self._rank_soa.mark_stale(job)

    def on_kernels_served(self, kernels) -> None:
        # The dispatcher marked these kernels' jobs running; mirror the
        # READY -> RUNNING edge into the slot arrays (the sweep treats
        # running jobs differently — they are never estimate-rejected).
        soa = self._rank_soa
        if soa is not None:
            for kernel in kernels:
                soa.mark_running(kernel.job)
        for kernel in kernels:
            job = kernel.job
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
        try:
            # The vectorized tick rides on the scalar one (same cache,
            # same standing order); it bows out whenever per-job side
            # channels are active — decision logging and the prediction
            # tracker want the scalar loop's per-job interleaving — and
            # below the ``_VEC_MIN_JOBS`` population where array setup
            # costs more than the scalar sweep.
            if (self._rank_soa is not None
                    and len(self._rank_soa) >= _VEC_MIN_JOBS
                    and self._tracker is None and not self.decisions_enabled):
                self._update_priorities_vectorized()
            else:
                self._update_priorities_gated()
        finally:
            # Every variant (and its steady-state sweep) rewrites live
            # priorities.  The dispatcher's standing issue order is keyed
            # by them: mark it stale, and its next bucketed pump re-keys
            # it in place.
            self.ctx.dispatcher.invalidate_order()

    def _update_priorities_gated(self) -> None:
        """The epoch-gated tick: Algorithm 2 without redundant walks.

        Computes what a fresh per-tick walk of every job would:

        * remaining-time estimates come from the
          :class:`~repro.core.laxity.RemainingTimeCache`, which returns
          exactly the float a fresh WGList walk would (same inputs, same
          arithmetic) and recomputes when any input's version moved;
        * the cache is consulted at *exactly* the call sites a walking
          tick would call ``estimate_remaining_time``, so the profiling
          window rolls at the same timestamps;
        * the priority arithmetic below mirrors :func:`laxity_priority` /
          :func:`priority_with_estimates` operation-for-operation;
        * the steady-state sweep walks the Job Table's standing
          ``(start_time, job_id)`` order instead of re-sorting — the same
          sequence, because the key is frozen per job at bind time and
          *init* jobs (the only live jobs not tabled) are skipped by the
          sweep anyway.

        The O(live) arithmetic refresh is *not* skipped on a quiet epoch:
        laxity shifts with ``now`` and a make-it job crossing into
        predicted-miss re-ranks with no input changing, so published
        priority values must track the clock every tick.  What the epoch
        gates is the expensive part — WGList walks and table reads.
        """
        now = self.ctx.now
        cache = self._remaining_cache
        stats = self.tick_stats
        recomputed_before = cache.recomputed
        reused_before = cache.reused
        if self._enable_admission:
            self._steady_state_rejects_gated(now)
        live = self.ctx.live_jobs()
        emit = self.decisions_enabled
        for job in live:
            deadline = job.deadline
            if not emit or deadline is None:
                # laxity_priority, with the walk replaced by the cache.
                if deadline is None:
                    job.priority = INFINITE_PRIORITY
                    continue
                elapsed = job.elapsed(now)
                if elapsed > deadline:
                    job.priority = INFINITE_PRIORITY
                    continue
                completion = cache.remaining(job, now) + elapsed
                job.priority = (deadline - completion
                                if deadline > completion else completion)
                continue
            # priority_with_estimates, with the walk replaced likewise.
            previous = job.priority
            remaining = cache.remaining(job, now)
            elapsed = job.elapsed(now)
            laxity = deadline - (elapsed + remaining)
            if elapsed > deadline:
                priority = INFINITE_PRIORITY
            else:
                completion = remaining + elapsed
                priority = (deadline - completion
                            if deadline > completion else completion)
            job.priority = priority
            if priority != previous:
                self.emit_decision(
                    "priority_update", job_id=job.job_id,
                    priority=priority, previous=previous, laxity=laxity,
                    remaining_estimate=remaining)
        if self._tracker is not None:
            self._record_predictions(live, now)
        walked = cache.recomputed - recomputed_before
        stats.ticks += 1
        stats.walks_recomputed += walked
        stats.walks_reused += cache.reused - reused_before
        stats.jobs_ranked += len(live)
        if walked:
            stats.ticks_incremental += 1
        else:
            stats.ticks_elided += 1

    def _update_priorities_vectorized(self) -> None:
        """The struct-of-arrays tick: Algorithm 2 as masked array math.

        Makes :meth:`_update_priorities_gated`'s decisions by
        construction (the full argument lives in ``docs/performance.md``):

        * estimates still come from the :class:`RemainingTimeCache` —
          the slot arrays only *mirror* its floats, refreshed through
          :meth:`RemainingTimeCache.remaining` for exactly the slots
          whose dict entry is (or would be) stale, so every consumed
          value is the cached float the scalar tick would read;
        * the elementwise priority arithmetic (``rem + elapsed``,
          ``deadline - completion``, the ``deadline > completion``
          select) maps one IEEE-754 float64 operation onto each scalar
          operation of the gated loop — elementwise ops have no
          reduction order to perturb;
        * ``cache.sync(now)`` runs up front iff at least one job needs
          an estimate this tick — the same timestamps at which the
          gated tick's first ``remaining()`` call would roll the
          profiling window;
        * *init* jobs (bound to a queue, admission pending) are not
          tabled and carry no slot; they take the scalar per-job branch
          below, verbatim from the gated loop.

        Exact float64 equality between the numpy and scalar arithmetic
        additionally assumes tick counts stay below 2**53 (about 104
        days of simulated nanoseconds) so int64 -> float64 conversions
        are lossless; the invariant checker's clock never gets close.
        """
        now = self.ctx.now
        cache = self._remaining_cache
        soa = self._rank_soa
        stats = self.tick_stats
        recomputed_before = cache.recomputed
        reused_before = cache.reused
        if self._enable_admission:
            self._steady_state_rejects_vectorized(now)
        slots = soa.live_slots()
        ranked = int(slots.size)
        refreshed = 0
        eligible_count = 0
        if ranked:
            deadline = soa.deadline[slots]
            elapsed = _np.maximum(now - soa.arrival[slots], 0)
            # NaN deadlines (latency-insensitive) compare False here and
            # fall into the INFINITE_PRIORITY fill below, like the
            # ``deadline is None`` / ``elapsed > deadline`` branches.
            eligible = elapsed <= deadline
            eligible_count = int(_np.count_nonzero(eligible))
            if eligible_count:
                cache.sync(now)
                # Read staleness only after the sync: its invalidation
                # callback may have marked additional slots stale.
                stale = soa.stale[slots] & eligible
                if stale.any():
                    refreshed = soa.refresh(slots[stale].tolist(), now)
                rem = soa.remaining[slots]
                completion = rem + elapsed
                priority = _np.where(deadline > completion,
                                     deadline - completion, completion)
                priority[~eligible] = INFINITE_PRIORITY
            else:
                priority = _np.full(ranked, INFINITE_PRIORITY)
            jobs = soa._jobs
            for slot, value in zip(slots.tolist(), priority.tolist()):
                jobs[slot].priority = value
        # Live jobs without a slot: *init* jobs whose admission decision
        # is still in flight.  Scalar branch, verbatim from the gated
        # tick (they are few and short-lived).
        extras = 0
        if self.ctx.pool.num_bound != ranked:
            for job in self.ctx.live_jobs():
                if job in soa:
                    continue
                extras += 1
                deadline = job.deadline
                if deadline is None:
                    job.priority = INFINITE_PRIORITY
                    continue
                elapsed = job.elapsed(now)
                if elapsed > deadline:
                    job.priority = INFINITE_PRIORITY
                    continue
                completion = cache.remaining(job, now) + elapsed
                job.priority = (deadline - completion
                                if deadline > completion else completion)
        walked = cache.recomputed - recomputed_before
        stats.ticks += 1
        stats.walks_recomputed += walked
        # Slots consumed without touching the dict cache are reuses too:
        # the mirror held the exact cached float.
        stats.walks_reused += (cache.reused - reused_before
                               + max(0, eligible_count - refreshed))
        stats.jobs_ranked += ranked + extras
        if walked:
            stats.ticks_incremental += 1
        else:
            stats.ticks_elided += 1

    def _steady_state_rejects_vectorized(self, now: int) -> None:
        """:func:`steady_state_pass` over the slot arrays.

        Walks the same standing ``(start_time, job_id)`` order with the
        same sequential ``totRemTime`` prefix — ``np.add.accumulate`` is
        a left-to-right sum, and skipped jobs contribute exact 0.0 terms
        (``x + 0.0 == x`` for the non-negative estimates involved), so
        every candidate sees bit-for-bit the scalar pass's prefix.  Rejects are
        discovered first-to-last: each discovery removes that job's
        contribution and rescans only positions after it, mirroring the
        scalar pass where a rejected job never enters the prefix.  The
        whole pass decides before any ``cancel_job`` runs, exactly like
        the scalar sweep (``steady_state_pass`` returns a list).
        """
        soa = self._rank_soa
        cache = self._remaining_cache
        order = soa.order_slots(self.job_table)
        if order.size == 0:
            return
        deadline = soa.deadline[order]
        elapsed = _np.maximum(now - soa.arrival[order], 0)
        past = elapsed > deadline  # NaN deadline -> False: never past
        need = ~_np.isnan(deadline) & ~past
        if need.any():
            cache.sync(now)
            stale = soa.stale[order] & need
            if stale.any():
                soa.refresh(order[stale].tolist(), now)
        rem = soa.remaining[order]
        contrib = need & (rem > 0.0)
        cand = contrib & (soa.state[order] != rank_soa.RUNNING)
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
        rejects = [soa.job_at(slot) for slot in order[rejected].tolist()]
        cp = self.ctx.cp
        for job in rejects:
            self._admission.late_rejected += 1
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

    def _steady_state_rejects_gated(self, now: int) -> None:
        """Algorithm 1's continuous sweep: evict jobs that can no longer
        make their deadlines so their work stops wasting the device.

        Walks the Job Table's standing ``(start_time, job_id)`` order —
        the live jobs minus *init* ones, which the sweep skips anyway —
        with estimates from the rank-epoch cache."""
        ordered = self.job_table.jobs_by_start()
        estimate = self._cached_estimate
        profiler = self.ctx.profiler
        for job in steady_state_pass(ordered, profiler, now,
                                     estimate=estimate):
            self._admission.late_rejected += 1
            if self.decisions_enabled:
                elapsed = job.elapsed(now)
                reason = ("past_deadline" if elapsed > job.deadline
                          else "queuing_delay")
                self.emit_decision(
                    "late_reject", job_id=job.job_id, reason=reason,
                    elapsed=elapsed, deadline=job.deadline,
                    tot_rem_time=estimate(job, profiler, now))
            self.ctx.cp.cancel_job(job)
