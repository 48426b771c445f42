"""Laxity mathematics: Equation 1 and Algorithm 2 of the paper.

Everything here is pure arithmetic over a job's WGList and the Kernel
Profiling Table; no simulator state is touched, which makes the module
directly property-testable.

Units: all times are ticks; deadlines and laxities are *relative* to the
job's Job-Table start time, exactly as in the paper's pseudo-code
(``durTime = curTick() - startTime``; ``ComplTime = RemTime + durTime``;
``laxity = deadline - ComplTime``).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from ..sim.job import JobState
from .profiling import KernelProfilingTable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..sim.job import Job

#: Priority assigned to jobs past their deadline (Algorithm 2 line 18).
INFINITE_PRIORITY = math.inf

#: Sentinel distinguishing "type not looked up yet" from a None rate.
_UNSEEN = object()


def estimate_remaining_time(job: "Job", table: KernelProfilingTable,
                            now: int) -> float:
    """Estimated time to finish ``job``'s outstanding WGs (Algorithm 2, l.2-7).

    Walks the WGList summing ``numWG / WGCompRate`` per kernel.  Kernel
    types without a rate estimate contribute zero — LAX "optimistically
    assumes it takes no time, to avoid rejecting work it could potentially
    complete" (Section 4.3).
    """
    # One table lookup per kernel *type*: jobs repeat a handful of types
    # across long WGLists, making this the hottest scheduler-side loop
    # (within one walk the clock does not move, so repeated reads would
    # return the same float).  Kernels before the job's completed-prefix
    # cursor have no WGs remaining and are skipped wholesale; the sum
    # still visits kernels in WGList order with per-kernel divisions.
    remaining = 0.0
    rates: dict = {}
    rates_get = rates.get
    completion_rate = table.completion_rate
    kernels = job.kernels
    for kernel in kernels[job._next_cursor:]:
        desc = kernel.descriptor
        wgs = desc.num_wgs - kernel.wgs_completed
        if wgs <= 0:
            continue
        name = desc.name
        rate = rates_get(name, _UNSEEN)
        if rate is _UNSEEN:
            rate = rates[name] = completion_rate(name, now)
        if rate is not None and rate > 0.0:
            remaining += wgs / rate
    return remaining


def estimate_completion_time(job: "Job", table: KernelProfilingTable,
                             now: int) -> float:
    """``ComplTime = RemTime + durTime`` (Algorithm 2 line 9)."""
    return estimate_remaining_time(job, table, now) + job.elapsed(now)


def laxity_time(job: "Job", table: KernelProfilingTable, now: int) -> float:
    """Equation 1: ``Laxity = Deadline - (durTime + RemTime)``.

    Positive laxity means the job is predicted to finish early; zero or
    negative means it is predicted to miss.  Latency-insensitive jobs
    (no deadline) have infinite laxity.
    """
    if job.deadline is None:
        return math.inf
    return job.deadline - estimate_completion_time(job, table, now)


class RemainingTimeCache:
    """Per-job remaining-time estimates with epoch-based invalidation.

    ``estimate_remaining_time`` is a pure function of three inputs: the
    job's per-kernel outstanding WG counts, the profiling table's published
    rates, and — only for kernel types that have stats but no published
    rate yet ("volatile" types) — the wall clock.  Each input carries a
    version counter:

    * :attr:`Job.rank_version` bumps on WG completion and stream append;
    * :attr:`KernelProfilingTable.rank_epoch` bumps when a published rate
      changes (window roll or seeding);
    * volatile types are reported by ``changed_kernels_since`` on *every*
      sync, so jobs touching them are recomputed each time.

    While a job's version and the epochs of its kernel types stand still,
    the cached float is the exact value a fresh walk would return — same
    inputs through the same arithmetic — so reusing it is bit-identical.

    Parity rule: :meth:`remaining` must be called at exactly the call
    sites where a walking scheduler would call
    :func:`estimate_remaining_time` (it rolls the profiling window on first
    use per timestamp, just as a walk's first table read would), and
    nowhere else.
    """

    def __init__(self, table: KernelProfilingTable) -> None:
        self._table = table
        self._seen_epoch = table.rank_epoch
        self._synced_key = None
        #: job_id -> (job.rank_version, remaining)
        self._values: dict = {}
        #: kernel name -> {job_id: job} whose cached value reads it (a
        #: dict, so iteration follows insertion order).
        self._jobs_by_type: dict = {}
        #: job_id -> (indexed kernel count, tuple of names) for re-indexing
        #: after a stream append.
        self._types_by_job: dict = {}
        #: Full WGList walks performed (cache misses).
        self.recomputed = 0
        #: Walks elided (cache hits).
        self.reused = 0
        #: Optional observer called with the jobs whose entries a sync
        #: dropped.  LAX hooks its Job Table in here
        #: (:meth:`~repro.core.job_table.JobTable.mark_jobs_stale`) so
        #: the rows' staleness follows this cache's invalidations exactly
        #: — one invalidation decision, two consumers.
        self.on_invalidated = None

    def sync(self, now: int) -> None:
        """Fold window publications and drop estimates they invalidated.

        O(1) when the table saw no state change since the last sync at
        this timestamp; otherwise O(types + invalidated jobs).
        """
        table = self._table
        key = (now, table.mutations)
        if key == self._synced_key:
            return
        table.roll(now)
        self._synced_key = (now, table.mutations)
        if table.rank_epoch == self._seen_epoch and not table.unpublished:
            return
        changed = table.changed_kernels_since(self._seen_epoch)
        self._seen_epoch = table.rank_epoch
        values = self._values
        jobs_by_type = self._jobs_by_type
        dropped = []
        for name in changed:
            jobs = jobs_by_type.get(name)
            if jobs:
                for job_id, job in jobs.items():
                    if values.pop(job_id, None) is not None:
                        dropped.append(job)
        if dropped and self.on_invalidated is not None:
            self.on_invalidated(dropped)

    def remaining(self, job: "Job", now: int) -> float:
        """Cached :func:`estimate_remaining_time`, recomputed when stale."""
        # Inlined sync() fast-out: on the hot path (admission's O(n) walk,
        # the per-tick refresh) every call but the first at a timestamp
        # sees an unchanged key, and the method call would dominate.
        if (now, self._table.mutations) != self._synced_key:
            self.sync(now)
        entry = self._values.get(job.job_id)
        if entry is not None and entry[0] == job.rank_version:
            self.reused += 1
            return entry[1]
        value = estimate_remaining_time(job, self._table, now)
        self.recomputed += 1
        self._index(job)
        self._values[job.job_id] = (job.rank_version, value)
        return value

    def outstanding_sum(self, jobs, now: int, exclude: "Job" = None) -> float:
        """``totRemTime`` in one flattened loop over the cache.

        Replaces :func:`repro.core.admission.total_outstanding_time`
        driving a cached estimator: the generic helper pays, per job, the
        ``remaining_time_or_deadline`` call, the estimator trampoline and
        :meth:`remaining`'s per-call sync fast-out.  Admission runs it
        once per arrival over every live job, so on the sustained
        streaming cells those layers dominate the decision.  This method
        folds them into one loop — bit-identical by construction:

        * the skip tests run in the generic helper's exact order
          (``exclude``, liveness/``init`` via the state value, missing
          deadline), so the same jobs contribute in the same sequence
          and the float accumulation order is unchanged;
        * estimates come from the same dict cache with the same
          ``rank_version`` hit rule, and a miss runs the same
          :func:`estimate_remaining_time` walk and indexes the result
          exactly as :meth:`remaining` would;
        * the cold-start deadline fallback reproduces
          ``remaining_time_or_deadline``: a non-positive estimate for a
          deadline job charges ``max(0, deadline - elapsed)``;
        * one up-front :meth:`sync` replaces the per-call fast-outs —
          no event can fire mid-loop, so the ``(now, mutations)`` key
          cannot change between jobs.
        """
        if (now, self._table.mutations) != self._synced_key:
            self.sync(now)
        values = self._values
        table = self._table
        total = 0.0
        reused = 0
        recomputed = 0
        for job in jobs:
            if job is exclude:
                continue
            state = job.state
            if state is not JobState.READY and state is not JobState.RUNNING:
                continue
            deadline = job.deadline
            if deadline is None:
                continue
            entry = values.get(job.job_id)
            if entry is not None and entry[0] == job.rank_version:
                reused += 1
                value = entry[1]
            else:
                value = estimate_remaining_time(job, table, now)
                recomputed += 1
                self._index(job)
                values[job.job_id] = (job.rank_version, value)
            if value > 0.0:
                total += value
            else:
                total += max(0.0, deadline - job.elapsed(now))
        self.reused += reused
        self.recomputed += recomputed
        return total

    def forget(self, job: "Job") -> None:
        """Drop a finished/rejected job's estimate and its type index."""
        job_id = job.job_id
        self._values.pop(job_id, None)
        indexed = self._types_by_job.pop(job_id, None)
        if indexed is None:
            return
        jobs_by_type = self._jobs_by_type
        for name in indexed[1]:
            jobs = jobs_by_type.get(name)
            if jobs is not None:
                jobs.pop(job_id, None)

    def _index(self, job: "Job") -> None:
        """Map the job's kernel types to it (refreshed after appends)."""
        job_id = job.job_id
        indexed = self._types_by_job.get(job_id)
        if indexed is not None and indexed[0] == len(job.kernels):
            return
        names = tuple({kernel.descriptor.name for kernel in job.kernels})
        self._types_by_job[job_id] = (len(job.kernels), names)
        jobs_by_type = self._jobs_by_type
        for name in names:
            jobs = jobs_by_type.get(name)
            if jobs is None:
                jobs = jobs_by_type[name] = {}
            jobs[job_id] = job


def laxity_priority(job: "Job", table: KernelProfilingTable,
                    now: int) -> float:
    """Algorithm 2's priority assignment for one job.

    * Predicted to make the deadline -> priority is the laxity itself
      (line 12): smaller laxity = more urgent = higher priority.
    * Predicted to miss but not yet past the deadline -> priority is the
      predicted completion time (line 14), which exceeds the deadline and
      therefore every positive laxity, pushing the job behind all jobs
      that can still make it.
    * Already past its deadline -> infinite priority value, i.e. only runs
      when nothing else wants the device (lines 17-18).

    Latency-insensitive jobs (no deadline) always rank last: they soak up
    whatever capacity deadline work leaves free.
    """
    if job.deadline is None:
        return INFINITE_PRIORITY
    elapsed = job.elapsed(now)
    if elapsed > job.deadline:
        return INFINITE_PRIORITY
    completion = estimate_remaining_time(job, table, now) + elapsed
    if job.deadline > completion:
        return job.deadline - completion
    return completion
