"""Queuing-delay admission control: Algorithm 1 of the paper.

LAX uses a pull-based offload model: jobs arrive at the server and LAX
offloads only the ones it predicts will meet their deadline under current
contention.  The queuing delay of a candidate is modelled with Little's
Law: the predicted remaining times of all jobs already accepted sum to the
time the device needs to drain them, because each per-job estimate divides
its WG counts by the *device-wide* completion rate of that kernel type —
summing over jobs therefore reconstructs total drain time independent of
the arrival process.

A job ``J`` in *init* state is accepted iff::

    totRemTime + (holdJobTime + durTime) < J.deadline

where ``totRemTime`` sums the remaining-time estimates of every accepted
live job, ``holdJobTime`` is J's own estimate from its WGList, and
``durTime`` is the time J has already spent queued (e.g. stream-inspection
latency).  Kernel types without completion-rate estimates contribute zero
(the optimistic default of Section 4.3), so a cold system accepts
everything it might be able to finish.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, TYPE_CHECKING

from ..sim.job import JobState
from .laxity import estimate_remaining_time
from .profiling import KernelProfilingTable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..sim.job import Job


@dataclass(frozen=True)
class AdmissionDecision:
    """One admission verdict with the Algorithm 1 inputs that produced it.

    ``reason`` is one of ``"no_deadline"`` (latency-insensitive, always
    accepted), ``"fast_path"`` (fits free full-rate capacity),
    ``"cold_probe"`` (no rate information anywhere; probe run) or
    ``"littles_law"`` (the totRemTime + holdTime + durTime test decided).
    """

    accepted: bool
    reason: str
    tot_rem_time: float = 0.0
    hold_time: float = 0.0
    dur_time: float = 0.0
    deadline: Optional[int] = None


def remaining_time_or_deadline(job: "Job", table: KernelProfilingTable,
                               now: int,
                               estimate=estimate_remaining_time) -> float:
    """Remaining-time estimate with the cold-start deadline fallback.

    "Algorithm 1 shows the steady-state behavior; before enough WGs
    complete (line 12, Algorithm 1), we use the programmer-provided
    deadline" — a job whose kernel types have produced no completion-rate
    observations at all is charged its remaining deadline budget instead of
    an (unknowable) estimate.  Once any of its kernel types has a rate, the
    normal optimistic WGList sum applies (Section 4.3).
    """
    value = estimate(job, table, now)
    if value > 0.0 or job.deadline is None:
        return value
    return max(0.0, job.deadline - job.elapsed(now))


def total_outstanding_time(jobs: Iterable["Job"],
                           table: KernelProfilingTable, now: int,
                           exclude: "Job" = None,
                           estimate=estimate_remaining_time) -> float:
    """``totRemTime``: summed remaining-time estimates of accepted jobs.

    Mirrors Algorithm 1 lines 3-10: every live job that is past *init*
    (i.e. accepted) contributes its WGList estimate (with the cold-start
    deadline fallback for jobs whose kernels have no rates yet).
    """
    total = 0.0
    for job in jobs:
        if job is exclude or not job.is_live:
            continue
        if job.state is JobState.INIT:
            continue
        if job.deadline is None:
            # Best-effort work backfills behind every deadline job and so
            # contributes no queuing delay to Little's Law.
            continue
        total += remaining_time_or_deadline(job, table, now,
                                            estimate=estimate)
    return total


def explain_admission(candidate: "Job", live_jobs: Iterable["Job"],
                      table: KernelProfilingTable, now: int,
                      estimate=estimate_remaining_time,
                      outstanding=None) -> AdmissionDecision:
    """Algorithm 1's accept/reject decision for one *init* job.

    An entirely cold candidate (no rates for any of its kernels) on an
    otherwise idle device is always accepted: it is the probe run the
    profiling table learns from.  Latency-insensitive candidates are
    always accepted — LAX only gates work the programmer gave a deadline.

    ``outstanding`` is an optional ``(now, exclude) -> float | None``
    replacement for :func:`total_outstanding_time` (LAX installs the
    vectorized rank-SoA sum); returning ``None`` falls back to the
    scalar loop.

    Returns the verdict together with the Little's-Law inputs so telemetry
    can reconstruct *why* a job was (not) offloaded.
    """
    if candidate.deadline is None:
        return AdmissionDecision(True, "no_deadline")
    tot_rem = outstanding(now, candidate) if outstanding is not None else None
    if tot_rem is None:
        tot_rem = total_outstanding_time(live_jobs, table, now,
                                         exclude=candidate,
                                         estimate=estimate)
    hold = estimate(candidate, table, now)
    dur = candidate.elapsed(now)
    if hold <= 0.0:
        if tot_rem <= 0.0:
            return AdmissionDecision(True, "cold_probe", tot_rem, hold, dur,
                                     candidate.deadline)
        hold = float(candidate.deadline)
    accepted = tot_rem + hold + dur < candidate.deadline
    return AdmissionDecision(accepted, "littles_law", tot_rem, hold, dur,
                             candidate.deadline)


def should_admit(candidate: "Job", live_jobs: Iterable["Job"],
                 table: KernelProfilingTable, now: int) -> bool:
    """Boolean form of :func:`explain_admission`."""
    return explain_admission(candidate, live_jobs, table, now).accepted


def fits_free_capacity(job: "Job", cus, reserved_wgs: int = 0) -> bool:
    """Whether ``job`` fits in currently-free full-rate WG slots.

    The fast path of LAX's offload decision: the CP can see per-CU
    occupancy directly, and a job whose kernels all fit in slots where no
    resident WG would slow down costs the rest of the system nothing — the
    underutilisation the paper's introduction is built around.  Without
    this check, Little's-Law admission tuned by rates measured at
    concurrency 1 would serialise narrow jobs (e.g. 8-WG GMM launches on a
    32-slot device) forever.

    ``reserved_wgs`` discounts slots already promised to jobs admitted but
    not yet issued (their WGs are in flight through the CP).
    """
    checked = None
    for kernel in job.kernels:
        desc = kernel.descriptor
        if checked is None:
            # First kernel: no dedup bookkeeping — the common single-
            # kernel job never allocates the seen-set.
            checked = (id(desc),)
        elif id(desc) in checked:
            continue
        else:
            checked += (id(desc),)
        concurrency = desc.cu_concurrency
        slots = 0
        for cu in cus:
            # Inline read of the CU's free-slot memo (exactly what
            # free_full_rate_slots returns when the entry is warm); the
            # method fills it on a miss.
            cached = cu._slots.get(concurrency)
            if cached is None:
                cached = cu.free_full_rate_slots(concurrency)
            slots += cached
        if slots - reserved_wgs < desc.num_wgs:
            return False
    return True


def steady_state_pass(jobs_in_order, table: KernelProfilingTable, now: int,
                      estimate=estimate_remaining_time):
    """Full Algorithm 1 sweep over the job queue; returns jobs to reject.

    Walks the queue in enqueue order maintaining the running ``totRemTime``
    prefix.  Already-accepted jobs add their remaining estimate to the
    prefix and are **late-rejected** when ``totRemTime + durTime`` no
    longer fits their deadline ("Cannot complete job in time, tell CPU");
    a rejected job's contribution leaves the prefix since its work will be
    discarded.  Jobs whose kernel types have produced no rate information
    are never late-rejected on estimates (nothing is known about them) but
    are rejected once their elapsed time alone exceeds the deadline.
    """
    tot = 0.0
    rejects = []
    for job in jobs_in_order:
        if not job.is_live or job.state is JobState.INIT:
            continue
        if job.deadline is None:
            continue  # latency-insensitive: never rejected, yields anyway
        dur = job.elapsed(now)
        if dur > job.deadline:
            rejects.append(job)
            continue
        remaining = estimate(job, table, now)
        if remaining <= 0.0:
            continue  # no rate information; keep running
        if job.state is JobState.RUNNING:
            # A running job's issued WGs complete in waves, so its WGList
            # count over-states true remaining work right up to each wave
            # boundary; evicting on that estimate would discard nearly-done
            # work.  Running jobs only fall to the elapsed-past-deadline
            # rule above; their estimate still occupies the prefix.
            tot += remaining
            continue
        if tot + remaining + dur >= job.deadline:
            rejects.append(job)
        else:
            tot += remaining
    return rejects


class QueuingDelayAdmission:
    """Stateful wrapper binding the admission test to a device's tables.

    Counts decisions for the effectiveness metrics; the policy calls
    :meth:`evaluate` from its ``admit`` hook.
    """

    def __init__(self, table: KernelProfilingTable,
                 estimate=None, outstanding=None) -> None:
        self._table = table
        #: Remaining-time estimator with :func:`estimate_remaining_time`'s
        #: signature; ``None`` means the plain per-call WGList walk.  LAX
        #: installs a :class:`~repro.core.laxity.RemainingTimeCache`-backed
        #: one so each arrival's Little's-Law sum reuses tick-path work.
        self._estimate = estimate or estimate_remaining_time
        #: Optional vectorized ``totRemTime`` provider (see
        #: :func:`explain_admission`).
        self._outstanding = outstanding
        self.accepted = 0
        self.rejected = 0
        #: Jobs accepted through the free-capacity fast path.
        self.fast_accepted = 0
        #: Jobs evicted by the steady-state sweep after acceptance.
        self.late_rejected = 0
        #: Decision detail of the most recent :meth:`evaluate` call.
        self.last_decision: Optional[AdmissionDecision] = None

    def evaluate(self, candidate: "Job", live_jobs: Iterable["Job"],
                 now: int, cus=None, reserved_wgs: int = 0) -> bool:
        """Run the offload decision for ``candidate``; record the outcome.

        With ``cus`` provided, the free-capacity fast path is consulted
        before Algorithm 1's Little's-Law test.
        """
        if cus is not None and fits_free_capacity(candidate, cus,
                                                  reserved_wgs):
            self.accepted += 1
            self.fast_accepted += 1
            self.last_decision = AdmissionDecision(
                True, "fast_path", dur_time=candidate.elapsed(now),
                deadline=candidate.deadline)
            return True
        decision = explain_admission(candidate, live_jobs, self._table, now,
                                     estimate=self._estimate,
                                     outstanding=self._outstanding)
        self.last_decision = decision
        if decision.accepted:
            self.accepted += 1
        else:
            self.rejected += 1
        return decision.accepted

    @property
    def decisions(self) -> int:
        """Total admission decisions made."""
        return self.accepted + self.rejected
