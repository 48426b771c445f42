"""O(1) arrival-path structures against the scans they replace.

The per-arrival and per-pump paths keep incrementally maintained
structures instead of re-scanning the live set.  This module asserts,
*during* live streamed runs, that each always agrees with the scan it
replaces:

* LAX's admission reserve counter vs the READY-job scan;
* the dispatcher's standing pending set vs the active-kernel scan;
* LAX's Algorithm-1 ``totRemTime`` (the flattened ``outstanding_sum``
  below the population gate, the Job Table's array sum above it) vs the
  generic helper;

and that a streamed run reproduces the finite list it is a prefix of,
with and without retirement.  The event heap underneath fires every
schedule in the ``(when, seq)`` order the calendar wheel it replaced
used: by tick, arrivals first at a tie, then scheduling order.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import SimConfig
from repro.core.admission import total_outstanding_time
from repro.core.laxity import RemainingTimeCache, estimate_remaining_time
from repro.schedulers.lax import LaxityScheduler
from repro.schedulers.registry import make_scheduler
from repro.sim.device import GPUSystem
from repro.sim.dispatcher import WGDispatcher
from repro.sim.job import JobState
from repro.workloads import build_workload
from repro.workloads.background import build_background_jobs, merge_workloads
from repro.workloads.streaming import (SUSTAINED_RATES,
                                       build_sustained_jobs,
                                       sustained_source)

from conftest import fire_plan, oracle_order

RATE = SUSTAINED_RATES["high"]

#: Bucket width, in ticks, of the calendar wheel the heap replaced; the
#: ordering tests still straddle its old boundaries.
BUCKET = 4096


def _cell(scheduler="LAX", num_jobs=150, retire=True):
    """One streamed mini sustained cell."""
    system = GPUSystem(make_scheduler(scheduler), SimConfig(), retire=retire)
    system.submit_stream(sustained_source(RATE).jobs(), max_jobs=num_jobs)
    metrics = system.run()
    return system, metrics


def _finite(num_jobs):
    """The finite, non-retired list the stream is a prefix of."""
    jobs = build_sustained_jobs(num_jobs, RATE, 1, SimConfig().gpu)
    system = GPUSystem(make_scheduler("LAX"), SimConfig(), retire=False)
    system.submit_workload(jobs)
    return system, system.run()


def _signature(system, metrics):
    admission = getattr(system.policy, "admission", None)
    return (
        metrics.num_jobs,
        metrics.jobs_meeting_deadline,
        metrics.jobs_rejected,
        metrics.wg_completions,
        metrics.end_time,
        metrics.p99_latency_ticks,
        system.dispatcher.wgs_issued,
        system.sim.events_committed,
        (admission.accepted, admission.rejected, admission.fast_accepted,
         admission.late_rejected) if admission is not None else None,
    )


# ----------------------------------------------------------------------
# Event ordering
# ----------------------------------------------------------------------

class TestWheelOrdering:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(
        st.tuples(st.integers(min_value=0, max_value=3 * BUCKET),
                  st.sampled_from(["arrival", "device"])),
        min_size=1, max_size=80),
        st.sets(st.integers(min_value=0, max_value=79)))
    def test_wheel_matches_heap_order(self, plan, cancel):
        """Any schedule, with any subset cancelled (enough tombstones to
        trigger compaction on the larger plans), fires in (when, seq)
        order."""
        cancel = {index for index in cancel if index < len(plan)}
        assert fire_plan(plan, cancel) == oracle_order(plan, cancel)

    def test_cross_bucket_ordering_with_ties(self):
        """Events straddling the old bucket boundaries, with ties on
        both lanes, keep global order."""
        edge = BUCKET
        plan = [(edge, "device"), (edge - 1, "device"), (edge, "arrival"),
                (edge + 1, "device"), (2 * edge, "device"),
                (edge - 1, "arrival")]
        assert fire_plan(plan) == oracle_order(plan)
        assert [index for _, _, index in fire_plan(plan)] == [
            5, 1, 2, 0, 3, 4]


# ----------------------------------------------------------------------
# O(1) structures vs the scans they replace
# ----------------------------------------------------------------------

class TestReserveCounter:
    def test_counter_matches_ready_scan_throughout_a_run(self, monkeypatch):
        """LAX's O(1) admission reserve equals the READY-job scan at
        every single consult of a live streamed run."""
        orig = LaxityScheduler._reserved_wgs
        consults = []

        def checked(self, candidate):
            value = orig(self, candidate)
            scan = 0
            for job in self.ctx.live_jobs():
                if job is candidate or job.state is not JobState.READY:
                    continue
                kernel = job.next_kernel()
                if kernel is not None:
                    scan += kernel.wgs_pending
            assert value == scan, (
                f"reserve counter {value} != READY scan {scan} "
                f"at t={self.ctx.now}")
            consults.append(value)
            return value

        monkeypatch.setattr(LaxityScheduler, "_reserved_wgs", checked)
        _cell(num_jobs=200)
        assert consults, "admission never consulted the reserve"
        assert any(value > 0 for value in consults), (
            "the cell never had a READY backlog; the property is vacuous")


class TestPendingSet:
    def test_pending_set_matches_active_scan_throughout_a_run(
            self, monkeypatch):
        """The standing pending set equals the per-pump wgs_pending scan
        over the active kernels at every pump."""
        orig = WGDispatcher._pump_once

        pumps = []

        def checked(self):
            scan = [k for k in self._active
                    if k.descriptor.num_wgs > k.wgs_issued]
            assert list(self._pending_set) == scan, (
                f"pending set diverged from the active scan "
                f"at t={self._sim.now}")
            pumps.append(len(scan))
            return orig(self)

        monkeypatch.setattr(WGDispatcher, "_pump_once", checked)
        _cell(scheduler="LAX-PREMA", num_jobs=150)
        assert any(pumps), "no pump ever saw pending work"


def _queue_reuse_cell():
    """LSTM/high on 16 queues: queues are reused, so the Job Table's
    queue-id order differs from its enqueue order."""
    config = SimConfig()
    config = config.replace(gpu=dataclasses.replace(config.gpu,
                                                    num_queues=16))
    system = GPUSystem(make_scheduler("LAX"), config)
    system.submit_workload(build_workload("LSTM", rate_level="high",
                                          num_jobs=96, seed=1,
                                          gpu=config.gpu))
    system.run()


def _mixed_cell():
    """IPV6/high with deadline-less background jobs of a kernel type no
    deadline job shares (cold, so never rated early)."""
    gpu = SimConfig().gpu
    jobs = merge_workloads(
        build_workload("IPV6", rate_level="high", num_jobs=48, seed=2,
                       gpu=gpu),
        build_background_jobs(16, 20000.0, 3, gpu))
    system = GPUSystem(make_scheduler("LAX"), SimConfig())
    system.submit_workload(jobs)
    system.run()


#: cell -> (runner, admissions that must reach Algorithm 1's sum).
_SUM_CELLS = {
    "sustained": (lambda: _cell(num_jobs=200), 1),
    "queue-reuse": (_queue_reuse_cell, 90),
    "mixed": (_mixed_cell, 40),
}


class TestOutstandingSum:
    @pytest.mark.parametrize("cell", list(_SUM_CELLS))
    @pytest.mark.parametrize("gate", ("recorded", "array"))
    def test_flattened_sum_equals_generic_helper(self, monkeypatch, gate,
                                                 cell):
        """LAX's ``totRemTime`` returns the generic Algorithm-1 helper's
        exact float at every admission that reaches it, on both sides of
        ``_VEC_MIN_JOBS``: below it the flattened ``outstanding_sum``,
        at 1 the Job Table's queue-id-ordered ``cumsum``."""
        if gate == "array":
            monkeypatch.setattr("repro.schedulers.lax._VEC_MIN_JOBS", 1)
        orig = LaxityScheduler._outstanding_time
        checked_calls = []

        def checked(self, now, exclude):
            value = orig(self, now, exclude)
            values = self._remaining_cache._values

            def cached_estimate(job, table, time):
                # Pure read: ``orig`` just warmed the cache for every
                # contributing job, so this recomputes nothing and
                # mutates nothing.
                entry = values.get(job.job_id)
                if entry is not None and entry[0] == job.rank_version:
                    return entry[1]
                return estimate_remaining_time(job, table, time)

            reference = total_outstanding_time(
                self.ctx.live_jobs(), self.ctx.profiler, now,
                exclude=exclude, estimate=cached_estimate)
            assert value == reference, (
                f"totRemTime {value!r} != {reference!r} at t={now}")
            checked_calls.append(value)
            return value

        monkeypatch.setattr(LaxityScheduler, "_outstanding_time", checked)
        run, minimum = _SUM_CELLS[cell]
        run()
        assert len(checked_calls) >= minimum, (
            f"only {len(checked_calls)} admissions took the slow path")


# ----------------------------------------------------------------------
# Streamed-run equivalence (hypothesis)
# ----------------------------------------------------------------------

class TestStreamedEquivalence:
    @settings(max_examples=8, deadline=None)
    @given(st.integers(min_value=30, max_value=90))
    def test_streamed_retired_prefix_matches_finite(self, num_jobs):
        """Any prefix length: streamed lookahead=1 + retirement
        reproduces the finite, non-retired reference run's decisions
        (arrival-lane ordering is what makes this hold)."""
        streamed = _signature(*_cell(num_jobs=num_jobs, retire=True))
        finite = _signature(*_finite(num_jobs))
        assert streamed == finite

    def test_per_job_outcomes_identical_without_retirement(self):
        _, streamed = _cell(num_jobs=80, retire=False)
        _, finite = _finite(80)
        rows = [dataclasses.astuple(o) for o in streamed.outcomes]
        assert rows == [dataclasses.astuple(o) for o in finite.outcomes]
        assert rows, "the mini cell must record outcomes"
