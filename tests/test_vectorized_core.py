"""The gated sides of the population gates against the scalar sides.

Both sides of ``lax._VEC_MIN_JOBS`` (the struct-of-arrays tick and
admission sum) and ``dispatcher._BUCKETED_MIN_ACTIVE`` (the bucketed
pump's standing issue order) ship, and they must make the same
decisions.  The mini cells here sit on whichever side the gates put
them, so each test forces the gated side by setting both gates to 1 and
the scalar side by raising them out of reach, then compares:

* **differential mini-cells** — fleet/LAX with WG tracing, the hybrid
  under a contended stream, SRF's priority-rewriting tick, the
  host-driven LAX-SW priority path and a cold-table LSTM cell;
* **bucketed-order plumbing** — the standing issue order engages above
  the gate and not below it, the invalidation counters move when
  priorities are rewritten, and the bucketed pump's saturation
  fast-out never skips a pump that could issue.
"""

from __future__ import annotations

import dataclasses
from contextlib import contextmanager

import pytest

from repro.config import SimConfig
from repro.schedulers.registry import make_scheduler
from repro.sim.device import GPUSystem
from repro.sim.trace import TraceRecorder
from repro.workloads.fleet import (build_fleet_jobs, fleet_config,
                                   fleet_warm_rates)
from repro.workloads.streaming import SUSTAINED_RATES, sustained_source

from repro.core.calibration import warm_table

RATE = SUSTAINED_RATES["high"]


#: A gate no mini cell can reach: keeps every pump and tick scalar.
_UNREACHABLE = 10 ** 9


@pytest.fixture
def vectorized_mode(monkeypatch):
    """``vectorized_mode(True)`` puts both gates at 1 (every tick and
    pump takes the gated side), ``False`` out of reach (scalar side)."""
    @contextmanager
    def mode(vectorized):
        gate = 1 if vectorized else _UNREACHABLE
        with monkeypatch.context() as patch:
            patch.setattr("repro.schedulers.lax._VEC_MIN_JOBS", gate)
            patch.setattr("repro.sim.dispatcher._BUCKETED_MIN_ACTIVE", gate)
            yield
    return mode


def _traced_fleet_run(vectorized_mode, vectorized, num_jobs=96):
    """A scaled-down fleet cell with full WG tracing."""
    config = fleet_config()
    jobs = build_fleet_jobs(num_jobs=num_jobs, seed=3, gpu=config.gpu)
    with vectorized_mode(vectorized):
        trace = TraceRecorder(wg_events=True)
        system = GPUSystem(make_scheduler("LAX"), config, trace=trace)
        warm_table(system.profiler, fleet_warm_rates(config.gpu))
        system.submit_workload(jobs)
        metrics = system.run()
    admission = system.policy.admission
    return (dataclasses.asdict(metrics), trace.events,
            (admission.accepted, admission.rejected,
             admission.fast_accepted, admission.late_rejected),
            system.sim.events_fired, system.sim.now, system)


def _streamed_run(vectorized_mode, scheduler, vectorized, num_jobs=80):
    with vectorized_mode(vectorized):
        trace = TraceRecorder(wg_events=True)
        system = GPUSystem(make_scheduler(scheduler), SimConfig(),
                           trace=trace)
        system.submit_stream(sustained_source(RATE).jobs(),
                             max_jobs=num_jobs)
        metrics = system.run()
    return (dataclasses.asdict(metrics), trace.events,
            system.sim.events_fired, system.sim.now, system)


class TestVectorizedDifferential:
    def test_fleet_lax_bit_identical(self, vectorized_mode):
        vec = _traced_fleet_run(vectorized_mode, True)
        scalar = _traced_fleet_run(vectorized_mode, False)
        assert vec[:5] == scalar[:5]

    def test_hybrid_stream_bit_identical(self, vectorized_mode):
        vec = _streamed_run(vectorized_mode, "LAX-PREMA", True)
        scalar = _streamed_run(vectorized_mode, "LAX-PREMA", False)
        assert vec[:4] == scalar[:4]

    @pytest.mark.parametrize("scheduler", ("RR", "MLFQ", "PREMA"))
    def test_own_issue_order_stream_bit_identical(self, vectorized_mode,
                                                  scheduler):
        """Policies that override ``issue_order`` stay on the scalar
        pumps above the gate: no bucketed order."""
        vec = _streamed_run(vectorized_mode, scheduler, True)
        scalar = _streamed_run(vectorized_mode, scheduler, False)
        assert vec[:4] == scalar[:4]
        assert vec[4].dispatcher.bucketed_pumps == 0

    def test_srf_tick_bit_identical(self, vectorized_mode):
        """SRF rewrites priorities every tick — the eager invalidation
        path must keep the standing order honest."""
        vec = _streamed_run(vectorized_mode, "SRF", True)
        scalar = _streamed_run(vectorized_mode, "SRF", False)
        assert vec[:4] == scalar[:4]

    def test_host_priority_path_bit_identical(self, vectorized_mode):
        """LAX-SW drives priorities through the host's register writes
        (``Host._do_set_priority``), the invalidation site the CP-side
        ticks never exercise."""
        vec = _streamed_run(vectorized_mode, "LAX-SW", True)
        scalar = _streamed_run(vectorized_mode, "LAX-SW", False)
        assert vec[:4] == scalar[:4]

    def test_cold_table_volatile_types_bit_identical(self, vectorized_mode):
        """Regression: a cold profiling table keeps kernel types volatile
        (observations but no published rate), so every cache sync drops
        their jobs' estimates and ``on_invalidated`` marks those rank-SoA
        slots stale.  The
        vectorized admission sum must sync the cache *before* snapshotting
        staleness — reading it first missed those invalidations and
        diverged from the scalar ``total_outstanding_time`` loop (caught
        on the LSTM hot-path cell, which starts cold; the fleet cells
        never see it because ``warm_table`` pre-publishes rates)."""
        from repro import build_workload, run_workload

        def digest(vectorized):
            jobs = build_workload("LSTM", rate_level="high", num_jobs=32,
                                  seed=1, gpu=SimConfig().gpu)
            with vectorized_mode(vectorized):
                metrics = run_workload(make_scheduler("LAX"), jobs)
            return [(o.job_id, o.accepted, o.completion, o.wgs_executed,
                     o.met_deadline) for o in metrics.outcomes]

        assert digest(True) == digest(False)


class TestBucketedOrder:
    def test_engages_only_above_the_gate(self, vectorized_mode):
        *_, vec_system = _traced_fleet_run(vectorized_mode, True,
                                           num_jobs=48)
        *_, scalar_system = _traced_fleet_run(vectorized_mode, False,
                                              num_jobs=48)
        assert vec_system.dispatcher.bucketed_pumps > 0
        assert vec_system.dispatcher.order_rebuilds > 0
        assert scalar_system.dispatcher.bucketed_pumps == 0
        assert scalar_system.dispatcher.order_rebuilds == 0

    def test_priority_ticks_invalidate(self, vectorized_mode):
        """The LAX tick rewrites priorities, so a run with ticks must
        have dropped the standing order at least once."""
        *_, system = _traced_fleet_run(vectorized_mode, True, num_jobs=48)
        assert system.dispatcher.order_invalidations > 0

    def test_population_gate_keeps_small_cells_scalar(self):
        """At the default gates a 48-job cell never engages the bucketed
        pump — the cost model keeps small populations on the scalar
        path (both sides make the same decisions, so this is purely
        perf)."""
        config = fleet_config()
        system = GPUSystem(make_scheduler("LAX"), config)
        warm_table(system.profiler, fleet_warm_rates(config.gpu))
        system.submit_workload(build_fleet_jobs(num_jobs=48, seed=3,
                                                gpu=config.gpu))
        system.run()
        assert system.dispatcher.bucketed_pumps == 0
        assert system.dispatcher.order_rebuilds == 0

    def test_fast_out_never_skips_work_that_could_issue(
            self, vectorized_mode, monkeypatch):
        """The bucketed pump's saturation fast-out checks a monotone
        threads/WG bound, not the pending kernels: it may pass a pump
        that then issues nothing, but every pump it fails must have had
        zero capacity for every pending kernel on every CU."""
        from repro.sim.dispatcher import WGDispatcher

        check = WGDispatcher._any_capacity
        verdicts = []

        def checked(dispatcher, min_threads):
            # Above the forced gate every LAX pump is bucketed.
            assert min_threads == dispatcher._min_threads_seen
            verdict = check(dispatcher, min_threads)
            verdicts.append(verdict)
            if not verdict:
                for kernel in dispatcher._pending_set:
                    backfill = dispatcher._backfill_only(kernel)
                    for cu in dispatcher.cus:
                        assert cu.batch_capacity(kernel.descriptor,
                                                 backfill) == 0
            return verdict

        monkeypatch.setattr(WGDispatcher, "_any_capacity", checked)
        *_, system = _traced_fleet_run(vectorized_mode, True)
        assert system.dispatcher.bucketed_pumps > 0
        assert True in verdicts and False in verdicts

    def test_invalidate_order_counts_only_real_drops(self):
        dispatcher = GPUSystem(make_scheduler("LAX"),
                               SimConfig()).dispatcher
        assert dispatcher.order_invalidations == 0
        dispatcher.invalidate_order()       # no cache: a no-op
        assert dispatcher.order_invalidations == 0
        dispatcher._order_buckets = {}
        dispatcher.invalidate_order()
        assert dispatcher._order_buckets is None
        assert dispatcher.order_invalidations == 1
