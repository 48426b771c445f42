"""The gated sides of the population gates against the scalar sides.

Both sides of ``lax._VEC_MIN_JOBS`` (the admission sum as array math
over the Job Table's rows; the LAX tick is array math at every
population) and ``dispatcher._BUCKETED_MIN_ACTIVE`` (the bucketed pump's
standing issue order) ship, and they must make the same decisions.  The mini cells here sit on whichever side the gates put
them, so each test forces the gated side by setting both gates to 1 and
the scalar side by raising them out of reach, then compares:

* **differential mini-cells** — fleet/LAX with WG tracing, the hybrid
  under a contended stream, SRF's priority-rewriting tick, the
  host-driven LAX-SW priority path and a cold-table LSTM cell, with
  and without admission control (without it, written-off jobs flip to
  backfill and the refresh must move their kernels between buckets);
* **bucketed-order plumbing** — the standing issue order engages above
  the gate and not below it; priority rewrites and cancellations keep
  it and the next pump re-keys it in place, while preemption and gate
  crossing drop it; and the bucketed pump's saturation fast-out never
  skips a pump that could issue.
"""

from __future__ import annotations

import collections
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


def _bucket_of(buckets):
    """kernel -> shape over the unconsumed entries of a standing order."""
    return {kernel: shape
            for shape, (index, entries) in (buckets or {}).items()
            for _, kernel in entries[index:]}


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

    def test_cold_table_volatile_types_bit_identical(self, vectorized_mode,
                                                     monkeypatch):
        """Regression: a cold profiling table keeps kernel types volatile
        (observations but no published rate), so every cache sync drops
        their jobs' estimates and ``on_invalidated`` marks those Job
        Table rows stale.  The vectorized admission sum must sync the
        cache *before* snapshotting staleness — reading it first missed those invalidations and
        diverged from the scalar ``total_outstanding_time`` loop (caught
        on the LSTM hot-path cell, which starts cold; the fleet cells
        never see it because ``warm_table`` pre-publishes rates).

        The second input runs the cell without admission control.  Jobs
        past their deadline are then not late-rejected: LAX writes them
        off at infinite priority and their kernels turn backfill-only,
        another resource shape, so an in-place refresh of the standing
        order must move each to its new shape's bucket.  The wrapped
        refresh checks that one did; without the move the gated side
        diverges."""
        from repro import build_workload, run_workload
        from repro.sim.dispatcher import WGDispatcher

        refresh = WGDispatcher._refresh_order
        moved = []

        def watched(dispatcher):
            before = _bucket_of(dispatcher._order_buckets)
            buckets = refresh(dispatcher)
            after = _bucket_of(buckets)
            moved.extend(kernel for kernel, shape in after.items()
                         if before.get(kernel, shape) != shape)
            return buckets

        monkeypatch.setattr(WGDispatcher, "_refresh_order", watched)

        def digest(vectorized, **options):
            jobs = build_workload("LSTM", rate_level="high", num_jobs=32,
                                  seed=1, gpu=SimConfig().gpu)
            with vectorized_mode(vectorized):
                metrics = run_workload(make_scheduler("LAX", **options),
                                       jobs)
            return [(o.job_id, o.accepted, o.completion, o.wgs_executed,
                     o.met_deadline) for o in metrics.outcomes]

        for options in ({}, {"enable_admission": False}):
            assert digest(True, **options) == digest(False, **options)
        # Only the second input writes off jobs whose kernels are active.
        assert moved


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
        """The LAX tick rewrites priorities every 100 us.  Each tick only
        marks the standing order stale and the next bucketed pump re-keys
        it in place, so a gated run refreshes the order many times and
        builds it from scratch only after a drop (besides the first
        build)."""
        *_, system = _traced_fleet_run(vectorized_mode, True, num_jobs=48)
        dispatcher = system.dispatcher
        assert dispatcher.order_refreshes > 10 * dispatcher.order_rebuilds
        assert 1 <= dispatcher.order_rebuilds <= dispatcher.order_drops + 1

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
        """The bucketed pump solves capacity on the open CUs only, found
        with a monotone threads/WG bound rather than the pending
        kernels: it may keep a CU that then admits nothing, but every CU
        it leaves out — all of them when none is open and the pump ends
        at once — must have zero capacity for every pending kernel.  The
        open list keeps device order."""
        from repro.sim.dispatcher import WGDispatcher

        open_cus = WGDispatcher._open_cus
        open_counts = []

        def checked(dispatcher, min_threads):
            # Above the forced gate every LAX pump is bucketed.
            assert min_threads == dispatcher._min_threads_seen
            cus = open_cus(dispatcher, min_threads)
            assert cus == [cu for cu in dispatcher.cus if cu in cus]
            left_out = [cu for cu in dispatcher.cus if cu not in cus]
            for kernel in dispatcher._pending_set:
                backfill = dispatcher._backfill_only(kernel)
                for cu in left_out:
                    assert cu.batch_capacity(kernel.descriptor,
                                             backfill) == 0
            open_counts.append(len(cus))
            return cus

        monkeypatch.setattr(WGDispatcher, "_open_cus", checked)
        *_, system = _traced_fleet_run(vectorized_mode, True)
        assert system.dispatcher.bucketed_pumps > 0
        assert 0 in open_counts and any(open_counts)

    def test_invalidate_order_counts_only_real_drops(self, vectorized_mode,
                                                     monkeypatch):
        """A priority rewrite (``invalidate_order``) or a cancellation
        keeps the standing order and marks it stale; a preemption that
        evicts WGs and a pump below the gate drop it.  ``order_drops``
        counts exactly the drops of an order that stood."""
        from repro import build_workload
        from repro.sim.dispatcher import WGDispatcher

        dispatcher = GPUSystem(make_scheduler("LAX"),
                               SimConfig()).dispatcher
        dispatcher._drop_order()            # nothing stands: not counted
        assert dispatcher.order_drops == 0

        effects = collections.Counter()

        def watch(name, keeps):
            original = getattr(WGDispatcher, name)

            def watched(dispatcher, *args):
                order = dispatcher._order_buckets
                drops = dispatcher.order_drops
                if keeps and order is not None:
                    # The call itself must mark the order stale.
                    dispatcher._order_stale = False
                result = original(dispatcher, *args)
                if order is not None:
                    kept = dispatcher._order_buckets is order
                    assert dispatcher.order_drops == drops + (not kept)
                    if keeps:
                        assert kept and dispatcher._order_stale
                    effects[name, kept] += 1
                return result

            monkeypatch.setattr(WGDispatcher, name, watched)

        watch("invalidate_order", keeps=True)
        watch("cancel_kernel", keeps=True)
        watch("preempt_kernel", keeps=False)
        watch("_pump_once", keeps=False)
        systems = []

        def run(policy, submit):
            system = GPUSystem(make_scheduler(policy), SimConfig())
            submit(system)
            system.run()
            systems.append(system)

        with vectorized_mode(True):
            # VAN preempts under the hybrid; HYBRID late-rejects a job
            # whose kernel is active.
            for benchmark in ("VAN", "HYBRID"):
                jobs = build_workload(benchmark, rate_level="high",
                                      num_jobs=8, seed=1,
                                      gpu=SimConfig().gpu)
                run("LAX-PREMA", lambda s: s.submit_workload(jobs))
        with monkeypatch.context() as patch:
            # A streamed cell crosses eight active kernels both ways.
            patch.setattr("repro.sim.dispatcher._BUCKETED_MIN_ACTIVE", 8)
            run("LAX", lambda s: s.submit_stream(
                sustained_source(RATE).jobs(), max_jobs=80))

        assert effects["invalidate_order", True] > 0
        assert effects["cancel_kernel", True] > 0
        assert effects["preempt_kernel", False] > 0
        assert effects["_pump_once", False] > 0
        assert (sum(system.dispatcher.order_drops for system in systems)
                == effects["preempt_kernel", False]
                + effects["_pump_once", False])
