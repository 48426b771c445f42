"""Engine hot paths: batched issue, grouped processor sharing, the heap.

The engine keeps one path per component; the golden corpus
(``tests/test_golden_corpus.py``) pins whole-system decisions.  This
module checks the mechanisms underneath it:

* **Compute-unit pins** — a CU driven through a heterogeneous residency
  timeline reproduces the completion times and lane time a per-WG
  processor-sharing evaluation produced, and ``issue_wgs`` +
  ``flush_issue`` equals a ``start_wg`` loop.
* **Batch-capacity algebra** — ``batch_capacity`` must equal the number
  of consecutive ``can_accept``/``start_wg`` rounds that succeed.
* **Event heap** — the negative-seq arrival lane wins tied ticks, the
  O(1) ``pending_events`` counter always agrees with a heap scan,
  compaction shrinks the heap without reordering a surviving event,
  cancelling a fired event is a no-op, and ordering the heap runs no
  Python code (the property test of firing order is in
  ``test_event_core.py``).
* **Ready cursor** — a chain job's O(1) cursor returns what the full
  ready scan returns; DAG jobs take the scan.
"""

import collections
import gc
import sys

from hypothesis import given, strategies as st

from repro.config import SimConfig
from repro.core.profiling import KernelProfilingTable
from repro.sim.compute_unit import ComputeUnit
from repro.sim.energy import EnergyMeter
from repro.sim.engine import Simulator
from repro.sim.job import Job
from repro.sim.kernel import KernelPhase
from repro.units import US

from conftest import fire_plan, make_descriptor, make_job, oracle_order


# ----------------------------------------------------------------------
# Compute-unit twins
# ----------------------------------------------------------------------

def make_cu(completions):
    """A lone CU whose completion sink appends (name, index, now)."""
    config = SimConfig()
    sim = Simulator()
    energy = EnergyMeter(config.energy)
    cu = ComputeUnit(0, sim, config.gpu, energy,
                     lambda kernel, now: completions.append(
                         (kernel.name, kernel.index, now)))
    return sim, cu


def active_kernel(desc, job_id=0):
    """A kernel instance in ACTIVE phase, ready to receive WGs."""
    job = Job(job_id=job_id, benchmark="unit", descriptors=[desc],
              arrival=0, deadline=None)
    job.released_kernels = 1
    kernel = job.kernels[0]
    kernel.mark_active(0)
    return kernel


#: Heterogeneous CU-concurrency mix; the trailing c=4 kernel repeats the
#: leading run's concurrency non-consecutively, exercising the run-length
#: grouping's recompute-on-boundary case.
_MIX = (
    ("a", 4, 10 * US, 3),    # (name, cu_concurrency, wg_work, wgs)
    ("b", 10, 7 * US, 4),
    ("c", 2, 5 * US, 2),
    ("d", 4, 9 * US, 2),
)


#: ``run_mix_sequence()`` as a per-WG processor-sharing evaluation (one
#: ``dt * min(1, c / n)`` and one ``remaining / rate`` per resident WG)
#: computed it: (kernel, index, completion tick) per WG, lane time,
#: final clock, events fired.
_MIX_PER_WG = (
    [("b", 0, 11500)] * 4 + [("a", 0, 16945)] * 3
    + [("d", 0, 20834)] * 2 + [("c", 0, 20890)] * 2,
    86003.12698412698, 20890, 4)


def run_mix_sequence():
    """Drive one CU through a heterogeneous residency timeline."""
    completions = []
    sim, cu = make_cu(completions)
    kernels = [active_kernel(
        make_descriptor(name=name, num_wgs=wgs, wg_work=work,
                        cu_concurrency=conc), job_id=i)
        for i, (name, conc, work, wgs) in enumerate(_MIX)]
    for _ in range(3):
        cu.start_wg(kernels[0])
    sim.run_until(4 * US)             # partial progress at mixed rates
    for _ in range(4):
        cu.start_wg(kernels[1])
    for _ in range(2):
        cu.start_wg(kernels[2])
    sim.run_until(6 * US)
    for _ in range(2):
        cu.start_wg(kernels[3])
    sim.run()
    return completions, cu.work_done, sim.now, sim.events_fired


class TestComputeUnitTwins:
    def test_grouped_math_bit_identical_to_per_wg(self):
        """Run-length grouped sync/min-scan reproduces the per-WG
        evaluation's floats exactly (pinned above)."""
        assert run_mix_sequence() == _MIX_PER_WG

    def test_issue_wgs_matches_start_wg_loop(self):
        desc = make_descriptor(name="batch", num_wgs=8, cu_concurrency=4,
                               bytes_per_wg=64)
        loop_completions, batch_completions = [], []
        sim_a, cu_a = make_cu(loop_completions)
        sim_b, cu_b = make_cu(batch_completions)
        kernel_a = active_kernel(desc)
        kernel_b = active_kernel(desc)
        for _ in range(6):
            cu_a.start_wg(kernel_a)
        cu_b.issue_wgs(kernel_b, 6)
        cu_b.flush_issue()
        for cu in (cu_a, cu_b):
            assert cu.num_residents == 6
        assert cu_a.used_threads == cu_b.used_threads
        assert cu_a.used_wavefronts == cu_b.used_wavefronts
        assert cu_a.used_vgpr == cu_b.used_vgpr
        assert cu_a.used_lds == cu_b.used_lds
        assert cu_a._bw_demand == cu_b._bw_demand
        assert ([wg.remaining for wg in cu_a._residents]
                == [wg.remaining for wg in cu_b._residents])
        assert cu_a._timer[0] == cu_b._timer[0]
        assert kernel_a.wgs_issued == kernel_b.wgs_issued == 6
        assert sim_a.run() == sim_b.run()
        assert loop_completions == batch_completions
        assert cu_a.work_done == cu_b.work_done

    def test_issue_wgs_zero_count_is_a_noop(self):
        sim, cu = make_cu([])
        cu.issue_wgs(active_kernel(make_descriptor()), 0)
        cu.flush_issue()
        assert cu.num_residents == 0
        assert sim.pending_events == 0


class TestBatchCapacity:
    @given(threads=st.sampled_from([64, 256, 640, 1024]),
           vgpr=st.sampled_from([0, 4096, 48 * 1024]),
           lds=st.sampled_from([0, 1024, 20 * 1024]),
           concurrency=st.integers(min_value=1, max_value=10),
           prefill=st.integers(min_value=0, max_value=3),
           backfill=st.booleans())
    def test_capacity_counts_consecutive_admissions(
            self, threads, vgpr, lds, concurrency, prefill, backfill):
        _, cu = make_cu([])
        if prefill:
            occupant = active_kernel(
                make_descriptor(name="occ", num_wgs=8, threads_per_wg=256,
                                cu_concurrency=6), job_id=99)
            for _ in range(prefill):
                cu.start_wg(occupant)
        desc = make_descriptor(name="probe", num_wgs=200,
                               threads_per_wg=threads, vgpr=vgpr, lds=lds,
                               cu_concurrency=concurrency)
        cap = cu.batch_capacity(desc, backfill_only=backfill)
        kernel = active_kernel(desc, job_id=1)
        admitted = 0
        # The seed dispatcher's per-WG admission loop, verbatim semantics.
        while cu.can_accept(desc) and (
                not backfill
                or cu.free_full_rate_slots(desc.cu_concurrency) > 0):
            cu.start_wg(kernel)
            admitted += 1
        assert admitted == cap

    def test_oversized_wg_has_zero_capacity(self):
        _, cu = make_cu([])
        desc = make_descriptor(name="huge", threads_per_wg=4096)
        assert cu.batch_capacity(desc) == 0
        assert not cu.can_accept(desc)


# ----------------------------------------------------------------------
# Event heap
# ----------------------------------------------------------------------

def live_heap_count(sim):
    """Live (non-cancelled) events in the engine's heap."""
    return sum(1 for event in sim._heap if event[2] is not None)


class TestEventHeap:
    def test_arrival_lane_precedes_device_events_at_tied_ticks(self):
        """The negative-seq arrival lane fires arrivals before device
        events at tied timestamps, even when the device event was
        scheduled first."""
        fired = fire_plan([(5, "device"), (5, "arrival"), (5, "device"),
                           (5, "arrival")])
        assert [lane for lane, _, _ in fired] == [
            "arrival", "arrival", "device", "device"]

    def test_compaction_keeps_order_across_ties(self):
        """Heavy cancellation compacts the heap mid-schedule; survivors
        at tied timestamps still fire arrival-lane first, then FIFO."""
        plan = [(when % 7, "arrival" if when % 3 == 0 else "device")
                for when in range(400)]
        cancel = set(range(0, 400, 2)) | set(range(1, 200, 4))
        assert fire_plan(plan, cancel) == oracle_order(plan, cancel)

    def test_pending_events_matches_heap_scan(self):
        sim = Simulator()
        seen = []

        def check():
            # Runs inside each fired event: the counter has already
            # dropped it, and the heap scan must agree.
            assert sim.pending_events == live_heap_count(sim)
            seen.append(sim.pending_events)

        handles = [sim.schedule((i * 7) % 13, check) for i in range(60)]
        assert sim.pending_events == live_heap_count(sim) == 60
        for handle in handles[::3]:
            sim.cancel(handle)
            sim.cancel(handle)           # idempotent
            assert sim.pending_events == live_heap_count(sim)
        sim.run()
        assert seen == list(range(39, -1, -1))
        assert sim.pending_events == live_heap_count(sim) == 0

    def test_compaction_shrinks_heap_and_preserves_order(self):
        sim = Simulator()
        fired = []
        handles = [sim.schedule(delay, fired.append, delay)
                   for delay in range(1, 301)]
        for handle in handles[:200]:
            sim.cancel(handle)
        # 200 of 300 tombstoned: compaction must have kicked in.
        assert len(sim._heap) < 300
        assert sim.pending_events == live_heap_count(sim) == 100
        sim.run()
        assert fired == list(range(201, 301))

    def test_run_until_drains_tombstones_consistently(self):
        sim = Simulator()
        fired = []
        sim.schedule(10, fired.append, 10)
        doomed = sim.schedule(20, fired.append, 20)
        sim.schedule(30, fired.append, 30)
        sim.cancel(doomed)
        sim.run_until(25)
        assert fired == [10]
        assert sim.pending_events == live_heap_count(sim) == 1
        sim.run()
        assert fired == [10, 30]

    def test_cancelling_a_fired_event_is_a_noop(self):
        """A fired event is not a tombstone: cancelling it, after the
        run or from inside its own callback, moves no counter and never
        counts toward compaction."""
        sim = Simulator()
        fired = [sim.schedule(delay, lambda: None) for delay in range(100)]
        sim.run()
        for event in fired:
            sim.cancel(event)
        assert sim.pending_events == live_heap_count(sim) == 0
        assert sim._cancelled == 0
        own = []
        own.append(sim.schedule(5, lambda: sim.cancel(own[0])))
        sim.schedule(10, lambda: None)
        sim.run(until=sim.now + 5)
        assert sim.pending_events == live_heap_count(sim) == 1
        assert sim._cancelled == 0
        sim.run()
        assert sim.pending_events == 0 and sim.events_fired == 102

    def test_ordering_events_runs_no_python_code(self):
        """heapq compares the event lists in C: a run of tied events on
        both lanes enters no Python frame but the loop and the
        callbacks."""
        sim = Simulator()

        def noop():
            pass

        for index in range(600):
            schedule = (sim.schedule_arrival if index % 3 == 0
                        else sim.schedule_at)
            schedule(index % 5, noop)
        entered = collections.Counter()

        def profile(frame, event, arg):
            if event == "call":
                entered[frame.f_code.co_name] += 1

        # A cyclic collection inside the window would run any registered
        # gc callback (Hypothesis installs one) as a Python frame, at a
        # moment set by earlier tests' allocations, not by the engine.
        gc.disable()
        sys.setprofile(profile)
        try:
            sim.run()
        finally:
            sys.setprofile(None)
            gc.enable()
        assert dict(entered) == {"run": 1, "noop": 600}


# ----------------------------------------------------------------------
# Job ready-cursor and profiler batch hook
# ----------------------------------------------------------------------

def scanned_ready(job):
    """The full ready scan: released, QUEUED, every prerequisite done."""
    return [kernel for kernel in job.kernels[:job.released_kernels]
            if kernel.phase is KernelPhase.QUEUED
            and job.dependencies_met(kernel)]


def drain_kernel(kernel):
    for _ in range(kernel.num_wgs):
        kernel.note_wg_issued(0)
    for _ in range(kernel.num_wgs):
        kernel.note_wg_completed(0)


class TestFastReadyCursor:
    def test_chain_job_matches_scan_at_every_stage(self):
        job = make_job(descriptors=[make_descriptor(num_wgs=2)] * 3)
        assert job.ready_kernels() == scanned_ready(job) == []
        job.released_kernels = 2
        assert job.ready_kernels() == scanned_ready(job) == [job.kernels[0]]
        job.kernels[0].mark_active(0)
        assert job.ready_kernels() == scanned_ready(job) == []
        drain_kernel(job.kernels[0])
        assert job.ready_kernels() == scanned_ready(job) == [job.kernels[1]]
        job.kernels[1].mark_active(0)
        drain_kernel(job.kernels[1])
        # Kernel 2 is done but not yet released: neither path returns it.
        assert job.ready_kernels() == scanned_ready(job) == []
        job.released_kernels = 3
        assert job.ready_kernels() == scanned_ready(job) == [job.kernels[2]]

    def test_dag_job_uses_the_full_scan(self):
        job = Job(job_id=0, benchmark="DAG",
                  descriptors=[make_descriptor(num_wgs=2)] * 3,
                  arrival=0, deadline=None,
                  dependencies={1: (), 2: (0, 1)})
        job.released_kernels = 3
        # Two independent roots ready at once: more than a chain cursor
        # can ever return.
        assert job.ready_kernels() == scanned_ready(job) == [
            job.kernels[0], job.kernels[1]]


class TestProfilerBatchHook:
    @staticmethod
    def snapshot(table, name):
        stats = table._stats[name]
        return (stats.in_flight, stats.last_transition, stats.busy_ticks,
                stats.window_completed, stats.ewma_rate,
                stats.published_rate, stats.total_completed)

    def test_on_wgs_issued_equals_repeated_on_wg_issued(self):
        single = KernelProfilingTable(window=100 * US)
        batched = KernelProfilingTable(window=100 * US)
        for _ in range(3):
            single.on_wg_issued("k", 10)
        batched.on_wgs_issued("k", 3, 10)
        assert self.snapshot(single, "k") == self.snapshot(batched, "k")
        for now in (5 * US, 8 * US, 150 * US):
            single.record_wg_completion("k", now)
            batched.record_wg_completion("k", now)
            assert self.snapshot(single, "k") == self.snapshot(batched, "k")
            assert (single.completion_rate("k", now)
                    == batched.completion_rate("k", now))

    def test_zero_count_is_a_noop(self):
        table = KernelProfilingTable(window=100 * US)
        table.on_wgs_issued("k", 0, 10)
        assert table.known_kernels() == 0
