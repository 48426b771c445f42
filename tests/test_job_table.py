"""Unit tests for the Job Table (Section 4.2), incl. the 4240-byte claim.

Beyond the table operations, two properties the array paths rely on:

* **order** — ``order()`` maps ``jobs_by_start()`` to rows, so through
  any interleaving of admissions, completions and late rejects (ties on
  start time broken by ``job_id``) it walks the sort oracle's jobs;
* **staleness** — a profiling-table publication marks exactly the rows
  whose ``RemainingTimeCache`` entries the sync dropped, and a stream
  append marks its job's row through ``LaxityScheduler.on_job_extended``.
"""

import math
import random

import pytest

from repro.config import SimConfig
from repro.core.calibration import warm_table
from repro.core.job_table import (ENTRY_BYTES, JobTable, job_table_bytes)
from repro.core.laxity import estimate_remaining_time
from repro.errors import SimulationError
from repro.harness.paper_expected import PAPER_JOB_TABLE_BYTES
from repro.schedulers.registry import make_scheduler
from repro.sim.device import GPUSystem
from repro.units import US
from repro.workloads.fleet import (build_fleet_jobs, fleet_config,
                                   fleet_warm_rates)

from conftest import make_descriptor, make_job


def tabled_job(job_id=0, queue_id=None, num_wgs=4):
    job = make_job(job_id=job_id,
                   descriptors=[make_descriptor(num_wgs=num_wgs)])
    job.mark_enqueued(0, queue_id if queue_id is not None else job_id)
    return job


def _order_jobs(table):
    return [table.jobs[row] for row in table.order().tolist()]


class TestMemoryFootprint:
    def test_matches_paper_for_128_queues(self):
        assert job_table_bytes(128) == PAPER_JOB_TABLE_BYTES == 4240

    def test_scales_linearly_with_queues(self):
        assert job_table_bytes(256) - job_table_bytes(128) == 128 * ENTRY_BYTES

    def test_instance_reports_provisioned_memory(self):
        assert JobTable(128).memory_bytes == 4240


class TestTableOperations:
    def test_insert_and_get(self):
        table = JobTable(4)
        job = make_job(arrival=7, deadline=900)
        job.mark_enqueued(10, 2)
        table.insert(job)
        assert job in table and len(table) == 1
        assert table.jobs == [None, None, job, None]
        assert table.occupied.tolist() == [False, False, True, False]
        assert table.arrival[2] == 7
        assert table.deadline[2] == 900.0
        assert table.remaining[2] == 0.0
        assert table.stale[2] and not table.running[2]
        best_effort = make_job(job_id=1, deadline=None)
        best_effort.mark_enqueued(10, 0)
        table.insert(best_effort)
        assert math.isnan(table.deadline[0])

    def test_insert_requires_queue_binding(self):
        table = JobTable(4)
        with pytest.raises(SimulationError):
            table.insert(make_job())

    def test_duplicate_queue_rejected(self):
        table = JobTable(4)
        table.insert(tabled_job(job_id=0, queue_id=1))
        with pytest.raises(SimulationError):
            table.insert(tabled_job(job_id=1, queue_id=1))

    def test_capacity_enforced(self):
        table = JobTable(1)
        table.insert(tabled_job(job_id=0, queue_id=0))
        with pytest.raises(SimulationError):
            table.insert(tabled_job(job_id=1, queue_id=1))

    def test_remove(self):
        table = JobTable(4)
        job = tabled_job(queue_id=3)
        table.insert(job)
        table.remove(job)
        assert job not in table
        assert table.jobs[3] is None and not table.occupied[3]
        assert len(table) == 0

    def test_remove_unknown_rejected(self):
        table = JobTable(4)
        with pytest.raises(SimulationError):
            table.remove(tabled_job())

    def test_marks_touch_only_the_tabled_job(self):
        table = JobTable(4)
        job = tabled_job(job_id=0, queue_id=1)
        table.insert(job)
        table.stale[1] = False
        stranger = tabled_job(job_id=9, queue_id=1)   # same queue, untabled
        table.mark_running(stranger)
        table.mark_jobs_stale([stranger])
        assert not table.running[1] and not table.stale[1]
        table.mark_running(job)
        table.mark_jobs_stale([job])
        assert table.running[1] and table.stale[1]

    def test_entries_sorted_by_queue_id(self):
        table = JobTable(8)
        for queue_id in (5, 1, 3):
            table.insert(tabled_job(job_id=queue_id, queue_id=queue_id))
        assert table.rows().tolist() == [1, 3, 5]


class TestStandingStartOrder:
    def test_jobs_by_start_orders_by_start_then_id(self):
        table = JobTable(8)
        late = tabled_job(job_id=0, queue_id=0)
        late.start_time = 300
        early = tabled_job(job_id=1, queue_id=1)
        early.start_time = 100
        tied = tabled_job(job_id=2, queue_id=2)
        tied.start_time = 100
        for job in (late, early, tied):
            table.insert(job)
        assert [j.job_id for j in table.jobs_by_start()] == [1, 2, 0]

    def test_matches_the_tick_sweep_sort_key(self):
        # The standing order must equal sorting live jobs by
        # (start_time or arrival, job_id) — the seed sweep's key.
        table = JobTable(16)
        jobs = []
        for job_id, start in enumerate((40, 10, 10, 0, 25)):
            job = tabled_job(job_id=job_id, queue_id=job_id)
            job.start_time = start
            table.insert(job)
            jobs.append(job)
        expected = sorted(jobs,
                          key=lambda j: (j.start_time or j.arrival, j.job_id))
        assert table.jobs_by_start() == expected

    def test_remove_keeps_the_standing_order(self):
        table = JobTable(8)
        jobs = []
        for job_id, start in enumerate((50, 20, 35)):
            job = tabled_job(job_id=job_id, queue_id=job_id)
            job.start_time = start
            table.insert(job)
            jobs.append(job)
        table.remove(jobs[2])
        assert [j.job_id for j in table.jobs_by_start()] == [1, 0]

    def test_snapshot_is_safe_to_mutate_during_iteration(self):
        table = JobTable(8)
        jobs = []
        for job_id in range(3):
            job = tabled_job(job_id=job_id, queue_id=job_id)
            job.start_time = job_id * 10
            table.insert(job)
            jobs.append(job)
        snapshot = table.jobs_by_start()
        for job in snapshot:
            table.remove(job)  # must not disturb the snapshot being walked
        assert snapshot == jobs
        assert table.jobs_by_start() == []


class TestSweepOrder:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_job_table_through_churn(self, seed):
        rng = random.Random(seed)
        table = JobTable(16)
        free_queues = list(range(16))
        # Shuffled ids: jobs sharing a start time are admitted out of
        # job_id order, so only the tie-break can sort them.
        ids = list(range(200))
        rng.shuffle(ids)
        tabled = []
        now = 0
        for step in range(200):
            if tabled and (not free_queues or rng.random() < 0.45):
                # Completion and late reject both free the row.
                job = tabled.pop(rng.randrange(len(tabled)))
                table.remove(job)
                free_queues.append(job.queue_id)
            else:
                now += rng.choice((0, 0, 5 * US))   # frequent ties
                job = make_job(job_id=ids[step],
                               arrival=max(0, now - rng.choice((0, US))))
                job.mark_enqueued(now, free_queues.pop())
                table.insert(job)
                tabled.append(job)
            oracle = sorted(tabled, key=lambda j: (j.start_time or j.arrival,
                                                   j.job_id))
            assert table.jobs_by_start() == oracle
            assert _order_jobs(table) == oracle
            assert table.rows().tolist() == sorted(j.queue_id for j in tabled)

    def test_lax_sweeps_match_job_table(self, monkeypatch):
        """Every steady-state sweep of a fleet cell (admissions,
        completions and late rejects in flight) walks the Job Table's
        enqueue order; the sweep has no population gate."""
        checked = []
        order = JobTable.order

        def checked_order(table):
            rows = order(table)
            assert ([table.jobs[row] for row in rows.tolist()]
                    == table.jobs_by_start())
            checked.append(len(rows))
            return rows

        monkeypatch.setattr(JobTable, "order", checked_order)
        config = fleet_config()
        system = GPUSystem(make_scheduler("LAX"), config)
        warm_table(system.profiler, fleet_warm_rates(config.gpu))
        system.submit_workload(build_fleet_jobs(num_jobs=48, seed=3,
                                                gpu=config.gpu))
        metrics = system.run()
        assert checked and max(checked) > 1
        assert system.policy.admission.late_rejected > 0
        assert any(o.completion is not None for o in metrics.outcomes)


def _admit(policy, job, queue_id):
    """Table ``job`` the way the CP does: bind, mark READY, admit."""
    job.mark_enqueued(0, queue_id)
    job.mark_ready()
    policy.on_job_admitted(job)


class TestStaleness:
    def test_publication_marks_exactly_the_dropped_entries(self):
        system = GPUSystem(make_scheduler("LAX"), SimConfig())
        policy = system.policy
        profiler = system.profiler
        profiler.seed_rate("a", 0.001)
        profiler.seed_rate("b", 0.001)
        cache = policy._remaining_cache
        table = policy.job_table
        kernels = {"a": make_descriptor(name="a"),
                   "b": make_descriptor(name="b")}
        jobs = [make_job(job_id=i, descriptors=[kernels[n] for n in names])
                for i, names in enumerate(("a", "b", "ab", "a"))]
        for job in jobs:
            _admit(policy, job, job.job_id)
        rows = table.rows()
        # Refresh all but the last job: its row stays stale from insert()
        # and the cache holds no entry for it.
        policy._refresh_rows(rows[:3], 0)
        assert table.stale[rows].tolist() == [False, False, False, True]
        cached_before = set(cache._values)

        profiler.seed_rate("a", 0.002)
        cache.sync(0)

        dropped = cached_before - set(cache._values)
        assert dropped == {0, 2}
        assert table.stale[rows].tolist() == [True, False, True, True]
        policy._refresh_rows(rows[:1], 0)
        assert table.remaining[0] == estimate_remaining_time(
            jobs[0], profiler, 0)

    def test_stream_append_marks_the_row(self):
        system = GPUSystem(make_scheduler("LAX"), SimConfig())
        policy = system.policy
        table = policy.job_table
        job = make_job(job_id=7, descriptors=[make_descriptor(name="k")])
        _admit(policy, job, 0)
        rows = table.rows()
        policy._refresh_rows(rows, 0)
        assert not table.stale[0]

        job.append_kernels([make_descriptor(name="k2")])
        policy.on_job_extended(job)
        assert table.stale[0]

        # The refresh indexes the appended type in the cache, so a later
        # publication for it reaches the row too.
        policy._refresh_rows(rows, 0)
        assert not table.stale[0]
        system.profiler.seed_rate("k2", 0.001)
        policy._remaining_cache.sync(0)
        assert table.stale[0]
