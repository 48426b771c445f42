"""Unit tests for the epoch-gated scheduler tick.

The LAX tick re-walks a job's WGList only when one of its inputs moved.
Families here:

* **Tick accounting** — ticks split into cache-only and incremental
  ones, and reuse dominates on a quiet workload.
* **RemainingTimeCache unit tests** — invalidation on WG completion, on
  rate publication, volatile-type recompute, stream-append pickup
  through the CP, and forget() pruning.
* **Profiling-table version counters** — ``rank_epoch`` / ``mutations``
  / ``unpublished`` / ``changed_kernels_since`` semantics.
* **Fleet mini-cell** — a scaled-down large-fleet cell is concurrent and
  reports sane tick accounting.
"""

import dataclasses

from repro.config import SimConfig
from repro.core.calibration import warm_table
from repro.core.laxity import RemainingTimeCache, estimate_remaining_time
from repro.core.profiling import KernelProfilingTable
from repro.schedulers.registry import make_scheduler
from repro.sim.device import GPUSystem
from repro.units import US
from repro.workloads.fleet import (build_fleet_jobs, fleet_config,
                                   fleet_warm_rates, peak_concurrent_jobs)

from conftest import make_descriptor, make_job


class TestTickAccounting:
    def test_tick_stats_accumulate(self):
        jobs = [make_job(job_id=i, arrival=i * 10 * US, deadline=20_000 * US,
                         descriptors=[make_descriptor(
                             num_wgs=2, wg_work=150 * US)] * 4)
                for i in range(4)]
        system = GPUSystem(make_scheduler("LAX"), SimConfig())
        system.submit_workload(jobs)
        system.run()
        stats = system.policy.tick_stats
        assert stats.ticks > 0
        assert stats.ticks == stats.ticks_elided + stats.ticks_incremental
        assert stats.jobs_ranked >= stats.ticks
        assert stats.walks_reused > 0


def seeded_table(rate=0.001):
    table = KernelProfilingTable(window=100 * US)
    table.seed_rate("k", rate)
    return table


def cached_job(num_wgs=4, kernels=2):
    job = make_job(descriptors=[make_descriptor(num_wgs=num_wgs)] * kernels)
    job.mark_enqueued(0, 0)
    return job


class TestRemainingTimeCache:
    def test_hit_returns_exact_fresh_walk_value(self):
        table = seeded_table()
        cache = RemainingTimeCache(table)
        job = cached_job()
        first = cache.remaining(job, 0)
        assert first == estimate_remaining_time(job, table, 0)
        assert cache.remaining(job, 0) == first
        assert cache.recomputed == 1
        assert cache.reused == 1

    def test_wg_completion_invalidates_through_rank_version(self):
        table = seeded_table()
        cache = RemainingTimeCache(table)
        job = cached_job()
        before = cache.remaining(job, 0)
        kernel = job.kernels[0]
        kernel.mark_active(0)
        kernel.note_wg_issued(0)
        kernel.note_wg_completed(10)
        after = cache.remaining(job, 10)
        assert cache.recomputed == 2
        assert after == estimate_remaining_time(job, table, 10)
        assert after < before

    def test_rate_publication_invalidates_through_epoch(self):
        table = seeded_table(rate=0.001)
        cache = RemainingTimeCache(table)
        job = cached_job()
        before = cache.remaining(job, 0)
        table.seed_rate("k", 0.002)   # published change bumps rank_epoch
        after = cache.remaining(job, 0)
        assert cache.recomputed == 2
        assert after == before / 2

    def test_republishing_identical_rate_keeps_the_cache(self):
        table = seeded_table(rate=0.001)
        cache = RemainingTimeCache(table)
        job = cached_job()
        cache.remaining(job, 0)
        table.seed_rate("k", 0.001)   # same value: no epoch bump
        cache.remaining(job, 0)
        assert cache.recomputed == 1
        assert cache.reused == 1

    def test_volatile_types_recompute_every_sync(self):
        # Stats exist but no published rate: the estimate depends on the
        # wall clock, so the cache must refuse to carry it across syncs.
        table = KernelProfilingTable(window=100 * US)
        cache = RemainingTimeCache(table)
        job = cached_job()
        table.on_wg_issued("k", 0)
        table.record_wg_completion("k", 10 * US)
        first = cache.remaining(job, 10 * US)
        assert first == estimate_remaining_time(job, table, 10 * US)
        second = cache.remaining(job, 20 * US)
        assert cache.recomputed == 2   # no reuse across syncs
        assert second == estimate_remaining_time(job, table, 20 * US)

    def test_forget_prunes_value_and_type_index(self):
        table = seeded_table()
        cache = RemainingTimeCache(table)
        job = cached_job()
        cache.remaining(job, 0)
        cache.forget(job)
        assert job.job_id not in cache._values
        assert job.job_id not in cache._types_by_job
        assert job.job_id not in cache._jobs_by_type["k"]

    def test_append_pickup_via_rank_version(self):
        table = seeded_table()
        cache = RemainingTimeCache(table)
        job = cached_job(num_wgs=2, kernels=1)
        before = cache.remaining(job, 0)
        job.append_kernels([make_descriptor(num_wgs=2)])
        after = cache.remaining(job, 0)
        assert cache.recomputed == 2
        assert after == 2 * before


class TestProfilingVersionCounters:
    def test_seed_rate_bumps_epoch_only_on_change(self):
        table = KernelProfilingTable(window=100 * US)
        assert table.rank_epoch == 0
        table.seed_rate("a", 0.01)
        epoch = table.rank_epoch
        assert epoch > 0
        table.seed_rate("a", 0.01)
        assert table.rank_epoch == epoch
        table.seed_rate("a", 0.02)
        assert table.rank_epoch > epoch

    def test_mutations_track_every_state_change(self):
        table = KernelProfilingTable(window=100 * US)
        base = table.mutations
        table.on_wg_issued("a", 0)
        assert table.mutations == base + 1
        table.record_wg_completion("a", 5)
        assert table.mutations == base + 2

    def test_unpublished_counts_volatile_types(self):
        table = KernelProfilingTable(window=100 * US)
        assert table.unpublished == 0
        table.on_wg_issued("a", 0)
        assert table.unpublished == 1
        table.record_wg_completion("a", 10)
        # Rolling past the window publishes the rate: volatile no more.
        table.roll(200 * US)
        assert table.unpublished == 0

    def test_changed_kernels_since_reports_changes_and_volatiles(self):
        table = KernelProfilingTable(window=100 * US)
        table.seed_rate("published", 0.01)
        epoch = table.rank_epoch
        table.on_wg_issued("volatile", 0)
        assert table.changed_kernels_since(epoch) == ["volatile"]
        table.seed_rate("published", 0.02)
        changed = set(table.changed_kernels_since(epoch))
        assert changed == {"published", "volatile"}
        assert table.changed_kernels_since(table.rank_epoch) == ["volatile"]


class TestFleetMiniCell:
    """A scaled-down fleet: concurrent, with sane tick accounting."""

    def small_fleet(self):
        config = fleet_config()
        return (build_fleet_jobs(num_jobs=96, seed=3, gpu=config.gpu,
                                 num_services=8),
                config, fleet_warm_rates(config.gpu, num_services=8))

    def run_cell(self):
        jobs, config, rates = self.small_fleet()
        system = GPUSystem(make_scheduler("LAX"), config)
        warm_table(system.profiler, rates)
        system.submit_workload(jobs)
        metrics = system.run()
        return metrics, system

    def test_mini_cell_is_concurrent_and_mostly_admitted(self):
        metrics, system = self.run_cell()
        outcomes = metrics.outcomes
        accepted = sum(1 for o in outcomes if o.accepted)
        assert accepted >= 80
        assert peak_concurrent_jobs(outcomes) >= 80
        stats = system.policy.tick_stats
        assert stats.ticks > 0
        assert stats.walks_reused > stats.walks_recomputed

    def test_peak_concurrency_helper_counts_overlap(self):
        outcome = dataclasses.make_dataclass(
            "O", ["arrival", "completion"])
        outcomes = [outcome(0, 100), outcome(50, 150), outcome(100, 200),
                    outcome(300, None)]
        # Handoff at t=100 is not overlap; the None-completion job is out.
        assert peak_concurrent_jobs(outcomes) == 2
