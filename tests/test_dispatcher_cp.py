"""Integration-grade unit tests for the dispatcher + command processor."""

import collections
import dataclasses

import pytest

from repro.config import GPUConfig, SimConfig
from repro.errors import SimulationError
from repro.schedulers.registry import make_scheduler
from repro.schedulers.rr import RoundRobinScheduler
from repro.sim.device import GPUSystem
from repro.sim.dispatcher import WGDispatcher
from repro.sim.job import JobState
from repro.units import MS, US
from repro.workloads.registry import build_workload

from conftest import make_descriptor, make_job


def run_system(jobs, policy=None, config=None):
    system = GPUSystem(policy or RoundRobinScheduler(),
                       config or SimConfig())
    system.submit_workload(jobs)
    return system, system.run()


class TestKernelChaining:
    def test_single_kernel_latency_includes_cp_overheads(self):
        job = make_job(descriptors=[make_descriptor(num_wgs=1, wg_work=10 * US)])
        _, metrics = run_system([job])
        # inspection (2us) + activation (2us) + 10us work.
        assert metrics.outcomes[0].latency == 14 * US

    def test_dependent_kernels_run_sequentially(self):
        descs = [make_descriptor(name="a", num_wgs=1, wg_work=10 * US),
                 make_descriptor(name="b", num_wgs=1, wg_work=10 * US)]
        job = make_job(descriptors=descs)
        _, metrics = run_system([job])
        # Two kernels, each preceded by a 2us activation; plus inspection.
        assert metrics.outcomes[0].latency == 2 * US + 2 * (2 + 10) * US

    def test_independent_jobs_overlap(self):
        jobs = [make_job(job_id=i,
                         descriptors=[make_descriptor(num_wgs=1,
                                                      wg_work=100 * US)])
                for i in range(2)]
        _, metrics = run_system(jobs)
        latencies = [o.latency for o in metrics.outcomes]
        # Two 1-WG kernels on an 8-CU device run at full rate concurrently.
        assert all(lat == 104 * US for lat in latencies)


class TestInspectionBank:
    def test_fifth_simultaneous_arrival_waits_for_a_parser_slot(self):
        jobs = [make_job(job_id=i,
                         descriptors=[make_descriptor(num_wgs=1,
                                                      wg_work=10 * US)])
                for i in range(5)]
        _, metrics = run_system(jobs)
        latencies = sorted(o.latency for o in metrics.outcomes)
        assert latencies[:4] == [14 * US] * 4
        assert latencies[4] == 16 * US  # one extra 2us parser wait


class TestQueueBacklog:
    def test_jobs_beyond_queue_count_wait_and_complete(self):
        gpu = dataclasses.replace(GPUConfig(), num_queues=2)
        config = SimConfig(gpu=gpu)
        jobs = [make_job(job_id=i, deadline=10 * MS,
                         descriptors=[make_descriptor(num_wgs=1,
                                                      wg_work=50 * US)])
                for i in range(5)]
        _, metrics = run_system(jobs, config=config)
        assert all(o.completion is not None for o in metrics.outcomes)


class TestCancelJob:
    def test_cancel_running_job_frees_device(self):
        long_job = make_job(job_id=0, deadline=10 * MS, descriptors=[
            make_descriptor(name="long", num_wgs=8, wg_work=MS)])
        short_job = make_job(
            job_id=1, arrival=100 * US, deadline=10 * MS,
            descriptors=[make_descriptor(name="short", num_wgs=1,
                                         wg_work=10 * US)])
        system = GPUSystem(RoundRobinScheduler(), SimConfig())
        system.submit_workload([long_job, short_job])
        system.sim.schedule_at(50 * US, system.cp.cancel_job, long_job)
        metrics = system.run()
        assert long_job.state is JobState.REJECTED
        outcome = {o.job_id: o for o in metrics.outcomes}
        assert outcome[0].accepted is False
        assert outcome[0].completion is None
        assert outcome[1].met_deadline

    def test_cancel_is_idempotent_on_done_jobs(self):
        job = make_job(descriptors=[make_descriptor(num_wgs=1,
                                                    wg_work=10 * US)])
        system = GPUSystem(RoundRobinScheduler(), SimConfig())
        system.submit_workload([job])
        metrics = system.run()
        system.cp.cancel_job(job)  # job completed long ago: no-op
        assert metrics.outcomes[0].completion is not None


class TestDiagnostics:
    def test_wg_issue_counter(self):
        job = make_job(descriptors=[make_descriptor(num_wgs=5, wg_work=US)])
        system, _ = run_system([job])
        assert system.dispatcher.wgs_issued == 5

    def test_profiler_sees_completions(self):
        job = make_job(descriptors=[make_descriptor(name="kx", num_wgs=5,
                                                    wg_work=US)])
        system, _ = run_system([job])
        assert system.profiler.total_completed("kx") == 5


class TestActiveSet:
    def test_second_activation_raises(self):
        job = make_job()
        system = GPUSystem(RoundRobinScheduler(), SimConfig())
        kernel = job.kernels[0]
        system.dispatcher.add_kernel(kernel)
        with pytest.raises(SimulationError, match="activated twice"):
            system.dispatcher.add_kernel(kernel)
        assert system.dispatcher.active_kernels == (kernel,)

    def test_activation_order_survives_removals(self, monkeypatch):
        """``active_kernels`` lists kernels in activation order while
        completions, a late-reject cancellation and PREMA preemptions
        change the set, checked against a list kept here."""
        mirrors = {}
        seen = collections.Counter()

        def check(dispatcher):
            assert list(dispatcher.active_kernels) == mirrors[dispatcher]

        def wrap(name, update):
            original = getattr(WGDispatcher, name)

            def wrapped(dispatcher, kernel, *args):
                mirror = mirrors.setdefault(dispatcher, [])
                active = kernel in mirror
                result = original(dispatcher, kernel, *args)
                update(mirror, kernel, active, result)
                check(dispatcher)
                return result

            monkeypatch.setattr(WGDispatcher, name, wrapped)

        def activated(mirror, kernel, active, result):
            mirror.append(kernel)
            seen["activated"] += 1

        def completed(mirror, kernel, active, result):
            if kernel.is_done:
                mirror.remove(kernel)
                seen["completed"] += 1

        def cancelled(mirror, kernel, active, result):
            if active:
                mirror.remove(kernel)
                seen["cancelled"] += 1

        def preempted(mirror, kernel, active, result):
            seen["preempted"] += result > 0

        wrap("add_kernel", activated)
        wrap("_wg_completed", completed)
        wrap("cancel_kernel", cancelled)
        wrap("preempt_kernel", preempted)
        # PREMA preempts on VAN; the hybrid late-rejects a HYBRID job
        # whose kernel is active.
        for scheduler, benchmark in (("PREMA", "VAN"),
                                     ("LAX-PREMA", "HYBRID")):
            system = GPUSystem(make_scheduler(scheduler), SimConfig())
            system.submit_workload(build_workload(
                benchmark, rate_level="high", num_jobs=8, seed=1,
                gpu=SimConfig().gpu))
            system.run()
            check(system.dispatcher)
        assert seen["completed"] > 0
        assert seen["cancelled"] > 0 and seen["preempted"] > 0
