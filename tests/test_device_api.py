"""Unit tests for the GPUSystem API surface and policy base plumbing."""

import math

import pytest

from repro.config import SimConfig
from repro.errors import SimulationError
from repro.schedulers.base import SchedulerPolicy, default_issue_key
from repro.schedulers.registry import make_scheduler
from repro.sim.device import GPUSystem, run_workload
from repro.units import MS, US

from conftest import make_descriptor, make_job, make_jobs


class TestGPUSystemApi:
    def test_double_submit_rejected(self):
        system = GPUSystem(make_scheduler("RR"), SimConfig())
        system.submit_workload([make_job()])
        with pytest.raises(SimulationError):
            system.submit_workload([make_job(job_id=1)])

    def test_empty_workload_rejected(self):
        system = GPUSystem(make_scheduler("RR"), SimConfig())
        with pytest.raises(SimulationError):
            system.submit_workload([])

    def test_run_without_submit_rejected(self):
        system = GPUSystem(make_scheduler("RR"), SimConfig())
        with pytest.raises(SimulationError):
            system.run()

    def test_run_workload_convenience(self):
        metrics = run_workload(make_scheduler("RR"),
                               [make_job(descriptors=[make_descriptor(
                                   num_wgs=1, wg_work=10 * US)])])
        assert metrics.num_jobs == 1

    def test_context_exposes_components(self):
        system = GPUSystem(make_scheduler("RR"), SimConfig())
        ctx = system.ctx
        assert ctx.cp is system.cp
        assert ctx.host is system.host
        assert ctx.energy is system.energy
        assert ctx.dispatcher is system.dispatcher
        assert ctx.profiler is system.profiler
        assert ctx.now == 0

    def test_jobs_sorted_by_arrival(self):
        # Arrival order in the submitted list must not matter.
        early = make_job(job_id=1, arrival=10 * US, descriptors=[
            make_descriptor(num_wgs=1, wg_work=5 * US)])
        late = make_job(job_id=0, arrival=50 * US, descriptors=[
            make_descriptor(num_wgs=1, wg_work=5 * US)])
        metrics = run_workload(make_scheduler("RR"), [late, early])
        outcomes = {o.job_id: o for o in metrics.outcomes}
        assert outcomes[1].completion < outcomes[0].completion

    def test_sliced_advance_then_finish_equals_run(self):
        def system():
            built = GPUSystem(make_scheduler("LAX"), SimConfig())
            built.submit_stream(iter(make_jobs(12, gap=20 * US)))
            return built

        whole = system()
        expected = whole.run()
        sliced = system()
        for horizon in range(0, 400 * US, 37 * US):
            sliced.advance(horizon)
            assert sliced.sim.now <= horizon
        sliced.advance()
        metrics = sliced.finish()
        assert metrics.outcomes == expected.outcomes
        assert sliced.sim.now == whole.sim.now
        assert sliced.sim.events_fired == whole.sim.events_fired

    def test_advance_without_submit_rejected(self):
        with pytest.raises(SimulationError, match="no workload"):
            GPUSystem(make_scheduler("RR"), SimConfig()).advance(10)


class TestDefaultIssueKey:
    def _kernel(self, job_id, priority=0.0, arrival=0):
        job = make_job(job_id=job_id, arrival=arrival,
                       descriptors=[make_descriptor(num_wgs=1)])
        job.priority = priority
        return job.kernels[0]

    def test_priority_dominates(self):
        urgent = self._kernel(1, priority=1.0)
        relaxed = self._kernel(2, priority=5.0)
        assert default_issue_key(urgent) < default_issue_key(relaxed)

    def test_age_breaks_priority_ties(self):
        older = self._kernel(1, priority=1.0, arrival=10)
        newer = self._kernel(2, priority=1.0, arrival=20)
        assert default_issue_key(older) < default_issue_key(newer)

    def test_job_id_breaks_full_ties(self):
        a = self._kernel(1)
        b = self._kernel(2)
        assert default_issue_key(a) < default_issue_key(b)

    def test_infinite_priority_sorts_last(self):
        best_effort = self._kernel(1, priority=math.inf)
        normal = self._kernel(2, priority=1e12)
        assert default_issue_key(normal) < default_issue_key(best_effort)


class TestPolicyBaseDefaults:
    def test_base_policy_runs_fcfs(self):
        jobs = [make_job(job_id=i, arrival=(i + 1) * 10 * US,
                         deadline=100 * MS,
                         descriptors=[make_descriptor(num_wgs=1,
                                                      wg_work=20 * US)])
                for i in range(3)]
        metrics = run_workload(SchedulerPolicy(), jobs)
        assert all(o.completion is not None for o in metrics.outcomes)

    def test_base_policy_accepts_everything(self):
        policy = SchedulerPolicy()
        assert policy.admit(make_job())

    def test_issue_order_is_stable_sort(self):
        policy = SchedulerPolicy()
        jobs = [make_job(job_id=i, descriptors=[make_descriptor(num_wgs=1)])
                for i in range(5)]
        kernels = [job.kernels[0] for job in jobs]
        assert [k.job.job_id for k in policy.issue_order(kernels)] == \
            [0, 1, 2, 3, 4]
