"""The runtime invariant checker: clean runs pass, corrupted state fails.

Two halves.  Positive: the checker rides along full simulations under
several schedulers and finds nothing (while actually running — the check
counters prove the hooks fired).  Negative: each invariant family is
violated by tampering with live simulator state, and the resulting
:class:`InvariantViolation` carries the structured event context the CLI
and telemetry bundle rely on.
"""

import dataclasses

import pytest

from repro.config import SimConfig
from repro.schedulers.registry import make_scheduler
from repro.sim.device import GPUSystem
from repro.units import MS, US
from repro.validation import InvariantChecker, InvariantViolation

from conftest import make_descriptor, make_job, make_jobs


def run_validated(jobs, scheduler="LAX"):
    checker = InvariantChecker()
    system = GPUSystem(make_scheduler(scheduler), SimConfig(),
                       validator=checker)
    system.submit_workload(jobs)
    metrics = system.run()
    return system, metrics, checker


def start_validated(jobs, scheduler="RR"):
    """A validated system run up to 50 us — mid-flight, kernels resident."""
    checker = InvariantChecker()
    system = GPUSystem(make_scheduler(scheduler), SimConfig(),
                       validator=checker)
    system.submit_workload(jobs)
    system.sim.run_until(50 * US)
    return system, checker


class TestCleanRuns:
    @pytest.mark.parametrize("scheduler", ["LAX", "RR", "EDF", "PREMA",
                                           "LAX-CPU"])
    def test_no_violations_and_hooks_fired(self, scheduler):
        jobs = make_jobs(12, descriptors=[make_descriptor(),
                                          make_descriptor(name="k2")])
        _, _, checker = run_validated(jobs, scheduler)
        assert checker.violations == []
        for invariant in ("clock_monotonic", "cu_occupancy",
                          "wg_conservation", "stream_fifo",
                          "job_lifecycle", "queue_pool", "run_end"):
            assert checker.checks.get(invariant, 0) > 0, invariant
        assert checker.total_checks == sum(checker.checks.values())

    def test_summary_is_json_ready(self):
        _, _, checker = run_validated(make_jobs(3))
        summary = checker.summary()
        assert summary["violations"] == []
        assert summary["total_checks"] == checker.total_checks
        import json
        json.dumps(summary)

    def test_attach_wires_every_component(self):
        checker = InvariantChecker()
        system = GPUSystem(make_scheduler("RR"), SimConfig(),
                           validator=checker)
        assert system.sim.validator is checker
        assert system.cp.validator is checker
        assert system.dispatcher.validator is checker
        assert all(cu.validator is checker for cu in system.dispatcher.cus)

    def test_metrics_identical_with_and_without_checker(self):
        """The checker observes; it must never perturb the simulation."""
        plain = GPUSystem(make_scheduler("LAX"), SimConfig())
        plain.submit_workload(make_jobs(8))
        baseline = plain.run()
        _, validated, _ = run_validated(make_jobs(8))
        assert dataclasses.asdict(baseline) == dataclasses.asdict(validated)


class TestViolations:
    def test_clock_monotonicity(self):
        system, checker = start_validated([make_job()])
        stale = [system.sim.now - 1, 0, lambda: None, ()]
        with pytest.raises(InvariantViolation) as excinfo:
            checker.on_event(stale, system.sim.now)
        violation = excinfo.value
        assert violation.invariant == "clock_monotonic"
        assert violation.context["event_time"] == system.sim.now - 1
        assert checker.violations  # recorded before raising

    def test_cu_occupancy_negative(self):
        system, checker = start_validated([make_job()])
        cu = system.dispatcher.cus[0]
        cu.used_threads = -5
        with pytest.raises(InvariantViolation) as excinfo:
            checker.on_cu_update(cu)
        assert excinfo.value.invariant == "cu_occupancy"
        assert excinfo.value.context["resource"] == "threads"

    def test_cu_occupancy_over_limit(self, config):
        system, checker = start_validated([make_job()])
        cu = system.dispatcher.cus[0]
        cu.used_threads = config.gpu.threads_per_cu + 1
        with pytest.raises(InvariantViolation) as excinfo:
            checker.on_cu_update(cu)
        assert excinfo.value.context["limit"] == config.gpu.threads_per_cu

    def test_wg_conservation_counter_drift(self):
        # A long-running kernel is mid-flight at 50 us; faking an extra
        # completion breaks completed + resident + queued == dispatched.
        job = make_job(descriptors=[make_descriptor(wg_work=1 * MS,
                                                    num_wgs=8)],
                       deadline=20 * MS)
        system, checker = start_validated([job])
        kernel = job.kernels[0]
        assert kernel.phase.value == "active"
        kernel.wgs_completed += 1
        with pytest.raises(InvariantViolation) as excinfo:
            checker.on_dispatch(system.dispatcher)
        assert excinfo.value.invariant == "wg_conservation"
        assert excinfo.value.context["job"] == job.job_id

    def test_stream_fifo_premature_completion(self):
        job = make_job(descriptors=[make_descriptor(wg_work=1 * MS),
                                    make_descriptor(name="k2")],
                       deadline=20 * MS)
        system, checker = start_validated([job])
        assert not job.kernels[0].is_done
        with pytest.raises(InvariantViolation) as excinfo:
            checker.on_kernel_complete(job.kernels[1])
        assert excinfo.value.invariant == "stream_fifo"
        assert excinfo.value.context["prerequisite"] == 0

    def test_job_lifecycle_release_marker(self):
        job = make_job()
        system, checker = start_validated([job])
        job.released_kernels = job.num_kernels + 3
        with pytest.raises(InvariantViolation) as excinfo:
            checker.on_job_event(job, "tampered")
        assert excinfo.value.invariant == "stream_fifo"

    def test_queue_pool_bijection_break(self):
        job = make_job(descriptors=[make_descriptor(wg_work=1 * MS)],
                       deadline=20 * MS)
        system, checker = start_validated([job])
        system.pool._by_job.pop(job.job_id)
        with pytest.raises(InvariantViolation) as excinfo:
            checker.on_job_event(job, "tampered")
        assert excinfo.value.invariant == "queue_pool"

    def test_run_end_with_resident_wgs(self):
        # Teardown audit: a device abandoned mid-run still hosts WGs.
        job = make_job(descriptors=[make_descriptor(wg_work=1 * MS,
                                                    num_wgs=8)],
                       deadline=20 * MS)
        system, checker = start_validated([job])
        assert any(cu.num_residents for cu in system.dispatcher.cus)
        with pytest.raises(InvariantViolation) as excinfo:
            checker.on_run_end(system, system.metrics.finalize(
                system.sim.now, system.energy))
        assert excinfo.value.invariant == "run_end"

    def test_violation_as_dict_round_trips(self):
        violation = InvariantViolation(
            "wg_conservation", "lost a workgroup", time=42,
            context={"job": 7, "kernel": "alpha"})
        record = violation.as_dict()
        assert record["invariant"] == "wg_conservation"
        assert record["time"] == 42
        assert record["context"] == {"job": 7, "kernel": "alpha"}
        assert "lost a workgroup" in record["message"]
