"""The sweep Runner: determinism, failure capture, progress, pooling.

The crash/error/timeout tests monkeypatch module globals in
``repro.harness.runner`` and rely on the fork start method (Linux) to
carry those patches into pool workers.
"""

import json
import os
import time

import pytest

from repro.errors import HarnessError
from repro.harness import (CellFailure, RunOptions, Runner, SweepSpec,
                           clear_cache)
from repro.harness.experiment import ExperimentSpec
from repro.harness.runner import _pool_worker
from repro.telemetry import TelemetryHub
from repro.validation import InvariantViolation


def small_sweep(**overrides):
    fields = dict(benchmarks=("IPV6",), schedulers=("RR", "LAX"),
                  rate_levels=("high",), seeds=(1, 2), num_jobs=8)
    fields.update(overrides)
    return SweepSpec(**fields)


# Module-level so pool workers can unpickle them by reference (the test
# process forks, so the module is present in the child).

def _crash_on_seed_two(spec, config, validate):
    if spec.seed == 2:
        os._exit(13)
    return _pool_worker(spec, config, validate)


def _error_run_cell(real):
    def run_cell(spec, **kwargs):
        if spec.seed == 2:
            raise ValueError("injected failure")
        return real(spec, **kwargs)
    return run_cell


def _violating_run_cell(real):
    def run_cell(spec, **kwargs):
        if spec.seed == 2:
            raise InvariantViolation(
                "cu_capacity", "too many workgroups", time=42,
                context={"cu": 3})
        return real(spec, **kwargs)
    return run_cell


def _sleepy_run_cell(real):
    def run_cell(spec, **kwargs):
        if spec.seed == 2:
            time.sleep(30)
        return real(spec, **kwargs)
    return run_cell


class TestDeterminism:
    def test_parallel_bit_identical_to_serial(self):
        sweep = small_sweep()
        clear_cache(persistent=False)
        # Parallel first: forked workers must not inherit a warm memo.
        parallel = Runner(workers=2, cache=False).run(
            sweep, RunOptions(validate=True))
        serial = Runner(workers=1, cache=False).run(
            sweep, RunOptions(validate=True))
        assert parallel.ok and serial.ok
        assert list(parallel.results) == sweep.cells()
        assert (json.dumps(parallel.records(), sort_keys=True)
                == json.dumps(serial.records(), sort_keys=True))

    def test_results_ordered_by_sweep_not_completion(self):
        sweep = small_sweep(schedulers=("LAX", "RR"), seeds=(2, 1))
        outcome = Runner(workers=2, cache=False).run(sweep)
        assert list(outcome.results) == sweep.cells()

    def test_pool_validate_produces_diagnostics(self):
        outcome = Runner(workers=2, cache=False).run(
            small_sweep(seeds=(1,)), RunOptions(validate=True))
        for result in outcome.results.values():
            validation = result.diagnostics["validation"]
            assert validation["violations"] == []


class TestFailureCapture:
    def test_worker_crash_becomes_cell_failure(self, monkeypatch):
        monkeypatch.setattr("repro.harness.runner._pool_worker",
                            _crash_on_seed_two)
        sweep = small_sweep(schedulers=("RR",), seeds=(1, 2, 3))
        outcome = Runner(workers=2, cache=False).run(sweep)
        crashed = [spec for spec in sweep.cells() if spec.seed == 2][0]
        failure = outcome.failures[crashed]
        assert failure.kind == "crash"
        assert failure.attempts == 2  # original + one isolated retry
        # The healthy neighbours still produced results.
        assert {spec.seed for spec in outcome.results} == {1, 3}

    def test_pool_error_becomes_cell_failure(self, monkeypatch):
        from repro.harness import runner as runner_module
        monkeypatch.setattr(runner_module, "run_cell",
                            _error_run_cell(runner_module.run_cell))
        sweep = small_sweep(schedulers=("RR",))
        outcome = Runner(workers=2, cache=False).run(sweep)
        [failure] = outcome.failures.values()
        assert failure.kind == "error"
        assert "ValueError: injected failure" in failure.message
        assert "injected failure" in failure.traceback
        assert failure.exception is None  # crossed a process boundary
        assert len(outcome.results) == 1
        with pytest.raises(HarnessError, match="1 cell\\(s\\) failed"):
            outcome.raise_failures()

    def test_pool_invariant_violation_keeps_context(self, monkeypatch):
        from repro.harness import runner as runner_module
        monkeypatch.setattr(runner_module, "run_cell",
                            _violating_run_cell(runner_module.run_cell))
        outcome = Runner(workers=2, cache=False).run(
            small_sweep(schedulers=("RR",)))
        [failure] = outcome.failures.values()
        assert failure.kind == "invariant"
        assert failure.context == {"cu": 3}
        assert "cu_capacity" in failure.message

    def test_serial_failure_keeps_original_exception(self, monkeypatch):
        from repro.harness import runner as runner_module
        monkeypatch.setattr(runner_module, "run_cell",
                            _violating_run_cell(runner_module.run_cell))
        outcome = Runner(workers=1, cache=False).run(
            small_sweep(schedulers=("RR",)))
        [failure] = outcome.failures.values()
        assert failure.kind == "invariant"
        assert isinstance(failure.exception, InvariantViolation)
        with pytest.raises(InvariantViolation):
            outcome.raise_failures()

    def test_timeout_becomes_cell_failure(self, monkeypatch):
        from repro.harness import runner as runner_module
        monkeypatch.setattr(runner_module, "run_cell",
                            _sleepy_run_cell(runner_module.run_cell))
        sweep = small_sweep(schedulers=("RR",))
        outcome = Runner(workers=2, cache=False, timeout=2.0).run(sweep)
        [failure] = outcome.failures.values()
        assert failure.kind == "timeout"
        assert len(outcome.results) == 1

    def test_ok_and_describe(self):
        outcome = Runner(workers=1, cache=False).run(
            small_sweep(schedulers=("RR",), seeds=(1,)))
        assert outcome.ok
        outcome.raise_failures()  # no-op when everything succeeded
        assert "1 cells, 1 computed, 0 cached, 0 failed" \
            in outcome.describe()


class TestGuards:
    def test_live_sinks_rejected_in_pool_mode(self):
        hub = TelemetryHub()
        with pytest.raises(HarnessError, match="in-process"):
            Runner(workers=2).run(small_sweep(),
                                  RunOptions(telemetry=hub))

    def test_live_sinks_fine_serially(self):
        hub = TelemetryHub()
        outcome = Runner(workers=1, cache=False).run(
            small_sweep(schedulers=("RR",), seeds=(1,)),
            RunOptions(telemetry=hub))
        assert outcome.ok

    def test_worker_and_retry_validation(self):
        with pytest.raises(HarnessError):
            Runner(workers=0)
        with pytest.raises(HarnessError):
            Runner(retries=-1)


class TestProgress:
    def test_callback_sees_every_cell_in_order(self):
        seen = []
        runner = Runner(workers=1, cache=False,
                        on_progress=lambda done, total, spec, source:
                        seen.append((done, total, source)))
        sweep = small_sweep(schedulers=("RR",))
        runner.run(sweep)
        assert [done for done, _, _ in seen] == [1, 2]
        assert all(total == 2 for _, total, _ in seen)
        assert all(source == "run" for _, _, source in seen)

    def test_cache_hits_reported_as_cache(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        sweep = small_sweep(schedulers=("RR",))
        Runner(workers=1, cache_dir=cache_dir).run(sweep)
        seen = []
        Runner(workers=1, cache_dir=cache_dir,
               on_progress=lambda done, total, spec, source:
               seen.append(source)).run(sweep)
        assert seen == ["cache", "cache"]

    def test_telemetry_instruments(self):
        hub = TelemetryHub()
        runner = Runner(workers=1, cache=False, telemetry=hub)
        runner.run(small_sweep(schedulers=("RR",)))
        registry = hub.registry
        assert registry.gauge("sweep_cells").value == 2
        assert registry.counter("sweep_cells_completed_total").value == 2
        assert registry.counter("sweep_cache_hits_total").value == 0
        assert registry.counter("sweep_cell_failures_total").value == 0


class TestRunnerRunCell:
    def test_single_cell_convenience(self, tmp_path):
        spec = ExperimentSpec(benchmark="IPV6", scheduler="RR", num_jobs=8)
        runner = Runner(workers=1, cache_dir=str(tmp_path / "cache"))
        first = runner.run_cell(spec)
        assert first.metrics.num_jobs == 8
        # Second call is served from the persistent store.
        again = Runner(workers=1,
                       cache_dir=str(tmp_path / "cache")).run_cell(spec)
        assert (again.metrics.jobs_meeting_deadline
                == first.metrics.jobs_meeting_deadline)

    def test_failure_raises(self, monkeypatch):
        from repro.harness import runner as runner_module
        monkeypatch.setattr(runner_module, "run_cell",
                            _error_run_cell(runner_module.run_cell))
        spec = ExperimentSpec(benchmark="IPV6", scheduler="RR",
                              num_jobs=8, seed=2)
        with pytest.raises(ValueError, match="injected failure"):
            Runner(workers=1, cache=False).run_cell(spec)


def test_cell_failure_describe():
    spec = ExperimentSpec(benchmark="IPV6", scheduler="RR", num_jobs=8)
    failure = CellFailure(spec=spec, kind="error", message="boom")
    assert "IPV6/RR" in failure.describe()
    assert "boom" in failure.describe()
