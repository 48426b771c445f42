"""Streaming arrivals, job retirement and the SUSTAINED cell.

The load-bearing property is *prefix identity*: feeding the engine the
lazy stream truncated at N jobs must be bit-identical — outcomes, WG
traces, event counts, admission counters — to pre-generating the same N
jobs as a finite list.  Retirement is the orthogonal switch: it must
change *no* simulated decision, only where the bookkeeping lives
(per-job outcomes vs the folded stream aggregate).
"""

from __future__ import annotations

import pytest

from repro.config import SimConfig
from repro.errors import SimulationError, WorkloadError
from repro.harness.experiment import ExperimentSpec
from repro.harness.spec import SweepSpec
from repro.errors import HarnessError
from repro.schedulers.registry import make_scheduler
from repro.sim.device import GPUSystem
from repro.sim.queues import QueuePool
from repro.units import US
from repro.workloads.registry import (BENCHMARK_ORDER, BENCHMARKS,
                                      benchmark_spec, build_workload,
                                      parse_rate_multiplier,
                                      validate_rate_level)
from repro.workloads.streaming import (SUSTAINED_RATES, build_sustained_jobs,
                                       sustained_source)

from conftest import make_descriptor, make_job

RATE = SUSTAINED_RATES["high"]

#: The paper's contribution plus a fair-rotation and a hybrid baseline —
#: one representative of each dispatch style the stream must reproduce.
SCHEDULERS = ("LAX", "RR", "LAX-PREMA")


def _signature(system, metrics):
    """Everything a run decides, as a comparable value."""
    admission = getattr(system.policy, "admission", None)
    return (
        [(o.job_id, o.accepted, o.completion, o.wgs_executed, o.latency)
         for o in metrics.outcomes],
        metrics.end_time,
        metrics.wg_completions,
        system.sim.events_fired,
        system.sim.now,
        system.dispatcher.wgs_issued,
        system.dispatcher.wgs_preempted,
        system.host.commands_sent,
        (admission.accepted, admission.rejected)
        if admission is not None else None,
    )


def _finite_run(scheduler: str, num_jobs: int, telemetry=None,
                validator=None):
    jobs = build_sustained_jobs(num_jobs, RATE, 1, SimConfig().gpu)
    system = GPUSystem(make_scheduler(scheduler), SimConfig(),
                       telemetry=telemetry, validator=validator,
                       retire=False)
    system.submit_workload(jobs)
    return system, system.run()


def _streamed_run(scheduler: str, num_jobs: int, retire: bool = False,
                  lookahead: int = 1, telemetry=None, validator=None):
    system = GPUSystem(make_scheduler(scheduler), SimConfig(),
                       telemetry=telemetry, validator=validator,
                       retire=retire)
    system.submit_stream(sustained_source(RATE).jobs(),
                         max_jobs=num_jobs, lookahead=lookahead)
    return system, system.run()


class TestPrefixIdentity:
    @pytest.mark.parametrize("validate", (False, True))
    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    def test_streamed_prefix_bit_identical_to_finite(self, scheduler,
                                                     validate):
        """Also with the invariant checker attached to both runs: the
        checker observes every event and must perturb none of them."""
        from repro.validation import InvariantChecker

        def checker():
            return InvariantChecker() if validate else None

        finite = _signature(*_finite_run(scheduler, 150,
                                         validator=checker()))
        streamed = _signature(*_streamed_run(scheduler, 150,
                                             validator=checker()))
        assert streamed == finite

    def test_finite_list_is_a_sorted_stream(self):
        """``submit_workload`` keeps one arrival pending, not the whole
        list, and runs exactly as ``submit_stream`` over the list sorted
        by ``(arrival, job_id)``."""
        def jobs():
            # Three jobs share each arrival time, and the list is in
            # neither arrival nor id order.
            return [make_job(job_id=(7 * i) % 12, arrival=(i % 4) * 20 * US)
                    for i in range(12)]

        finite = GPUSystem(make_scheduler("LAX"), SimConfig())
        finite.submit_workload(jobs())
        assert finite.sim.pending_events == 1
        streamed = GPUSystem(make_scheduler("LAX"), SimConfig())
        streamed.submit_stream(
            sorted(jobs(), key=lambda job: (job.arrival, job.job_id)))
        assert _signature(finite, finite.run()) == \
            _signature(streamed, streamed.run())

    def test_lookahead_window_does_not_change_outcomes(self):
        one = _signature(*_streamed_run("LAX", 120, lookahead=1))
        wide = _signature(*_streamed_run("LAX", 120, lookahead=16))
        assert wide == one

    def test_wg_traces_identical(self, tmp_path):
        from repro.telemetry import TelemetryHub
        hub_f = TelemetryHub(wg_events=True)
        hub_s = TelemetryHub(wg_events=True)
        _finite_run("LAX", 80, telemetry=hub_f)
        _streamed_run("LAX", 80, telemetry=hub_s)
        assert hub_s.trace.counts() == hub_f.trace.counts()
        finite_path = str(tmp_path / "finite.jsonl")
        streamed_path = str(tmp_path / "streamed.jsonl")
        assert (hub_f.trace.to_jsonl(finite_path)
                == hub_s.trace.to_jsonl(streamed_path))
        with open(finite_path, encoding="utf-8") as f_src, \
                open(streamed_path, encoding="utf-8") as s_src:
            assert s_src.read() == f_src.read()

    def test_builder_is_stream_prefix(self):
        streamed = sustained_source(RATE).materialize(50)
        built = build_sustained_jobs(50, RATE, 1, SimConfig().gpu)
        assert [(j.job_id, j.arrival, j.tag, j.deadline) for j in streamed] \
            == [(j.job_id, j.arrival, j.tag, j.deadline) for j in built]


class TestSustainedRegistry:
    def test_registered_outside_table4_order(self):
        assert "SUSTAINED" in BENCHMARKS
        assert "SUSTAINED" not in BENCHMARK_ORDER

    def test_build_workload_entry_point(self):
        jobs = build_workload("SUSTAINED", "high", num_jobs=12)
        assert len(jobs) == 12
        assert all(job.deadline is not None for job in jobs)
        arrivals = [job.arrival for job in jobs]
        assert arrivals == sorted(arrivals)

    def test_rate_levels_and_multipliers(self):
        spec = benchmark_spec("SUSTAINED")
        assert spec.rate("high") == RATE
        assert spec.rate("x1.5") == pytest.approx(1.5 * RATE)
        assert parse_rate_multiplier("x0.25") == 0.25
        for bad in ("x0", "x-2", "xfoo", "x", "xnan", "2x", "turbo"):
            with pytest.raises(WorkloadError):
                parse_rate_multiplier(bad)
        validate_rate_level("medium")
        validate_rate_level("x2.5")
        with pytest.raises(WorkloadError):
            validate_rate_level("turbo")
        with pytest.raises(WorkloadError):
            spec.rate("turbo")

    def test_harness_specs_accept_multiplier_levels(self):
        sweep = SweepSpec(benchmarks=("SUSTAINED",), schedulers=("LAX",),
                          rate_levels=("x0.5", "x2"), num_jobs=8)
        assert [cell.rate_level for cell in sweep.cells()] == ["x0.5", "x2"]
        ExperimentSpec(benchmark="SUSTAINED", scheduler="LAX",
                       rate_level="x1.25", num_jobs=8)
        with pytest.raises(HarnessError):
            SweepSpec(benchmarks=("SUSTAINED",), schedulers=("LAX",),
                      rate_levels=("x0",), num_jobs=8)
        with pytest.raises(WorkloadError):
            ExperimentSpec(benchmark="SUSTAINED", scheduler="LAX",
                           rate_level="turbo", num_jobs=8)


class TestRetirement:
    def test_retired_run_matches_finite_aggregates(self):
        _, baseline = _finite_run("LAX", 300)
        system, retired = _streamed_run("LAX", 300, retire=True)
        assert retired.outcomes == []
        assert retired.stream is not None
        assert retired.stream.jobs == 300
        assert retired.num_jobs == baseline.num_jobs == 300
        assert retired.jobs_meeting_deadline == baseline.jobs_meeting_deadline
        assert retired.jobs_rejected == baseline.jobs_rejected
        assert retired.num_latency_sensitive == baseline.num_latency_sensitive
        assert retired.wg_completions == baseline.wg_completions
        assert retired.effective_wg_fraction \
            == baseline.effective_wg_fraction
        # 300 completions fit the latency reservoir, so percentiles
        # are exact, not sampled.
        assert retired.p99_latency_ticks == baseline.p99_latency_ticks
        assert retired.end_time == baseline.end_time

    def test_retirement_identical_decisions_on_finite_path(self):
        jobs = build_sustained_jobs(200, RATE, 1, SimConfig().gpu)
        system = GPUSystem(make_scheduler("RR"), SimConfig(), retire=True)
        system.submit_workload(jobs)
        retired = system.run()
        assert all(job.retired for job in jobs)
        assert all(job.kernels == [] for job in jobs)
        _, baseline = _finite_run("RR", 200)
        assert retired.outcomes == []
        assert retired.num_jobs == baseline.num_jobs
        assert retired.jobs_meeting_deadline == baseline.jobs_meeting_deadline
        assert retired.wg_completions == baseline.wg_completions

    def test_retire_argument_sets_system_mode(self):
        assert GPUSystem(make_scheduler("LAX"), SimConfig(),
                         retire=True).cp.retire
        assert not GPUSystem(make_scheduler("LAX"), SimConfig()).cp.retire

    def test_retire_rejects_live_job(self):
        job = make_job()
        with pytest.raises(SimulationError):
            job.retire()

    def test_collector_retire_needs_terminal_outcome(self):
        from repro.metrics.collector import MetricsCollector
        collector = MetricsCollector()
        job = make_job()
        with pytest.raises(SimulationError):
            collector.retire_job(job)

    def test_validated_retired_run_is_clean(self):
        from repro.validation import InvariantChecker, audit_run
        checker = InvariantChecker()
        system = GPUSystem(make_scheduler("LAX"), SimConfig(),
                           validator=checker, retire=True)
        system.submit_stream(sustained_source(RATE).jobs(), max_jobs=150)
        metrics = system.run()
        summary = checker.summary()
        assert summary["violations"] == []
        assert summary["checks"]["job_retirement"] == 150
        assert audit_run(system, [], metrics) == []


class TestStreamFeeder:
    def test_empty_stream_rejected(self):
        system = GPUSystem(make_scheduler("LAX"), SimConfig())
        with pytest.raises(SimulationError, match="empty workload"):
            system.submit_stream(iter(()))

    def test_non_monotone_arrivals_rejected(self):
        jobs = [make_job(job_id=0, arrival=100 * US),
                make_job(job_id=1, arrival=50 * US)]
        system = GPUSystem(make_scheduler("LAX"), SimConfig())
        with pytest.raises(SimulationError, match="non-decreasing"):
            system.submit_stream(iter(jobs))
            system.run()

    def test_bad_window_parameters_rejected(self):
        system = GPUSystem(make_scheduler("LAX"), SimConfig())
        stream = sustained_source(RATE).jobs()
        with pytest.raises(SimulationError):
            system.submit_stream(stream, lookahead=0)
        with pytest.raises(SimulationError):
            system.submit_stream(stream, max_jobs=0)

    def test_feeder_accounting(self):
        system = GPUSystem(make_scheduler("LAX"), SimConfig())
        feeder = system.submit_stream(sustained_source(RATE).jobs(),
                                      max_jobs=40)
        system.run()
        assert feeder.fed == 40
        assert feeder.exhausted

    def test_exhaustion_exactly_at_max_jobs(self):
        """The budget truncates an over-long generator at exactly
        max_jobs without pulling a job beyond the limit."""
        pulled = []

        def counting_stream():
            for job in sustained_source(RATE).jobs():
                pulled.append(job.job_id)
                yield job

        system = GPUSystem(make_scheduler("LAX"), SimConfig())
        feeder = system.submit_stream(counting_stream(), max_jobs=25,
                                      lookahead=1)
        system.run()
        assert feeder.fed == 25
        assert feeder.exhausted
        # lookahead=1: one pull per delivery; the budget stops the
        # feeder before it materializes job 26.
        assert len(pulled) == 25

    def test_generator_shorter_than_max_jobs(self):
        """A generator drying up below max_jobs exhausts cleanly."""
        jobs = build_sustained_jobs(10, RATE, 1, SimConfig().gpu)
        system = GPUSystem(make_scheduler("LAX"), SimConfig())
        feeder = system.submit_stream(iter(jobs), max_jobs=1000)
        metrics = system.run()
        assert feeder.fed == 10
        assert feeder.exhausted
        assert metrics.num_jobs == 10

    def test_zero_job_generator_rejected(self):
        """A generator that yields nothing is an empty workload."""
        def empty():
            return
            yield  # pragma: no cover

        system = GPUSystem(make_scheduler("LAX"), SimConfig())
        with pytest.raises(SimulationError, match="empty workload"):
            system.submit_stream(empty())

    def test_lookahead_one_interleaves_with_retirement(self):
        """lookahead=1 with retirement on: every delivery pulls the next
        arrival from inside the handler, so the arrival lane's negative
        seq must order it ahead of same-tick device events — the run
        must match the wide-lookahead reference exactly."""
        tight = _signature(*_streamed_run("LAX", 150, lookahead=1))
        wide = _signature(*_streamed_run("LAX", 150, lookahead=64))
        assert tight == wide

    def test_arrival_lane_refuses_past_events(self):
        system = GPUSystem(make_scheduler("LAX"), SimConfig())
        system.sim.schedule(10, lambda: None)
        system.sim.run()
        with pytest.raises(SimulationError):
            system.sim.schedule_arrival(system.sim.now - 1, lambda: None)


class TestFiniteRunAssumptions:
    """Consumers that read per-job outcomes get them: retirement is an
    explicit ``GPUSystem(retire=True)`` choice, never ambient state."""

    def test_offline_profile_pins_per_job_outcomes(self):
        from repro.core.calibration import offline_profile
        rates = offline_profile([make_descriptor()], SimConfig())
        assert all(rate > 0 for rate in rates.values())

    def test_conformance_scenarios_pin_per_job_outcomes(self):
        from repro.validation.conformance import run_scenario
        outcome = run_scenario("LAX", "single_job")
        assert len(outcome.metrics.outcomes) == len(outcome.jobs)

    def test_run_report_counts_retired_jobs(self):
        from repro.telemetry import TelemetryHub, build_report, render_markdown
        hub = TelemetryHub()
        system = GPUSystem(make_scheduler("LAX"), SimConfig(),
                           telemetry=hub, retire=True)
        system.submit_stream(sustained_source(RATE).jobs(), max_jobs=60)
        metrics = system.run()
        report = build_report(metrics, hub, label="streamed")
        assert report["summary"]["jobs_retired"] == 60
        assert report["summary"]["jobs_arrived"] == 60
        assert "jobs retired (streamed)" in render_markdown(report)

    def test_queue_ids_recycle_across_many_jobs(self):
        pool = QueuePool(2)
        jobs = [make_job(job_id=i) for i in range(7)]
        bound = []
        for job in jobs[:4]:
            queue = pool.try_bind(job)
            if queue is not None:
                bound.append(job)
        assert pool.num_bound == 2 and len(pool.backlog) == 2
        seen_queue_ids = set()
        while bound:
            job = bound.pop(0)
            seen_queue_ids.add(pool.queue_of(job).queue_id)
            successor = pool.release(job)
            if successor is not None:
                assert pool.try_bind(successor) is not None
                bound.append(successor)
        for job in jobs[4:]:
            queue = pool.try_bind(job)
            assert queue is not None
            seen_queue_ids.add(queue.queue_id)
            pool.release(job)
        assert seen_queue_ids == {0, 1}
        assert pool.num_bound == 0 and pool.num_free == 2
        assert not pool.backlog
