"""Decision-event schema validation and scheduler emission integration."""

import json

import pytest

from repro.config import SimConfig
from repro.errors import TelemetryError
from repro.schedulers.registry import make_scheduler
from repro.sim.device import GPUSystem
from repro.telemetry import (DECISION_SCHEMAS, DecisionEvent, DecisionLog,
                             MetricsRegistry, TelemetryHub,
                             validate_decision)
from repro.units import MS, US

from conftest import make_descriptor, make_job


class TestSchemas:
    def test_valid_events_pass(self):
        validate_decision("admission_verdict",
                          {"job_id": 1, "accepted": True,
                           "reason": "littles_law", "tot_rem_time": 0.0})
        validate_decision("queue_rotation",
                          {"pointer": 3, "previous": 0, "served": 2})

    def test_missing_required_field_rejected(self):
        with pytest.raises(TelemetryError):
            validate_decision("admission_verdict", {"job_id": 1})

    def test_unknown_field_rejected(self):
        with pytest.raises(TelemetryError):
            validate_decision("queue_rotation",
                              {"pointer": 1, "previous": 0, "served": 1,
                               "surprise": True})

    def test_unknown_kind_rejected(self):
        with pytest.raises(TelemetryError):
            validate_decision("job_teleport", {})

    def test_every_kind_has_required_fields(self):
        for kind, schema in DECISION_SCHEMAS.items():
            assert any(schema.values()), f"{kind} has no required fields"


class TestDecisionLog:
    def test_emit_and_query(self):
        log = DecisionLog()
        log.emit(10, "priority_update", "LAX", job_id=1, priority=2.0,
                 previous=0.0)
        log.emit(20, "priority_update", "LAX", job_id=2, priority=1.0,
                 previous=3.0)
        log.emit(30, "preemption_cause", "LAX-PREMA", job_id=2, kernel="k",
                 evicted=4, cause="epoch_laxity_gap", urgent_job_id=1)
        assert len(log) == 3
        assert log.counts() == {"priority_update": 2, "preemption_cause": 1}
        assert len(log.of_kind("priority_update")) == 2
        # for_job matches both subject and urgent-job references.
        assert len(log.for_job(1)) == 2
        assert len(log.for_job(2)) == 2

    def test_registry_counter_bumped(self):
        registry = MetricsRegistry()
        log = DecisionLog(registry=registry)
        log.emit(0, "queue_rotation", "RR", pointer=1, previous=0, served=1)
        log.emit(0, "queue_rotation", "RR", pointer=2, previous=1, served=1)
        assert registry.value("decision_events_total",
                              kind="queue_rotation") == 2

    def test_new_field_set_for_validated_kind_still_raises(self):
        log = DecisionLog()
        log.emit(0, "queue_rotation", "RR", pointer=1, previous=0, served=1)
        for _ in range(2):  # a rejected shape is not remembered as valid
            with pytest.raises(TelemetryError, match="unknown fields"):
                log.emit(1, "queue_rotation", "RR", pointer=2, previous=1,
                         served=1, surprise=True)
            with pytest.raises(TelemetryError, match="missing required"):
                log.emit(2, "queue_rotation", "RR", pointer=2, previous=1)
        assert log.counts() == {"queue_rotation": 1}

    def test_default_fields_are_read_only(self):
        event = DecisionEvent(0, "queue_rotation", "RR")
        assert dict(event.fields) == {}
        with pytest.raises(TypeError):
            event.fields["pointer"] = 1

    def test_json_line_matches_generic_encoder_for_every_kind(self):
        values = (7, 2.5e-7, True, 'q"\\\u00e9\n', None, -3, 1e20,
                  float("inf"), False, 0.1)
        for kind, schema in DECISION_SCHEMAS.items():
            fields = {name: values[index % len(values)]
                      for index, name in enumerate(schema)}
            event = DecisionEvent(12, kind, "LAX\u2013v", fields)
            assert event.as_json_line() == json.dumps(event.as_dict()), kind

    def test_jsonl_export_creates_parent_dirs(self, tmp_path):
        log = DecisionLog()
        log.emit(5, "late_reject", "LAX", job_id=9, reason="queuing_delay",
                 elapsed=100, deadline=50)
        path = tmp_path / "deep" / "nested" / "decisions.jsonl"
        assert log.to_jsonl(str(path)) == 1
        record = json.loads(path.read_text().splitlines()[0])
        assert record["kind"] == "late_reject"
        assert record["job_id"] == 9
        assert record["scheduler"] == "LAX"


def run_with_hub(scheduler, jobs, **hub_kwargs):
    hub = TelemetryHub(**hub_kwargs)
    system = GPUSystem(make_scheduler(scheduler), SimConfig(), telemetry=hub)
    system.submit_workload(jobs)
    metrics = system.run()
    return hub, metrics


def overload_jobs(count=8):
    """Arrivals dense enough that LAX's admission must reject some."""
    return [make_job(job_id=i, arrival=(i + 1) * US, deadline=60 * US,
                     descriptors=[make_descriptor(num_wgs=32,
                                                  wg_work=25 * US)])
            for i in range(count)]


class TestSchedulerEmission:
    def test_lax_emits_admission_verdicts(self):
        hub, metrics = run_with_hub("LAX", overload_jobs())
        verdicts = hub.decisions.of_kind("admission_verdict")
        assert len(verdicts) == metrics.num_jobs
        rejected = [e for e in verdicts if not e.fields["accepted"]]
        assert len(rejected) == metrics.jobs_rejected > 0
        # A Little's-Law rejection must carry its inputs.
        littles = [e for e in rejected
                   if e.fields["reason"] == "littles_law"]
        assert littles
        fields = littles[0].fields
        assert fields["tot_rem_time"] + fields["hold_time"] \
            + fields["dur_time"] >= fields["deadline"]

    def test_lax_emits_priority_updates_with_laxity(self):
        jobs = [make_job(job_id=i, arrival=i * 20 * US, deadline=5 * MS,
                         descriptors=[make_descriptor(num_wgs=8,
                                                      wg_work=200 * US)])
                for i in range(4)]
        hub, _ = run_with_hub("LAX", jobs)
        updates = hub.decisions.of_kind("priority_update")
        assert updates
        for event in updates:
            assert event.scheduler == "LAX"
            assert "laxity" in event.fields
            assert event.fields["priority"] != event.fields["previous"]

    def test_hybrid_emits_through_base_hook(self):
        hub, _ = run_with_hub("LAX-PREMA", overload_jobs())
        assert hub.decisions.of_kind("admission_verdict")
        assert all(e.scheduler == "LAX-PREMA"
                   for e in hub.decisions.events)

    def test_mlfq_emits_rotations_and_level_changes(self):
        # wg_work of 1 ms against a 2 ms deadline guarantees runtime
        # crosses the 1/3-deadline demotion threshold.
        jobs = [make_job(job_id=i, arrival=i * 10 * US, deadline=2 * MS,
                         descriptors=[make_descriptor(num_wgs=8,
                                                      wg_work=1 * MS)])
                for i in range(6)]
        hub, _ = run_with_hub("MLFQ", jobs)
        counts = hub.decisions.counts()
        assert counts.get("queue_rotation", 0) > 0
        assert counts.get("priority_update", 0) > 0

    def test_rr_emits_queue_rotations(self):
        jobs = [make_job(job_id=i, arrival=(i + 1) * 10 * US,
                         deadline=10 * MS,
                         descriptors=[make_descriptor(num_wgs=4,
                                                      wg_work=50 * US)])
                for i in range(5)]
        hub, _ = run_with_hub("RR", jobs)
        rotations = hub.decisions.of_kind("queue_rotation")
        assert rotations
        for event in rotations:
            assert event.fields["served"] >= 1

    def test_decision_events_can_be_disabled(self):
        hub, _ = run_with_hub("LAX", overload_jobs(),
                              decision_events=False)
        assert hub.decisions is None

    def test_no_hub_means_no_emission_machinery(self):
        system = GPUSystem(make_scheduler("LAX"), SimConfig())
        system.submit_workload(overload_jobs())
        system.run()
        assert system.telemetry is None
        assert system.sim.profiler is None


class TestDeterminism:
    def test_telemetry_leaves_results_bit_identical(self):
        def outcome_tuple(metrics):
            return [(o.job_id, o.accepted, o.completion, o.wgs_executed)
                    for o in metrics.outcomes]

        def run(telemetry):
            system = GPUSystem(make_scheduler("LAX"), SimConfig(),
                               telemetry=telemetry)
            system.submit_workload(overload_jobs())
            return system.run()

        bare = run(None)
        full = run(TelemetryHub(wg_events=True))
        assert outcome_tuple(bare) == outcome_tuple(full)
        assert bare.total_energy_joules == full.total_energy_joules
