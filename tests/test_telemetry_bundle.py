"""Perfetto export, self-profiling and the run-report bundle."""

import gc
import json
import warnings

import pytest

from repro.config import SimConfig
from repro.errors import TelemetryError
from repro.schedulers.registry import make_scheduler
from repro.sim.device import GPUSystem
from repro.telemetry import (PID_CUS, PID_JOBS, SimProfiler, TelemetryHub,
                             build_chrome_trace, build_report,
                             job_post_mortem, render_markdown,
                             validate_bundle, write_bundle,
                             write_chrome_trace)
from repro.units import MS, US

from conftest import (REPORT_SUMMARY, make_descriptor, make_job,
                      report_document)


def telemetry_run(scheduler="LAX", jobs=None, wg_events=True):
    if jobs is None:
        jobs = [make_job(job_id=i, arrival=(i + 1) * US, deadline=60 * US,
                         descriptors=[make_descriptor(num_wgs=32,
                                                      wg_work=25 * US)])
                for i in range(8)]
    hub = TelemetryHub(wg_events=wg_events)
    system = GPUSystem(make_scheduler(scheduler), SimConfig(), telemetry=hub)
    system.submit_workload(jobs)
    metrics = system.run()
    return hub, metrics


class TestPerfetto:
    def test_document_structure(self):
        hub, metrics = telemetry_run()
        doc = build_chrome_trace(hub.trace, decisions=hub.decisions,
                                 outcomes=metrics.outcomes, label="t")
        assert doc["otherData"]["format"] == "repro-perfetto-v1"
        events = doc["traceEvents"]
        phases = {e["ph"] for e in events}
        assert {"M", "X"} <= phases

    def test_one_lifetime_slice_per_job(self):
        hub, metrics = telemetry_run()
        doc = build_chrome_trace(hub.trace, outcomes=metrics.outcomes)
        job_slices = [e for e in doc["traceEvents"]
                      if e["ph"] == "X" and e.get("cat") == "job"]
        assert len(job_slices) == metrics.num_jobs
        met = [e for e in job_slices if e["args"].get("met_deadline")]
        assert len(met) == metrics.jobs_meeting_deadline

    def test_kernel_slices_nested_in_job_tracks(self):
        hub, metrics = telemetry_run()
        doc = build_chrome_trace(hub.trace)
        kernel_slices = [e for e in doc["traceEvents"]
                         if e["ph"] == "X" and e.get("cat") == "kernel"]
        assert kernel_slices
        assert all(e["pid"] == PID_JOBS and e["dur"] >= 0
                   for e in kernel_slices)

    def test_cu_counter_tracks_need_wg_events(self):
        hub, _ = telemetry_run(wg_events=True)
        doc = build_chrome_trace(hub.trace)
        counters = [e for e in doc["traceEvents"]
                    if e["ph"] == "C" and e["pid"] == PID_CUS]
        assert counters
        device = [e for e in counters if e["name"] == "device residents"]
        assert device
        # Residency counts must never go negative.
        assert all(e["args"]["residents"] >= 0 for e in device)

    def test_timestamps_are_microseconds(self):
        hub, _ = telemetry_run()
        doc = build_chrome_trace(hub.trace)
        slices = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        arrivals = [e.time for e in hub.trace.of_kind("job_arrival")]
        first_slice = min(e["ts"] for e in slices)
        assert first_slice == min(arrivals) / 1000.0

    def test_write_creates_parent_dirs(self, tmp_path):
        hub, _ = telemetry_run()
        path = tmp_path / "deep" / "trace.json"
        count = write_chrome_trace(str(path), hub.trace)
        assert count > 0
        assert json.loads(path.read_text())["traceEvents"]


class TestSelfProfiler:
    def test_records_per_callback(self):
        profiler = SimProfiler()

        def tick():
            pass

        profiler.record(tick, 0.25)
        profiler.record(tick, 0.75)
        stats = profiler.top_callbacks()[0]
        assert stats.calls == 2
        assert stats.seconds == pytest.approx(1.0)
        assert stats.mean_us == pytest.approx(5e5)

    def test_run_bracket(self):
        profiler = SimProfiler()
        profiler.begin_run()
        profiler.end_run(events_fired=1000, sim_end_ticks=5 * MS)
        assert profiler.wall_seconds >= 0.0
        assert profiler.events_fired == 1000
        snapshot = profiler.snapshot()
        assert snapshot["sim_end_ticks"] == 5 * MS
        assert "callbacks" in snapshot

    def test_attached_profiler_sees_engine_events(self):
        hub, _ = telemetry_run()
        assert hub.profiler.events_fired > 0
        assert hub.profiler.wall_seconds > 0.0
        assert hub.profiler.top_callbacks(limit=3)


class TestReport:
    def test_post_mortem_names_admission_decision(self):
        hub, metrics = telemetry_run()
        missed = [o for o in metrics.outcomes
                  if o.is_latency_sensitive and not o.met_deadline]
        assert missed, "overload workload must produce misses"
        record = job_post_mortem(missed[-1], hub.decisions)
        assert record["verdict"] in ("rejected_at_admission", "late_rejected",
                                     "completed_late", "unfinished")
        kinds = {d["kind"] for d in record["decisions"]}
        assert "admission_verdict" in kinds

    def test_report_structure_and_markdown(self):
        hub, metrics = telemetry_run()
        report = build_report(metrics, hub, label="cell")
        assert report["format"] == "repro-run-report-v1"
        assert report["summary"]["jobs_arrived"] == metrics.num_jobs
        assert report["post_mortems"]
        markdown = render_markdown(report)
        assert "# Run report — cell" in markdown
        assert "## Deadline-miss post-mortems" in markdown
        assert "admission" in markdown

    def test_bundle_round_trip(self, tmp_path):
        hub, metrics = telemetry_run()
        directory = str(tmp_path / "bundle")
        paths = write_bundle(directory, hub, metrics, label="cell",
                             diagnostics={"wgs_issued": 10})
        assert set(paths) >= {"trace.json", "metrics.prom", "metrics.json",
                              "report.md", "report.json", "events.jsonl",
                              "decisions.jsonl"}
        summary = validate_bundle(directory)
        assert summary["trace_events"] > 0
        assert summary["registry_metrics"] > 0
        assert summary["post_mortems"] > 0

    @pytest.mark.filterwarnings(
        "error::ResourceWarning",
        "error::pytest.PytestUnraisableExceptionWarning")
    def test_validate_closes_every_file(self, tmp_path):
        hub, metrics = telemetry_run()
        directory = str(tmp_path / "bundle")
        write_bundle(directory, hub, metrics)
        with warnings.catch_warnings():
            # Finalize what earlier tests left to the cycle collector,
            # so only files validate_bundle leaves open can fail this.
            warnings.simplefilter("ignore", ResourceWarning)
            gc.collect()
        validate_bundle(directory)
        gc.collect()

    def test_validate_accepts_minimal_report(self, tmp_path):
        """The report the malformed ones are made from validates."""
        hub, metrics = telemetry_run()
        directory = str(tmp_path / "bundle")
        write_bundle(directory, hub, metrics)
        (tmp_path / "bundle" / "report.json").write_text(report_document())
        assert validate_bundle(directory)["post_mortems"] == 0

    def test_validate_rejects_incomplete_bundle(self, tmp_path):
        with pytest.raises(TelemetryError):
            validate_bundle(str(tmp_path))

    @pytest.mark.parametrize("name, text", [
        *(pytest.param(name, text, id=f"{name}-{kind}")
          for name in ("trace.json", "metrics.json", "report.json")
          for kind, text in (("not-json", "not json"), ("array", "[1, 2]"))),
        pytest.param("trace.json", '{"traceEvents": [1, {"ph": "X"}]}',
                     id="trace.json-event-not-an-object"),
        pytest.param("report.json", json.dumps(
            {"format": "repro-run-report-v1", "summary": {},
             "post_mortems": []}), id="report.json-no-label"),
        pytest.param("report.json", report_document(summary={}),
                     id="report.json-summary-missing-field"),
        pytest.param("report.json", report_document(
            summary={**REPORT_SUMMARY, "deadline_ratio": "x"}),
            id="report.json-field-not-a-number"),
        pytest.param("report.json", report_document(post_mortems=[1]),
                     id="report.json-post-mortem-not-an-object"),
        pytest.param("metrics.prom", b"# TYPE \xff\n",
                     id="metrics.prom-not-utf8"),
    ])
    def test_validate_rejects_malformed_document(self, tmp_path, name, text):
        """A bundle document that cannot be decoded, is not JSON, not a
        JSON object, a report the renderer cannot read (a missing part
        or field, a formatted field that is not a number, a post-mortem
        that is not an object) or (for the trace) lists an event that is
        not an object raises the documented TelemetryError naming the
        file."""
        hub, metrics = telemetry_run()
        directory = str(tmp_path / "bundle")
        write_bundle(directory, hub, metrics)
        path = tmp_path / "bundle" / name
        if isinstance(text, bytes):
            path.write_bytes(text)
        else:
            path.write_text(text)
        with pytest.raises(TelemetryError, match=name):
            validate_bundle(directory)

    def test_registry_gains_run_gauges(self, tmp_path):
        hub, metrics = telemetry_run()
        write_bundle(str(tmp_path / "b"), hub, metrics)
        assert hub.registry.value("run_makespan_ms") is not None
        assert hub.registry.value("run_deadline_ratio") == pytest.approx(
            metrics.deadline_ratio)
        assert hub.registry.value("sim_events_fired_total") == \
            hub.profiler.events_fired
