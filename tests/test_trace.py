"""Unit tests for the event-trace subsystem."""

import json

import pytest

from repro.config import SimConfig
from repro.errors import SimulationError
from repro.schedulers.registry import make_scheduler
from repro.sim.device import GPUSystem
from repro.sim.trace import (EVENT_KINDS, TraceEvent, TraceRecorder,
                             occupancy_timeline, render_occupancy)
from repro.units import MS, US

from conftest import make_descriptor, make_job


def traced_run(jobs, scheduler="RR", wg_events=False):
    trace = TraceRecorder(wg_events=wg_events)
    system = GPUSystem(make_scheduler(scheduler), SimConfig(), trace=trace)
    system.submit_workload(jobs)
    metrics = system.run()
    return trace, metrics


class TestRecorder:
    def test_unknown_kind_rejected(self):
        with pytest.raises(SimulationError):
            TraceRecorder().emit(0, "job_teleport")

    def test_wg_events_suppressed_by_default(self):
        recorder = TraceRecorder()
        recorder.emit(0, "wg_issue", job_id=1)
        recorder.emit(0, "job_arrival", job_id=1)
        assert recorder.counts() == {"job_arrival": 1}

    def test_lifecycle_events_recorded(self):
        jobs = [make_job(job_id=i, deadline=100 * MS,
                         descriptors=[make_descriptor(num_wgs=2,
                                                      wg_work=20 * US)])
                for i in range(3)]
        trace, _ = traced_run(jobs)
        counts = trace.counts()
        assert counts["job_arrival"] == 3
        assert counts["job_admitted"] == 3
        assert counts["job_complete"] == 3
        assert counts["kernel_complete"] == 3

    def test_rejections_recorded(self):
        jobs = [make_job(job_id=i, arrival=(i + 1) * US, deadline=50 * US,
                         descriptors=[make_descriptor(num_wgs=32,
                                                      wg_work=25 * US)])
                for i in range(6)]
        trace, metrics = traced_run(jobs, scheduler="LAX")
        assert len(trace.of_kind("job_rejected")) == metrics.jobs_rejected > 0

    def test_wg_level_trace(self):
        jobs = [make_job(descriptors=[make_descriptor(num_wgs=4,
                                                      wg_work=20 * US)])]
        trace, _ = traced_run(jobs, wg_events=True)
        assert len(trace.of_kind("wg_issue")) == 4
        assert len(trace.of_kind("wg_complete")) == 4

    def test_preemption_recorded(self):
        hog = make_job(job_id=0, deadline=100 * MS, descriptors=[
            make_descriptor(name="hog", num_wgs=32, wg_work=5 * MS,
                            threads_per_wg=640)])
        sprinter = make_job(job_id=1, arrival=10 * US, deadline=100 * MS,
                            descriptors=[
            make_descriptor(name="spr", num_wgs=32, wg_work=50 * US,
                            threads_per_wg=640)])
        trace, _ = traced_run([hog, sprinter], scheduler="PREMA")
        preemptions = trace.of_kind("preemption")
        assert preemptions
        assert all(event.detail > 0 for event in preemptions)

    def test_job_timeline_ordered(self):
        jobs = [make_job(job_id=7, descriptors=[
            make_descriptor(num_wgs=1, wg_work=10 * US)])]
        trace, _ = traced_run(jobs)
        timeline = trace.job_timeline(7)
        kinds = [event.kind for event in timeline]
        assert kinds[0] == "job_arrival"
        assert kinds[-1] == "job_complete"
        times = [event.time for event in timeline]
        assert times == sorted(times)


class TestExport:
    def test_json_line_matches_generic_encoder_for_every_kind(self):
        for index, kind in enumerate(EVENT_KINDS):
            full = TraceEvent(index * 1000, kind, job_id=index,
                              kernel='k"\\\u00e9\n', detail=index * 3,
                              cu=index % 4, queue=index % 2)
            bare = TraceEvent(index, kind)
            for event in (full, bare):
                assert event.as_json_line() == json.dumps(event.as_dict())

    def test_jsonl_round_trip(self, tmp_path):
        jobs = [make_job(descriptors=[make_descriptor(num_wgs=1,
                                                      wg_work=10 * US)])]
        trace, _ = traced_run(jobs)
        path = tmp_path / "trace.jsonl"
        count = trace.to_jsonl(str(path))
        lines = path.read_text().splitlines()
        assert len(lines) == count == len(trace.events)
        parsed = json.loads(lines[0])
        assert parsed["kind"] == "job_arrival"

    def test_csv_export(self, tmp_path):
        jobs = [make_job(descriptors=[make_descriptor(num_wgs=1,
                                                      wg_work=10 * US)])]
        trace, _ = traced_run(jobs)
        path = tmp_path / "trace.csv"
        trace.to_csv(str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "time,kind,job_id,kernel,detail,cu,queue"
        assert len(lines) == len(trace.events) + 1


class TestOccupancy:
    def test_requires_wg_trace(self):
        with pytest.raises(SimulationError):
            occupancy_timeline(TraceRecorder(), bucket=10)

    def test_bucket_validation(self):
        with pytest.raises(SimulationError):
            occupancy_timeline(TraceRecorder(wg_events=True), bucket=0)

    def test_levels_match_residency(self):
        jobs = [make_job(descriptors=[make_descriptor(num_wgs=8,
                                                      wg_work=100 * US)])]
        trace, _ = traced_run(jobs, wg_events=True)
        timeline = occupancy_timeline(trace, bucket=20 * US)
        peak = max(level for _, level in timeline)
        assert peak == 8
        assert timeline[-1][1] == 0  # drained at the end

    def test_occupancy_never_negative(self):
        jobs = [make_job(job_id=i, arrival=(i + 1) * 30 * US,
                         deadline=100 * MS,
                         descriptors=[make_descriptor(num_wgs=4,
                                                      wg_work=50 * US)])
                for i in range(5)]
        trace, _ = traced_run(jobs, wg_events=True)
        timeline = occupancy_timeline(trace, bucket=10 * US)
        assert all(level >= 0 for _, level in timeline)

    def test_render(self):
        jobs = [make_job(descriptors=[make_descriptor(num_wgs=4,
                                                      wg_work=50 * US)])]
        trace, _ = traced_run(jobs, wg_events=True)
        art = render_occupancy(occupancy_timeline(trace, bucket=20 * US))
        assert "#" in art

    def test_render_empty(self):
        assert render_occupancy([]) == "(empty trace)"

    def test_empty_trace_yields_single_zero_bucket(self):
        recorder = TraceRecorder(wg_events=True)
        assert occupancy_timeline(recorder, bucket=10) == [(0, 0)]

    def test_single_event_trace(self):
        recorder = TraceRecorder(wg_events=True)
        recorder.emit(5, "wg_issue", job_id=0)
        timeline = occupancy_timeline(recorder, bucket=10)
        assert timeline[0] == (0, 1)
        assert all(level == 1 for _, level in timeline)

    def test_event_on_bucket_boundary_lands_in_later_bucket(self):
        recorder = TraceRecorder(wg_events=True)
        # Issue exactly at the first boundary: the level at the END of
        # bucket [0, 10) is still 0; bucket [10, 20) sees the WG.
        recorder.emit(10, "wg_issue", job_id=0)
        recorder.emit(30, "wg_complete", job_id=0)
        timeline = dict(occupancy_timeline(recorder, bucket=10))
        assert timeline[0] == 0
        assert timeline[10] == 1
        assert timeline[20] == 1
        assert timeline[30] == 0

    def test_preemption_delta_reduces_level(self):
        recorder = TraceRecorder(wg_events=True)
        for _ in range(4):
            recorder.emit(1, "wg_issue", job_id=0, kernel="k")
        recorder.emit(15, "preemption", job_id=0, kernel="k", detail=3)
        recorder.emit(40, "wg_complete", job_id=0, kernel="k")
        timeline = dict(occupancy_timeline(recorder, bucket=10))
        assert timeline[0] == 4
        assert timeline[10] == 1   # 4 issued - 3 evicted
        assert timeline[40] == 0

    def test_zero_wg_preemption_is_a_noop(self):
        recorder = TraceRecorder(wg_events=True)
        recorder.emit(1, "wg_issue", job_id=0)
        recorder.emit(5, "preemption", job_id=0, detail=0)
        timeline = dict(occupancy_timeline(recorder, bucket=10))
        assert timeline[0] == 1

    def test_render_single_bucket(self):
        art = render_occupancy([(0, 3)], width=10)
        assert art.endswith("#" * 10)
