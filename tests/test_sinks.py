"""Unit tests for telemetry sinks and the sink-backed recorders."""

import json

import pytest

from repro.config import SimConfig
from repro.errors import TelemetryError
from repro.schedulers.registry import make_scheduler
from repro.sim.device import GPUSystem
from repro.sim.trace import TraceRecorder
from repro.telemetry import TelemetryHub
from repro.telemetry.events import DecisionLog
from repro.telemetry.sinks import (DEFAULT_FLUSH_EVERY,
                                   DEFAULT_RING_CAPACITY, JsonlSink,
                                   ListSink, NullSink, RingBufferSink,
                                   make_sink, parse_sink_spec)
from repro.units import MS, US

from conftest import make_descriptor, make_job


class _Record:
    def __init__(self, value):
        self.value = value

    def as_dict(self):
        return {"value": self.value}


class TestParseSinkSpec:
    def test_bare_kinds(self):
        assert parse_sink_spec("list") == ("list", None)
        assert parse_sink_spec("ring") == ("ring", None)
        assert parse_sink_spec("jsonl") == ("jsonl", None)
        assert parse_sink_spec("null") == ("null", None)

    def test_arguments_split(self):
        assert parse_sink_spec("ring:4096") == ("ring", "4096")
        assert parse_sink_spec("jsonl:/tmp/t") == ("jsonl", "/tmp/t")

    def test_unknown_kind_rejected(self):
        with pytest.raises(TelemetryError, match="unknown sink kind"):
            parse_sink_spec("kafka")


class TestMakeSink:
    def test_builds_each_kind(self, tmp_path):
        assert isinstance(make_sink("list"), ListSink)
        assert isinstance(make_sink("null"), NullSink)
        ring = make_sink("ring:7")
        assert isinstance(ring, RingBufferSink)
        assert ring.capacity == 7
        assert make_sink("ring").capacity == DEFAULT_RING_CAPACITY
        jsonl = make_sink("jsonl", stream="decisions",
                          directory=str(tmp_path))
        assert isinstance(jsonl, JsonlSink)
        assert jsonl.path.endswith("decisions.stream.jsonl")

    def test_jsonl_without_directory_rejected(self):
        with pytest.raises(TelemetryError, match="needs a directory"):
            make_sink("jsonl")

    def test_ring_capacity_must_be_integer(self):
        with pytest.raises(TelemetryError, match="integer"):
            make_sink("ring:many")


class TestListSink:
    def test_total_tracks_backing_list(self):
        sink = ListSink()
        records = [_Record(i) for i in range(3)]
        for record in records:
            sink.append(record)
        assert sink.items() is sink.records
        assert sink.items() == records
        assert sink.total == 3
        assert len(sink) == 3
        assert sink.dropped == 0


class TestRingBufferSink:
    def test_evicts_oldest(self):
        sink = RingBufferSink(capacity=3)
        for i in range(10):
            sink.append(_Record(i))
        assert [r.value for r in sink.items()] == [7, 8, 9]
        assert sink.total == 10
        assert sink.retained == 3
        assert sink.dropped == 7

    def test_describe_includes_capacity(self):
        assert RingBufferSink(capacity=5).describe()["capacity"] == 5

    def test_positive_capacity_required(self):
        with pytest.raises(TelemetryError):
            RingBufferSink(capacity=0)


class TestJsonlSink:
    def test_buffers_then_spills(self, tmp_path):
        path = tmp_path / "s.jsonl"
        sink = JsonlSink(str(path), flush_every=4)
        for i in range(10):
            sink.append(_Record(i))
        # Two full buffers spilled, two records still buffered.
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 8
        sink.close()
        lines = path.read_text().strip().split("\n")
        assert [json.loads(l)["value"] for l in lines] == list(range(10))
        assert sink.total == 10
        assert sink.retained == 0
        assert sink.dropped == 10

    def test_read_back_round_trips(self, tmp_path):
        sink = JsonlSink(str(tmp_path / "s.jsonl"), flush_every=100)
        for i in range(5):
            sink.append(_Record(i))
        assert [r["value"] for r in sink.read_back()] == list(range(5))

    def test_empty_stream_leaves_valid_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        sink = JsonlSink(str(path))
        sink.close()
        assert path.exists()
        assert path.read_text() == ""

    def test_describe_includes_path(self, tmp_path):
        sink = JsonlSink(str(tmp_path / "s.jsonl"))
        assert sink.describe()["path"].endswith("s.jsonl")

    def test_positive_flush_every_required(self, tmp_path):
        with pytest.raises(TelemetryError):
            JsonlSink(str(tmp_path / "s.jsonl"), flush_every=0)


class TestNullSink:
    def test_counts_and_drops(self):
        sink = NullSink()
        for i in range(4):
            sink.append(_Record(i))
        assert sink.total == 4
        assert sink.items() == []
        assert len(sink) == 0


class TestTraceRecorderSinks:
    def test_default_sink_is_list(self):
        trace = TraceRecorder()
        assert trace.sink.kind == "list"
        trace.emit(5, "job_arrival", job_id=1)
        assert trace.events[0].kind == "job_arrival"

    def test_counts_exact_under_bounded_sink(self):
        trace = TraceRecorder(sink=RingBufferSink(capacity=2))
        for t in range(6):
            trace.emit(t, "job_arrival", job_id=t)
        trace.emit(9, "job_complete", job_id=0)
        assert len(trace.events) == 2  # retention bounded...
        assert trace.counts() == {"job_arrival": 6,
                                  "job_complete": 1}  # ...counts exact

    def test_to_jsonl_copies_spill_file(self, tmp_path):
        sink = JsonlSink(str(tmp_path / "events.stream.jsonl"),
                         flush_every=2)
        trace = TraceRecorder(sink=sink)
        for t in range(5):
            trace.emit(t, "job_arrival", job_id=t)
        out = tmp_path / "events.jsonl"
        count = trace.to_jsonl(str(out))
        assert count == 5
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 5
        assert json.loads(lines[0])["kind"] == "job_arrival"

    def test_null_sink_drops_but_counts(self):
        trace = TraceRecorder(sink=NullSink())
        trace.emit(1, "job_arrival", job_id=1)
        assert trace.events == []
        assert trace.counts() == {"job_arrival": 1}


class TestDecisionLogSinks:
    def test_bounded_log_keeps_exact_counts(self):
        log = DecisionLog(sink=RingBufferSink(capacity=1))
        for t in range(4):
            log.emit(t, "queue_rotation", scheduler="RR",
                     pointer=t, previous=t - 1, served=True)
        assert len(log) == 4  # __len__ is the stream total
        assert len(log.events) == 1
        assert log.counts() == {"queue_rotation": 4}

    def test_jsonl_log_exports(self, tmp_path):
        sink = JsonlSink(str(tmp_path / "decisions.stream.jsonl"))
        log = DecisionLog(sink=sink)
        log.emit(3, "queue_rotation", scheduler="RR",
                 pointer=1, previous=0, served=True)
        out = tmp_path / "decisions.jsonl"
        assert log.to_jsonl(str(out)) == 1
        assert json.loads(out.read_text())["kind"] == "queue_rotation"


def _run_device(trace=None, telemetry=None):
    """A LAX run emitting a few thousand WG-level trace events."""
    jobs = [make_job(job_id=i, arrival=(i + 1) * MS, deadline=100 * MS,
                     descriptors=[make_descriptor(num_wgs=64,
                                                  wg_work=20 * US)])
            for i in range(12)]
    system = GPUSystem(make_scheduler("LAX"), SimConfig(), trace=trace,
                       telemetry=telemetry)
    system.submit_workload(jobs)
    system.run()


_TRACE_KINDS = ("job_arrival", "job_admitted", "kernel_complete",
                "job_complete")


def _emit_trace(recorder, i):
    kind = _TRACE_KINDS[i % len(_TRACE_KINDS)]
    recorder.emit(i, kind, job_id=i,
                  kernel="k" if kind == "kernel_complete" else None)


def _emit_decision(log, i):
    if i % 3:
        log.emit(i, "queue_rotation", "RR", pointer=i, previous=i - 1,
                 served=True)
    else:
        log.emit(i, "priority_update", "LAX", job_id=i, priority=0.5 * i,
                 previous=None)


class TestBatchedHandOff:
    """Recorders hand records to their sinks in batches of
    DEFAULT_FLUSH_EVERY and drain before every read through them."""

    def test_bare_recorder_list_complete_after_run(self):
        trace = TraceRecorder(wg_events=True)
        events = trace.events
        _run_device(trace=trace)
        captured = len(events)  # before any read through the recorder
        assert captured == sum(trace.counts().values())
        assert captured > DEFAULT_FLUSH_EVERY  # crossed a batch boundary
        assert trace.events is events

    def test_hub_lists_complete_after_run(self):
        hub = TelemetryHub(wg_events=True)
        events, decisions = hub.trace.events, hub.decisions.events
        _run_device(telemetry=hub)
        captured = (len(events), len(decisions))
        assert captured == (sum(hub.trace.counts().values()),
                            sum(hub.decisions.counts().values()))
        assert captured[0] > DEFAULT_FLUSH_EVERY
        assert captured[1] > 0

    @pytest.mark.parametrize("recorder_type,emit", [
        (TraceRecorder, _emit_trace), (DecisionLog, _emit_decision)],
        ids=["trace", "decisions"])
    def test_bounded_sinks_match_list_sink_at_every_read(
            self, tmp_path, recorder_type, emit):
        capacity = 1000
        reference = recorder_type(sink=ListSink())
        ring = recorder_type(sink=RingBufferSink(capacity))
        spill = recorder_type(sink=JsonlSink(str(tmp_path / "s.jsonl")))
        null = recorder_type(sink=NullSink())
        recorders = (reference, ring, spill, null)
        emitted = 0
        for target in (1, DEFAULT_FLUSH_EVERY, DEFAULT_FLUSH_EVERY + 1):
            for recorder in recorders:
                for i in range(emitted, target):
                    emit(recorder, i)
            emitted = target
            # Read straight from the sinks: every sink lags the same
            # way, by less than one batch.
            lag = emitted - reference.sink.total
            assert 0 <= lag < DEFAULT_FLUSH_EVERY
            assert [r.sink.total for r in recorders] == [emitted - lag] * 4
            # Reads through the recorders are exact under every sink.
            counts = reference.counts()
            assert sum(counts.values()) == emitted
            for recorder in recorders:
                assert recorder.counts() == counts
                assert recorder.sink.total == emitted
            if recorder_type is DecisionLog:
                assert [len(r) for r in recorders] == [emitted] * 4
            everything = reference.events
            assert len(everything) == emitted
            assert ring.events == everything[-capacity:]
            assert spill.events == [] and null.events == []
            expected = tmp_path / f"list-{emitted}.jsonl"
            actual = tmp_path / f"spill-{emitted}.jsonl"
            assert reference.to_jsonl(str(expected)) == emitted
            assert spill.to_jsonl(str(actual)) == emitted
            assert actual.read_bytes() == expected.read_bytes()
        spill.sink.close()

    @pytest.mark.parametrize("recorder_type,emit", [
        (TraceRecorder, _emit_trace), (DecisionLog, _emit_decision)],
        ids=["trace", "decisions"])
    def test_full_batch_reaches_disk_without_a_read(self, tmp_path,
                                                    recorder_type, emit):
        path = tmp_path / "s.jsonl"
        recorder = recorder_type(sink=JsonlSink(str(path)))
        for i in range(DEFAULT_FLUSH_EVERY):
            emit(recorder, i)
        assert recorder.sink.total == DEFAULT_FLUSH_EVERY
        assert path.read_text().count("\n") == DEFAULT_FLUSH_EVERY
        recorder.sink.close()
