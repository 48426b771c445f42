"""Structured event tracing for simulation runs.

A :class:`TraceRecorder` attached to a :class:`~repro.sim.device.GPUSystem`
captures the run as a stream of typed events — job lifecycle, kernel
completions, optionally per-WG issue/completion, and preemptions — for
debugging schedulers and for post-hoc analysis.  Export to JSON-lines or
CSV; :func:`occupancy_timeline` rebuilds the device's in-flight WG count
over time from a WG-level trace.

WG-level events are voluminous (one per workgroup execution); they are
opt-in via ``wg_events=True``.

Events land in a :class:`~repro.telemetry.sinks.TelemetrySink`; the
default :class:`~repro.telemetry.sinks.ListSink` retains the full stream
in memory (the historical behaviour), while a ring/JSONL/null sink bounds
the recorder's memory for long runs — see ``docs/observability.md`` for
the memory model.  Emitting builds one tuple and appends it to a pending
batch; the batch reaches the sink every
:data:`~repro.telemetry.sinks.DEFAULT_FLUSH_EVERY` events and before
every read (:meth:`TraceRecorder.drain`).  Queries
(:meth:`TraceRecorder.of_kind`, :meth:`~TraceRecorder.job_timeline`,
...) see the *retained* records; :meth:`~TraceRecorder.counts` stays
exact under every sink.
"""

from __future__ import annotations

import csv
import json
import math
import os
import shutil
from collections import Counter
from operator import itemgetter
from typing import Dict, List, NamedTuple, Optional, Tuple

from ..errors import SimulationError

#: Event kinds a recorder may emit.
EVENT_KINDS = (
    "job_arrival", "job_enqueued", "job_admitted", "job_rejected",
    "job_complete", "kernel_activate", "kernel_complete", "wg_issue",
    "wg_complete", "preemption",
)

#: Columns of the CSV export (and keys of every event dict).
EVENT_FIELDS = ("time", "kind", "job_id", "kernel", "detail", "cu", "queue")

# Hot-path lookup sets (emit runs per event, per WG when wg_events).
_KNOWN_KINDS = frozenset(EVENT_KINDS)
_WG_KINDS = frozenset(("wg_issue", "wg_complete"))

# Emit paths build records with the C-level tuple constructor, skipping
# the named tuple's generated Python __new__; drains count kinds in C.
_new_record = tuple.__new__
_record_kind = itemgetter(1)

# json.dumps' own C string escaper: as_json_line must stay
# byte-identical to json.dumps(as_dict()) for the same values.
_json_escape = json.encoder.encode_basestring_ascii


def _scalar(value) -> str:
    """JSON-encode one field value (None/int/str/bool/float fast paths).

    Each fast path reproduces ``json.dumps`` byte-for-byte: exact type
    checks keep bools out of the int path, and finite floats encode via
    ``repr`` exactly as the json module does.
    """
    if value is None:
        return "null"
    kind = type(value)
    if kind is int:
        return str(value)
    if kind is str:
        return _json_escape(value)
    if kind is bool:
        return "true" if value else "false"
    if kind is float and math.isfinite(value):
        return repr(value)
    return json.dumps(value)


class TraceEvent(NamedTuple):
    """One recorded event."""

    time: int
    kind: str
    job_id: Optional[int] = None
    kernel: Optional[str] = None
    detail: Optional[int] = None  # kind-specific payload (e.g. WG count)
    cu: Optional[int] = None      # compute unit (WG-level events)
    queue: Optional[int] = None   # hardware queue (job_enqueued)

    def as_dict(self) -> Dict[str, object]:
        """Plain-dict form used by the exporters."""
        return {"time": self.time, "kind": self.kind, "job_id": self.job_id,
                "kernel": self.kernel, "detail": self.detail,
                "cu": self.cu, "queue": self.queue}

    def as_json_line(self) -> str:
        """``json.dumps(self.as_dict())``, hand-rolled.

        This is the JSONL sink's per-event hot path; skipping the dict
        build and the generic encoder makes streaming several times
        cheaper.  Output is byte-identical to the generic form (the
        inline None checks mirror :func:`_scalar` for the int-typed
        fields).
        """
        kernel = self.kernel
        return ('{"time": %d, "kind": %s, "job_id": %s, "kernel": %s, '
                '"detail": %s, "cu": %s, "queue": %s}'
                % (self.time, _json_escape(self.kind),
                   "null" if self.job_id is None else self.job_id,
                   "null" if kernel is None else _json_escape(kernel),
                   "null" if self.detail is None else self.detail,
                   "null" if self.cu is None else self.cu,
                   "null" if self.queue is None else self.queue))


class _RecordStream:
    """The batched hand-off and read side shared by the trace and the
    decision log (:class:`~repro.telemetry.events.DecisionLog`).

    ``sink`` chooses the retention policy (default: an unbounded
    :class:`~repro.telemetry.sinks.ListSink`, the historical list-backed
    behaviour).  Emitters append records (tuples whose second field is
    the kind) to ``_pending``; :meth:`drain` hands the batch to the sink
    in one call when it reaches the JSONL sink's flush size, and before
    every read through the stream, so those reads are exact.  A sink
    read directly lags the emits by less than one batch.
    """

    def __init__(self, sink=None) -> None:
        # Deferred import: repro.telemetry's package init imports this
        # module (hub -> trace), so a module-level import of the sibling
        # sinks module would be circular.
        from ..telemetry.sinks import DEFAULT_FLUSH_EVERY, ListSink
        #: The TelemetrySink receiving every record.
        self.sink = sink if sink is not None else ListSink()
        self._batch = DEFAULT_FLUSH_EVERY
        self._pending: List[tuple] = []
        self._kind_counts: Counter = Counter()

    def drain(self) -> None:
        """Hand the pending batch to the sink and count it per kind."""
        pending = self._pending
        if pending:
            self._kind_counts.update(map(_record_kind, pending))
            self.sink.extend(pending)
            pending.clear()

    @property
    def events(self) -> List:
        """The retained records (the live list under the default sink)."""
        self.drain()
        return self.sink.items()

    def counts(self) -> Dict[str, int]:
        """Number of records per kind, over the *whole* run.

        Folded in at every drain, before the sink sees the batch, so the
        counts stay exact even when a bounded sink has evicted or
        spilled the records.
        """
        self.drain()
        return dict(self._kind_counts)

    def to_jsonl(self, path: str) -> int:
        """Write the records as JSON lines; returns the record count.

        Missing parent directories are created.  Under a JSONL spill
        sink the full on-disk stream is copied (the in-memory view is
        empty by design); other sinks write their retained records.
        """
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        self.drain()
        if self.sink.kind == "jsonl":
            self.sink.flush()
            if os.path.abspath(self.sink.path) != os.path.abspath(path):
                shutil.copyfile(self.sink.path, path)
            return self.sink.total
        with open(path, "w", encoding="utf-8") as sink:
            for event in self.events:
                sink.write(json.dumps(event.as_dict()) + "\n")
        return len(self.events)


class TraceRecorder(_RecordStream):
    """Collects trace events during one run.

    ``events`` exposes the retained records; with the default list sink
    it is the live backing list itself.  See :class:`_RecordStream` for
    how events reach the sink.
    """

    def __init__(self, wg_events: bool = False, sink=None) -> None:
        super().__init__(sink)
        #: Record per-WG issue/completion events (large traces).
        self.wg_events = wg_events

    def replay(self) -> List[TraceEvent]:
        """Every event of the run, reading a JSONL spill back if needed.

        In-memory sinks return their retained records (identical to
        ``events``); a JSONL sink retains nothing, so its spill file is
        flushed and parsed back into :class:`TraceEvent` records.  The
        returned list is O(run) — this is for post-run export, not the
        hot path.
        """
        self.drain()
        sink = self.sink
        if sink.kind == "jsonl" and sink.total:
            sink.flush()
            return [TraceEvent(**record) for record in sink.read_back()]
        return sink.items()

    def emit(self, time: int, kind: str, job_id: Optional[int] = None,
             kernel: Optional[str] = None,
             detail: Optional[int] = None, cu: Optional[int] = None,
             queue: Optional[int] = None) -> None:
        """Record one event (kind must be a known kind)."""
        if kind not in _KNOWN_KINDS:
            raise SimulationError(f"unknown trace event kind {kind!r}")
        if not self.wg_events and kind in _WG_KINDS:
            return
        pending = self._pending
        pending.append(_new_record(TraceEvent, (time, kind, job_id, kernel,
                                                detail, cu, queue)))
        if len(pending) >= self._batch:
            self.drain()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def of_kind(self, kind: str) -> List[TraceEvent]:
        """All retained events of one kind, in time order."""
        return [event for event in self.events if event.kind == kind]

    def job_timeline(self, job_id: int) -> List[TraceEvent]:
        """Every retained event attributed to one job."""
        return [event for event in self.events if event.job_id == job_id]

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------

    def to_csv(self, path: str) -> int:
        """Write retained events as CSV; returns the event count.

        Missing parent directories are created.
        """
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="") as sink:
            writer = csv.DictWriter(sink, fieldnames=EVENT_FIELDS)
            writer.writeheader()
            count = 0
            for event in self.events:
                writer.writerow(event.as_dict())
                count += 1
        return count


def occupancy_timeline(recorder: TraceRecorder,
                       bucket: int) -> List[Tuple[int, int]]:
    """Device in-flight WG count sampled at ``bucket``-tick boundaries.

    Requires a WG-level trace.  Returns ``[(bucket_start, wgs_in_flight
    at bucket end), ...]`` covering the traced span.
    """
    if bucket <= 0:
        raise SimulationError("bucket must be positive")
    if not recorder.wg_events:
        raise SimulationError("occupancy needs a wg_events=True trace")
    deltas: Dict[int, int] = {}
    last_time = 0
    for event in recorder.events:
        if event.kind == "wg_issue":
            deltas[event.time] = deltas.get(event.time, 0) + 1
        elif event.kind == "wg_complete":
            deltas[event.time] = deltas.get(event.time, 0) - 1
        elif event.kind == "preemption" and event.detail:
            deltas[event.time] = deltas.get(event.time, 0) - event.detail
        last_time = max(last_time, event.time)
    timeline: List[Tuple[int, int]] = []
    level = 0
    boundary = bucket
    for time in sorted(deltas):
        while time >= boundary:
            timeline.append((boundary - bucket, level))
            boundary += bucket
        level += deltas[time]
    while boundary <= last_time + bucket:
        timeline.append((boundary - bucket, level))
        boundary += bucket
    return timeline


def render_occupancy(timeline: List[Tuple[int, int]], width: int = 50,
                     max_rows: int = 40) -> str:
    """ASCII rendering of an occupancy timeline (one row per bucket)."""
    if not timeline:
        return "(empty trace)"
    peak = max(level for _, level in timeline) or 1
    step = max(1, len(timeline) // max_rows)
    lines = []
    for start, level in timeline[::step]:
        bar = "#" * round(width * level / peak)
        lines.append(f"{start:>12d}  {level:>5d}  {bar}")
    return "\n".join(lines)
