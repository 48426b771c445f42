"""Telemetry sinks: where event streams go, and how much memory they hold.

Every event stream in the telemetry layer — the lifecycle trace
(:class:`repro.sim.trace.TraceRecorder`), the scheduler decision log
(:class:`repro.telemetry.events.DecisionLog`) and the self-profiler's
run records — ends in a :class:`TelemetrySink`.  The two high-volume
streams hand their records over in batches (:meth:`TelemetrySink
.extend`, at most :data:`DEFAULT_FLUSH_EVERY` records each); the
low-volume ones append one record at a time.  The sink choice is the
memory model of the run:

* :class:`ListSink` — unbounded in-memory list; full post-hoc queries,
  O(run) memory.  The default, and byte-for-byte the pre-sink
  behaviour.
* :class:`RingBufferSink` — keeps the most recent ``capacity`` records;
  O(capacity) memory, queries see the retained tail.
* :class:`JsonlSink` — spills each record to a JSON-lines file through
  a small write buffer; O(buffer) memory, the full stream lives on
  disk.  This is the sink that lets a million-job run hold telemetry
  memory flat.
* :class:`NullSink` — counts and drops; O(1).

Sinks count every record ever appended (:attr:`TelemetrySink.total`)
independently of retention, so rate/volume queries stay exact under any
sink.  :func:`make_sink` builds a sink from the compact spec strings the
CLI accepts (``list``, ``ring[:N]``, ``jsonl[:DIR]``, ``null``).
"""

from __future__ import annotations

import json
import os
from collections import deque
from typing import Callable, Iterable, List, Optional

from ..errors import TelemetryError

#: Default ring-buffer capacity (records).
DEFAULT_RING_CAPACITY = 65536
#: Records buffered by a JSONL sink before each disk flush; also the
#: batch size in which the trace and decision recorders hand records to
#: their sinks.
DEFAULT_FLUSH_EVERY = 1024

#: Sink spec names :func:`make_sink` understands.
SINK_KINDS = ("list", "ring", "jsonl", "null")


class TelemetrySink:
    """Destination for one telemetry record stream.

    Records must expose ``as_dict()`` (both :class:`~repro.sim.trace
    .TraceEvent` and :class:`~repro.telemetry.events.DecisionEvent` do);
    only the :class:`JsonlSink` actually calls it.  A record type may
    additionally provide ``as_json_line()`` returning its own JSON-line
    encoding; the JSONL sink prefers it (it is the hot path of a
    streaming run).
    """

    kind = "base"

    #: Records ever appended (retention-independent).
    total: int = 0

    def append(self, record) -> None:
        """Accept one record."""
        raise NotImplementedError

    def extend(self, records: List) -> None:
        """Accept a batch of records, oldest first."""
        for record in records:
            self.append(record)

    def items(self) -> List:
        """The retained records, oldest first."""
        raise NotImplementedError

    def __len__(self) -> int:
        """Number of retained records."""
        return len(self.items())

    @property
    def retained(self) -> int:
        """Number of retained records (alias of ``len``)."""
        return len(self)

    @property
    def dropped(self) -> int:
        """Records no longer retained in memory (evicted or spilled)."""
        return self.total - len(self)

    def flush(self) -> None:
        """Push buffered records to their backing store (no-op default)."""

    def close(self) -> None:
        """Flush and release any backing resources."""
        self.flush()

    def describe(self) -> dict:
        """JSON-ready summary of the sink's state."""
        return {"kind": self.kind, "total": self.total,
                "retained": len(self), "dropped": self.dropped}


class ListSink(TelemetrySink):
    """Unbounded in-memory sink: the pre-sink list, as a sink.

    ``records`` is the backing list itself; holders that captured it
    (e.g. ``TraceRecorder.events``) observe every batch the recorder
    hands over, and every event once the recorder has drained.
    """

    kind = "list"

    def __init__(self) -> None:
        self.records: List = []

    @property
    def total(self) -> int:
        return len(self.records)

    def append(self, record) -> None:
        self.records.append(record)

    def extend(self, records: List) -> None:
        self.records.extend(records)

    def items(self) -> List:
        return self.records

    def __len__(self) -> int:
        return len(self.records)


class RingBufferSink(TelemetrySink):
    """Bounded sink retaining the most recent ``capacity`` records."""

    kind = "ring"

    def __init__(self, capacity: int = DEFAULT_RING_CAPACITY) -> None:
        if capacity <= 0:
            raise TelemetryError("ring sink capacity must be positive")
        self.capacity = capacity
        self.records: deque = deque(maxlen=capacity)
        self.total = 0

    def append(self, record) -> None:
        self.total += 1
        self.records.append(record)

    def extend(self, records: List) -> None:
        self.total += len(records)
        self.records.extend(records)

    def items(self) -> List:
        return list(self.records)

    def __len__(self) -> int:
        return len(self.records)

    def describe(self) -> dict:
        summary = super().describe()
        summary["capacity"] = self.capacity
        return summary


class JsonlSink(TelemetrySink):
    """Incremental spill-to-disk sink: one JSON line per record.

    Appended records are buffered until ``flush_every`` of them wait
    (one batch handed over by :meth:`extend` may overshoot by less than
    a batch, so memory stays O(``flush_every``) regardless of run
    length) and encoded in one batch per flush — ``append`` and
    ``extend`` themselves are list operations, which keeps the
    streaming sink close to the in-memory list sink on the simulator's
    hot path.  The file is opened lazily on the first flush and parent
    directories are created as needed.

    Encoding is resolved from the first flushed record and reused for
    the stream (streams are homogeneous): a record type exposing
    ``as_json_line()`` (e.g. :class:`~repro.sim.trace.TraceEvent`, whose
    hand-rolled encoder is severalfold faster than generic
    ``json.dumps``) serialises itself; anything else goes through
    ``json.dumps(record.as_dict())``.  Pass ``serialize`` to override.
    """

    kind = "jsonl"

    def __init__(self, path: str,
                 flush_every: int = DEFAULT_FLUSH_EVERY,
                 serialize: Optional[Callable[[object], str]] = None
                 ) -> None:
        if flush_every <= 0:
            raise TelemetryError("jsonl sink flush_every must be positive")
        self.path = path
        self.flush_every = flush_every
        self._serialize = serialize
        self._buffer: List[object] = []
        self._file = None
        self.total = 0

    def append(self, record) -> None:
        self.total += 1
        buffer = self._buffer
        buffer.append(record)
        if len(buffer) >= self.flush_every:
            self.flush()

    def extend(self, records: List) -> None:
        self.total += len(records)
        buffer = self._buffer
        buffer.extend(records)
        if len(buffer) >= self.flush_every:
            self.flush()

    def items(self) -> List:
        """JSONL sinks retain nothing in memory; query the file instead."""
        return []

    def __len__(self) -> int:
        return 0

    def flush(self) -> None:
        buffer = self._buffer
        if not buffer:
            # Still create the file so an empty stream leaves a valid
            # (zero-line) artifact behind after close().
            if self._file is None and self.total == 0:
                self._open()
            if self._file is not None:
                self._file.flush()
            return
        if self._file is None:
            self._open()
        serialize = self._serialize
        if serialize is None:
            serialize = getattr(type(buffer[0]), "as_json_line", None) \
                or (lambda record: json.dumps(record.as_dict()))
            self._serialize = serialize
        self._file.write("\n".join(map(serialize, buffer)) + "\n")
        self._file.flush()
        buffer.clear()

    def _open(self) -> None:
        parent = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(parent, exist_ok=True)
        self._file = open(self.path, "w", encoding="utf-8")

    def close(self) -> None:
        self.flush()
        if self._file is not None:
            self._file.close()
            self._file = None

    def read_back(self) -> Iterable[dict]:
        """Decode the spilled stream (flushes first); for tests/tools."""
        self.flush()
        if self._file is not None:
            self._file.flush()
        if not os.path.exists(self.path):
            return
        with open(self.path, encoding="utf-8") as source:
            for line in source:
                if line.strip():
                    yield json.loads(line)

    def describe(self) -> dict:
        summary = super().describe()
        summary["path"] = self.path
        summary["flush_every"] = self.flush_every
        return summary


class NullSink(TelemetrySink):
    """Counts records and drops them."""

    kind = "null"

    def __init__(self) -> None:
        self.total = 0

    def append(self, record) -> None:
        self.total += 1

    def extend(self, records: List) -> None:
        self.total += len(records)

    def items(self) -> List:
        return []

    def __len__(self) -> int:
        return 0


def parse_sink_spec(spec: str) -> tuple:
    """Split a sink spec string into ``(kind, arg)``.

    ``"ring:4096"`` -> ``("ring", "4096")``; ``"list"`` -> ``("list",
    None)``.  Raises :class:`TelemetryError` on unknown kinds and on a
    ring capacity that is not a positive integer.
    """
    kind, _, arg = spec.partition(":")
    if kind not in SINK_KINDS:
        raise TelemetryError(
            f"unknown sink kind {kind!r}; known: {', '.join(SINK_KINDS)}")
    if kind == "ring" and arg:
        try:
            capacity = int(arg)
        except ValueError:
            raise TelemetryError(
                f"ring sink capacity must be an integer, got {arg!r}"
            ) from None
        if capacity <= 0:
            raise TelemetryError("ring sink capacity must be positive")
    return kind, (arg or None)


def make_sink(spec: str = "list", *, stream: str = "events",
              directory: Optional[str] = None) -> TelemetrySink:
    """Build one sink from a spec string.

    ``spec`` is ``list``, ``ring`` / ``ring:CAPACITY``, ``null``, or
    ``jsonl`` / ``jsonl:DIR``.  A JSONL sink writes
    ``<dir>/<stream>.stream.jsonl`` where ``dir`` is the spec's inline
    directory or the ``directory`` argument; omitting both raises.
    ``stream`` names the record stream (``events``, ``decisions``,
    ``profile``) so one run's sinks never collide.
    """
    kind, arg = parse_sink_spec(spec)
    if kind == "list":
        return ListSink()
    if kind == "null":
        return NullSink()
    if kind == "ring":
        return RingBufferSink() if arg is None else RingBufferSink(int(arg))
    target = arg if arg is not None else directory
    if target is None:
        raise TelemetryError(
            "jsonl sink needs a directory: use 'jsonl:DIR' or pass "
            "directory= (the CLI uses the --emit-telemetry DIR)")
    return JsonlSink(os.path.join(target, f"{stream}.stream.jsonl"))
