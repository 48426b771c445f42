"""Scheduler-decision events: the *why* behind every run outcome.

The lifecycle trace (:mod:`repro.sim.trace`) records what happened to each
job; the decision log records **why** — every admission verdict with its
Little's-Law inputs, every 100 us priority reassignment with the laxity
that drove it, every steady-state eviction and preemption choice.  Events
are schema-validated at emission time so downstream consumers (the run
report, the Perfetto exporter, tests) can rely on their fields.  A log
validates each ``(kind, field names)`` shape once, the first time it
sees it; later events of that shape skip straight to the append.

Emission goes through :meth:`repro.schedulers.base.SchedulerPolicy
.emit_decision` (schedulers) or directly through a :class:`DecisionLog`
(device components); when no telemetry hub is attached the hook is a
no-op, so disabled telemetry costs one ``is None`` check.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Dict, List, Mapping, NamedTuple, Optional

from ..errors import TelemetryError
from ..sim.trace import _json_escape, _new_record, _RecordStream, _scalar

#: Schema per decision kind: field name -> required?  Optional fields may
#: be omitted; unknown fields are rejected.  ``time``, ``kind`` and
#: ``scheduler`` are implicit on every event.
DECISION_SCHEMAS: Dict[str, Dict[str, bool]] = {
    # Algorithm 1: arrival-time offload verdict with its queuing-delay
    # inputs (totRemTime + holdJobTime + durTime vs deadline).
    "admission_verdict": {
        "job_id": True,
        "accepted": True,
        # "no_deadline" | "fast_path" | "littles_law" | "cold_probe"
        # | "policy_default"
        "reason": True,
        "tot_rem_time": False,
        "hold_time": False,
        "dur_time": False,
        "deadline": False,
    },
    # Algorithm 2: one job's priority reassignment at an update tick.
    "priority_update": {
        "job_id": True,
        "priority": True,
        "previous": True,
        "laxity": False,
        "remaining_estimate": False,
    },
    # Algorithm 1's continuous sweep evicting a job it predicts to miss.
    "late_reject": {
        "job_id": True,
        # "past_deadline" | "queuing_delay"
        "reason": True,
        "elapsed": True,
        "deadline": True,
        "tot_rem_time": False,
    },
    # Hybrid/PREMA: why a victim kernel's WGs were checkpointed out.
    "preemption_cause": {
        "job_id": True,          # the victim
        "kernel": True,
        "evicted": True,
        # "epoch_laxity_gap" | "prema_epoch" | "late_reject_cancel"
        "cause": True,
        "urgent_job_id": False,
        "victim_laxity": False,
        "urgent_laxity": False,
    },
    # RR/MLFQ: the rotating-pointer advance after a served pump.
    "queue_rotation": {
        "pointer": True,
        "previous": True,
        "served": True,
    },
    # Cluster tier: one arrival's device assignment (or router-tier
    # rejection) with the router's load-model inputs.  ``scheduler``
    # carries the router's registry name; ``device`` is -1 on reject.
    "router_decision": {
        "job_id": True,
        "device": True,
        "accepted": True,
        # "pass_through" | "round_robin" | "least_queue" | "two_choices"
        # | "laxity_positive" | "no_deadline" | "router_reject"
        "reason": True,
        "backlog": False,
        "laxity": False,
    },
}


#: Read-only default for :attr:`DecisionEvent.fields`, so no two events
#: can share (and mutate) one default dict.
_NO_FIELDS: Mapping[str, object] = MappingProxyType({})
# DecisionLog._shapes marker for a shape not yet validated.
_UNSEEN = object()


class DecisionEvent(NamedTuple):
    """One schema-validated scheduler decision."""

    time: int
    kind: str
    scheduler: str
    fields: Mapping[str, object] = _NO_FIELDS

    def as_dict(self) -> Dict[str, object]:
        """Flat dict form used by the exporters."""
        record: Dict[str, object] = {"time": self.time, "kind": self.kind,
                                     "scheduler": self.scheduler}
        record.update(self.fields)
        return record

    def as_json_line(self) -> str:
        """``json.dumps(self.as_dict())``, hand-rolled.

        The JSONL sink's per-event hot path; byte-identical to the
        generic form (field order is insertion order either way).
        """
        # Field names are schema-validated plain-ASCII identifiers
        # (DECISION_SCHEMAS), so quoting them needs no escaping.
        parts = ['"time": %d, "kind": %s, "scheduler": %s'
                 % (self.time, _json_escape(self.kind),
                    _json_escape(self.scheduler))]
        for name, value in self.fields.items():
            parts.append('"%s": %s' % (name, _scalar(value)))
        return "{" + ", ".join(parts) + "}"


def validate_decision(kind: str, fields: Dict[str, object]) -> None:
    """Raise :class:`TelemetryError` unless ``fields`` satisfy ``kind``."""
    schema = DECISION_SCHEMAS.get(kind)
    if schema is None:
        raise TelemetryError(
            f"unknown decision kind {kind!r}; known: "
            f"{', '.join(sorted(DECISION_SCHEMAS))}")
    for name, required in schema.items():
        if required and name not in fields:
            raise TelemetryError(
                f"decision {kind!r} missing required field {name!r}")
    unknown = set(fields) - set(schema)
    if unknown:
        raise TelemetryError(
            f"decision {kind!r} has unknown fields {sorted(unknown)}")


class DecisionLog(_RecordStream):
    """Accumulates decision events during one run.

    With a registry attached, every emission also bumps the
    ``decision_events_total{kind=...}`` counter so the metrics snapshot
    reflects decision volume without replaying the log.

    ``sink`` chooses the retention policy (default: an unbounded
    :class:`~repro.telemetry.sinks.ListSink`); queries see the retained
    records, :meth:`counts` stays exact under every sink.  Events reach
    the sink in batches, and every read through the log drains first
    (see :class:`~repro.sim.trace._RecordStream`).
    """

    def __init__(self, registry=None, sink=None) -> None:
        super().__init__(sink)
        self._registry = registry
        # Validated (kind, *field names) shapes -> the kind's registry
        # counter (None without a registry).
        self._shapes: Dict[tuple, object] = {}

    def __len__(self) -> int:
        """Decision events ever emitted (retention-independent)."""
        self.drain()
        return self.sink.total

    def emit(self, time: int, kind: str, scheduler: str,
             **fields: object) -> DecisionEvent:
        """Validate (once per shape) and record one decision event."""
        shape = (kind, *fields)
        counter = self._shapes.get(shape, _UNSEEN)
        if counter is _UNSEEN:
            counter = self._admit_shape(shape, kind, fields)
        event = _new_record(DecisionEvent, (time, kind, scheduler, fields))
        pending = self._pending
        pending.append(event)
        if counter is not None:
            counter.inc()
        if len(pending) >= self._batch:
            self.drain()
        return event

    def _admit_shape(self, shape: tuple, kind: str,
                     fields: Dict[str, object]):
        """Validate a shape not seen before; returns its counter."""
        validate_decision(kind, fields)
        counter = None
        if self._registry is not None:
            counter = self._registry.counter(
                "decision_events_total",
                "Scheduler decision events recorded.", kind=kind)
        self._shapes[shape] = counter
        return counter

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def of_kind(self, kind: str) -> List[DecisionEvent]:
        """All retained events of one kind, in emission order."""
        if kind not in DECISION_SCHEMAS:
            raise TelemetryError(f"unknown decision kind {kind!r}")
        return [event for event in self.events if event.kind == kind]

    def for_job(self, job_id: int) -> List[DecisionEvent]:
        """Every retained decision naming ``job_id`` (subject or victim)."""
        return [event for event in self.events
                if event.fields.get("job_id") == job_id
                or event.fields.get("urgent_job_id") == job_id]


def first_admission_verdict(log: DecisionLog,
                            job_id: int) -> Optional[DecisionEvent]:
    """The admission decision that let ``job_id`` in (or kept it out)."""
    for event in log.events:
        if (event.kind == "admission_verdict"
                and event.fields.get("job_id") == job_id):
            return event
    return None
