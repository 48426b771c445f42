"""Run reports: a markdown/JSON bundle explaining one simulation run.

The report generator turns a run's telemetry (lifecycle trace, decision
log, metrics registry, self-profile) plus its :class:`~repro.metrics
.collector.RunMetrics` into a post-mortem bundle:

* ``report.md`` / ``report.json`` — outcome summary, scheduler-decision
  digest, simulator self-profile, and one **deadline-miss post-mortem**
  per failed job naming the admission and priority decisions involved;
* ``trace.json`` — the Perfetto/Chrome trace (open in chrome://tracing);
* ``metrics.prom`` / ``metrics.json`` — the metrics-registry snapshot in
  Prometheus text and JSON form;
* ``events.jsonl`` / ``decisions.jsonl`` — the raw event streams;
* ``windows.jsonl`` — the per-window steady-state series, when the run
  collected windowed metrics (also embedded in ``report.json`` and
  rendered as Perfetto counter tracks).

:func:`validate_bundle` checks a written bundle for structural integrity;
the CI smoke job runs it against a fresh ``lax-sim --emit-telemetry``
output.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional, TYPE_CHECKING

from ..errors import TelemetryError
from ..units import to_ms
from .events import DecisionLog, first_admission_verdict
from .hub import TelemetryHub
from .perfetto import write_chrome_trace

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..metrics.collector import JobOutcome, RunMetrics

#: Files a complete bundle must contain.
BUNDLE_FILES = ("trace.json", "metrics.prom", "metrics.json", "report.md",
                "report.json", "events.jsonl")

#: Post-mortems rendered in full in the markdown (the JSON keeps all).
MAX_RENDERED_POST_MORTEMS = 12


# ----------------------------------------------------------------------
# Post-mortems
# ----------------------------------------------------------------------

def _classify(outcome: JobOutcome, late_rejects) -> str:
    if outcome.accepted is False:
        return "late_rejected" if late_rejects else "rejected_at_admission"
    if outcome.completion is None:
        return "unfinished"
    return "completed_late"


def job_post_mortem(outcome: JobOutcome,
                    decisions: Optional[DecisionLog]) -> Dict[str, object]:
    """Reconstruct why one latency-sensitive job missed its deadline."""
    record: Dict[str, object] = {
        "job_id": outcome.job_id,
        "benchmark": outcome.benchmark,
        "arrival_ms": to_ms(outcome.arrival),
        "deadline_ms": to_ms(outcome.deadline),
    }
    if outcome.completion is not None:
        record["completion_ms"] = to_ms(outcome.completion)
        record["overage_ms"] = to_ms(
            outcome.completion - (outcome.arrival + outcome.deadline))
    if decisions is None:
        record["verdict"] = _classify(outcome, [])
        record["decisions"] = []
        return record

    named: List[Dict[str, object]] = []
    admission = first_admission_verdict(decisions, outcome.job_id)
    if admission is not None:
        named.append(admission.as_dict())
    job_events = decisions.for_job(outcome.job_id)
    late_rejects = [e for e in job_events if e.kind == "late_reject"]
    named.extend(e.as_dict() for e in late_rejects)
    preemptions = [e for e in job_events if e.kind == "preemption_cause"]
    named.extend(e.as_dict() for e in preemptions)

    updates = [e for e in job_events if e.kind == "priority_update"]
    record["priority_updates"] = len(updates)
    laxities = [(e.time, e.fields["laxity"]) for e in updates
                if isinstance(e.fields.get("laxity"), (int, float))]
    if laxities:
        min_time, min_laxity = min(laxities, key=lambda item: item[1])
        record["min_laxity_us"] = min_laxity / 1000.0
        record["min_laxity_at_ms"] = to_ms(min_time)
        crossed = next((time for time, laxity in laxities if laxity <= 0),
                       None)
        if crossed is not None:
            record["laxity_crossed_zero_at_ms"] = to_ms(crossed)

    record["verdict"] = _classify(outcome, late_rejects)
    record["decisions"] = named
    return record


def _post_mortem_paragraph(record: Dict[str, object]) -> str:
    job_id = record["job_id"]
    lines = [f"### job {job_id} ({record['benchmark']}) — "
             f"{record['verdict'].replace('_', ' ')}"]
    lines.append(
        f"- arrived at {record['arrival_ms']:.3f} ms with a "
        f"{record['deadline_ms']:.3f} ms deadline")
    if "overage_ms" in record:
        lines.append(
            f"- completed at {record['completion_ms']:.3f} ms, "
            f"{record['overage_ms']:.3f} ms past the deadline")
    for decision in record["decisions"]:
        kind = decision["kind"]
        if kind == "admission_verdict":
            verdict = "accepted" if decision["accepted"] else "rejected"
            detail = f"- admission ({decision['scheduler']}): {verdict} " \
                     f"via {decision['reason']}"
            if decision.get("tot_rem_time") is not None:
                detail += (
                    f" — totRem {decision['tot_rem_time'] / 1e6:.3f} ms"
                    f" + hold {decision.get('hold_time', 0) / 1e6:.3f} ms"
                    f" + dur {decision.get('dur_time', 0) / 1e6:.3f} ms"
                    f" vs deadline "
                    f"{decision.get('deadline', 0) / 1e6:.3f} ms")
            lines.append(detail)
        elif kind == "late_reject":
            lines.append(
                f"- late-rejected at {to_ms(decision['time']):.3f} ms "
                f"({decision['reason']}): elapsed "
                f"{decision['elapsed'] / 1e6:.3f} ms of "
                f"{decision['deadline'] / 1e6:.3f} ms budget")
        elif kind == "preemption_cause":
            lines.append(
                f"- preempted at {to_ms(decision['time']):.3f} ms: "
                f"{decision['evicted']} WGs of {decision['kernel']} "
                f"evicted ({decision['cause']})")
    if record.get("priority_updates"):
        detail = f"- {record['priority_updates']} priority updates"
        if "min_laxity_us" in record:
            detail += (f"; minimum laxity {record['min_laxity_us']:.1f} us "
                       f"at {record['min_laxity_at_ms']:.3f} ms")
        if "laxity_crossed_zero_at_ms" in record:
            detail += (f"; laxity went non-positive at "
                       f"{record['laxity_crossed_zero_at_ms']:.3f} ms")
        lines.append(detail)
    if not record["decisions"] and not record.get("priority_updates"):
        lines.append("- no scheduler decisions recorded for this job "
                     "(deadline-blind policy)")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Report assembly
# ----------------------------------------------------------------------

def build_report(metrics: RunMetrics, hub: TelemetryHub,
                 label: str = "run",
                 diagnostics: Optional[Dict[str, object]] = None,
                 validation: Optional[Dict[str, object]] = None
                 ) -> Dict[str, object]:
    """Assemble the structured (JSON-ready) run report.

    ``validation`` is an :meth:`~repro.validation.invariants
    .InvariantChecker.summary` mapping; when given, the report embeds the
    per-invariant check counts and any violations so a post-mortem bundle
    carries the conservation state alongside the decision digest.
    """
    p99 = metrics.p99_latency_ticks
    report: Dict[str, object] = {
        "format": "repro-run-report-v1",
        "label": label,
        "summary": {
            "jobs_arrived": metrics.num_jobs,
            "jobs_meeting_deadline": metrics.jobs_meeting_deadline,
            "jobs_rejected": metrics.jobs_rejected,
            "jobs_retired": (metrics.stream.jobs
                             if metrics.stream is not None else 0),
            "latency_sensitive_jobs": metrics.num_latency_sensitive,
            "deadline_ratio": metrics.deadline_ratio,
            "p99_latency_ms": to_ms(p99) if p99 is not None else None,
            "makespan_ms": to_ms(metrics.makespan_ticks),
            "wasted_wg_fraction": metrics.wasted_wg_fraction,
            "energy_per_successful_job_mj":
                metrics.energy_per_successful_job_mj,
        },
        "trace_event_counts": hub.trace.counts(),
        "decision_counts": (hub.decisions.counts()
                            if hub.decisions is not None else {}),
    }
    if diagnostics:
        report["diagnostics"] = dict(diagnostics)
    if validation is not None:
        report["validation"] = dict(validation)
    if hub.profiler is not None:
        report["self_profile"] = hub.profiler.snapshot()
    if hub.windows is not None:
        windows_doc: Dict[str, object] = {
            "window_ms": to_ms(hub.windows.window_ticks),
            "window_ticks": hub.windows.window_ticks,
            "estimator": hub.windows.estimator,
            "windows_closed": hub.windows.windows_closed,
            "series": [stats.as_dict() for stats in hub.windows.records],
        }
        if hub.monitor is not None:
            windows_doc["monitor"] = hub.monitor.snapshot()
        report["windows"] = windows_doc
    report["post_mortems"] = [
        job_post_mortem(outcome, hub.decisions)
        for outcome in metrics.outcomes
        if outcome.is_latency_sensitive and not outcome.met_deadline
    ]
    return report


def render_markdown(report: Dict[str, object]) -> str:
    """Render the structured report as a markdown document."""
    summary = report["summary"]
    lines = [f"# Run report — {report['label']}", ""]
    lines.append("## Outcome")
    lines.append("")
    lines.append("| metric | value |")
    lines.append("| --- | --- |")
    p99 = summary["p99_latency_ms"]
    energy = summary["energy_per_successful_job_mj"]
    rows = [
        ("jobs arrived", summary["jobs_arrived"]),
        ("jobs meeting deadline", summary["jobs_meeting_deadline"]),
        ("jobs rejected", summary["jobs_rejected"]),
    ]
    if summary.get("jobs_retired"):
        rows.append(("jobs retired (streamed)", summary["jobs_retired"]))
    rows += [
        ("deadline ratio", f"{summary['deadline_ratio']:.3f}"),
        ("p99 latency (ms)", f"{p99:.3f}" if p99 is not None else "-"),
        ("makespan (ms)", f"{summary['makespan_ms']:.3f}"),
        ("wasted WG fraction", f"{summary['wasted_wg_fraction']:.3f}"),
        ("energy per successful job (mJ)",
         f"{energy:.4f}" if energy is not None else "-"),
    ]
    lines.extend(f"| {name} | {value} |" for name, value in rows)
    lines.append("")

    decision_counts = report.get("decision_counts") or {}
    lines.append("## Scheduler decisions")
    lines.append("")
    if decision_counts:
        lines.append("| kind | events |")
        lines.append("| --- | --- |")
        lines.extend(f"| {kind} | {count} |"
                     for kind, count in sorted(decision_counts.items()))
    else:
        lines.append("(decision events disabled)")
    lines.append("")

    validation = report.get("validation")
    if validation is not None:
        lines.append("## Validation")
        lines.append("")
        violations = validation.get("violations") or []
        lines.append(
            f"- {validation.get('total_checks', 0)} invariant checks, "
            f"{len(violations)} violations")
        for name, count in sorted(
                (validation.get("checks") or {}).items()):
            lines.append(f"  - {name}: {count}")
        for violation in violations:
            lines.append(f"- **VIOLATION** `{violation['invariant']}` at "
                         f"t={violation['time']}: {violation['message']}")
        oracle_failures = validation.get("oracle_failures")
        if oracle_failures:
            for failure in oracle_failures:
                lines.append(f"- **ORACLE** {failure}")
        elif oracle_failures is not None:
            lines.append("- analytic oracles: all passed")
        lines.append("")

    profile = report.get("self_profile")
    if profile:
        lines.append("## Simulator self-profile")
        lines.append("")
        lines.append(
            f"- {profile['events_fired']} engine events in "
            f"{profile['wall_seconds']:.3f} s wall-clock "
            f"({profile['events_per_second']:.0f} events/s)")
        lines.append("")
        lines.append("| callback | calls | total (s) | mean (us) |")
        lines.append("| --- | --- | --- | --- |")
        for stats in profile["callbacks"][:8]:
            lines.append(
                f"| {stats['name']} | {stats['calls']} | "
                f"{stats['seconds']:.4f} | {stats['mean_us']:.1f} |")
        lines.append("")

    # Bundles written without engine counters lack the key; the section
    # simply does not render for them.  Keys beyond the two rendered
    # below (older bundles carry more) are ignored.
    event_core = (report.get("diagnostics") or {}).get("event_core")
    if event_core:
        lines.append("## Event core")
        lines.append("")
        lines.append(f"- {event_core.get('events_committed', 0)} "
                     f"committed events")
        if "periodic_ticks_elided" in event_core:
            lines.append(
                f"- periodic ticks: "
                f"{event_core.get('periodic_ticks_fired', 0)} fired, "
                f"{event_core['periodic_ticks_elided']} elided")
        lines.append("")

    windows = report.get("windows")
    if windows:
        series = windows.get("series") or []
        lines.append("## Windowed metrics")
        lines.append("")
        lines.append(
            f"- {windows.get('windows_closed', len(series))} windows of "
            f"{windows.get('window_ms', 0):.3f} ms "
            f"({windows.get('estimator', '?')} estimator)")
        monitor = windows.get("monitor") or {}
        alerts = monitor.get("alerts") or []
        if monitor:
            lines.append(f"- SLO monitor: {len(alerts)} alert(s)")
            for alert in alerts:
                lines.append(
                    f"  - `{alert.get('rule')}` fired at window "
                    f"{alert.get('window_index')}")
        if series:
            lines.append("")
            lines.append("| window | completions | p99 (ms) | SLO | "
                         "jobs/s | occupancy |")
            lines.append("| --- | --- | --- | --- | --- | --- |")
            shown = series if len(series) <= 10 else series[-10:]
            for stats in shown:
                p99_w = stats.get("latency_p99")
                slo_w = stats.get("slo_attainment")
                occ = stats.get("occupancy_wgs")
                cells = [
                    str(stats.get("index")),
                    str(stats.get("completions")),
                    f"{to_ms(p99_w):.3f}" if p99_w is not None else "-",
                    f"{slo_w:.3f}" if slo_w is not None else "-",
                    f"{stats.get('throughput_jobs_per_s', 0):.1f}",
                    str(occ) if occ is not None else "-",
                ]
                lines.append("| " + " | ".join(cells) + " |")
            if len(series) > 10:
                lines.append("")
                lines.append(f"(last 10 of {len(series)} windows; "
                             f"full series in report.json)")
        lines.append("")

    post_mortems = report.get("post_mortems") or []
    lines.append(f"## Deadline-miss post-mortems ({len(post_mortems)} jobs)")
    lines.append("")
    if not post_mortems:
        lines.append("Every latency-sensitive job met its deadline.")
    for record in post_mortems[:MAX_RENDERED_POST_MORTEMS]:
        lines.append(_post_mortem_paragraph(record))
        lines.append("")
    if len(post_mortems) > MAX_RENDERED_POST_MORTEMS:
        lines.append(
            f"... {len(post_mortems) - MAX_RENDERED_POST_MORTEMS} more in "
            f"report.json")
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"


# ----------------------------------------------------------------------
# Bundle I/O
# ----------------------------------------------------------------------

def finalize_registry(hub: TelemetryHub, metrics: RunMetrics,
                      diagnostics: Optional[Dict[str, object]] = None
                      ) -> None:
    """Fold run-level results into the registry before export."""
    registry = hub.registry
    registry.gauge("run_makespan_ms",
                   "First arrival to last completion.").set(
        to_ms(metrics.makespan_ticks))
    registry.gauge("run_deadline_ratio",
                   "Fraction of latency-sensitive jobs meeting their "
                   "deadline.").set(metrics.deadline_ratio)
    registry.gauge("run_wasted_wg_fraction",
                   "Executed WGs not serving deadline-meeting jobs.").set(
        metrics.wasted_wg_fraction)
    registry.gauge("run_energy_joules",
                   "Total consumed energy.").set(metrics.total_energy_joules)
    if hub.profiler is not None:
        registry.gauge("sim_wall_seconds",
                       "Simulator wall-clock for the run.").set(
            hub.profiler.wall_seconds)
        registry.gauge("sim_events_per_second",
                       "Engine events per wall-clock second.").set(
            hub.profiler.events_per_second)
        registry.counter("sim_events_fired_total",
                         "Engine events executed.").inc(
            hub.profiler.events_fired)
    if diagnostics:
        for name in ("wgs_issued", "wgs_preempted", "host_commands"):
            if name in diagnostics:
                registry.gauge(f"run_{name}",
                               f"Run diagnostic: {name}.").set(
                    diagnostics[name])


def write_bundle(directory: str, hub: TelemetryHub, metrics: RunMetrics,
                 label: str = "run",
                 diagnostics: Optional[Dict[str, object]] = None,
                 validation: Optional[Dict[str, object]] = None
                 ) -> Dict[str, str]:
    """Write the full telemetry bundle; returns name -> path.

    ``validation`` (an invariant-checker summary) is embedded in both
    report forms and, when it records violations, also written as
    ``validation.json`` so post-mortem tooling can grab the structured
    conservation state directly.
    """
    os.makedirs(directory, exist_ok=True)
    finalize_registry(hub, metrics, diagnostics)
    paths = {name: os.path.join(directory, name) for name in BUNDLE_FILES}
    paths["decisions.jsonl"] = os.path.join(directory, "decisions.jsonl")

    window_records = (hub.windows.records
                      if hub.windows is not None else None)
    write_chrome_trace(paths["trace.json"], hub.trace,
                       decisions=hub.decisions, outcomes=metrics.outcomes,
                       label=label, windows=window_records)
    with open(paths["metrics.prom"], "w", encoding="utf-8") as sink:
        sink.write(hub.registry.to_prometheus_text())
    metrics_doc = {
        "format": "repro-telemetry-metrics-v1",
        "label": label,
        "registry": hub.registry.to_json(),
    }
    if hub.profiler is not None:
        metrics_doc["self_profile"] = hub.profiler.snapshot()
    with open(paths["metrics.json"], "w", encoding="utf-8") as sink:
        json.dump(metrics_doc, sink, indent=1)

    report = build_report(metrics, hub, label=label, diagnostics=diagnostics,
                          validation=validation)
    with open(paths["report.json"], "w", encoding="utf-8") as sink:
        json.dump(report, sink, indent=1)
    with open(paths["report.md"], "w", encoding="utf-8") as sink:
        sink.write(render_markdown(report))
    if validation is not None and validation.get("violations"):
        paths["validation.json"] = os.path.join(directory, "validation.json")
        with open(paths["validation.json"], "w", encoding="utf-8") as sink:
            json.dump(validation, sink, indent=1)

    hub.trace.to_jsonl(paths["events.jsonl"])
    if hub.decisions is not None:
        hub.decisions.to_jsonl(paths["decisions.jsonl"])
    else:
        paths.pop("decisions.jsonl")
    if window_records is not None:
        paths["windows.jsonl"] = os.path.join(directory, "windows.jsonl")
        with open(paths["windows.jsonl"], "w", encoding="utf-8") as sink:
            for stats in window_records:
                sink.write(json.dumps(stats.as_dict()) + "\n")
    return paths


def write_validation_summary(directory: str,
                             validation: Dict[str, object]) -> str:
    """Write just ``validation.json`` into (a possibly partial) bundle.

    Used when a run died on an :class:`~repro.validation.invariants
    .InvariantViolation` before metrics were finalized: there is no full
    bundle to write, but the post-mortem still wants the structured
    conservation state on disk next to whatever telemetry survived.
    """
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, "validation.json")
    with open(path, "w", encoding="utf-8") as sink:
        json.dump(validation, sink, indent=1)
    return path


def _read_text(directory: str, name: str) -> str:
    """The text of ``name`` in the bundle ``directory``.

    Every bundle file is read through here, so a file that is missing,
    cannot be read or is not UTF-8 raises :class:`TelemetryError`
    naming the file.
    """
    try:
        with open(os.path.join(directory, name),
                  encoding="utf-8") as source:
            return source.read()
    except FileNotFoundError:
        raise TelemetryError(f"no {name} in the bundle") from None
    except OSError as exc:
        raise TelemetryError(f"cannot read {name}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise TelemetryError(f"{name} is not UTF-8 text: {exc}") from None


def _load_document(directory: str, name: str) -> Dict[str, object]:
    """The JSON object stored as ``name`` in the bundle ``directory``.

    Raises :class:`TelemetryError` naming the file when it cannot be
    read (:func:`_read_text`), is not JSON or holds something other
    than an object.
    """
    try:
        document = json.loads(_read_text(directory, name))
    except ValueError as exc:
        raise TelemetryError(f"{name} is not JSON: {exc}") from None
    if not isinstance(document, dict):
        raise TelemetryError(f"{name} is not a JSON object")
    return document


def load_report(directory: str) -> Dict[str, object]:
    """The bundle's ``report.json``, checked to be a run report that
    :func:`render_markdown` can render.

    Raises :class:`TelemetryError` naming the file when it is not a JSON
    object of the report format, or when rendering it fails: a missing
    section or field, a formatted field that is not a number, a
    post-mortem that is not an object.
    """
    report = _load_document(directory, "report.json")
    if report.get("format") != "repro-run-report-v1":
        raise TelemetryError("report.json has an unknown format")
    try:
        render_markdown(report)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise TelemetryError(
            f"report.json cannot be rendered: {type(exc).__name__}: {exc}"
        ) from None
    return report


def validate_bundle(directory: str) -> Dict[str, object]:
    """Check a written bundle's structural integrity.

    Raises :class:`TelemetryError` on the first problem; returns a small
    summary (event/post-mortem counts) on success.  This is what the CI
    telemetry smoke job asserts against.
    """
    for name in BUNDLE_FILES:
        path = os.path.join(directory, name)
        if not os.path.isfile(path):
            raise TelemetryError(f"bundle missing {name}")
    trace_doc = _load_document(directory, "trace.json")
    trace_events = trace_doc.get("traceEvents")
    if not isinstance(trace_events, list) or not trace_events:
        raise TelemetryError("trace.json has no traceEvents")
    if not all(isinstance(event, dict) for event in trace_events):
        raise TelemetryError("trace.json has an event that is not an object")
    phases = {event.get("ph") for event in trace_events}
    if "X" not in phases:
        raise TelemetryError("trace.json contains no duration slices")
    metrics_doc = _load_document(directory, "metrics.json")
    if metrics_doc.get("format") != "repro-telemetry-metrics-v1":
        raise TelemetryError("metrics.json has an unknown format")
    if not metrics_doc.get("registry"):
        raise TelemetryError("metrics.json registry snapshot is empty")
    if "# TYPE " not in _read_text(directory, "metrics.prom"):
        raise TelemetryError("metrics.prom has no TYPE headers")
    report = load_report(directory)
    return {
        "trace_events": len(trace_events),
        "registry_metrics": len(metrics_doc["registry"]),
        "post_mortems": len(report.get("post_mortems") or ()),
    }
