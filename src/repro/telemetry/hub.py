"""The telemetry hub: one object wiring every observability channel.

A :class:`TelemetryHub` bundles the telemetry channels a run may
produce:

* a lifecycle **trace** (:class:`repro.sim.trace.TraceRecorder`) —
  job/kernel/WG events, optionally WG-granular;
* a **decision log** (:class:`repro.telemetry.events.DecisionLog`) —
  schema-validated scheduler decisions;
* a **metrics registry** (:class:`repro.telemetry.registry
  .MetricsRegistry`) shared with the run's
  :class:`~repro.metrics.collector.MetricsCollector`;
* a **self-profiler** (:class:`repro.telemetry.selfprof.SimProfiler`) —
  wall-clock attribution of the simulator itself;
* optionally, **windowed metrics** (:class:`repro.telemetry.windows
  .WindowedMetrics`) — per-window steady-state p50/p99, SLO attainment,
  admission rate, throughput and occupancy while the run is in flight —
  and a live :class:`~repro.telemetry.slo.SLOMonitor` over them.

``sink=`` chooses the memory model of the event streams (see
:mod:`repro.telemetry.sinks`): the default ``"list"`` retains everything
in memory (the historical behaviour), ``"ring[:N]"`` bounds retention,
``"jsonl"`` spills incrementally to disk (flat memory for arbitrarily
long runs) and ``"null"`` counts-and-drops.

Pass a hub to :class:`repro.sim.device.GPUSystem` (``telemetry=``) and
every component picks up its channel; pass nothing and the whole layer
stays detached, leaving results bit-identical to an untraced run.
"""

from __future__ import annotations

from typing import Optional

from ..errors import TelemetryError
from ..sim.trace import TraceRecorder
from .events import DecisionLog
from .registry import MetricsRegistry
from .selfprof import SimProfiler
from .sinks import make_sink, parse_sink_spec
from .slo import SLOMonitor
from .windows import WindowedMetrics


class TelemetryHub:
    """All telemetry channels for one simulation run.

    ``sink`` is a spec string (``list`` / ``ring[:N]`` / ``jsonl[:DIR]``
    / ``null``); JSONL sinks write ``events.stream.jsonl`` /
    ``decisions.stream.jsonl`` / ``profile.stream.jsonl`` under
    ``sink_dir`` (or the spec's inline directory).  ``window`` (ticks of
    sim-time) attaches a :class:`WindowedMetrics`; ``slo_monitor=True``
    adds a live :class:`SLOMonitor` over it, streaming one progress line
    per closed window to ``slo_stream`` when given.
    """

    def __init__(self, wg_events: bool = False, decision_events: bool = True,
                 self_profile: bool = True,
                 registry: Optional[MetricsRegistry] = None,
                 sink: str = "list", sink_dir: Optional[str] = None,
                 window: Optional[int] = None,
                 slo_monitor: bool = False, slo_stream=None,
                 label: str = "run") -> None:
        #: Registry shared with the run's MetricsCollector.
        self.registry = registry if registry is not None \
            else MetricsRegistry(prefix="repro")
        #: The sink spec every stream was built from.
        self.sink_spec = sink
        sink_kind, _ = parse_sink_spec(sink)
        #: Lifecycle trace; ``wg_events`` opts into per-WG granularity.
        self.trace = TraceRecorder(
            wg_events=wg_events,
            sink=make_sink(sink, stream="events", directory=sink_dir))
        #: Scheduler decision log; None when decision events are off.
        self.decisions: Optional[DecisionLog] = (
            DecisionLog(registry=self.registry,
                        sink=make_sink(sink, stream="decisions",
                                       directory=sink_dir))
            if decision_events else None)
        # The profiler's own state is already bounded; it only gets a
        # sink when spilling to disk, where its one-record-per-run
        # snapshot joins the stream bundle.
        profile_sink = (make_sink(sink, stream="profile",
                                  directory=sink_dir)
                        if sink_kind == "jsonl" else None)
        #: Simulator self-profiler; None when self-profiling is off.
        self.profiler: Optional[SimProfiler] = (
            SimProfiler(sink=profile_sink) if self_profile else None)
        #: Windowed steady-state metrics; None without ``window=``.
        self.windows: Optional[WindowedMetrics] = (
            WindowedMetrics(window) if window is not None else None)
        if slo_monitor and self.windows is None:
            raise TelemetryError(
                "slo_monitor needs windowed metrics; pass window=TICKS")
        #: Live SLO monitor over the windows; None unless requested.
        self.monitor: Optional[SLOMonitor] = (
            SLOMonitor(self.windows, registry=self.registry,
                       stream=slo_stream, label=label)
            if slo_monitor else None)

    @property
    def decisions_enabled(self) -> bool:
        """Whether decision events are being collected."""
        return self.decisions is not None

    # ------------------------------------------------------------------
    # Stream lifecycle
    # ------------------------------------------------------------------

    def _drain(self) -> None:
        # Hand the recorders' pending batches to their sinks, so a sink
        # read directly sees every event emitted.
        self.trace.drain()
        if self.decisions is not None:
            self.decisions.drain()

    def _sinks(self):
        sinks = [self.trace.sink]
        if self.decisions is not None:
            sinks.append(self.decisions.sink)
        if self.profiler is not None and self.profiler.sink is not None:
            sinks.append(self.profiler.sink)
        if self.windows is not None:
            sinks.append(self.windows.sink)
        return sinks

    def flush(self) -> None:
        """Drain the recorders, then flush every sink (JSONL to disk)."""
        self._drain()
        for sink in self._sinks():
            sink.flush()

    def close(self) -> None:
        """Drain, flush and close every sink; the hub stays queryable."""
        self._drain()
        for sink in self._sinks():
            sink.close()

    def sink_summary(self) -> dict:
        """JSON-ready description of every stream's sink state."""
        self._drain()
        summary = {"spec": self.sink_spec,
                   "events": self.trace.sink.describe()}
        if self.decisions is not None:
            summary["decisions"] = self.decisions.sink.describe()
        if self.profiler is not None and self.profiler.sink is not None:
            summary["profile"] = self.profiler.sink.describe()
        if self.windows is not None:
            summary["windows"] = self.windows.sink.describe()
        return summary
