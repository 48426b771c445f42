"""The device contract: what it means to be a schedulable accelerator.

Every tier that runs jobs — the single simulated GPU
(:class:`~repro.sim.device.GPUSystem`) and the multi-GPU fleet
(:class:`~repro.cluster.system.ClusterSystem`) — exposes the same
surface, so call sites are interchangeable:

* ``submit_workload(jobs)`` — pre-generated finite job list, once; it
  runs as a stream in ``(arrival, job_id)`` order;
* ``submit_stream(jobs, max_jobs=, lookahead=)`` — lazy arrival
  stream, once;
* ``run()`` — drain to completion and return the run summary
  (:class:`~repro.metrics.collector.RunMetrics` or the fleet-level
  :class:`~repro.cluster.metrics.ClusterMetrics`, which mirrors the
  same headline properties);
* construction-time attachment of telemetry (``telemetry=`` hub) and
  the job-retirement memory mode (``retire=``).

:class:`Device` is a :func:`typing.runtime_checkable` protocol, so
``isinstance(system, Device)`` verifies the method surface at runtime;
:class:`GPUSystem` is the reference implementation.
"""

from __future__ import annotations

from typing import Iterable, Optional, Protocol, runtime_checkable


@runtime_checkable
class Device(Protocol):
    """Anything that accepts a workload and runs it to completion.

    The protocol captures the implicit contract the harness, CLI and
    benchmarks were already written against.  Implementations must
    enforce single submission (a second ``submit_*`` call raises
    :class:`~repro.errors.SimulationError`) and reject empty
    workloads.
    """

    def submit_workload(self, jobs: Iterable) -> None:
        """Accept a finite, pre-generated job list; once per device.

        The list is a stream in ``(arrival, job_id)`` order: it runs
        exactly as ``submit_stream`` over the sorted list.
        """
        ...  # pragma: no cover - protocol stub

    def submit_stream(self, jobs: Iterable, max_jobs: Optional[int] = None,
                      lookahead: int = 1):
        """Accept a lazy arrival stream (monotone non-decreasing
        arrivals), truncated at ``max_jobs``; once per device."""
        ...  # pragma: no cover - protocol stub

    def run(self):
        """Drain the submitted workload and return the run summary."""
        ...  # pragma: no cover - protocol stub
