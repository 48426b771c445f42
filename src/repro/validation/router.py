"""Router-tier conservation: every arrival routed exactly once.

The cluster's structural invariant, checked after every fleet run
(cheap — pure counter arithmetic, no per-job state):

* every arrival the router saw was either assigned to exactly one
  device lane or rejected at the router tier — no duplication, no
  loss: ``sum(lane_sizes) + rejected == arrivals``;
* every device observed exactly its lane: the per-device
  ``RunMetrics.num_jobs`` equals the jobs routed to it.  This is the
  lane guard — if the serial demux lost or duplicated a job between
  the router and its device, or a pool worker's router replay
  diverged from the counting pass, the lane the device actually ran
  would not match the router's ledger.

Violations raise :class:`~repro.validation.invariants
.InvariantViolation` with the full ledger in ``context``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .invariants import InvariantViolation

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..cluster.metrics import ClusterMetrics
    from ..cluster.routers import Router


def audit_routing(router: "Router", metrics: "ClusterMetrics") -> None:
    """Raise unless the fleet run conserved every routed arrival."""
    lanes = sum(metrics.lane_sizes)
    if lanes + metrics.router_rejected != router.routed:
        raise InvariantViolation(
            "router_conservation",
            f"{router.routed} arrivals but {lanes} laned + "
            f"{metrics.router_rejected} rejected",
            time=0, context=_ledger(router, metrics))
    if tuple(router.lane_counts) != tuple(metrics.lane_sizes):
        raise InvariantViolation(
            "router_conservation",
            "router lane ledger disagrees with the fleet summary",
            time=0, context=_ledger(router, metrics))
    for index, device_metrics in enumerate(metrics.per_device):
        observed = 0 if device_metrics is None else device_metrics.num_jobs
        if observed != metrics.lane_sizes[index]:
            raise InvariantViolation(
                "router_conservation",
                f"device {index} observed {observed} arrivals but the "
                f"router laned {metrics.lane_sizes[index]} "
                "(streamed lane lost or duplicated a job?)",
                time=0, context=_ledger(router, metrics))


def _ledger(router: "Router", metrics: "ClusterMetrics"):
    return {
        "router": metrics.router,
        "arrivals": router.routed,
        "lane_sizes": list(metrics.lane_sizes),
        "router_rejected": metrics.router_rejected,
        "device_observed": [None if m is None else m.num_jobs
                            for m in metrics.per_device],
    }
