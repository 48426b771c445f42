"""Routing policies: which device each arriving job lands on.

A :class:`Router` sees every arrival once, in arrival order, and
returns a :class:`RouteDecision` — a device index or
:data:`REJECTED` for router-tier admission control.  Routers never
see device internals: they maintain their *own* model of each
device's load from the jobs they routed, exactly the position a real
front-end router is in.  Two load models are kept per device:

* **queue depth** — how many routed jobs are predicted to still be
  queued or running (a FIFO of predicted completion times);
* **backlog ticks** — the Little's-Law work estimate: outstanding
  routed work, in ticks of *device* time, not yet drained (the
  router-tier analogue of Algorithm 1's ``totRemTime``).

The per-job charge is :meth:`~repro.sim.job.Job.total_work` (SIMD-lane
tick demand) divided by the device's steady-state work rate of
``num_cus * 4`` concurrent full-rate workgroup lanes — a processor-
sharing device retires many small jobs in parallel, so charging each
its full dedicated-lane ``isolated_time`` would overestimate queuing
delay by an order of magnitude and make the laxity router reject
traffic a single device demonstrably sustains.
Registered policies (``ROUTERS``):

``pass-through``
    Single-device identity: every job to device 0 (requires N=1).
``round-robin``
    Arrival ``i`` to device ``i mod N``.
``least-loaded``
    The device with the smallest predicted queue depth.
``power-of-two``
    Two devices sampled uniformly (seeded RNG), the less-loaded one
    wins — the classic load-balancing result at O(1) state probes.
``laxity``
    Deadline-aware: pick the device whose backlog keeps the job's
    laxity ``deadline - (backlog + service)`` largest; if no device
    keeps laxity positive the router rejects the job outright
    (router-tier admission, the fleet analogue of Algorithm 1).

Routing is deterministic given (policy, seed, job sequence): replaying
the same stream through a fresh router reproduces every decision,
which is what lets per-device lanes be re-derived inside pool workers
without shipping an assignment table.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, TYPE_CHECKING

import numpy as np

from ..config import GPUConfig
from ..errors import ConfigError, SchedulingError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..sim.job import Job

#: Sentinel device index: the router refused the job (router-tier
#: admission).  Rejected jobs never reach a device.
REJECTED = -1

#: Spawn keys of the documented seeding scheme (see
#: :func:`derive_device_seed`).
_ROUTER_SPAWN_KEY = 0
_DEVICE_SPAWN_KEY = 1

#: Workgroups one CU runs at full rate (KernelDescriptor's
#: compute-bound default); with ``num_cus`` CUs the device drains
#: roughly ``num_cus * 4`` work-ticks of WG demand per tick.
_FULL_RATE_WGS_PER_CU = 4


def derive_device_seed(seed: int, device_index: int) -> int:
    """Device ``device_index``'s RNG seed derived from the cell seed.

    The spawn scheme is ``numpy.random.SeedSequence(entropy=seed,
    spawn_key=(1, device_index))`` — each device's seed depends only on
    the cell seed and its own index, never on the fleet size or the
    order devices were built in, so adding a device to a fleet leaves
    every existing device's stream untouched.
    """
    if device_index < 0:
        raise ConfigError(f"device index must be >= 0, got {device_index}")
    seq = np.random.SeedSequence(
        entropy=seed, spawn_key=(_DEVICE_SPAWN_KEY, device_index))
    return int(seq.generate_state(1, dtype=np.uint64)[0])


def derive_router_seed(seed: int) -> int:
    """The router's own RNG seed (spawn key ``(0,)`` of the cell seed)."""
    seq = np.random.SeedSequence(entropy=seed, spawn_key=(_ROUTER_SPAWN_KEY,))
    return int(seq.generate_state(1, dtype=np.uint64)[0])


@dataclass(frozen=True)
class RouteDecision:
    """One routing verdict: where an arrival went and why."""

    #: The routed job.
    job_id: int
    #: Chosen device index, or :data:`REJECTED`.
    device: int
    #: False only for router-tier rejections.
    accepted: bool
    #: Policy-specific cause ("round_robin", "least_queue", ...).
    reason: str
    #: Chosen device's backlog estimate (ticks) before this job landed.
    backlog: int
    #: Router-estimated laxity of the job on the chosen device, or
    #: None when the policy does not reason about deadlines.
    laxity: Optional[int] = None


class Router:
    """Base class: per-device load model + the decision bookkeeping."""

    #: Registry name; subclasses override.
    name = "base"

    def __init__(self, num_devices: int, gpu: Optional[GPUConfig] = None,
                 seed: int = 1) -> None:
        if num_devices < 1:
            raise ConfigError(
                f"router needs at least one device, got {num_devices}")
        self.num_devices = num_devices
        self.gpu = gpu if gpu is not None else GPUConfig()
        self.seed = seed
        # Steady-state drain rate: work-ticks of WG demand one device
        # retires per tick when saturated.
        self._work_rate = self.gpu.num_cus * _FULL_RATE_WGS_PER_CU
        #: Arrivals seen (routed + rejected): the conservation left side.
        self.routed = 0
        #: Router-tier rejections.
        self.rejected = 0
        #: Jobs routed per device: the conservation right side.
        self.lane_counts: List[int] = [0] * num_devices
        # Virtual time through which each device is predicted busy.
        self._horizon: List[int] = [0] * num_devices
        # Predicted completion times of in-flight routed jobs (FIFO).
        self._queues: List[deque] = [deque() for _ in range(num_devices)]

    # ------------------------------------------------------------------
    # Load model
    # ------------------------------------------------------------------

    def service_estimate(self, job: "Job") -> int:
        """Device-time this job occupies at steady state, ticks.

        ``total_work`` spread over the device's parallel work rate —
        the share of device throughput the job consumes, not the
        latency it observes (that lower bound is ``isolated_time``).
        """
        return max(1, -(-job.total_work // self._work_rate))

    def backlog(self, device: int, now: int) -> int:
        """Outstanding predicted work on ``device`` at ``now``, ticks."""
        return max(0, self._horizon[device] - now)

    def queue_depth(self, device: int, now: int) -> int:
        """Routed jobs predicted still in flight on ``device`` at ``now``."""
        queue = self._queues[device]
        while queue and queue[0] <= now:
            queue.popleft()
        return len(queue)

    def _commit(self, device: int, job: "Job", now: int) -> None:
        done = max(now, self._horizon[device]) + self.service_estimate(job)
        self._horizon[device] = done
        # Drop drained completions here too, not only in queue_depth:
        # policies that never ask for the depth would otherwise keep one
        # entry per job ever routed.  Arrivals are routed in time order,
        # so a later queue_depth would have dropped the same entries.
        self.queue_depth(device, now)
        self._queues[device].append(done)
        self.lane_counts[device] += 1

    # ------------------------------------------------------------------
    # Decisions
    # ------------------------------------------------------------------

    def route(self, job: "Job", now: int) -> RouteDecision:
        """Route one arrival; every arrival passes through here once."""
        self.routed += 1
        device, reason, laxity = self._choose(job, now)
        if device == REJECTED:
            self.rejected += 1
            return RouteDecision(job_id=job.job_id, device=REJECTED,
                                 accepted=False, reason=reason,
                                 backlog=min(self.backlog(d, now)
                                             for d in range(self.num_devices)),
                                 laxity=laxity)
        backlog = self.backlog(device, now)
        self._commit(device, job, now)
        return RouteDecision(job_id=job.job_id, device=device, accepted=True,
                             reason=reason, backlog=backlog, laxity=laxity)

    def _choose(self, job: "Job", now: int):
        """Return ``(device | REJECTED, reason, laxity_or_None)``."""
        raise NotImplementedError  # pragma: no cover - abstract


class PassThroughRouter(Router):
    """Single-device identity: the N=1 cluster must equal a bare GPU."""

    name = "pass-through"

    def __init__(self, num_devices: int, gpu: Optional[GPUConfig] = None,
                 seed: int = 1) -> None:
        if num_devices != 1:
            raise ConfigError(
                f"pass-through router is single-device only, "
                f"got {num_devices} devices")
        super().__init__(num_devices, gpu, seed)

    def _choose(self, job: "Job", now: int):
        return 0, "pass_through", None


class RoundRobinRouter(Router):
    """Arrival ``i`` to device ``i mod N`` — the zero-information baseline."""

    name = "round-robin"

    def __init__(self, num_devices: int, gpu: Optional[GPUConfig] = None,
                 seed: int = 1) -> None:
        super().__init__(num_devices, gpu, seed)
        self._next = 0

    def _choose(self, job: "Job", now: int):
        device = self._next
        self._next = (device + 1) % self.num_devices
        return device, "round_robin", None


class LeastLoadedRouter(Router):
    """The device with the smallest predicted queue depth wins."""

    name = "least-loaded"

    def _choose(self, job: "Job", now: int):
        device = min(range(self.num_devices),
                     key=lambda d: (self.queue_depth(d, now), d))
        return device, "least_queue", None


class PowerOfTwoRouter(Router):
    """Sample two devices, keep the shorter queue (O(1) probes)."""

    name = "power-of-two"

    def __init__(self, num_devices: int, gpu: Optional[GPUConfig] = None,
                 seed: int = 1) -> None:
        super().__init__(num_devices, gpu, seed)
        self._rng = np.random.default_rng(derive_router_seed(seed))

    def _choose(self, job: "Job", now: int):
        if self.num_devices == 1:
            return 0, "two_choices", None
        a, b = self._rng.choice(self.num_devices, size=2, replace=False)
        a, b = int(a), int(b)
        if (self.queue_depth(b, now), b) < (self.queue_depth(a, now), a):
            a = b
        return a, "two_choices", None


class LaxityAwareRouter(Router):
    """Deadline-aware routing with router-tier admission.

    The job's laxity on device ``d`` is estimated as ``deadline -
    (backlog_d + service)`` — Little's-Law queuing delay plus its own
    service demand against its relative deadline, the router-tier
    mirror of Algorithm 1's ``totRemTime + holdTime + durTime <
    deadline`` test.  The job goes to the device maximising that
    laxity; when every device would drive it negative the router
    rejects instead of knowingly burning fleet capacity on a miss.
    Latency-insensitive jobs (no deadline) route to the smallest
    backlog and are never rejected, matching Section 5.2's contract.
    """

    name = "laxity"

    def _choose(self, job: "Job", now: int):
        best = min(range(self.num_devices),
                   key=lambda d: (self.backlog(d, now), d))
        if job.deadline is None:
            return best, "no_deadline", None
        laxity = job.deadline - (self.backlog(best, now)
                                 + job.isolated_time(self.gpu))
        if laxity < 0:
            return REJECTED, "router_reject", laxity
        return best, "laxity_positive", laxity


#: Registry: router name -> class.  ``make_router`` is the factory.
ROUTERS: Dict[str, Callable[..., Router]] = {
    PassThroughRouter.name: PassThroughRouter,
    RoundRobinRouter.name: RoundRobinRouter,
    LeastLoadedRouter.name: LeastLoadedRouter,
    PowerOfTwoRouter.name: PowerOfTwoRouter,
    LaxityAwareRouter.name: LaxityAwareRouter,
}


def router_names() -> List[str]:
    """Registered router names, sorted."""
    return sorted(ROUTERS)


def make_router(name: str, num_devices: int,
                gpu: Optional[GPUConfig] = None, seed: int = 1) -> Router:
    """Build a fresh, reset router by registry name."""
    factory = ROUTERS.get(name)
    if factory is None:
        raise SchedulingError(
            f"unknown router {name!r}; known: {', '.join(router_names())}")
    return factory(num_devices, gpu, seed)
