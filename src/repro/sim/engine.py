"""Discrete-event simulation engine.

A :class:`Simulator` owns a clock (integer nanoseconds) and a pending-event
heap.  Components schedule callbacks with :meth:`Simulator.schedule` (relative
delay) or :meth:`Simulator.schedule_at` (absolute time).  Events at the same
timestamp fire in the order they were scheduled (FIFO), which keeps runs
deterministic.

An event is a plain list ``[when, seq, callback, args]``.  ``heapq``
orders the heap by comparing the lists in C, and ``seq`` is unique, so a
comparison is decided by ``(when, seq)`` and never reaches the callback:
ordering the heap runs no Python code.

:class:`PeriodicTask` re-arms a callback on a fixed period for as long as a
predicate holds; the schedulers use it for their 100 us / 250 us update
loops so that no events fire while the device is idle.

Cancellation is tombstone-based: :meth:`Simulator.cancel` sets the
event's callback slot to None and the heap skips it on pop.  The loop
clears the same slot of every event it pops to fire, so cancelling an
event that has fired is a no-op.  Components that re-arm a timer on
every state change (the compute units) would otherwise grow the heap
mostly-tombstones on long runs, so the simulator keeps live/cancelled
counters — making :attr:`Simulator.pending_events` O(1) — and compacts
the heap in place once cancelled entries outnumber live ones.  Compaction
filters and re-heapifies; the (when, seq) total order is untouched, so
firing order (and therefore every simulated result) is identical with or
without it.
"""

from __future__ import annotations

import heapq
import itertools
from time import perf_counter
from typing import Any, Callable, List, Optional

from ..errors import SimulationError

#: Heaps smaller than this are never compacted (filtering would cost more
#: than the tombstones it reclaims).
_COMPACT_MIN_TOMBSTONES = 64

#: First sequence number of the arrival lane (see
#: :meth:`Simulator.schedule_arrival`).  Far enough below zero that the
#: lane can never collide with the device lane's non-negative counter.
_ARRIVAL_SEQ_BASE = -(2 ** 62)


class Simulator:
    """Event-driven simulator with an integer-nanosecond clock."""

    #: Events executed without a queue round-trip: none, every event
    #: goes through the heap.  Kept as a constant so counter readers
    #: (``benchmarks/layers``' ``engine.coalesced_frac``) still get 0.
    events_coalesced = 0

    def __init__(self, max_time: Optional[int] = None) -> None:
        #: Current simulated time in ticks; the loop assigns it as each
        #: event fires.
        self.now = 0
        #: Events as ``[when, seq, callback, args]`` lists (see the
        #: module docstring); ``callback`` is None once the event is
        #: cancelled or has fired.
        self._heap: List[list] = []
        self._seq = itertools.count()
        self._arrival_seq = itertools.count(_ARRIVAL_SEQ_BASE)
        self._events_fired = 0
        # Live (non-cancelled) and tombstoned entries currently in the
        # heap; maintained on push/pop/cancel so pending_events is O(1).
        self._pending = 0
        self._cancelled = 0
        self.max_time = max_time
        #: Optional self-profiler (``record(callback, seconds)`` per
        #: executed event) — see :mod:`repro.telemetry.selfprof`.  None
        #: keeps the hot path to a single attribute check.
        self.profiler = None
        #: Optional :class:`~repro.validation.invariants.InvariantChecker`
        #: consulted before each event fires; same off-path discipline.
        self.validator = None

    @property
    def events_fired(self) -> int:
        """Events executed so far (for diagnostics)."""
        return self._events_fired

    @property
    def events_committed(self) -> int:
        """Total committed events: every executed event.

        The event count the benchmark and the golden corpus record (the
        same total :attr:`events_fired` reports).
        """
        return self._events_fired

    @property
    def pending_events(self) -> int:
        """Number of queued (non-cancelled) events.  O(1)."""
        return self._pending

    def cancel(self, event: list) -> None:
        """Prevent ``event`` from firing.

        A no-op on an event that was already cancelled or has fired
        (including one whose callback is running now).
        """
        if event[2] is None:
            return
        event[2] = None
        self._pending -= 1
        self._cancelled += 1
        if (self._cancelled >= _COMPACT_MIN_TOMBSTONES
                and self._cancelled * 2 > len(self._heap)):
            self._compact()

    def _compact(self) -> None:
        """Drop tombstones and re-heapify, in place.

        In place so that a ``run()`` loop holding a reference to the heap
        list stays valid; (when, seq) ordering is preserved, so the firing
        order — and every downstream result — is unchanged.
        """
        self._heap[:] = [ev for ev in self._heap if ev[2] is not None]
        heapq.heapify(self._heap)
        self._cancelled = 0

    def schedule(self, delay: int, callback: Callable[..., None],
                 *args: Any) -> list:
        """Schedule ``callback(*args)`` to run ``delay`` ticks from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        # Inlined schedule_at (this is the timer hot path; delay >= 0
        # guarantees the when >= now precondition).
        event = [self.now + delay, next(self._seq), callback, args]
        heapq.heappush(self._heap, event)
        self._pending += 1
        return event

    def schedule_at(self, when: int, callback: Callable[..., None],
                    *args: Any) -> list:
        """Schedule ``callback(*args)`` at absolute time ``when``."""
        if when < self.now:
            raise SimulationError(
                f"cannot schedule at {when} before now={self.now}")
        event = [when, next(self._seq), callback, args]
        heapq.heappush(self._heap, event)
        self._pending += 1
        return event

    def schedule_arrival(self, when: int, callback: Callable[..., None],
                         *args: Any) -> list:
        """Schedule a workload-arrival event at absolute time ``when``.

        Arrival events draw sequence numbers from a dedicated negative
        counter, so the lane fires arrivals before device events at tied
        timestamps — even a device event scheduled earlier — and
        arrivals among themselves in scheduling order.
        """
        if when < self.now:
            raise SimulationError(
                f"cannot schedule at {when} before now={self.now}")
        event = [when, next(self._arrival_seq), callback, args]
        heapq.heappush(self._heap, event)
        self._pending += 1
        return event

    def run(self, until: Optional[int] = None) -> int:
        """Run until no events remain, or past ``until``; return the time.

        With ``until`` set, events with ``when <= until`` fire (including
        ones scheduled along the way) and the clock stays at the last
        fired event, so slicing a run into ``run(until=h)`` calls fires
        exactly the sequence of one uninterrupted ``run()``.

        ``self._heap`` is mutated in place by :meth:`_compact`, so the
        local binding stays valid across callbacks.
        """
        heap = self._heap
        pop = heapq.heappop
        max_time = self.max_time
        # One bound per event, the tighter of the horizon and the
        # livelock guard; which one was crossed is sorted out only then.
        limit = max_time
        if until is not None and (max_time is None or until < max_time):
            limit = until
        # Hoisted for the duration of this run(): both sinks are attached
        # at system-build time, before any event fires.
        validator = self.validator
        record = self.profiler.record if self.profiler is not None else None
        while heap:
            event = pop(heap)
            when, _, callback, args = event
            if callback is None:
                self._cancelled -= 1
                continue
            if limit is not None and when > limit:
                if until is not None and when > until:
                    heapq.heappush(heap, event)
                    return self.now
                raise SimulationError(
                    f"simulation exceeded max_time={max_time} ticks; "
                    "the workload may be livelocked")
            self._pending -= 1
            if validator is not None:
                validator.on_event(event, self.now)
            event[2] = None
            self.now = when
            self._events_fired += 1
            if record is None:
                callback(*args)
            else:
                started = perf_counter()
                callback(*args)
                record(callback, perf_counter() - started)
        return self.now

    def run_until(self, when: int) -> int:
        """Run events up to and including time ``when``.

        Unlike ``run(until=when)``, the clock is then bumped to ``when``
        so subsequent relative scheduling behaves intuitively.
        """
        self.run(until=when)
        self.now = max(self.now, when)
        return self.now


class PeriodicTask:
    """Re-arms ``callback`` every ``period`` ticks while ``active()`` holds.

    The task is started lazily with :meth:`ensure_running`; when the
    predicate returns ``False`` the task stops re-arming itself and a later
    ``ensure_running`` restarts it.  This keeps idle simulations free of
    timer events, which matters because experiment makespans vary by 1000x.
    """

    def __init__(self, sim: Simulator, period: int,
                 callback: Callable[[], None],
                 active: Callable[[], bool]) -> None:
        if period <= 0:
            raise SimulationError("PeriodicTask period must be positive")
        self._sim = sim
        self._period = period
        self._callback = callback
        self._active = active
        self._handle: Optional[list] = None
        #: Ticks whose callback actually ran.
        self.ticks_fired = 0
        #: Ticks elided: the timer fired but the predicate had gone false,
        #: so the callback (and the re-arm) were skipped.
        self.ticks_elided = 0
        #: Times the loop was (re)armed from idle by :meth:`ensure_running`.
        self.restarts = 0

    @property
    def running(self) -> bool:
        """Whether a tick is currently scheduled."""
        return self._handle is not None and self._handle[2] is not None

    def ensure_running(self) -> None:
        """Start the periodic loop if it is not already pending."""
        if not self.running and self._active():
            self.restarts += 1
            self._handle = self._sim.schedule(self._period, self._tick)

    def stop(self) -> None:
        """Cancel the pending tick, if any."""
        if self._handle is not None:
            self._sim.cancel(self._handle)
            self._handle = None

    def _tick(self) -> None:
        self._handle = None
        if not self._active():
            self.ticks_elided += 1
            return
        self.ticks_fired += 1
        self._callback()
        # Re-check: the callback may have drained the last work.
        if self._active():
            self._handle = self._sim.schedule(self._period, self._tick)
