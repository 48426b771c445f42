"""Discrete-event simulation engine.

A :class:`Simulator` owns a clock (integer nanoseconds) and a pending-event
heap.  Components schedule callbacks with :meth:`Simulator.schedule` (relative
delay) or :meth:`Simulator.schedule_at` (absolute time).  Events at the same
timestamp fire in the order they were scheduled (FIFO), which keeps runs
deterministic.

:class:`PeriodicTask` re-arms a callback on a fixed period for as long as a
predicate holds; the schedulers use it for their 100 us / 250 us update
loops so that no events fire while the device is idle.

Cancellation is tombstone-based: :meth:`EventHandle.cancel` marks the
entry and the heap skips it on pop.  Components that re-arm a timer on
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


class EventHandle:
    """Handle to a scheduled event; lets the owner cancel it."""

    __slots__ = ("when", "seq", "callback", "args", "cancelled", "sim")

    def __init__(self, when: int, seq: int,
                 callback: Callable[..., None], args: tuple,
                 sim: "Optional[Simulator]" = None) -> None:
        self.when = when
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        #: Owning simulator, notified on cancel so its live/cancelled
        #: counters stay O(1)-consistent (None for detached handles).
        self.sim = sim

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent."""
        if not self.cancelled:
            self.cancelled = True
            if self.sim is not None:
                self.sim._note_cancelled()

    def __lt__(self, other: "EventHandle") -> bool:
        # Tuple-free (when, seq) comparison: this runs once per heap
        # sift level on every push/pop, the innermost loop of the engine.
        if self.when != other.when:
            return self.when < other.when
        return self.seq < other.seq

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cancelled" if self.cancelled else "pending"
        name = getattr(self.callback, "__qualname__", repr(self.callback))
        return f"<EventHandle t={self.when} {name} {state}>"


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
        self._now = 0
        self._heap: List[EventHandle] = []
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
    def now(self) -> int:
        """Current simulated time in ticks."""
        return self._now

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

    def _note_cancelled(self) -> None:
        """An owned handle was cancelled; update counters, maybe compact."""
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
        self._heap[:] = [ev for ev in self._heap if not ev.cancelled]
        heapq.heapify(self._heap)
        self._cancelled = 0

    def schedule(self, delay: int, callback: Callable[..., None],
                 *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` to run ``delay`` ticks from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        # Inlined schedule_at (this is the timer hot path; delay >= 0
        # guarantees the when >= now precondition).
        handle = EventHandle(self._now + delay, next(self._seq), callback,
                             args, self)
        heapq.heappush(self._heap, handle)
        self._pending += 1
        return handle

    def schedule_at(self, when: int, callback: Callable[..., None],
                    *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` at absolute time ``when``."""
        if when < self._now:
            raise SimulationError(
                f"cannot schedule at {when} before now={self._now}")
        handle = EventHandle(when, next(self._seq), callback, args, self)
        heapq.heappush(self._heap, handle)
        self._pending += 1
        return handle

    def schedule_arrival(self, when: int, callback: Callable[..., None],
                         *args: Any) -> EventHandle:
        """Schedule a workload-arrival event at absolute time ``when``.

        Arrival events draw sequence numbers from a dedicated negative
        counter, so at equal timestamps they fire before every
        device-side event — and among themselves in scheduling order.
        That reproduces exactly the ordering the finite path gets from
        ``submit_workload`` scheduling every arrival up front (seqs
        ``0..n-1``, before any device timer exists), which is what makes
        a lazily-fed stream bit-identical to the pre-generated list even
        when an arrival ties with a device event re-armed mid-run.
        """
        if when < self._now:
            raise SimulationError(
                f"cannot schedule at {when} before now={self._now}")
        handle = EventHandle(when, next(self._arrival_seq), callback, args,
                             self)
        heapq.heappush(self._heap, handle)
        self._pending += 1
        return handle

    def step(self) -> bool:
        """Execute the next pending event.

        Returns ``False`` when the queue is empty (the clock does not
        advance), ``True`` otherwise.
        """
        while self._heap:
            event = heapq.heappop(self._heap)
            if event.cancelled:
                self._cancelled -= 1
                continue
            self._pending -= 1
            if self.max_time is not None and event.when > self.max_time:
                raise SimulationError(
                    f"simulation exceeded max_time={self.max_time} ticks; "
                    "the workload may be livelocked")
            if self.validator is not None:
                self.validator.on_event(event, self._now)
            self._now = event.when
            self._events_fired += 1
            profiler = self.profiler
            if profiler is None:
                event.callback(*event.args)
            else:
                started = perf_counter()
                event.callback(*event.args)
                profiler.record(event.callback, perf_counter() - started)
            return True
        return False

    def run(self) -> int:
        """Run until no events remain; return the final time.

        The hot loop inlines :meth:`step` (identical semantics, minus one
        Python call frame per event — measurable at millions of events).
        ``self._heap`` is mutated in place by :meth:`_compact`, so the
        local binding stays valid across callbacks.
        """
        heap = self._heap
        pop = heapq.heappop
        max_time = self.max_time
        # Hoisted for the duration of this run(): both sinks are attached
        # at system-build time, before any event fires.
        validator = self.validator
        profiler = self.profiler
        while heap:
            event = pop(heap)
            if event.cancelled:
                self._cancelled -= 1
                continue
            self._pending -= 1
            if max_time is not None and event.when > max_time:
                raise SimulationError(
                    f"simulation exceeded max_time={max_time} ticks; "
                    "the workload may be livelocked")
            if validator is not None:
                validator.on_event(event, self._now)
            self._now = event.when
            self._events_fired += 1
            if profiler is None:
                event.callback(*event.args)
            else:
                started = perf_counter()
                event.callback(*event.args)
                profiler.record(event.callback, perf_counter() - started)
        return self._now

    def run_until(self, when: int) -> int:
        """Run events up to and including time ``when``.

        The clock is left at ``when`` (or later if an event fired exactly
        there) so subsequent relative scheduling behaves intuitively.
        """
        while self._heap:
            head = self._heap[0]
            if head.cancelled:
                heapq.heappop(self._heap)
                self._cancelled -= 1
                continue
            if head.when > when:
                break
            self.step()
        self._now = max(self._now, when)
        return self._now


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
        self._handle: Optional[EventHandle] = None
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
        return self._handle is not None and not self._handle.cancelled

    def ensure_running(self) -> None:
        """Start the periodic loop if it is not already pending."""
        if not self.running and self._active():
            self.restarts += 1
            self._handle = self._sim.schedule(self._period, self._tick)

    def stop(self) -> None:
        """Cancel the pending tick, if any."""
        if self._handle is not None:
            self._handle.cancel()
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
