"""Unit and property tests for the discrete-event engine."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import SimulationError
from repro.sim.engine import PeriodicTask, Simulator


class TestScheduling:
    def test_clock_starts_at_zero(self):
        assert Simulator().now == 0

    def test_event_fires_at_scheduled_time(self):
        sim = Simulator()
        fired = []
        sim.schedule(100, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [100]

    def test_arguments_are_passed(self):
        sim = Simulator()
        fired = []
        sim.schedule(5, fired.append, "payload")
        sim.run()
        assert fired == ["payload"]

    def test_schedule_at_absolute_time(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(42, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [42]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-1, lambda: None)

    def test_schedule_in_past_rejected(self):
        sim = Simulator()
        sim.schedule(10, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(5, lambda: None)

    def test_events_ordered_by_time(self):
        sim = Simulator()
        order = []
        sim.schedule(30, order.append, "c")
        sim.schedule(10, order.append, "a")
        sim.schedule(20, order.append, "b")
        sim.run()
        assert order == ["a", "b", "c"]

    def test_same_time_events_fifo(self):
        sim = Simulator()
        order = []
        for label in "abcde":
            sim.schedule(7, order.append, label)
        sim.run()
        assert order == list("abcde")

    def test_nested_scheduling(self):
        sim = Simulator()
        fired = []

        def outer():
            fired.append(("outer", sim.now))
            sim.schedule(5, inner)

        def inner():
            fired.append(("inner", sim.now))

        sim.schedule(10, outer)
        sim.run()
        assert fired == [("outer", 10), ("inner", 15)]

    def test_zero_delay_event_fires_at_now(self):
        sim = Simulator()
        fired = []
        sim.schedule(10, lambda: sim.schedule(0, lambda: fired.append(sim.now)))
        sim.run()
        assert fired == [10]


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(10, fired.append, "x")
        sim.cancel(handle)
        sim.run()
        assert fired == []

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        handle = sim.schedule(10, lambda: None)
        sim.cancel(handle)
        sim.cancel(handle)
        assert sim.run() == 0

    def test_pending_events_excludes_cancelled(self):
        sim = Simulator()
        sim.schedule(1, lambda: None)
        handle = sim.schedule(2, lambda: None)
        sim.cancel(handle)
        assert sim.pending_events == 1


class TestRunControl:
    def test_run_returns_final_time(self):
        sim = Simulator()
        sim.schedule(99, lambda: None)
        assert sim.run() == 99

    def test_run_until_stops_at_boundary(self):
        sim = Simulator()
        fired = []
        sim.schedule(10, fired.append, "a")
        sim.schedule(20, fired.append, "b")
        sim.run_until(15)
        assert fired == ["a"]
        assert sim.now == 15

    def test_run_until_inclusive(self):
        sim = Simulator()
        fired = []
        sim.schedule(15, fired.append, "a")
        sim.run_until(15)
        assert fired == ["a"]

    def test_max_time_enforced(self):
        sim = Simulator(max_time=100)
        sim.schedule(200, lambda: None)
        with pytest.raises(SimulationError):
            sim.run()

    def test_events_fired_counter(self):
        sim = Simulator()
        for delay in (1, 2, 3):
            sim.schedule(delay, lambda: None)
        sim.run()
        assert sim.events_fired == 3


class _FiringLog:
    """Validator stand-in: records each fired event's ``(when, seq)``."""

    def __init__(self):
        self.fired = []

    def on_event(self, event, now):
        self.fired.append((event[0], event[1]))


def _scripted_sim():
    """A simulator whose run mixes both lanes, ties, nested scheduling
    and (at t=50) a cancellation burst that compacts the heap."""
    sim = Simulator()
    sim.validator = _FiringLog()
    doomed = [sim.schedule_at(60 + i, lambda: None) for i in range(80)]
    compactions = []

    def cancel_burst():
        before = len(sim._heap)
        for handle in doomed:
            sim.cancel(handle)
        compactions.append((before, len(sim._heap)))

    def spawn(depth):
        if depth:
            sim.schedule(7, spawn, depth - 1)
            sim.schedule_arrival(sim.now + 7, lambda: None)

    for when in (10, 20, 20, 35):
        sim.schedule_arrival(when, lambda: None)
        sim.schedule_at(when, spawn, 3)
    sim.schedule_at(50, cancel_burst)
    sim.schedule_at(200, lambda: None)
    return sim, compactions


class TestHorizonRun:
    """``run(until=h)`` slices resume into the uninterrupted sequence."""

    def _whole(self):
        sim, _ = _scripted_sim()
        sim.run()
        return sim.validator.fired

    @pytest.mark.parametrize("horizons", [
        (20,),              # an arrival-lane tie with device events
        (15, 27, 49),       # between events
        (49, 50, 55),       # on both sides of the compaction
        tuple(range(0, 210, 3)),
    ])
    def test_sliced_run_fires_the_uninterrupted_sequence(self, horizons):
        sim, compactions = _scripted_sim()
        for horizon in horizons:
            sim.run(until=horizon)
            fired = sim.validator.fired
            assert all(when <= horizon for when, _ in fired)
            # The clock rests on the last fired event, never on h.
            assert sim.now == (fired[-1][0] if fired else 0)
        sim.run()
        assert sim.validator.fired == self._whole()
        (before, after), = compactions
        assert after < before

    def test_clock_never_moves_to_an_empty_horizon(self):
        sim, _ = _scripted_sim()
        sim.run(until=9)
        assert sim.now == 0 and sim.validator.fired == []
        sim.run(until=14)
        assert sim.now == 10

    def test_horizon_pauses_before_the_livelock_guard(self):
        sim = Simulator(max_time=100)
        sim.schedule(200, lambda: None)
        # The event lies past the horizon: pause, even beyond max_time.
        assert sim.run(until=150) == 0
        assert sim.pending_events == 1
        with pytest.raises(SimulationError, match="max_time"):
            sim.run(until=300)

    @given(st.lists(st.tuples(st.integers(min_value=0, max_value=60),
                              st.booleans()), min_size=1, max_size=30),
           st.lists(st.integers(min_value=0, max_value=70), max_size=8))
    def test_any_slicing_preserves_the_order(self, plan, horizons):
        def build():
            sim = Simulator()
            sim.validator = _FiringLog()
            for when, arrival in plan:
                schedule = sim.schedule_arrival if arrival else sim.schedule_at
                schedule(when, lambda: None)
            return sim

        whole = build()
        whole.run()
        sliced = build()
        for horizon in sorted(horizons):
            sliced.run(until=horizon)
        sliced.run()
        assert sliced.validator.fired == whole.validator.fired
        assert sliced.now == whole.now


class TestPeriodicTask:
    def test_fires_until_inactive(self):
        sim = Simulator()
        state = {"budget": 3, "fired": 0}

        def tick():
            state["fired"] += 1
            state["budget"] -= 1

        task = PeriodicTask(sim, 10, tick, lambda: state["budget"] > 0)
        task.ensure_running()
        sim.run()
        assert state["fired"] == 3
        assert not task.running

    def test_does_not_start_when_inactive(self):
        sim = Simulator()
        task = PeriodicTask(sim, 10, lambda: None, lambda: False)
        task.ensure_running()
        assert not task.running
        assert sim.run() == 0

    def test_ensure_running_is_idempotent(self):
        sim = Simulator()
        fired = []
        active = {"on": True}

        def tick():
            fired.append(sim.now)
            active["on"] = False

        task = PeriodicTask(sim, 10, tick, lambda: active["on"])
        task.ensure_running()
        task.ensure_running()
        sim.run()
        assert fired == [10]

    def test_stop_cancels_pending_tick(self):
        sim = Simulator()
        fired = []
        task = PeriodicTask(sim, 10, lambda: fired.append(1), lambda: True)
        task.ensure_running()
        task.stop()
        sim.run()
        assert fired == []

    def test_restart_after_idle(self):
        sim = Simulator()
        fired = []
        budget = {"left": 2}

        def tick():
            fired.append(sim.now)
            budget["left"] -= 1

        task = PeriodicTask(sim, 10, tick, lambda: budget["left"] > 0)
        task.ensure_running()
        sim.run()
        assert fired == [10, 20]
        # Re-arm after going idle: the loop picks up from the current time.
        budget["left"] = 1
        task.ensure_running()
        sim.run()
        assert fired == [10, 20, 30]

    def test_zero_period_rejected(self):
        with pytest.raises(SimulationError):
            PeriodicTask(Simulator(), 0, lambda: None, lambda: True)


class TestPeriodicTaskEdges:
    """Lifecycle edge cases: stop/restart, lazy re-arm, tick accounting."""

    def test_restart_after_stop(self):
        sim = Simulator()
        fired = []
        task = PeriodicTask(sim, 10, lambda: fired.append(sim.now),
                            lambda: len(fired) < 3)
        task.ensure_running()
        task.stop()
        assert not task.running
        # A stopped task must come back cleanly at the *current* time base,
        # not resume the cancelled schedule.
        sim.run_until(25)
        task.ensure_running()
        assert task.running
        sim.run()
        assert fired == [35, 45, 55]

    def test_stop_is_idempotent(self):
        sim = Simulator()
        task = PeriodicTask(sim, 10, lambda: None, lambda: True)
        task.stop()        # never started
        task.ensure_running()
        task.stop()
        task.stop()        # second stop is a no-op
        assert not task.running
        assert sim.run() == 0

    def test_running_transitions_across_lifecycle(self):
        sim = Simulator()
        seen = []
        active = {"on": True}

        def tick():
            seen.append(task.running)  # handle is cleared while firing
            active["on"] = False

        task = PeriodicTask(sim, 10, tick, lambda: active["on"])
        assert not task.running
        task.ensure_running()
        assert task.running
        sim.run()
        assert seen == [False]
        assert not task.running        # predicate went false: loop parked

    def test_lazy_rearm_does_not_schedule_while_inactive(self):
        sim = Simulator()
        active = {"on": False}
        task = PeriodicTask(sim, 10, lambda: None, lambda: active["on"])
        task.ensure_running()
        assert sim.pending_events == 0  # nothing armed while idle
        active["on"] = True
        task.ensure_running()
        assert sim.pending_events == 1

    def test_tick_accounting_fired_elided_restarts(self):
        sim = Simulator()
        state = {"budget": 2, "live": True}

        def tick():
            state["budget"] -= 1
            if state["budget"] == 0:
                # Keep the re-arm alive but make the *next* tick a no-op:
                # the predicate flips between scheduling and firing.
                sim.schedule(5, lambda: state.update(live=False))

        task = PeriodicTask(sim, 10, tick,
                            lambda: state["live"] and state["budget"] >= 0)
        task.ensure_running()
        sim.run()
        assert task.ticks_fired == 2    # t=10, t=20
        assert task.ticks_elided == 1   # t=30 fired dead: predicate false
        assert task.restarts == 1
        # Re-arm from idle: restart count grows, totals carry on.
        state.update(live=True, budget=1)
        task.ensure_running()
        sim.run()
        assert task.restarts == 2
        assert task.ticks_fired == 3
        assert task.ticks_elided == 2


class TestEngineProperties:
    @given(st.lists(st.integers(min_value=0, max_value=10_000),
                    min_size=1, max_size=50))
    def test_events_fire_in_sorted_order(self, delays):
        sim = Simulator()
        fired = []
        for delay in delays:
            sim.schedule(delay, lambda: fired.append(sim.now))
        sim.run()
        assert fired == sorted(delays)
        assert sim.now == max(delays)

    @given(st.lists(st.tuples(st.integers(min_value=0, max_value=1000),
                              st.integers(min_value=0, max_value=99)),
                    min_size=1, max_size=40))
    def test_same_time_fifo_among_equal_delays(self, items):
        sim = Simulator()
        fired = []
        for delay, payload in items:
            sim.schedule(delay, lambda p=payload, d=delay: fired.append((d, p)))
        sim.run()
        # Stable sort by delay must reproduce the firing order exactly.
        assert fired == sorted(items, key=lambda item: item[0])
