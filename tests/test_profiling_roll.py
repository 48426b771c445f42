"""The profiling table's window roll folds only types with activity.

``KernelProfilingTable._roll`` folds the types with WGs in flight or
completions in the open window.  For every other type a fold would
change only ``last_transition``, which nothing reads while no WG of the
type is in flight.  The reference below folds every type ever seen, as
the table once did; random sequences of device feedback, seeding and
reads across window boundaries must leave both tables with the same
published rates, counters and ``changed_kernels_since`` answers.

Per-type epochs assigned within one roll may differ in order between the
two: nothing compares them except against table-wide ``rank_epoch``
snapshots, which fall before or after a whole roll, so the test compares
``changed_kernels_since`` at every snapshot taken instead.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.core.profiling import KernelProfilingTable

#: A short window, so a sequence of a few dozen steps crosses many.
WINDOW = 100
TYPES = ("a", "b", "c", "d", "e")
RATES = (0.001, 0.01, 0.25, 1.0)


class FoldEveryType(KernelProfilingTable):
    """The reference: every roll folds every type, in first-seen order."""

    def _roll(self, now: int) -> None:
        if now - self._published_at < self._window:
            return
        self.mutations += 1
        epoch = self.rank_epoch
        unpublished = self.unpublished
        for stats in self._stats.values():
            stats.accrue(now)
            before = stats.published_rate
            stats.close_window()
            if stats.published_rate != before:
                epoch += 1
                stats.rank_epoch = epoch
                if before is None:
                    unpublished -= 1
        self.rank_epoch = epoch
        self.unpublished = unpublished
        self._published_at = now - (now - self._published_at) % self._window


#: One step: (operation, kernel type, time advance, count or rate index).
steps = st.lists(
    st.tuples(
        st.sampled_from(("issue", "issue_many", "complete", "preempt",
                         "seed", "read")),
        st.sampled_from(TYPES),
        st.one_of(st.just(0), st.integers(1, WINDOW // 4),
                  st.integers(WINDOW - 2, 3 * WINDOW)),
        st.integers(0, 4)),
    min_size=1, max_size=80)


def _call(op, name, now, arg, in_flight):
    """The table call one step makes, kept valid by the in-flight counts,
    and the change it makes to ``name``'s count."""
    held = in_flight.get(name, 0)
    if op == "issue" or (op == "complete" and not held):
        return "on_wg_issued", (name, now), 1
    if op == "issue_many":
        return "on_wgs_issued", (name, arg, now), arg
    if op == "complete":
        return "record_wg_completion", (name, now), -1
    if op == "preempt":
        count = min(arg, held)
        return "on_wgs_preempted", (name, count, now), -count
    if op == "seed":
        return "seed_rate", (name, RATES[arg % len(RATES)]), 0
    return "completion_rate", (name, now), 0


def _state(table):
    """Everything a reader can observe of one type, except its epoch.

    ``last_transition`` counts only while a WG is in flight."""
    return {name: (stats.in_flight, stats.busy_ticks,
                   stats.window_completed, stats.ewma_rate,
                   stats.published_rate, stats.total_completed,
                   stats.last_transition if stats.in_flight else None)
            for name, stats in table._stats.items()}


@settings(max_examples=200, deadline=None)
@given(steps)
def test_in_flight_roll_matches_folding_every_type(sequence):
    table = KernelProfilingTable(WINDOW)
    reference = FoldEveryType(WINDOW)
    in_flight = {}
    epochs = {0}
    now = 0
    for op, name, advance, arg in sequence:
        now += advance
        method, args, change = _call(op, name, now, arg, in_flight)
        read = getattr(table, method)(*args)
        assert read == getattr(reference, method)(*args)
        in_flight[name] = in_flight.get(name, 0) + change
        assert _state(table) == _state(reference)
        assert table.rank_epoch == reference.rank_epoch
        assert table.unpublished == reference.unpublished
        assert table.mutations == reference.mutations
        epochs.add(table.rank_epoch)
        for epoch in sorted(epochs):
            assert (table.changed_kernels_since(epoch)
                    == reference.changed_kernels_since(epoch))


def test_idle_types_leave_the_roll():
    """A type whose WGs all finished is folded by the next roll and then
    dropped from the set later rolls fold; issuing brings it back."""
    table = KernelProfilingTable(WINDOW)
    table.on_wg_issued("a", 0)
    table.on_wg_issued("b", 0)
    table.record_wg_completion("a", 40)
    assert list(table._live) == ["a", "b"]
    table.roll(WINDOW)          # "a" publishes its rate and goes idle
    assert table.completion_rate("a", WINDOW) == 1 / 40
    assert list(table._live) == ["b"]
    table.on_wg_issued("a", WINDOW + 5)
    assert list(table._live) == ["b", "a"]
