"""Kernel Profiling Table: per-kernel-type WG completion rates.

LAX's central performance counter (Section 4.2): the device tracks, for
each kernel *type*, the device-wide workgroup completion rate (WGs per
tick).  Dividing a kernel's remaining WG count by this rate gives the time
the device needs to chew through that kernel under **current contention**
— the quantity both the laxity estimate (Equation 1 / Algorithm 2) and the
Little's-Law queuing-delay model (Algorithm 1) consume.

Measurement model.  The counter pairs each kernel type's completion count
with the wall time during which WGs of that type were actually in flight
(*busy time*), and estimates ``rate = completions / busy_time`` per
profiling window.  Normalising by busy time rather than the whole window
matters for bursty offered load: after a congested phase drains, a
wall-clock average would be diluted by idle time and permanently
under-estimate throughput (rejecting work forever), while the busy-time
rate remains the true drain rate Little's Law needs.  The hardware cost is
one extra in-flight counter and timestamp per kernel type.

Publication model.  Per Section 4.2 the table is "periodically updated
(empirically set at 100 us) to reflect the GPU's contention conditions":
readers see a value republished from the live estimate once per window.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..errors import ConfigError, SimulationError

#: EWMA weight of one window observation.
_WINDOW_ALPHA = 0.4


class _KernelStats:
    """Mutable per-kernel-type counter state."""

    __slots__ = ("in_flight", "last_transition", "busy_ticks",
                 "window_completed", "ewma_rate", "published_rate",
                 "total_completed", "rank_epoch")

    def __init__(self) -> None:
        self.in_flight = 0
        self.last_transition = 0
        #: Busy ticks accumulated in the open window.
        self.busy_ticks = 0
        #: Completions in the open window.
        self.window_completed = 0
        #: Smoothed busy-period throughput, WGs per tick.
        self.ewma_rate: Optional[float] = None
        #: Value readers see (republished once per window).
        self.published_rate: Optional[float] = None
        self.total_completed = 0
        #: Table-wide :attr:`KernelProfilingTable.rank_epoch` at which this
        #: type's *published* value last changed.
        self.rank_epoch = 0

    def accrue(self, now: int) -> None:
        """Fold busy time since the last in-flight transition."""
        if self.in_flight > 0:
            self.busy_ticks += now - self.last_transition
        self.last_transition = now

    def close_window(self) -> None:
        """Fold the open window's observation into the EWMA.

        A window with no completions does NOT reset the busy-time
        accumulator: a long-running kernel spans several windows busy but
        only completes in the last one, and its rate must be computed over
        the whole busy span, not just the final window's slice.  The
        symmetric guard also holds — completions with no recorded busy time
        (a completion landing exactly on a window boundary, whose busy time
        closed with the previous window) carry forward rather than produce
        a divide-by-nothing rate spike.
        """
        if self.window_completed > 0 and self.busy_ticks > 0:
            observed = self.window_completed / self.busy_ticks
            if self.ewma_rate is None:
                self.ewma_rate = observed
            else:
                self.ewma_rate = (_WINDOW_ALPHA * observed
                                  + (1.0 - _WINDOW_ALPHA) * self.ewma_rate)
            self.busy_ticks = 0
            self.window_completed = 0
        if self.ewma_rate is not None:
            self.published_rate = self.ewma_rate

    def live_estimate(self) -> Optional[float]:
        """Best estimate including the open window (cold-start reads)."""
        if self.window_completed > 0 and self.busy_ticks > 0:
            return self.window_completed / self.busy_ticks
        return self.ewma_rate


class KernelProfilingTable:
    """Per-kernel-type WG completion rates, published per 100 us window."""

    def __init__(self, window: int, smoothing: float = _WINDOW_ALPHA) -> None:
        if window <= 0:
            raise ConfigError("profiling window must be positive")
        if not 0.0 < smoothing <= 1.0:
            raise ConfigError("smoothing must be in (0, 1]")
        self._window = window
        self._stats: Dict[str, _KernelStats] = {}
        #: The types a window roll must fold: those with WGs in flight or
        #: completions in the open window, in the order they (re)joined.
        #: Issue adds a type (a completing type has WGs in flight, so it
        #: is already here); a roll that finds both counters at zero
        #: drops it.  For every other type ``accrue`` plus
        #: ``close_window`` would change only ``last_transition``, which
        #: nothing reads while ``in_flight`` is 0 (the next issue
        #: re-stamps it), so the roll costs O(types with activity), not
        #: O(types ever seen).
        self._live: Dict[str, _KernelStats] = {}
        self._published_at = 0
        #: Bumped whenever a *published* rate changes (window roll or
        #: :meth:`seed_rate`).  Published values are the only table output
        #: that stays constant between rolls, so a reader that cached an
        #: estimate derived from them can reuse it while this counter (and
        #: the job's own WG counts) stand still.  See
        #: :class:`repro.core.laxity.RemainingTimeCache`.
        self.rank_epoch = 0
        #: Bumped on *every* state change (issue / completion / preemption /
        #: seed / window roll).  Types that have stats but no published rate
        #: yet expose a live partial-window estimate that moves with these
        #: events, so caches key their per-timestamp sync on this counter.
        self.mutations = 0
        #: Number of kernel types with stats but no published rate (their
        #: ``completion_rate`` is the time-varying live estimate).
        self.unpublished = 0

    @property
    def window(self) -> int:
        """Publication period in ticks (the paper's 100 us)."""
        return self._window

    def _get(self, kernel_name: str) -> _KernelStats:
        stats = self._stats.get(kernel_name)
        if stats is None:
            stats = self._stats[kernel_name] = _KernelStats()
            self.unpublished += 1
        return stats

    # ------------------------------------------------------------------
    # Device feedback
    # ------------------------------------------------------------------

    def on_wg_issued(self, kernel_name: str, now: int) -> None:
        """A WG of ``kernel_name`` started executing."""
        self.mutations += 1
        self._roll(now)
        stats = self._get(kernel_name)
        stats.accrue(now)
        stats.in_flight += 1
        self._live[kernel_name] = stats

    def on_wgs_issued(self, kernel_name: str, count: int, now: int) -> None:
        """``count`` WGs of ``kernel_name`` started executing at ``now``.

        State-identical to ``count`` calls of :meth:`on_wg_issued` at the
        same timestamp: after the first call the window roll and busy-time
        accrual are no-ops (``now`` has not advanced), so only the
        in-flight counter keeps moving.
        """
        if count <= 0:
            return
        self.mutations += 1
        self._roll(now)
        stats = self._get(kernel_name)
        stats.accrue(now)
        stats.in_flight += count
        self._live[kernel_name] = stats

    def record_wg_completion(self, kernel_name: str, now: int) -> None:
        """A WG of ``kernel_name`` finished."""
        self.mutations += 1
        self._roll(now)
        stats = self._get(kernel_name)
        # accrue(), inlined: one call per WG completion.
        if stats.in_flight > 0:
            stats.busy_ticks += now - stats.last_transition
        else:
            raise SimulationError(
                f"profiler in-flight underflow for {kernel_name}")
        stats.last_transition = now
        stats.in_flight -= 1
        stats.window_completed += 1
        stats.total_completed += 1

    def on_wgs_preempted(self, kernel_name: str, count: int,
                         now: int) -> None:
        """``count`` WGs of ``kernel_name`` were evicted before finishing."""
        if count <= 0:
            return
        self.mutations += 1
        self._roll(now)
        stats = self._get(kernel_name)
        stats.accrue(now)
        if stats.in_flight < count:
            raise SimulationError(
                f"profiler preemption underflow for {kernel_name}")
        stats.in_flight -= count

    def seed_rate(self, kernel_name: str, rate: float) -> None:
        """Pre-load a completion-rate estimate (offline profiling).

        Used by warm-started schedulers: an offline calibration pass (or a
        previous serving epoch) supplies per-kernel-type rates so admission
        is not blind during the first completions.  Live observations then
        update the estimate as usual.
        """
        if rate <= 0.0:
            raise ConfigError("seeded rate must be positive")
        stats = self._get(kernel_name)
        if stats.published_rate is None:
            self.unpublished -= 1
        stats.ewma_rate = rate
        if stats.published_rate != rate:
            self.mutations += 1
            self.rank_epoch += 1
            stats.rank_epoch = self.rank_epoch
        stats.published_rate = rate

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def completion_rate(self, kernel_name: str, now: int) -> Optional[float]:
        """Published rate estimate in WGs per tick, or None if unknown.

        Before the first publication the live (partial-window) estimate is
        exposed so cold-start admission is not blind for a full window.
        """
        self._roll(now)
        stats = self._stats.get(kernel_name)
        if stats is None:
            return None
        if stats.published_rate is not None:
            return stats.published_rate
        stats.accrue(now)
        return stats.live_estimate()

    def total_completed(self, kernel_name: str) -> int:
        """Lifetime WG completions of ``kernel_name``."""
        stats = self._stats.get(kernel_name)
        return stats.total_completed if stats is not None else 0

    def known_kernels(self) -> int:
        """Number of kernel types with any observation."""
        return len(self._stats)

    # ------------------------------------------------------------------
    # Window roll
    # ------------------------------------------------------------------

    def roll(self, now: int) -> None:
        """Publish any window(s) that have closed by ``now``.

        Every read path rolls implicitly; this public form lets epoch-based
        readers fold pending publications *before* deciding which cached
        estimates survived the window boundary.  Idempotent per timestamp.
        """
        self._roll(now)

    def changed_kernels_since(self, rank_epoch: int):
        """Kernel types whose estimate may differ from ``rank_epoch``'s.

        A type qualifies when its published rate changed after the given
        epoch, or when it has no published rate yet — the live
        partial-window estimate moves with time and device feedback, so
        such *volatile* types are always reported.
        """
        return [name for name, stats in self._stats.items()
                if stats.rank_epoch > rank_epoch
                or stats.published_rate is None]

    def _roll(self, now: int) -> None:
        """Close the open window if it has ended by ``now``.

        Folds only the types in ``_live`` (see ``__init__``), so the
        per-type epochs of one roll follow the order types joined that
        set rather than first-seen order.  Nothing compares them except
        against table-wide :attr:`rank_epoch` snapshots, which fall
        before or after the whole roll.
        """
        if now - self._published_at < self._window:
            return
        self.mutations += 1
        epoch = self.rank_epoch
        unpublished = self.unpublished
        live = self._live
        idle = []
        for name, stats in live.items():
            stats.accrue(now)
            before = stats.published_rate
            stats.close_window()
            after = stats.published_rate
            if after != before:
                epoch += 1
                stats.rank_epoch = epoch
                if before is None:
                    unpublished -= 1
            if not stats.in_flight and not stats.window_completed:
                idle.append(name)
        for name in idle:
            del live[name]
        self.rank_epoch = epoch
        self.unpublished = unpublished
        self._published_at = now - (now - self._published_at) % self._window
