"""Compute units: processor-sharing servers with occupancy limits.

Each CU models a GCN compute unit (Table 2): 4 SIMD units, 2560 thread
slots, 40 wavefront slots, 256 KB of vector registers and 64 KB of LDS.
Resident workgroups progress by **processor sharing**: with ``n`` resident
WGs, a WG whose kernel has CU-concurrency ``c`` advances at rate
``min(1, c / n)``.  Compute-bound kernels (``c = 4``, one per SIMD unit)
slow down past four residents; latency-bound kernels hide memory latency
and keep scaling to higher occupancy (``c`` up to the 10-wavefront slot
limit).  This contention behaviour is the signal LAX's workgroup-
completion-rate counters observe.

Timing is event-driven: the CU keeps one pending timer armed at the
earliest WG completion under the current rates; any residency change
re-syncs remaining work and re-arms the timer.

Two rate facts make the hot paths cheap without changing a single result
(``docs/performance.md`` walks through both):

* residents sharing a CU-concurrency value share one progress rate, so
  ``_sync`` computes ``dt * rate`` once per rate group and applies the
  same float to each member (bit-identical to computing it per WG), and
  ``_reschedule`` reduces the min-completion scan to one division per
  group (division by a positive rate is monotonic, so the minimum
  remaining work per group yields the exact same minimum delay);
* a batch of WGs admitted at one timestamp needs only one progress sync
  and one timer re-arm, so the dispatcher brackets its pump with
  :meth:`ComputeUnit.issue_wgs` / :meth:`ComputeUnit.flush_issue` instead
  of paying one O(residents) sync and re-arm per WG.
"""

from __future__ import annotations

import math
from typing import Callable, List, Optional

from ..config import GPUConfig
from ..errors import ResourceError, SimulationError
from .cu_arrays import NO_RESIDENTS
from .engine import EventHandle, Simulator
from .energy import EnergyMeter
from .kernel import KernelDescriptor, KernelInstance

#: Remaining work below this many ticks counts as finished (float slack).
_WORK_EPSILON = 0.5

class ResidentWG:
    """A workgroup resident on a CU with its remaining service demand."""

    __slots__ = ("kernel", "remaining", "threads", "wavefronts",
                 "vgpr_bytes", "lds_bytes", "concurrency", "bw_demand")

    def __init__(self, kernel: KernelInstance, wavefront_size: int) -> None:
        desc = kernel.descriptor
        self.kernel = kernel
        self.remaining = float(desc.wg_work)
        self.threads = desc.threads_per_wg
        self.wavefronts = desc.wavefronts_per_wg(wavefront_size)
        self.vgpr_bytes = desc.vgpr_bytes_per_wg
        self.lds_bytes = desc.lds_bytes_per_wg
        self.concurrency = desc.cu_concurrency
        self.bw_demand = desc.bw_demand


class ComputeUnit:
    """One processor-sharing compute unit."""

    def __init__(self, cu_id: int, sim: Simulator, config: GPUConfig,
                 energy: EnergyMeter,
                 on_wg_complete: Callable[[KernelInstance, int], None]) -> None:
        self.cu_id = cu_id
        self._sim = sim
        self._config = config
        self._energy = energy
        self._on_wg_complete = on_wg_complete
        # Capacity limits cached off the config: one source of truth for
        # the wavefront formula (GPUConfig.max_wavefronts_per_cu) shared
        # by can_accept / free_wavefronts / batch_capacity, and no
        # attribute chains on the per-WG placement path.
        self._wavefront_size = config.wavefront_size
        self._threads_limit = config.threads_per_cu
        self._wavefronts_limit = config.max_wavefronts_per_cu
        self._vgpr_limit = config.vgpr_bytes_per_cu
        self._lds_limit = config.lds_bytes_per_cu
        #: Invoked when held (context-save) resources free up, so the
        #: dispatcher can refill the capacity (set by the WG dispatcher).
        self.on_capacity_freed: Optional[Callable[[], None]] = None
        self._residents: List[ResidentWG] = []
        self._timer: Optional[EventHandle] = None
        self._last_sync = 0
        # True between issue_wgs and flush_issue: residents were added but
        # the completion timer has not been re-armed yet.
        self._issue_dirty = False
        # Occupancy accounting.
        self.used_threads = 0
        self.used_wavefronts = 0
        self.used_vgpr = 0
        self.used_lds = 0
        # Resources held by in-flight preemption context saves.
        self._held_threads = 0
        self._held_wavefronts = 0
        self._held_vgpr = 0
        self._held_lds = 0
        # Memory-bandwidth sharing (0 slice = model disabled).
        self._bw_slice = config.memory_bw_bytes_per_ns / config.num_cus
        self._bw_demand = 0.0
        #: Cumulative lane-ticks of executed work.
        self.work_done = 0.0
        #: Optional InvariantChecker auditing occupancy after every
        #: residency change (same off-path pattern as the trace sinks).
        self.validator = None
        # The dispatcher's occupancy rows this CU writes through to (None
        # until the dispatcher's first array pump attaches them) and the
        # maintained min resident CU-concurrency backing
        # free_full_rate_slots in array form.
        self._occ = None
        self._min_conc = NO_RESIDENTS
        # free_full_rate_slots memo, concurrency -> slots: a pure integer
        # function of the resident set, cleared at every residency change.
        self._slots: dict = {}

    # ------------------------------------------------------------------
    # Occupancy-array mirror
    # ------------------------------------------------------------------

    def attach_occupancy(self, occ) -> None:
        """Adopt the dispatcher's occupancy rows and seed this CU's.

        Called once, lazily, by the dispatcher's first array pump;
        from then on every residency/hold mutation writes the row through
        so the arrays always equal the scalar counters.
        """
        self._occ = occ
        self._recompute_min_conc()
        self._occ_write()

    def _occ_write(self) -> None:
        occ = self._occ
        if occ is None:
            return
        index = self.cu_id
        occ.free_threads[index] = (self._threads_limit - self.used_threads
                                   - self._held_threads)
        occ.free_wavefronts[index] = (self._wavefronts_limit
                                      - self.used_wavefronts
                                      - self._held_wavefronts)
        occ.free_vgpr[index] = (self._vgpr_limit - self.used_vgpr
                                - self._held_vgpr)
        occ.free_lds[index] = (self._lds_limit - self.used_lds
                               - self._held_lds)
        occ.loads[index] = len(self._residents)
        occ.min_conc[index] = self._min_conc

    def _recompute_min_conc(self) -> None:
        """Re-derive the min resident concurrency after evictions."""
        if self._occ is None:
            return
        residents = self._residents
        self._min_conc = (min(wg.concurrency for wg in residents)
                          if residents else NO_RESIDENTS)

    # ------------------------------------------------------------------
    # Capacity queries
    # ------------------------------------------------------------------

    @property
    def num_residents(self) -> int:
        """Workgroups currently resident."""
        return len(self._residents)

    def free_full_rate_slots(self, concurrency: int) -> int:
        """Additional WGs of CU-concurrency ``concurrency`` this CU could
        host with every resident still progressing at full rate.

        Conservative: bounded by the incoming kernel's own concurrency and
        by the residents' (adding beyond the smallest resident concurrency
        would slow that resident down).
        """
        cached = self._slots.get(concurrency)
        if cached is not None:
            return cached
        limit = concurrency
        for wg in self._residents:
            if wg.concurrency < limit:
                limit = wg.concurrency
        value = limit - len(self._residents)
        if value < 0:
            value = 0
        self._slots[concurrency] = value
        return value

    def free_threads(self) -> int:
        """Thread slots not used or held."""
        return self._threads_limit - self.used_threads - self._held_threads

    def free_wavefronts(self) -> int:
        """Wavefront slots not used or held."""
        return (self._wavefronts_limit
                - self.used_wavefronts - self._held_wavefronts)

    def can_accept(self, desc: KernelDescriptor) -> bool:
        """Whether one WG of ``desc`` fits in the free resources."""
        if desc.threads_per_wg > (self._threads_limit - self.used_threads
                                  - self._held_threads):
            return False
        wavefronts = desc.wavefronts_per_wg(self._wavefront_size)
        if wavefronts > (self._wavefronts_limit
                         - self.used_wavefronts - self._held_wavefronts):
            return False
        if desc.vgpr_bytes_per_wg > (self._vgpr_limit
                                     - self.used_vgpr - self._held_vgpr):
            return False
        return desc.lds_bytes_per_wg <= (self._lds_limit
                                         - self.used_lds - self._held_lds)

    def batch_capacity(self, desc: KernelDescriptor,
                       backfill_only: bool = False) -> int:
        """How many WGs of ``desc`` this CU could admit right now.

        Exactly the number of consecutive :meth:`can_accept` /
        :meth:`start_wg` rounds that would succeed: after ``k``
        admissions a resource with per-WG need ``need`` and current slack
        ``free`` accepts another WG iff ``(k + 1) * need <= free``, so
        the per-resource bound is ``free // need``.  With
        ``backfill_only`` the bound of :meth:`free_full_rate_slots` is
        applied on top (every admitted WG carries ``desc.cu_concurrency``,
        so that limit is fixed for the whole batch).
        """
        cap = ((self._threads_limit - self.used_threads
                - self._held_threads) // desc.threads_per_wg)
        wavefronts = desc.wavefronts_per_wg(self._wavefront_size)
        bound = ((self._wavefronts_limit - self.used_wavefronts
                  - self._held_wavefronts) // wavefronts)
        if bound < cap:
            cap = bound
        if desc.vgpr_bytes_per_wg > 0:
            bound = ((self._vgpr_limit - self.used_vgpr
                      - self._held_vgpr) // desc.vgpr_bytes_per_wg)
            if bound < cap:
                cap = bound
        if desc.lds_bytes_per_wg > 0:
            bound = ((self._lds_limit - self.used_lds
                      - self._held_lds) // desc.lds_bytes_per_wg)
            if bound < cap:
                cap = bound
        if backfill_only:
            bound = self.free_full_rate_slots(desc.cu_concurrency)
            if bound < cap:
                cap = bound
        return cap if cap > 0 else 0

    # ------------------------------------------------------------------
    # WG lifecycle
    # ------------------------------------------------------------------

    def start_wg(self, kernel: KernelInstance) -> None:
        """Place one WG of ``kernel`` on this CU (checked single issue)."""
        desc = kernel.descriptor
        if not self.can_accept(desc):
            raise ResourceError(
                f"CU{self.cu_id} cannot accept WG of {desc.name}")
        self.issue_wgs(kernel, 1)
        self.flush_issue()

    def issue_wgs(self, kernel: KernelInstance, count: int) -> None:
        """Admit ``count`` WGs of ``kernel`` as one batch (no timer re-arm).

        The batched dispatcher has already solved placement against
        :meth:`batch_capacity`, so no per-WG fit check is repeated here;
        accrued progress is synced once at the old rates and the
        completion timer is left stale until :meth:`flush_issue` re-arms
        it.  Issuing B WGs this way costs one O(residents) sync + one
        reschedule instead of B of each.  Every pump must pair this with
        ``flush_issue`` before the event returns.
        """
        if count <= 0:
            return
        self._sync()
        if self._slots:
            self._slots.clear()
        desc = kernel.descriptor
        now = self._sim.now
        wavefront_size = self._wavefront_size
        residents = self._residents
        note_issued = kernel.note_wg_issued
        wg = None
        for _ in range(count):
            wg = ResidentWG(kernel, wavefront_size)
            residents.append(wg)
            self._bw_demand += wg.bw_demand
            note_issued(now)
        self.used_threads += desc.threads_per_wg * count
        self.used_wavefronts += wg.wavefronts * count
        self.used_vgpr += desc.vgpr_bytes_per_wg * count
        self.used_lds += desc.lds_bytes_per_wg * count
        if self._occ is not None:
            if wg.concurrency < self._min_conc:
                self._min_conc = wg.concurrency
            self._occ_write()
        self._issue_dirty = True

    def flush_issue(self) -> None:
        """Re-arm the completion timer after an :meth:`issue_wgs` batch."""
        if self._issue_dirty:
            self._issue_dirty = False
            self._reschedule()
            if self.validator is not None:
                self.validator.on_cu_update(self)

    def preempt_kernel(self, kernel: KernelInstance, hold_time: int) -> int:
        """Evict all resident WGs of ``kernel``; their progress is lost.

        The evicted WGs' resources stay *held* for ``hold_time`` ticks to
        model the context-save traffic, then free up.  Returns the number
        of WGs evicted.
        """
        self._sync()
        evicted = [wg for wg in self._residents if wg.kernel is kernel]
        if not evicted:
            return 0
        if self._slots:
            self._slots.clear()
        self._residents = [wg for wg in self._residents if wg.kernel is not kernel]
        for wg in evicted:
            self._bw_demand -= wg.bw_demand
        held_threads = sum(wg.threads for wg in evicted)
        held_wavefronts = sum(wg.wavefronts for wg in evicted)
        held_vgpr = sum(wg.vgpr_bytes for wg in evicted)
        held_lds = sum(wg.lds_bytes for wg in evicted)
        self.used_threads -= held_threads
        self.used_wavefronts -= held_wavefronts
        self.used_vgpr -= held_vgpr
        self.used_lds -= held_lds
        for wg in evicted:
            wg.kernel.note_wg_preempted()
        if hold_time > 0:
            self._held_threads += held_threads
            self._held_wavefronts += held_wavefronts
            self._held_vgpr += held_vgpr
            self._held_lds += held_lds
            self._sim.schedule(hold_time, self._release_hold, held_threads,
                               held_wavefronts, held_vgpr, held_lds)
        if self._occ is not None:
            self._recompute_min_conc()
            self._occ_write()
        self._reschedule()
        if self.validator is not None:
            self.validator.on_cu_update(self)
        return len(evicted)

    def residents_of(self, kernel: KernelInstance) -> int:
        """Count of resident WGs belonging to ``kernel``."""
        return sum(1 for wg in self._residents if wg.kernel is kernel)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _release_hold(self, threads: int, wavefronts: int, vgpr: int,
                      lds: int) -> None:
        self._held_threads -= threads
        self._held_wavefronts -= wavefronts
        self._held_vgpr -= vgpr
        self._held_lds -= lds
        if min(self._held_threads, self._held_wavefronts,
               self._held_vgpr, self._held_lds) < 0:
            raise SimulationError(f"CU{self.cu_id} hold accounting underflow")
        self._occ_write()
        if self.validator is not None:
            self.validator.on_cu_update(self)
        if self.on_capacity_freed is not None:
            self.on_capacity_freed()

    def _bw_factor(self) -> float:
        """Shared bandwidth throttle on every resident's rate (1.0 = off)."""
        if self._bw_slice > 0.0 and self._bw_demand > self._bw_slice:
            return self._bw_slice / self._bw_demand
        return 1.0

    def _sync(self) -> None:
        """Apply progress accrued since the last sync at the old rates.

        Run-length grouping: residents arrive kernel-major, so
        same-concurrency WGs sit in consecutive runs and ``dt * rate`` is
        computed once per run and applied to every member.  A repeat of
        an earlier concurrency recomputes the identical float (same
        deterministic expression), so every WG sees exactly the progress
        a per-WG evaluation would give it, and the lane-time sum runs
        left to right over the residents.
        """
        now = self._sim.now
        dt = now - self._last_sync
        residents = self._residents
        if dt > 0 and residents:
            lane_time = 0.0
            n = len(residents)
            factor = self._bw_factor()
            last_c = 0
            progress = 0.0
            for wg in residents:
                c = wg.concurrency
                if c != last_c:
                    rate = 1.0 if n <= c else c / n
                    if factor != 1.0:
                        rate *= factor
                    progress = dt * rate
                    last_c = c
                wg.remaining -= progress
                lane_time += progress
            self.work_done += lane_time
            self._energy.add_lane_time(lane_time)
        self._last_sync = now

    def _reschedule(self) -> None:
        """Re-arm the completion timer at the earliest WG completion.

        Min completion per rate run: comparisons find the least remaining
        work of each consecutive same-concurrency run, then one division
        per run.  Division by a positive rate is monotonic, so each run's
        minimum delay, and the overall minimum, is the exact float a
        per-WG scan would select.
        """
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        residents = self._residents
        if not residents:
            return
        min_delay: Optional[float] = None
        n = len(residents)
        factor = self._bw_factor()
        last_c = 0
        rate = 1.0
        run_min = 0.0
        for wg in residents:
            c = wg.concurrency
            if c != last_c:
                if last_c:
                    delay = run_min / rate
                    if min_delay is None or delay < min_delay:
                        min_delay = delay
                rate = 1.0 if n <= c else c / n
                if factor != 1.0:
                    rate *= factor
                last_c = c
                run_min = wg.remaining
            else:
                remaining = wg.remaining
                if remaining < run_min:
                    run_min = remaining
        delay = run_min / rate
        if min_delay is None or delay < min_delay:
            min_delay = delay
        if min_delay <= _WORK_EPSILON:
            ticks = 0
        else:
            ticks = max(1, math.ceil(min_delay))
        self._timer = self._sim.schedule(ticks, self._on_timer)

    def _on_timer(self) -> None:
        """Drain a completion timer in one pass over the residents.

        Fuses :meth:`_sync`'s run-length progress application with the
        finished/survivor partition: every float operation (``c / n``,
        the bandwidth factor multiply, ``dt * rate``, the subtraction and
        the left-to-right ``lane_time`` sum) is :meth:`_sync`'s own
        expression in the same order, and the partition preserves
        resident order, so completions fire in resident order.
        """
        self._timer = None
        now = self._sim.now
        dt = now - self._last_sync
        residents = self._residents
        finished = None
        if dt > 0:
            n = len(residents)
            factor = self._bw_factor()
            lane_time = 0.0
            last_c = 0
            progress = 0.0
            for wg in residents:
                c = wg.concurrency
                if c != last_c:
                    rate = 1.0 if n <= c else c / n
                    if factor != 1.0:
                        rate *= factor
                    progress = dt * rate
                    last_c = c
                rem = wg.remaining - progress
                wg.remaining = rem
                lane_time += progress
                if rem <= _WORK_EPSILON:
                    if finished is None:
                        finished = [wg]
                    else:
                        finished.append(wg)
            self.work_done += lane_time
            self._energy.add_lane_time(lane_time)
        else:
            for wg in residents:
                if wg.remaining <= _WORK_EPSILON:
                    if finished is None:
                        finished = [wg]
                    else:
                        finished.append(wg)
        self._last_sync = now
        if finished is None:
            # Rates changed between arming and firing; just re-arm.
            self._reschedule()
            return
        if len(finished) == len(residents):
            self._residents = []
        else:
            self._residents = [wg for wg in residents
                               if wg.remaining > _WORK_EPSILON]
        if self._slots:
            self._slots.clear()
        for wg in finished:
            self._bw_demand -= wg.bw_demand
            self.used_threads -= wg.threads
            self.used_wavefronts -= wg.wavefronts
            self.used_vgpr -= wg.vgpr_bytes
            self.used_lds -= wg.lds_bytes
        if self._occ is not None:
            self._recompute_min_conc()
            self._occ_write()
        self._reschedule()
        if self.validator is not None:
            self.validator.on_cu_update(self)
        for wg in finished:
            self._on_wg_complete(wg.kernel, now)
