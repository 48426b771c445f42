"""Workgroup dispatcher (the GPU's WG scheduler).

The dispatcher owns the set of *active* kernels — launches the CP has
handed over — and fills free CU slots with their workgroups.  On every
state change (kernel activated, WG completed, preemption hold released) it
runs a *pump*: it asks the scheduling policy to rank the active kernels,
then walks the ranking issuing pending WGs to the least-loaded CU that can
accept them, until nothing more fits.

Pumps triggered inside one event timestamp are coalesced into a single
delay-0 event so bursts of WG completions cost one ranking pass.

Every pump places WGs through one routine, :meth:`WGDispatcher._place`:
it solves a kernel's placement against each CU's integer capacity
(:meth:`ComputeUnit.batch_capacity`), admits every WG bound for a CU in
one :meth:`ComputeUnit.issue_wgs` call, and leaves each touched CU's
timer to be re-armed exactly once via :meth:`ComputeUnit.flush_issue` —
in the order a per-WG issue loop's surviving timer pushes would have
happened, so the event heap's FIFO tie-breaking is that of issuing one
WG at a time.  ``docs/performance.md`` has the argument in full.
Every pump solves capacity only on the *open* CUs
(:meth:`WGDispatcher._open_cus`) — those with a free wavefront slot and
as many free threads as the smallest WG that could be pending needs;
none open ends the pump at once.  The three pumps differ only in how
they walk the ranking:

* :meth:`~WGDispatcher._pump_single` — one pending kernel (the
  streaming common case): no ranking at all;
* :meth:`~WGDispatcher._pump_batched` — the general scalar walk over
  the policy's ranking;
* :meth:`~WGDispatcher._pump_bucketed` — policies that rank with the
  base ``issue_order``, at :data:`_BUCKETED_MIN_ACTIVE` active kernels
  and above: a standing shape-bucketed issue order replaces the
  per-pump ranking.

The standing order outlives priority rewrites: a rewrite (the LAX and
SRF ticks, the host's priority-register writes) or a cancellation only
marks its keys stale, and the next bucketed pump re-keys it in place
(:meth:`~WGDispatcher._refresh_order`).  Only preemption, which can
re-pend a consumed head, and crossing below the gate drop it.

Policies with their own ``issue_order`` (RR, MLFQ, PREMA) take the two
scalar pumps at every population, as do base-order policies below the
gate.
"""

from __future__ import annotations

import heapq
import math
from bisect import insort
from typing import Callable, List, Optional, Sequence, TYPE_CHECKING

from ..config import GPUConfig
from ..errors import SimulationError
from .compute_unit import ComputeUnit
from .engine import Simulator
from .energy import EnergyMeter
from .kernel import KernelInstance

#: "No kernel seen yet" floor for the monotone threads/WG lower bound.
_HUGE = 2 ** 62

#: Active-kernel count below which the scalar pumps beat the standing
#: order (its re-keys and heap merge cost more than re-ranking a tiny
#: active set).  Streaming cells that retire jobs hold ~50 active kernels
#: and stay scalar; backlogged fleet cells cross over at once.  Both sides
#: make the same decisions, so the gate is purely a cost model.
_BUCKETED_MIN_ACTIVE = 64

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..schedulers.base import SchedulerPolicy


class WGDispatcher:
    """Fills CU slots from active kernels in policy order."""

    def __init__(self, sim: Simulator, gpu_config: GPUConfig,
                 energy: EnergyMeter) -> None:
        self._sim = sim
        self._config = gpu_config
        self.cus: List[ComputeUnit] = [
            ComputeUnit(cu_id, sim, gpu_config, energy,
                        self._completion_sink(cu_id))
            for cu_id in range(gpu_config.num_cus)
        ]
        for cu in self.cus:
            cu.on_capacity_freed = self.request_pump
        #: Active kernels in activation order.  Dict-as-set, so the
        #: duplicate check and the completion and cancel removals are
        #: O(1) at fleet populations of hundreds of kernels.
        self._active: dict = {}
        #: Standing pending set: active kernels with WGs left to issue,
        #: in activation order, so pumps never re-scan the active set.
        #: Dict-as-set for O(1) membership plus insertion order.  Appends
        #: mirror ``add_kernel``; preemption, the only path that re-pends
        #: a consumed kernel, rebuilds it from the active set.
        self._pending_set: dict = {}
        self._policy: Optional["SchedulerPolicy"] = None
        self._pump_pending = False
        #: Callback into the CP: a WG of ``kernel`` completed at ``now``.
        self.on_wg_complete: Optional[Callable[[KernelInstance, int], None]] = None
        #: Profiling table fed with issue/preempt events (set by GPUSystem;
        #: completions reach it through the CP).
        self.profiler = None
        #: Optional TraceRecorder mirroring WG/preemption events.
        self.trace = None
        #: Optional InvariantChecker auditing WG conservation after every
        #: pump / preemption / cancel (same off-path pattern as ``trace``).
        self.validator = None
        #: Total WGs issued to CUs (diagnostics; includes re-issues).
        self.wgs_issued = 0
        #: Total preemption evictions performed.
        self.wgs_preempted = 0
        # Bucketed-pump state: a monotone lower bound on threads/WG over
        # every kernel ever activated, the pump's open-CU bound.
        self._min_threads_seen = _HUGE
        self._base_order = False
        self._issue_key = None
        #: Standing issue order for the bucketed pump: resource
        #: shape -> [head_index, sorted [(issue_key, kernel), ...]], or
        #: ``None`` when none stands (before the first bucketed pump and
        #: after a drop).  ``_order_stale`` says its keys may be out of
        #: date or a bucket may hold a kernel that is no longer pending:
        #: priority rewrites (:meth:`invalidate_order`) and cancellation
        #: set it, and the next bucketed pump re-keys the order in place
        #: (:meth:`_refresh_order`).  Preemption, which can make a
        #: consumed head pending again, and crossing below the gate drop
        #: the order instead (:meth:`_drop_order`).
        self._order_buckets: Optional[dict] = None
        self._order_stale = True
        #: Bucketed-pump accounting (diagnostics; cheap integer adds):
        #: from-scratch builds of the order, in-place re-keys of a stale
        #: one, drops while an order stood, and merge pumps run.
        self.order_rebuilds = 0
        self.order_refreshes = 0
        self.order_drops = 0
        self.bucketed_pumps = 0

    def attach_policy(self, policy: "SchedulerPolicy") -> None:
        """Set the ranking policy; must happen before any activation."""
        self._policy = policy
        # The bucketed pump (a heap merge over a standing sorted order)
        # serves only policies that use the base issue_order — a pure
        # sort on default_issue_key, whose (job_id, kernel.index) suffix
        # makes every key unique, so merge pop order equals sorted order
        # exactly.  Overriding policies (RR, MLFQ, PREMA) keep their own
        # ranking verbatim.
        from ..schedulers.base import SchedulerPolicy, default_issue_key
        self._base_order = (type(policy).issue_order
                            is SchedulerPolicy.issue_order)
        self._issue_key = default_issue_key

    # ------------------------------------------------------------------
    # Kernel set
    # ------------------------------------------------------------------

    @property
    def active_kernels(self) -> Sequence[KernelInstance]:
        """Kernels currently eligible for WG issue."""
        return tuple(self._active)

    def add_kernel(self, kernel: KernelInstance) -> None:
        """Activate a kernel launch (CP handed it over)."""
        active = self._active
        if kernel in active:
            raise SimulationError(f"kernel {kernel!r} activated twice")
        kernel.mark_active(self._sim.now)
        # Maintained on every activation (one compare on a cold path) so
        # the bucketed pump never leaves out a CU that could admit work.
        threads = kernel.descriptor.threads_per_wg
        if threads < self._min_threads_seen:
            self._min_threads_seen = threads
        active[kernel] = None
        if kernel.descriptor.num_wgs > kernel.wgs_issued:
            self._pending_set[kernel] = None
        buckets = self._order_buckets
        if buckets is not None:
            self._bucket_insert(buckets, kernel)
        self.request_pump()

    def request_pump(self) -> None:
        """Schedule a pump at the current timestamp (coalesced)."""
        if not self._pump_pending:
            self._pump_pending = True
            self._sim.schedule(0, self._pump)

    # ------------------------------------------------------------------
    # Preemption (PREMA)
    # ------------------------------------------------------------------

    def preempt_kernel(self, kernel: KernelInstance, hold_time: int) -> int:
        """Evict every resident WG of ``kernel`` across all CUs.

        Evicted WGs return to the kernel's pending pool and re-execute from
        scratch; their CU resources stay held for ``hold_time`` ticks to
        model context-save traffic.  Returns the eviction count.
        """
        evicted = 0
        for cu in self.cus:
            evicted += cu.preempt_kernel(kernel, hold_time)
        self.wgs_preempted += evicted
        if evicted:
            # Eviction refills the kernel's pending pool, so a bucket head
            # consumed as "fully issued" may be pending again.
            self._drop_order()
            # Rebuild (rather than append to) the pending set: a kernel
            # re-pended out of order must re-enter at its activation
            # position.
            self._pending_set = {
                k: None for k in self._active
                if k.descriptor.num_wgs > k.wgs_issued}
            if self.profiler is not None:
                self.profiler.on_wgs_preempted(kernel.name, evicted,
                                               self._sim.now)
            if self.trace is not None:
                self.trace.emit(self._sim.now, "preemption",
                                job_id=kernel.job.job_id,
                                kernel=kernel.name, detail=evicted)
            self.request_pump()
        if self.validator is not None:
            self.validator.on_dispatch(self)
        return evicted

    def resident_wgs(self, kernel: KernelInstance) -> int:
        """Resident WG count of ``kernel`` across the device."""
        return sum(cu.residents_of(kernel) for cu in self.cus)

    def cancel_kernel(self, kernel: KernelInstance) -> None:
        """Drop an active kernel entirely (its job was late-rejected).

        Resident WGs are evicted with no context save (the results are
        discarded, not resumed) and the kernel leaves the active set.
        """
        for cu in self.cus:
            evicted = cu.preempt_kernel(kernel, hold_time=0)
            if evicted:
                if self.profiler is not None:
                    self.profiler.on_wgs_preempted(kernel.name, evicted,
                                                   self._sim.now)
                if self.trace is not None:
                    self.trace.emit(self._sim.now, "preemption",
                                    job_id=kernel.job.job_id,
                                    kernel=kernel.name, detail=evicted)
        self._active.pop(kernel, None)
        self._pending_set.pop(kernel, None)
        # The kernel leaves the active set while still pending; the next
        # refresh drops it from its bucket rather than this searching it.
        self.invalidate_order()
        self.request_pump()
        if self.validator is not None:
            self.validator.on_dispatch(self)

    def invalidate_order(self) -> None:
        """Mark the standing issue order's keys stale.

        Must be called by any code that rewrites ``job.priority`` while
        the job's kernels are active — the scheduler ticks (LAX, SRF) and
        the host's priority-register writes do; admission-time initial
        priorities precede kernel activation and need not.  Cancellation
        calls it too.  The order is kept: the next bucketed pump re-keys
        it in place (:meth:`_refresh_order`).  One attribute store, so
        every tick can afford it, with or without an order standing.
        """
        self._order_stale = True

    def _drop_order(self) -> None:
        """Drop the standing issue order; the next bucketed pump builds
        a new one from the pending set.  Counted only if one stood."""
        if self._order_buckets is not None:
            self.order_drops += 1
            self._order_buckets = None
        self._order_stale = True

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _completion_sink(self, cu_id: int) -> Callable[[KernelInstance, int], None]:
        """Per-CU completion callback so traces can attribute the CU."""
        def sink(kernel: KernelInstance, now: int) -> None:
            self._wg_completed(kernel, now, cu_id)
        return sink

    def _wg_completed(self, kernel: KernelInstance, now: int,
                      cu_id: Optional[int] = None) -> None:
        if self.on_wg_complete is None:
            raise SimulationError("dispatcher has no completion sink")
        # wg_events checked here so disabled WG tracing costs nothing on
        # this per-workgroup path.
        if self.trace is not None and self.trace.wg_events:
            self.trace.emit(now, "wg_complete", job_id=kernel.job.job_id,
                            kernel=kernel.name, cu=cu_id)
        finished = kernel.note_wg_completed(now)
        if finished:
            del self._active[kernel]
        self.on_wg_complete(kernel, now)
        self.request_pump()

    def _pump(self) -> None:
        self._pump_pending = False
        self._pump_once()
        if self.validator is not None:
            self.validator.on_dispatch(self)

    def _pump_once(self) -> None:
        if not self._pending_set:
            # Nothing has WGs left to issue.  (No cache to drop — an idle
            # pump never consumes standing-order heads.)
            return
        if self._base_order and len(self._active) >= _BUCKETED_MIN_ACTIVE:
            # The monotone threads/WG bound replaces the pending list
            # copy, and the standing shape-bucketed order the per-pump
            # ranking pass.
            cus = self._open_cus(self._min_threads_seen)
            if cus:
                self._pump_bucketed(cus)
            return
        if self._order_buckets is not None:
            # Crossing below the gate: the scalar pumps issue WGs without
            # consuming bucket heads, so drop the order rather than let
            # it greet the next crossing back up.
            self._drop_order()
        pending = list(self._pending_set)
        cus = self._open_cus(
            min(k.descriptor.threads_per_wg for k in pending))
        if not cus:
            return
        if self._policy is None:
            raise SimulationError("dispatcher has no policy attached")
        if len(pending) == 1 and not self._policy.filtering_issue:
            self._pump_single(pending[0], cus)
        else:
            self._pump_batched(pending, cus)

    def _open_cus(self, min_threads: int) -> List[ComputeUnit]:
        """The CUs a pump solves capacity on, in device order.

        Those with a free wavefront slot and ``min_threads`` free thread
        slots.  ``min_threads`` must not exceed any pending kernel's
        threads/WG, so every CU left out has zero capacity for every
        pending kernel — and resources only shrink within a pump — so
        it could never be picked, and the least-loaded/first-index
        picks and the ``issue_wgs`` and ``touched`` orders over this
        list are those over every CU.  An empty list ends the pump.
        The scalar pumps pass the min over the pending kernels.  The
        bucketed pump passes the monotone bound over every kernel ever
        activated, which needs no pending list and can keep a CU the
        pending min would not — that only costs capacity solves that
        come back zero, never a different decision.
        """
        return [cu for cu in self.cus
                if cu.free_wavefronts() > 0
                and cu.free_threads() >= min_threads]

    def _place(self, kernel: KernelInstance, cus: List[ComputeUnit],
               caps: List[int], loads: List[int],
               touched: List[ComputeUnit]) -> int:
        """Issue up to ``kernel.wgs_pending`` WGs of ``kernel``.

        The one WG placement loop every pump shares.  ``cus`` is the
        pump's open CUs (:meth:`_open_cus`).  ``caps[i]`` is how
        many WGs of the kernel ``cus[i]`` can still admit and
        ``loads[i]`` its resident count; both are decremented/incremented
        in place as WGs are placed, so a pump carries them across
        kernels.  Each WG goes to the least-loaded CU with capacity,
        first CU on a tie — the pick a per-WG loop over ``can_accept``
        makes.  The placement is then committed per CU: ``issue_wgs`` in
        first-pick order (the order a per-WG loop would first sync each
        CU's progress) and ``touched`` reordered by last pick (the order
        its surviving timer pushes would happen), so the caller's final
        ``flush_issue`` pass preserves the event heap's FIFO ties.  Then
        the issue counter, profiler and trace hooks and
        ``mark_running``.  Returns the number of WGs issued.
        """
        num_cus = len(cus)
        want = kernel.wgs_pending
        wg_trace = (self.trace
                    if self.trace is not None and self.trace.wg_events
                    else None)
        assigned = [0] * num_cus
        first_pick = [-1] * num_cus
        last_pick = [-1] * num_cus
        pick_order = [] if wg_trace is not None else None
        issued = 0
        while issued < want:
            best = -1
            best_load = -1
            for index in range(num_cus):
                if caps[index] > 0:
                    load = loads[index]
                    if best < 0 or load < best_load:
                        best = index
                        best_load = load
            if best < 0:
                break
            caps[best] -= 1
            loads[best] += 1
            assigned[best] += 1
            if first_pick[best] < 0:
                first_pick[best] = issued
            last_pick[best] = issued
            if pick_order is not None:
                pick_order.append(best)
            issued += 1
        if issued == 0:
            return 0
        chosen = [index for index in range(num_cus) if assigned[index]]
        chosen.sort(key=first_pick.__getitem__)
        for index in chosen:
            cus[index].issue_wgs(kernel, assigned[index])
        chosen.sort(key=last_pick.__getitem__)
        for index in chosen:
            cu = cus[index]
            try:
                touched.remove(cu)
            except ValueError:
                pass
            touched.append(cu)
        self.wgs_issued += issued
        now = self._sim.now
        if self.profiler is not None:
            self.profiler.on_wgs_issued(kernel.name, issued, now)
        if wg_trace is not None:
            job_id = kernel.job.job_id
            name = kernel.name
            for index in pick_order:
                wg_trace.emit(now, "wg_issue", job_id=job_id,
                              kernel=name, cu=cus[index].cu_id)
        kernel.job.mark_running(now)
        return issued

    def _backfill_only(self, kernel: KernelInstance) -> bool:
        """Whether ``kernel`` may only take full-rate slots.

        Jobs parked at infinite priority (latency-insensitive work, or
        jobs a deadline-aware policy wrote off) are backfill: their WGs
        only go into slots where every resident keeps running at full
        rate, so they soak up spare capacity without ever slowing
        deadline work — resident WGs cannot be preempted by priority
        alone, so the protection must happen at issue time.
        """
        return (math.isinf(kernel.job.priority)
                or not self._config.greedy_occupancy)

    def _pump_single(self, kernel: KernelInstance,
                     cus: List[ComputeUnit]) -> None:
        """The entire pending set is one kernel, placed over the open ``cus``.

        Ranking one kernel is the identity for every non-filtering
        policy, so the sort, shape memo and blocked-set machinery of
        :meth:`_pump_batched` collapse to one capacity solve — streaming
        cells at ~1 pending kernel per completion spend most pumps here.
        """
        desc = kernel.descriptor
        backfill_only = self._backfill_only(kernel)
        caps = [cu.batch_capacity(desc, backfill_only) for cu in cus]
        loads = [cu.num_residents for cu in cus]
        touched: List[ComputeUnit] = []
        if self._place(kernel, cus, caps, loads, touched):
            for cu in touched:
                cu.flush_issue()
            self._note_served([kernel])

    def _pump_batched(self, pending: Sequence[KernelInstance],
                      cus: List[ComputeUnit]) -> None:
        """Scalar batched issue over the policy's ranking and the open ``cus``.

        Capacity vectors are memoized per descriptor resource shape
        between admissions (see the ``shape_caps`` comment below), which
        collapses the per-kernel ``batch_capacity`` rescans of fleets
        with many kernel types over few distinct shapes.
        """
        served: List[KernelInstance] = []
        # ``batch_capacity`` is a pure function of a descriptor's
        # *resource shape* — threads/WG, VGPR/WG, LDS/WG, and (when
        # backfilling) the concurrency class — against the CU's free
        # counters, so distinct kernel types sharing a shape share
        # capacity vectors.  ``shape_caps`` memoizes one vector per shape
        # between admissions: an admission shrinks budgets shared by
        # every shape, so it drops all *other* cached vectors, while the
        # admitting shape's own vector stays exact by decrement (each
        # same-shape WG admitted lowers every binding per-resource bound
        # by exactly one — the same algebra the placement loop relies
        # on).  Resources only shrink within one pump, so a shape whose
        # vector bottoms out can be parked in ``blocked_shapes`` for the
        # rest of the round.
        shape_caps: dict = {}
        blocked_shapes = set()
        # CUs with admitted-but-unflushed WGs, ordered by most recent
        # admission (the per-WG loop's surviving timer-push order).
        touched: List[ComputeUnit] = []
        # Resident counts, carried across kernels: nothing but this
        # pump's own admissions changes residency mid-pump.
        loads = [cu.num_residents for cu in cus]
        for kernel in self._policy.issue_order(pending):
            shape = self._kernel_shape(kernel)
            if shape in blocked_shapes:
                continue
            caps = shape_caps.get(shape)
            if caps is None:
                caps = [cu.batch_capacity(kernel.descriptor, shape[4])
                        for cu in cus]
                shape_caps[shape] = caps
            want = kernel.wgs_pending
            issued = self._place(kernel, cus, caps, loads, touched)
            if issued < want:
                blocked_shapes.add(shape)
            if issued == 0:
                continue
            if len(shape_caps) > 1:
                shape_caps = {shape: caps}
            served.append(kernel)
        for cu in touched:
            cu.flush_issue()
        if served:
            self._note_served(served)

    def _kernel_shape(self, kernel: KernelInstance) -> tuple:
        """The kernel's placement resource shape (see ``_pump_batched``)."""
        desc = kernel.descriptor
        return (desc.threads_per_wg, desc.vgpr_bytes_per_wg,
                desc.lds_bytes_per_wg, desc.cu_concurrency,
                self._backfill_only(kernel))

    def _refresh_order(self) -> dict:
        """Bring the standing issue order up to date and return it.

        With no order standing it places every kernel of the pending
        set.  A stale order is re-keyed in place: each bucket keeps the
        kernels still pending and recomputes their keys in the old
        order, a kernel whose backfill flag flipped moves to the bucket
        of its new shape, and then every bucket is sorted.  Laxities
        move nearly in step from one tick to the next, so the old order
        is nearly the new one and the sorts run over almost-sorted
        lists.  Either way each bucket ends up holding exactly the
        pending kernels of its shape, sorted by current key.
        """
        issue_key = self._issue_key
        pending = self._pending_set
        buckets = self._order_buckets
        if buckets is None:
            buckets = self._order_buckets = {}
            moved = pending
            self.order_rebuilds += 1
        else:
            moved = []
            # Only a job parked at or lifted from infinite priority
            # changes a kernel's shape, and only under greedy occupancy
            # (``_backfill_only``, inlined).
            greedy = self._config.greedy_occupancy
            isinf = math.isinf
            for shape, entry in list(buckets.items()):
                backfill = shape[4]
                kept = []
                for _, kernel in entry[1][entry[0]:]:
                    if kernel in pending:
                        if (greedy
                                and isinf(kernel.job.priority) != backfill):
                            moved.append(kernel)
                        else:
                            kept.append((issue_key(kernel), kernel))
                if kept:
                    entry[0] = 0
                    entry[1] = kept
                else:
                    del buckets[shape]
            self.order_refreshes += 1
        shape_of = self._kernel_shape
        for kernel in moved:
            shape = shape_of(kernel)
            entry = buckets.get(shape)
            if entry is None:
                entry = buckets[shape] = [0, []]
            entry[1].append((issue_key(kernel), kernel))
        for entry in buckets.values():
            entry[1].sort()
        self._order_stale = False
        return buckets

    def _bucket_insert(self, buckets: dict, kernel: KernelInstance) -> None:
        """Insort a newly activated kernel into the standing order."""
        shape = self._kernel_shape(kernel)
        item = (self._issue_key(kernel), kernel)
        entry = buckets.get(shape)
        if entry is None:
            buckets[shape] = [0, [item]]
            return
        index, entries = entry
        if index:
            # Drop the consumed prefix first so the insertion point can
            # never land among already-popped heads.
            del entries[:index]
            entry[0] = 0
        insort(entries, item)

    def _pump_bucketed(self, cus: List[ComputeUnit]) -> None:
        """Bucketed-merge batched issue (base order) over the open ``cus``.

        Makes :meth:`_pump_batched`'s decisions when the policy ranks with
        the base ``issue_order`` (a pure sort on ``default_issue_key``,
        whose ``(job_id, kernel.index)`` suffix makes every key unique).
        Instead of re-scanning and re-ranking the whole active set each
        pump, the sorted order is kept standing across pumps, bucketed by
        placement resource shape, and each pump runs a k-way merge over
        the bucket *heads*:

        * the merge reads only current keys — every ``job.priority``
          rewrite that can touch an active kernel, and every
          cancellation, marks the order stale (:meth:`invalidate_order`)
          and the pump re-keys it first (:meth:`_refresh_order`); the
          remaining key fields (``start_time``/arrival, ids) are frozen
          before activation;
        * every head the merge pops is pending: a refresh keeps only
          pending kernels, activation inserts pending ones, and while
          the order stands a kernel stops being pending only by being
          fully issued here, which consumes it as the bucket's head
          (cancellation marks the order stale; preemption, the one
          event that refills a pending pool, drops it);
        * a head whose shape has no capacity parks its whole bucket for
          the rest of the pump — exactly the scalar loop's
          ``blocked_shapes`` skip, which drops every later same-shape
          kernel anyway (resources only shrink within a pump);
        * therefore the merge pops pending heads in global key order
          restricted to unparked shapes: any pending kernel ranked ahead
          of a popped head is same-shape-parked — precisely the kernels
          the full sorted walk would skip — so the admission sequence is
          identical.

        Per-pump work collapses from O(active) to O(admissions + shapes).
        """
        if self._order_stale:
            buckets = self._refresh_order()
        else:
            buckets = self._order_buckets
        heap = []
        for shape, entry in buckets.items():
            index, entries = entry
            if index < len(entries):
                heap.append((entries[index][0], shape))
        if not heap:
            return
        self.bucketed_pumps += 1
        heapq.heapify(heap)
        heappop = heapq.heappop
        heappush = heapq.heappush
        served: List[KernelInstance] = []
        # Same per-shape capacity memo (and reset-on-admission discipline)
        # as the scalar batched pump.
        shape_caps: dict = {}
        touched: List[ComputeUnit] = []
        loads = [cu.num_residents for cu in cus]
        while heap:
            shape = heappop(heap)[1]
            entry = buckets[shape]
            index = entry[0]
            entries = entry[1]
            kernel = entries[index][1]
            caps = shape_caps.get(shape)
            if caps is None:
                desc = kernel.descriptor
                caps = shape_caps[shape] = [
                    cu.batch_capacity(desc, shape[4]) for cu in cus]
                if not any(caps):
                    # Shape blocked: park the bucket (no re-push) until
                    # the next pump.
                    continue
            want = kernel.wgs_pending
            issued = self._place(kernel, cus, caps, loads, touched)
            if issued == 0:
                continue
            if len(shape_caps) > 1:
                shape_caps = {shape: caps}
            served.append(kernel)
            if issued == want:
                # Fully issued: consume the head and surface the
                # bucket's next kernel.
                index += 1
                entry[0] = index
                if index < len(entries):
                    heappush(heap, (entries[index][0], shape))
            # else: partial issue — the shape is exhausted, the kernel
            # stays pending at its bucket's head (parked, no re-push).
        for cu in touched:
            cu.flush_issue()
        if served:
            self._note_served(served)

    def _note_served(self, served: List[KernelInstance]) -> None:
        """Post-issue bookkeeping shared by every pump.

        Kernels the pump drained completely leave the standing pending
        set (see ``_pending_set``); partially issued ones stay.  Ends
        with the policy's served hook.
        """
        pend = self._pending_set
        for kernel in served:
            if kernel.wgs_issued >= kernel.descriptor.num_wgs:
                pend.pop(kernel, None)
        self._policy.on_kernels_served(served)
