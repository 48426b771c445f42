"""The Job Table: LAX's in-CP bookkeeping structure (Section 4.2).

One row per compute queue, indexed by queue id, holding the fields LAX's
Algorithms 1 and 2 read for the job bound to that queue.  The rows are
numpy arrays, so the vectorized tick, steady-state sweep and admission
sum read them with masked array operations; below the population gate
the scalar paths read the same table.  The authoritative dynamic state
still lives on the :class:`~repro.sim.job.Job` objects: ``remaining``
mirrors the scheduler's :class:`~repro.core.laxity.RemainingTimeCache`
and is only written from it, and ``stale`` marks rows whose mirror may
lag the cache (a WG completion or stream append on the job, or a
profiling-table publication that dropped its cache entry).

The table also accounts the hardware proposal's memory footprint, which
the paper reports as **4240 bytes for a 128-compute-queue system**.

Footprint model (bytes per field, chosen to land on the paper's figure for
the default configuration):

========  =====  =========================================================
field     bytes  rationale
========  =====  =========================================================
QID           1  queue index, <= 255
State         1  init / ready / running
Priority      4  fixed-point laxity value
Deadline      8  tick count
StartTime     8  tick count
WGList        8  base pointer + length of the per-kernel WG-count array
========  =====  =========================================================

30 bytes x 128 queues = 3840 bytes, plus a 20-entry Kernel Profiling Table
at 20 bytes per entry (kernel id, rate, window counter) = 400 bytes, giving
4240 bytes total.
"""

from __future__ import annotations

import bisect
from typing import Iterable, List, Optional, TYPE_CHECKING

import numpy as _np

from ..errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..sim.job import Job

#: Per-queue entry size in bytes (see module docstring).
ENTRY_BYTES = 30
#: Kernel Profiling Table: entries x bytes.
PROFILING_ENTRIES = 20
PROFILING_ENTRY_BYTES = 20


def job_table_bytes(num_queues: int) -> int:
    """CP memory footprint of the Job Table + Kernel Profiling Table.

    ``job_table_bytes(128) == 4240``, matching Section 4.2.
    """
    return ENTRY_BYTES * num_queues + PROFILING_ENTRIES * PROFILING_ENTRY_BYTES


class JobTable:
    """The CP-resident table of admitted jobs, one row per compute queue.

    A row's arrays are written when a job is inserted and read only while
    ``occupied`` is set, so :meth:`remove` clears nothing but the binding.
    """

    def __init__(self, num_queues: int) -> None:
        if num_queues <= 0:
            raise SimulationError("JobTable needs at least one queue")
        self._num_queues = num_queues
        #: The job bound to each row; None marks a free row.
        self.jobs: List[Optional["Job"]] = [None] * num_queues
        self.arrival = _np.zeros(num_queues, dtype=_np.int64)
        #: Relative deadline; NaN encodes "latency-insensitive" (None).
        self.deadline = _np.full(num_queues, _np.nan)
        #: The cache's remaining-time estimate (stale rows hold the
        #: previous value until refreshed).
        self.remaining = _np.zeros(num_queues)
        self.running = _np.zeros(num_queues, dtype=bool)
        self.stale = _np.zeros(num_queues, dtype=bool)
        self.occupied = _np.zeros(num_queues, dtype=bool)
        #: Standing enqueue order: ``(start_time, job_id, job)`` triples
        #: kept sorted across insert/remove so the steady-state sweep
        #: never re-sorts.  ``job_id`` is unique, so the job object itself
        #: is never compared.
        self._by_start: List[tuple] = []
        #: :meth:`order` as an array, rebuilt after a membership change.
        self._order: Optional[_np.ndarray] = None

    def __len__(self) -> int:
        return len(self._by_start)

    def __contains__(self, job: "Job") -> bool:
        row = job.queue_id
        return (row is not None and row < self._num_queues
                and self.jobs[row] is job)

    @staticmethod
    def _start_key(job: "Job") -> tuple:
        # `start_time or arrival` (not an `is None` check) deliberately:
        # a job enqueued at tick 0 has start_time 0, which falls back to
        # arrival — also 0, since start >= arrival >= 0 — so the value is
        # identical and the expression matches the sweep's historic key.
        return (job.start_time or job.arrival, job.job_id)

    def insert(self, job: "Job") -> None:
        """Fill the row of a job newly admitted on its queue (stale, not
        running)."""
        row = job.queue_id
        if row is None:
            raise SimulationError(f"job {job.job_id} has no queue")
        if not 0 <= row < self._num_queues:
            raise SimulationError(f"queue {row} outside the JobTable")
        if self.jobs[row] is not None:
            raise SimulationError(f"queue {row} already tabled")
        self.jobs[row] = job
        self.arrival[row] = job.arrival
        deadline = job.deadline
        self.deadline[row] = _np.nan if deadline is None else deadline
        self.remaining[row] = 0.0
        self.running[row] = False
        self.stale[row] = True
        self.occupied[row] = True
        bisect.insort(self._by_start, self._start_key(job) + (job,))
        self._order = None

    def remove(self, job: "Job") -> None:
        """Free a completed or rejected job's row."""
        if job not in self:
            raise SimulationError(f"job {job.job_id} not in JobTable")
        row = job.queue_id
        self.jobs[row] = None
        self.occupied[row] = False
        key = self._start_key(job)
        index = bisect.bisect_left(self._by_start, key)
        if (index < len(self._by_start)
                and self._by_start[index][2] is job):
            del self._by_start[index]
        else:  # pragma: no cover - insert/remove always pair up
            raise SimulationError(
                f"job {job.job_id} missing from enqueue order")
        self._order = None

    def mark_stale(self, job: "Job") -> None:
        """The job's estimate inputs moved (WG completion, stream append)."""
        row = job.queue_id
        if row is not None and self.jobs[row] is job:
            self.stale[row] = True

    def mark_running(self, job: "Job") -> None:
        """Mirror the job's READY -> RUNNING edge into its row."""
        row = job.queue_id
        if row is not None and self.jobs[row] is job:
            self.running[row] = True

    def mark_jobs_stale(self, jobs: Iterable["Job"]) -> None:
        """``RemainingTimeCache.on_invalidated`` observer: a sync dropped
        these jobs' estimates, so their rows lag the cache."""
        for job in jobs:
            self.mark_stale(job)

    def rows(self) -> _np.ndarray:
        """Occupied rows in queue-id order."""
        return _np.flatnonzero(self.occupied)

    def order(self) -> _np.ndarray:
        """Occupied rows in :meth:`jobs_by_start` order."""
        order = self._order
        if order is None:
            order = self._order = _np.fromiter(
                (triple[2].queue_id for triple in self._by_start),
                dtype=_np.int64, count=len(self._by_start))
        return order

    def jobs_by_start(self) -> List["Job"]:
        """Tabled jobs in ``(start_time, job_id)`` enqueue order.

        The standing order the epoch-gated steady-state sweep walks: the
        sort key is frozen per job at bind time (StartTime is written once),
        so maintaining sorted order incrementally is exact, not a heuristic.
        """
        return [triple[2] for triple in self._by_start]

    @property
    def memory_bytes(self) -> int:
        """Provisioned CP memory for this table (independent of occupancy)."""
        return job_table_bytes(self._num_queues)
