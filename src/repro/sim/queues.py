"""Compute queues: the hardware stream abstraction the CP schedules.

The simulated GPU has ``GPUConfig.num_queues`` (128) hardware compute
queues.  Each live job's stream is bound to one queue; the queue exposes the
job's kernel chain head and a priority register the scheduling policy can
write (this is the register LAX-CPU's user-level API pokes).

When every queue is occupied, newly admitted jobs wait in a FIFO backlog
until a queue frees up — the same oversubscription behaviour a real HSA
queue pool exhibits.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional

from ..errors import SimulationError
from .job import Job
from .kernel import KernelInstance


class ComputeQueue:
    """One hardware queue holding a single job's kernel chain."""

    __slots__ = ("queue_id", "job")

    def __init__(self, queue_id: int) -> None:
        self.queue_id = queue_id
        self.job: Optional[Job] = None

    @property
    def is_free(self) -> bool:
        """Whether the queue has no bound job."""
        return self.job is None

    def bind(self, job: Job) -> None:
        """Attach ``job``'s stream to this queue."""
        if self.job is not None:
            raise SimulationError(
                f"queue {self.queue_id} already bound to job {self.job.job_id}")
        self.job = job

    def release(self) -> None:
        """Detach the current job (at completion or rejection)."""
        self.job = None

    def ready_kernels(self) -> List[KernelInstance]:
        """Kernels ready for the dispatcher.

        Respects in-stream dependencies (the default chain, or the job's
        explicit DAG) and the host release marker
        (``job.released_kernels``): a kernel a CPU-side scheduler has not
        launched yet is invisible.  Chain jobs expose at most one kernel;
        DAG jobs may expose several.
        """
        if self.job is None:
            return []
        return self.job.ready_kernels()

    def head_kernel(self) -> Optional[KernelInstance]:
        """First ready kernel, or None (chain jobs have at most one)."""
        ready = self.ready_kernels()
        return ready[0] if ready else None


class QueuePool:
    """Allocator for the device's fixed set of compute queues."""

    def __init__(self, num_queues: int) -> None:
        if num_queues <= 0:
            raise SimulationError("QueuePool needs at least one queue")
        self.queues: List[ComputeQueue] = [
            ComputeQueue(qid) for qid in range(num_queues)
        ]
        self._free: Deque[int] = deque(range(num_queues))
        self._by_job: Dict[int, ComputeQueue] = {}
        self.backlog: Deque[Job] = deque()
        #: Cached :meth:`live_jobs` list, invalidated on every
        #: bind/release.  The admission path reads the live set several
        #: times per arrival, and each uncached read scans all queues.
        self._live: Optional[List[Job]] = None

    @property
    def num_free(self) -> int:
        """Queues currently unbound."""
        return len(self._free)

    @property
    def num_bound(self) -> int:
        """Queues currently holding a job."""
        return len(self._by_job)

    def live_jobs(self) -> List[Job]:
        """Jobs currently bound to queues, in queue-id order.

        The cached list itself: callers must treat it as read-only.
        """
        live = self._live
        if live is None:
            live = self._live = [q.job for q in self.queues
                                 if q.job is not None]
        return live

    def try_bind(self, job: Job) -> Optional[ComputeQueue]:
        """Bind ``job`` to a free queue, or park it in the backlog.

        Returns the queue on success, ``None`` if the job was backlogged.
        """
        if job.job_id in self._by_job:
            # Silently overwriting the mapping would leak the first queue
            # forever (release only ever frees one entry per job id).
            raise SimulationError(
                f"job {job.job_id} is already bound to queue "
                f"{self._by_job[job.job_id].queue_id}")
        if not self._free:
            self.backlog.append(job)
            return None
        queue = self.queues[self._free.popleft()]
        queue.bind(job)
        self._by_job[job.job_id] = queue
        self._live = None
        return queue

    def release(self, job: Job) -> Optional[Job]:
        """Free ``job``'s queue; return the next backlogged job, if any.

        The caller is responsible for submitting the returned job (the pool
        does not know the submission path).
        """
        queue = self._by_job.pop(job.job_id, None)
        if queue is None:
            raise SimulationError(f"job {job.job_id} holds no queue")
        queue.release()
        self._free.append(queue.queue_id)
        self._live = None
        if self.backlog:
            return self.backlog.popleft()
        return None

    def queue_of(self, job: Job) -> ComputeQueue:
        """Queue bound to ``job`` (raises if unbound)."""
        queue = self._by_job.get(job.job_id)
        if queue is None:
            raise SimulationError(f"job {job.job_id} holds no queue")
        return queue
