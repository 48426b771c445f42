"""Offline kernel profiling: warm-start rates for the profiling table.

SJF/LJF (and Prophet/Baymax) assume offline-profiled runtimes; LAX learns
its rates online, which costs a cold-start phase where admission is blind
or pessimistic.  This module provides the offline pass: run each kernel
type once, alone, on a scratch device, and record the device-wide WG
completion rate it achieves — the value :meth:`KernelProfilingTable
.seed_rate` preloads.

The measured quantity is the *isolated* aggregate rate, which under-states
what multiple concurrent underutilising jobs achieve together; it is a
sound (conservative) starting point that the online counters refine within
a window or two.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping

from ..config import SimConfig
from ..errors import WorkloadError
from ..sim.job import Job
from ..sim.kernel import KernelDescriptor
from .profiling import KernelProfilingTable


def offline_profile(descriptors: Iterable[KernelDescriptor],
                    config: SimConfig) -> Dict[str, float]:
    """Measure each kernel type's isolated completion rate (WGs/tick).

    Each descriptor runs as a single-kernel job on a fresh device under
    the round-robin baseline; the rate is WGs over the launch's measured
    wall time (net of CP overheads).
    """
    from ..schedulers.rr import RoundRobinScheduler
    from ..sim.device import GPUSystem

    unique: Dict[str, KernelDescriptor] = {}
    for descriptor in descriptors:
        unique.setdefault(descriptor.name, descriptor)
    if not unique:
        raise WorkloadError("no kernels to profile")
    rates: Dict[str, float] = {}
    overhead = 2 * config.overheads.cp_parse_period
    for name, descriptor in unique.items():
        job = Job(job_id=0, benchmark=f"profile:{name}",
                  descriptors=[descriptor], arrival=0, deadline=None)
        # The rate is read off the job's own outcome (no retirement).
        system = GPUSystem(RoundRobinScheduler(), config)
        system.submit_workload([job])
        metrics = system.run()
        wall = metrics.outcomes[0].latency - overhead
        rates[name] = descriptor.num_wgs / max(1, wall)
    return rates


def profile_workload(jobs: Iterable[Job],
                     config: SimConfig) -> Dict[str, float]:
    """Offline-profile every kernel type appearing in ``jobs``."""
    return offline_profile(
        (kernel.descriptor for job in jobs for kernel in job.kernels),
        config)


def warm_table(table: KernelProfilingTable,
               rates: Mapping[str, float]) -> None:
    """Seed a profiling table with offline-profiled rates."""
    for name, rate in rates.items():
        table.seed_rate(name, rate)
