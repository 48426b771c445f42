"""Shared fixtures, builders and hypothesis profiles for the test suite."""

from __future__ import annotations

import os
from typing import List, Optional, Sequence

import pytest
from hypothesis import HealthCheck, settings

from repro.config import SimConfig
from repro.sim.engine import Simulator
from repro.sim.job import Job
from repro.sim.kernel import KernelDescriptor
from repro.units import MS, US

# "dev" (default) explores freely; "ci" is derandomized with a bounded
# example budget so the CI validation job is deterministic and fast.
# Select with HYPOTHESIS_PROFILE=ci (see .github/workflows/ci.yml).
settings.register_profile(
    "dev", max_examples=20, deadline=None,
    suppress_health_check=[HealthCheck.too_slow])
settings.register_profile(
    "ci", max_examples=15, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow])
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))


def make_descriptor(name: str = "k", num_wgs: int = 4,
                    threads_per_wg: int = 64, wg_work: int = 10 * US,
                    vgpr: int = 1024, lds: int = 512,
                    context: int = 64 * 1024,
                    cu_concurrency: int = 4,
                    bytes_per_wg: int = 0) -> KernelDescriptor:
    """A small kernel descriptor with overridable fields."""
    return KernelDescriptor(
        name=name, num_wgs=num_wgs, threads_per_wg=threads_per_wg,
        wg_work=wg_work, vgpr_bytes_per_wg=vgpr, lds_bytes_per_wg=lds,
        context_bytes=context, cu_concurrency=cu_concurrency,
        bytes_per_wg=bytes_per_wg)


def make_job(job_id: int = 0,
             descriptors: Optional[Sequence[KernelDescriptor]] = None,
             arrival: int = 0, deadline: int = 1 * MS,
             benchmark: str = "TEST", tag: Optional[str] = None) -> Job:
    """A job over ``descriptors`` (default: one small kernel)."""
    if descriptors is None:
        descriptors = [make_descriptor()]
    return Job(job_id=job_id, benchmark=benchmark,
               descriptors=list(descriptors), arrival=arrival,
               deadline=deadline, tag=tag)


def make_jobs(count: int, gap: int = 50 * US,
              descriptors: Optional[Sequence[KernelDescriptor]] = None,
              deadline: int = 1 * MS) -> List[Job]:
    """``count`` identical jobs with fixed arrival gaps."""
    return [make_job(job_id=i, descriptors=descriptors,
                     arrival=gap * (i + 1), deadline=deadline)
            for i in range(count)]


def fire_plan(plan, cancel=()):
    """Fire ``plan`` on one simulator; return the observed order.

    ``plan`` is a list of (when, lane) with lane "arrival" riding
    :meth:`Simulator.schedule_arrival` and lane "device" riding
    :meth:`Simulator.schedule_at`; entries whose plan index is in
    ``cancel`` are cancelled before the run.
    """
    sim = Simulator()
    fired = []
    handles = []
    for index, (when, lane) in enumerate(plan):
        schedule = (sim.schedule_arrival if lane == "arrival"
                    else sim.schedule_at)
        handles.append(schedule(when, fired.append, (lane, when, index)))
    for index in cancel:
        handles[index].cancel()
    sim.run()
    return fired


def oracle_order(plan, cancel=()):
    """The (when, seq) total order: by time; at a tie every arrival
    before every device event; within a lane, scheduling order."""
    survivors = [(when, lane != "arrival", index, lane)
                 for index, (when, lane) in enumerate(plan)
                 if index not in cancel]
    return [(lane, when, index)
            for when, _, index, lane in sorted(survivors)]


@pytest.fixture
def config() -> SimConfig:
    """Default simulation configuration."""
    return SimConfig()


@pytest.fixture(autouse=True)
def _isolated_result_cache(tmp_path, monkeypatch):
    """Point the persistent result cache at a per-test directory.

    Keeps unit tests from reading results a *different* test computed
    under monkeypatched simulation state, and from touching the real
    ``~/.cache/repro`` of whoever runs the suite.
    """
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "repro-cache"))
