"""Streaming workloads: open-loop arrival sources for sustained traffic.

Finite workloads (``build_workload``) materialize every job up front,
which caps run length at whatever fits in memory.  The sources here are
**lazy**: :meth:`ArrivalSource.jobs` is a generator that materializes one
:class:`~repro.sim.job.Job` per arrival, so a
:meth:`~repro.sim.device.GPUSystem.submit_stream` run holds only the
in-flight jobs (plus the feeder's look-ahead window) no matter how many
flow through.  Combined with job retirement
(``GPUSystem(retire=True)``) this is the O(live) memory model behind
million-job soak runs.

Three arrival curves, all integer-tick and seed-deterministic:

* :class:`PoissonSource` — stationary Poisson process; exponential
  inter-arrival gaps at a fixed rate, exactly the process
  :func:`~repro.workloads.arrivals.exponential_arrivals` uses (including
  the one-tick nudge that keeps arrivals strictly increasing).
* :class:`DiurnalSource` — sinusoidally modulated rate
  ``rate(t) = base * (1 + amplitude * sin(2*pi*t / period))``, sampled by
  Lewis–Shedler thinning against the peak rate, the standard exact method
  for non-homogeneous Poisson processes.
* :class:`OnOffSource` — a two-state Markov-modulated Poisson process
  (MMPP-2): exponential dwell times in a bursty *on* state and a quiet
  *off* state, each with its own Poisson rate.  The classic bursty
  datacenter-traffic model.

Each source draws jobs from a palette of :class:`JobTemplate` shapes
(kernel chains from the Table 1 families).  Re-calling :meth:`jobs`
rebuilds the generator from the stored seed, so two iterations of the
same source yield identical job sequences — the property the
prefix-identity tests pin.

The **SUSTAINED** cell (registered in ``BENCHMARKS`` but, like the fleet
cell, deliberately kept out of the eight-benchmark Table 4 order) mixes
three cheap single-chain shapes scaled from the STEM / IPV6 / LSTM
families, calibrated so the knee of the load-vs-SLO curve sits inside the
``x0.5 .. x2.5`` rate-multiplier sweep ``benchmarks/bench_streaming_scale.py``
runs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..config import GPUConfig
from ..errors import WorkloadError
from ..sim.job import Job
from ..sim.kernel import KernelDescriptor
from ..units import SEC, US
from .kernels import IPV6_KERNEL, STEM_KERNEL, TENSOR_KERNEL_4

#: Offset separating the template-choice RNG stream from the arrival
#: stream, so adding a template never perturbs arrival times.
_TEMPLATE_SEED_OFFSET = 0x5EED


@dataclass(frozen=True)
class JobTemplate:
    """Reusable shape a source stamps jobs from.

    Holds fully built descriptors (not specs) so materializing a job is
    one :class:`~repro.sim.job.Job` construction — no per-job descriptor
    math on the arrival path.
    """

    benchmark: str
    descriptors: Tuple[KernelDescriptor, ...]
    #: Relative deadline in ticks; None for latency-insensitive work.
    deadline: Optional[int]
    tag: Optional[str] = None
    user_priority: int = 0

    def build(self, job_id: int, arrival: int) -> Job:
        """Materialize one job of this shape."""
        return Job(job_id, self.benchmark, list(self.descriptors), arrival,
                   self.deadline, self.user_priority, self.tag)


class ArrivalSource:
    """Base class: an open-loop job stream over a template palette.

    Subclasses implement :meth:`_arrivals`, a generator of strictly
    increasing absolute arrival ticks.  Template choice uses an RNG
    stream derived from (but independent of) the arrival stream, so the
    same seed always yields the same (arrival, shape) sequence —
    :meth:`jobs` is replayable and :meth:`materialize` is its prefix.
    """

    def __init__(self, templates: Sequence[JobTemplate],
                 weights: Optional[Sequence[float]] = None,
                 seed: int = 1, start: int = 0) -> None:
        if not templates:
            raise WorkloadError("arrival source needs at least one template")
        if weights is not None:
            if len(weights) != len(templates):
                raise WorkloadError(
                    f"{len(weights)} weights for {len(templates)} templates")
            if any(w <= 0 for w in weights):
                raise WorkloadError("template weights must be positive")
        if start < 0:
            raise WorkloadError("stream start must be >= 0")
        self.templates = tuple(templates)
        total = float(sum(weights)) if weights is not None \
            else float(len(templates))
        raw = weights if weights is not None else [1.0] * len(templates)
        #: Cumulative template-choice thresholds in [0, 1].
        self._cumulative = tuple(
            itertools.accumulate(w / total for w in raw))
        self.seed = seed
        self.start = start

    # -- to be provided by subclasses -----------------------------------

    def _arrivals(self, rng: np.random.Generator) -> Iterator[int]:
        """Yield strictly increasing absolute arrival ticks, forever."""
        raise NotImplementedError

    def rate_at(self, tick: int) -> float:
        """Instantaneous arrival rate (jobs/s) at an absolute tick."""
        raise NotImplementedError

    # -- the stream ------------------------------------------------------

    def _pick(self, rng: np.random.Generator) -> JobTemplate:
        draw = rng.random()
        for template, threshold in zip(self.templates, self._cumulative):
            if draw < threshold:
                return template
        return self.templates[-1]

    def jobs(self, first_job_id: int = 0) -> Iterator[Job]:
        """Lazy, unbounded job stream; deterministic in the source seed."""
        arrival_rng = np.random.default_rng(self.seed)
        template_rng = np.random.default_rng(
            self.seed + _TEMPLATE_SEED_OFFSET)
        job_id = first_job_id
        for arrival in self._arrivals(arrival_rng):
            yield self._pick(template_rng).build(job_id, arrival)
            job_id += 1

    def materialize(self, num_jobs: int) -> List[Job]:
        """The first ``num_jobs`` jobs of the stream as a finite list."""
        if num_jobs <= 0:
            raise WorkloadError("num_jobs must be positive")
        return list(itertools.islice(self.jobs(), num_jobs))


class PoissonSource(ArrivalSource):
    """Stationary Poisson arrivals at a fixed jobs/s rate."""

    def __init__(self, templates: Sequence[JobTemplate],
                 rate_jobs_per_s: float,
                 weights: Optional[Sequence[float]] = None,
                 seed: int = 1, start: int = 0) -> None:
        if rate_jobs_per_s <= 0:
            raise WorkloadError("arrival rate must be positive")
        super().__init__(templates, weights, seed, start)
        self.rate_jobs_per_s = float(rate_jobs_per_s)

    def rate_at(self, tick: int) -> float:
        return self.rate_jobs_per_s

    def _arrivals(self, rng: np.random.Generator) -> Iterator[int]:
        mean_gap = SEC / self.rate_jobs_per_s
        current = self.start
        while True:
            # Same draw + one-tick nudge as exponential_arrivals, so the
            # stream stays strictly increasing and integer-valued.
            current += max(1, int(round(rng.exponential(mean_gap))))
            yield current


class DiurnalSource(ArrivalSource):
    """Sinusoidal (diurnal) rate curve, sampled by thinning.

    ``rate(t) = base * (1 + amplitude * sin(2*pi*(t - start)/period))``;
    ``amplitude`` in [0, 1) keeps the rate strictly positive.  Candidate
    arrivals are drawn at the peak rate and accepted with probability
    ``rate(t)/peak`` (Lewis & Shedler 1979), which samples the exact
    non-homogeneous process.
    """

    def __init__(self, templates: Sequence[JobTemplate],
                 base_rate_jobs_per_s: float, amplitude: float,
                 period_ticks: int,
                 weights: Optional[Sequence[float]] = None,
                 seed: int = 1, start: int = 0) -> None:
        if base_rate_jobs_per_s <= 0:
            raise WorkloadError("base arrival rate must be positive")
        if not 0.0 <= amplitude < 1.0:
            raise WorkloadError("amplitude must be in [0, 1)")
        if period_ticks <= 0:
            raise WorkloadError("period must be positive")
        super().__init__(templates, weights, seed, start)
        self.base_rate_jobs_per_s = float(base_rate_jobs_per_s)
        self.amplitude = float(amplitude)
        self.period_ticks = int(period_ticks)

    def rate_at(self, tick: int) -> float:
        phase = 2.0 * math.pi * (tick - self.start) / self.period_ticks
        return self.base_rate_jobs_per_s * (
            1.0 + self.amplitude * math.sin(phase))

    def _arrivals(self, rng: np.random.Generator) -> Iterator[int]:
        peak = self.base_rate_jobs_per_s * (1.0 + self.amplitude)
        mean_gap = SEC / peak
        current = self.start
        while True:
            current += max(1, int(round(rng.exponential(mean_gap))))
            if rng.random() * peak < self.rate_at(current):
                yield current


class OnOffSource(ArrivalSource):
    """Bursty MMPP-2 arrivals: exponential on/off dwells, per-state rates.

    While *on*, arrivals are Poisson at ``on_rate``; while *off*, at
    ``off_rate`` (0 silences the off state entirely).  Dwell times are
    exponential with the given means, giving the standard two-state
    Markov-modulated Poisson process.
    """

    def __init__(self, templates: Sequence[JobTemplate],
                 on_rate_jobs_per_s: float, off_rate_jobs_per_s: float,
                 mean_on_ticks: float, mean_off_ticks: float,
                 weights: Optional[Sequence[float]] = None,
                 seed: int = 1, start: int = 0) -> None:
        if on_rate_jobs_per_s <= 0:
            raise WorkloadError("on-state arrival rate must be positive")
        if off_rate_jobs_per_s < 0:
            raise WorkloadError("off-state arrival rate must be >= 0")
        if mean_on_ticks <= 0 or mean_off_ticks <= 0:
            raise WorkloadError("dwell-time means must be positive")
        super().__init__(templates, weights, seed, start)
        self.on_rate_jobs_per_s = float(on_rate_jobs_per_s)
        self.off_rate_jobs_per_s = float(off_rate_jobs_per_s)
        self.mean_on_ticks = float(mean_on_ticks)
        self.mean_off_ticks = float(mean_off_ticks)

    def mean_rate_jobs_per_s(self) -> float:
        """Long-run average rate (dwell-weighted mix of the two states)."""
        total = self.mean_on_ticks + self.mean_off_ticks
        return (self.on_rate_jobs_per_s * self.mean_on_ticks
                + self.off_rate_jobs_per_s * self.mean_off_ticks) / total

    def rate_at(self, tick: int) -> float:  # pragma: no cover - advisory
        # The modulating state is random, not a function of time; report
        # the long-run mean (what the empirical-rate property checks).
        return self.mean_rate_jobs_per_s()

    def _arrivals(self, rng: np.random.Generator) -> Iterator[int]:
        current = float(self.start)
        on = True
        state_end = current + rng.exponential(self.mean_on_ticks)
        last_emitted = self.start
        while True:
            rate = self.on_rate_jobs_per_s if on else self.off_rate_jobs_per_s
            if rate <= 0.0:
                current = state_end
            else:
                gap = rng.exponential(SEC / rate)
                if current + gap < state_end:
                    current += gap
                    arrival = max(last_emitted + 1, int(round(current)))
                    last_emitted = arrival
                    yield arrival
                    continue
                current = state_end
            on = not on
            mean = self.mean_on_ticks if on else self.mean_off_ticks
            state_end = current + rng.exponential(mean)


# ----------------------------------------------------------------------
# The SUSTAINED cell
# ----------------------------------------------------------------------

#: Deadline of the sustained cell's latency-sensitive jobs (ticks).
SUSTAINED_DEADLINE = 300 * US

#: Default seed of the sustained stream (matches build_workload's).
SUSTAINED_SEED = 1

#: jobs/s at the named rate levels.  Calibrated so the "high" level runs
#: the device around half its lane capacity — comfortably inside SLO —
#: and the knee of the load-vs-SLO curve appears between x1 and x2.5 of
#: it (see benchmarks/bench_streaming_scale.py).
SUSTAINED_RATES = {"high": 600000.0, "medium": 300000.0, "low": 150000.0}

#: Small kernels scaled down from the Table 1 families: one-WG and
#: two-WG launches keep the event count per job low enough for
#: million-job soak runs while exercising the same calibration math.
SUSTAINED_TINY_KERNEL = TENSOR_KERNEL_4.scaled("sustained.tiny")
SUSTAINED_LOOKUP_KERNEL = IPV6_KERNEL.scaled(
    "sustained.lookup", thread_factor=1.0 / 16.0)
SUSTAINED_QUERY_KERNEL = STEM_KERNEL.scaled(
    "sustained.query", thread_factor=1.0 / 16.0)


def sustained_templates(gpu: GPUConfig = GPUConfig()) -> List[JobTemplate]:
    """The sustained cell's job shapes (descriptors built for ``gpu``)."""
    return [
        JobTemplate("SUSTAINED",
                    (SUSTAINED_TINY_KERNEL.descriptor(gpu),),
                    SUSTAINED_DEADLINE, tag="tiny"),
        JobTemplate("SUSTAINED",
                    (SUSTAINED_LOOKUP_KERNEL.descriptor(gpu),),
                    SUSTAINED_DEADLINE, tag="lookup"),
        JobTemplate("SUSTAINED",
                    (SUSTAINED_QUERY_KERNEL.descriptor(gpu),),
                    SUSTAINED_DEADLINE, tag="query"),
    ]

#: Template mix of the sustained cell: mostly tiny/lookup traffic with a
#: heavier query tail.
SUSTAINED_WEIGHTS = (0.4, 0.4, 0.2)


def sustained_source(rate_jobs_per_s: float, seed: int = SUSTAINED_SEED,
                     gpu: GPUConfig = GPUConfig()) -> PoissonSource:
    """The sustained cell's arrival source at an explicit rate."""
    return PoissonSource(sustained_templates(gpu), rate_jobs_per_s,
                         weights=SUSTAINED_WEIGHTS, seed=seed)


def sustained_fleet_source(num_devices: int,
                           rate_jobs_per_s: float = SUSTAINED_RATES["high"],
                           seed: int = SUSTAINED_SEED,
                           gpu: GPUConfig = GPUConfig()) -> PoissonSource:
    """The sustained stream scaled to a fleet: one front door, N devices.

    ``rate_jobs_per_s`` is the *per-device* rate; the source offers
    ``num_devices`` times that, so a perfectly balanced router loads
    each device exactly like the single-device sustained cell at the
    same level.  This is the cluster knee sweep's traffic generator
    (see ``benchmarks/bench_cluster_router.py``).
    """
    if num_devices < 1:
        raise WorkloadError(
            f"fleet needs at least one device, got {num_devices}")
    return sustained_source(num_devices * rate_jobs_per_s, seed, gpu)


def build_sustained_jobs(num_jobs: int, rate_jobs_per_s: float, seed: int,
                         gpu: GPUConfig) -> List[Job]:
    """Finite prefix of the sustained stream (the registry builder).

    Identical, job for job, to truncating :func:`sustained_source`'s lazy
    stream at ``num_jobs`` — the equivalence the prefix-identity tests
    and the bench ``--check`` mode assert.
    """
    return sustained_source(rate_jobs_per_s, seed, gpu).materialize(num_jobs)
