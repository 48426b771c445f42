"""Sweep and run specifications: the harness' declarative surface.

A :class:`SweepSpec` names a grid of experiment cells — the cross
product of benchmarks x schedulers x arrival rates x seeds the paper's
figures are built from — without running anything.  A
:class:`RunOptions` collects everything about *how* cells run (config,
validation, telemetry sinks) that is not part of a cell's identity.
:class:`repro.harness.runner.Runner` consumes both; surviving
string-positional helpers (``deadline_counts``) are thin forwards
onto this surface.

Keeping identity (:class:`~repro.harness.experiment.ExperimentSpec`,
enumerated by :meth:`SweepSpec.cells`) separate from execution policy
(:class:`RunOptions`) is what lets the runner fan cells out to worker
processes and content-address their results: a cell's cache key is a
digest of its spec plus the config, never of the sinks observing it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Sequence, Tuple

from ..config import DEFAULT_CONFIG, SimConfig
from ..errors import HarnessError
from .experiment import ExperimentSpec

#: Default jobs per cell for replication sweeps (smaller than the
#: paper's 128 because sweeps multiply cells by seeds).
SWEEP_NUM_JOBS = 64


def _as_tuple(value) -> tuple:
    if isinstance(value, str):
        return (value,)
    return tuple(value)


@dataclass(frozen=True)
class SweepSpec:
    """A grid of experiment cells: benchmarks x schedulers x rates x seeds.

    The grid is declarative — building a spec validates the names but
    runs nothing.  :meth:`cells` enumerates the concrete
    :class:`~repro.harness.experiment.ExperimentSpec` cells in a fixed,
    deterministic order (benchmark-major, then scheduler, rate, seed),
    which is the order every :class:`~repro.harness.runner.Runner`
    reports results in regardless of worker completion order.
    """

    benchmarks: Tuple[str, ...]
    schedulers: Tuple[str, ...]
    rate_levels: Tuple[str, ...] = ("high",)
    seeds: Tuple[int, ...] = (1,)
    num_jobs: int = SWEEP_NUM_JOBS
    #: Extra scheduler-constructor arguments applied to every cell,
    #: tuple-of-pairs as in :class:`ExperimentSpec`.
    scheduler_args: Tuple[Tuple[str, object], ...] = ()

    def __post_init__(self) -> None:
        for name in ("benchmarks", "schedulers", "rate_levels", "seeds"):
            object.__setattr__(self, name, _as_tuple(getattr(self, name)))
            if not getattr(self, name):
                raise HarnessError(f"SweepSpec.{name} must be non-empty")
        from ..errors import WorkloadError
        from ..schedulers.registry import scheduler_names
        from ..workloads.registry import benchmark_spec, validate_rate_level
        for benchmark in self.benchmarks:
            benchmark_spec(benchmark)  # validates the name
        known = set(scheduler_names())
        for scheduler in self.schedulers:
            if scheduler not in known:
                raise HarnessError(
                    f"unknown scheduler {scheduler!r}; known: "
                    f"{', '.join(sorted(known))}")
        for rate in self.rate_levels:
            # Named levels plus x<multiplier> load-sweep levels.
            try:
                validate_rate_level(rate)
            except WorkloadError as exc:
                raise HarnessError(str(exc))
        if self.num_jobs <= 0:
            raise HarnessError("SweepSpec.num_jobs must be positive")

    def __len__(self) -> int:
        return (len(self.benchmarks) * len(self.schedulers)
                * len(self.rate_levels) * len(self.seeds))

    def __iter__(self) -> Iterator[ExperimentSpec]:
        return iter(self.cells())

    def cells(self) -> List[ExperimentSpec]:
        """All cells of the grid, in deterministic sweep order."""
        return [
            ExperimentSpec(benchmark=benchmark, scheduler=scheduler,
                           rate_level=rate, num_jobs=self.num_jobs,
                           seed=seed, scheduler_args=self.scheduler_args)
            for benchmark in self.benchmarks
            for scheduler in self.schedulers
            for rate in self.rate_levels
            for seed in self.seeds
        ]

    def describe(self) -> str:
        """Human-readable one-line summary of the grid."""
        return (f"{len(self.benchmarks)} benchmark(s) x "
                f"{len(self.schedulers)} scheduler(s) x "
                f"{len(self.rate_levels)} rate(s) x "
                f"{len(self.seeds)} seed(s) = {len(self)} cells "
                f"(n={self.num_jobs})")


@dataclass
class RunOptions:
    """How cells execute: config plus observation/validation sinks.

    The first three sink fields hold live objects that accumulate state
    from the run they observe; they only make sense for in-process
    (serial) execution and force the cell to run fresh rather than be
    served from any cache.  ``validate`` is the process-safe variant:
    each cell gets a *fresh*
    :class:`~repro.validation.invariants.InvariantChecker`, so it works
    across pool workers and participates in result caching (the flag is
    part of the cache key — a validated result never masquerades as an
    unvalidated one, or vice versa).
    """

    config: SimConfig = field(default_factory=lambda: DEFAULT_CONFIG)
    #: LAX prediction tracker (in-process runs only).
    tracker: Optional[object] = None
    #: Telemetry hub observing the run (in-process runs only).
    telemetry: Optional[object] = None
    #: Pre-built invariant checker (in-process runs only).
    validator: Optional[object] = None
    #: Attach a fresh invariant checker per cell (pool-safe).
    validate: bool = False

    @property
    def has_live_sinks(self) -> bool:
        """Whether any in-process-only observer object is attached."""
        return (self.tracker is not None or self.telemetry is not None
                or self.validator is not None)

    def build_validator(self):
        """The validator for one cell run: explicit, fresh, or None."""
        if self.validator is not None:
            return self.validator
        if self.validate:
            from ..validation import InvariantChecker
            return InvariantChecker()
        return None


def single_cell_sweep(spec: ExperimentSpec) -> SweepSpec:
    """Wrap one cell's identity as a one-cell sweep."""
    return SweepSpec(benchmarks=(spec.benchmark,),
                     schedulers=(spec.scheduler,),
                     rate_levels=(spec.rate_level,),
                     seeds=(spec.seed,),
                     num_jobs=spec.num_jobs,
                     scheduler_args=spec.scheduler_args)
