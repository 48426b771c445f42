"""Experiment cells: one (benchmark, scheduler, arrival rate) simulation.

The paper's evaluation is a grid of such cells (8 benchmarks x 11
schedulers x 3 arrival rates); every figure and table slices this grid.
:func:`run_cell` runs one cell deterministically and memoises the result
in-process, so benches that share cells (Figure 6 / Figure 9 / Table 5 all
reuse the high-rate runs) pay for each simulation once.

``REPRO_NUM_JOBS`` (environment) overrides the per-benchmark job count —
the paper uses 128 (Section 5.3); smaller values give quicker, lower-
fidelity sweeps.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from ..config import DEFAULT_CONFIG, SimConfig
from ..errors import HarnessError
from ..metrics.collector import RunMetrics
from ..metrics.tracking import PredictionTracker
from ..schedulers.registry import make_scheduler
from ..sim.device import GPUSystem
from ..workloads.registry import benchmark_spec, build_workload

#: The paper simulates 128 jobs per benchmark (Section 5.3).
PAPER_NUM_JOBS = 128


def default_num_jobs() -> int:
    """Job count per cell; the REPRO_NUM_JOBS env var overrides 128."""
    value = os.environ.get("REPRO_NUM_JOBS")
    if value is None:
        return PAPER_NUM_JOBS
    count = int(value)
    if count <= 0:
        raise HarnessError("REPRO_NUM_JOBS must be positive")
    return count


@dataclass(frozen=True)
class ExperimentSpec:
    """Identity of one cell in the evaluation grid."""

    benchmark: str
    scheduler: str
    rate_level: str = "high"
    num_jobs: int = PAPER_NUM_JOBS
    seed: int = 1
    #: Extra scheduler-constructor arguments, e.g. the admission ablation:
    #: ``(("enable_admission", False),)``.  Tuple-of-pairs keeps the spec
    #: hashable.
    scheduler_args: Tuple[Tuple[str, object], ...] = ()

    def __post_init__(self) -> None:
        from ..workloads.registry import validate_rate_level
        benchmark_spec(self.benchmark)  # validates the name
        validate_rate_level(self.rate_level)
        if self.num_jobs <= 0:
            raise HarnessError("num_jobs must be positive")

    def describe(self) -> str:
        """Human-readable cell label."""
        return (f"{self.benchmark}/{self.scheduler}"
                f"@{self.rate_level} n={self.num_jobs} seed={self.seed}")


@dataclass
class CellResult:
    """A cell's metrics plus scheduler-side diagnostics."""

    spec: ExperimentSpec
    metrics: RunMetrics
    diagnostics: Dict[str, object] = field(default_factory=dict)


_CACHE: Dict[Tuple[ExperimentSpec, int], CellResult] = {}


def clear_cache(persistent: bool = True) -> int:
    """Drop all memoised cell results.

    Also clears the persistent content-addressed result cache
    (:mod:`repro.harness.cache`) unless ``persistent=False``; returns
    the number of persistent entries removed.
    """
    _CACHE.clear()
    if not persistent:
        return 0
    from .cache import ResultCache
    try:
        return ResultCache().clear()
    except OSError:
        return 0


def run_cell(spec: ExperimentSpec,
             config: SimConfig = DEFAULT_CONFIG,
             tracker: Optional[PredictionTracker] = None,
             telemetry=None, validator=None, *, options=None) -> CellResult:
    """Run (or fetch) one experiment cell.

    Execution options may be given either as individual keywords or
    bundled in a :class:`~repro.harness.spec.RunOptions` (``options=``)
    — the form runner workers use; mixing both raises.

    Runs with a ``tracker``, a ``telemetry`` hub or a ``validator`` are
    never cached — all three accumulate state from the run they observe,
    so each caller gets a fresh simulation (and a cached result would
    carry no telemetry).  With a ``validator``
    (:class:`~repro.validation.invariants.InvariantChecker`), invariants
    are checked throughout the run and the post-run analytic oracles are
    swept; the checker's summary (plus any oracle failures) lands in the
    result's ``diagnostics["validation"]``.
    """
    if options is not None:
        if (config is not DEFAULT_CONFIG or tracker is not None
                or telemetry is not None or validator is not None):
            raise HarnessError(
                "pass either options= or individual config/tracker/"
                "telemetry/validator keywords, not both")
        config = options.config
        tracker = options.tracker
        telemetry = options.telemetry
        validator = options.build_validator()
    observed = (tracker is not None or telemetry is not None
                or validator is not None)
    key = (spec, id(config))
    if not observed:
        cached = _CACHE.get(key)
        if cached is not None:
            return cached
    kwargs = dict(spec.scheduler_args)
    if tracker is not None:
        if spec.scheduler != "LAX":
            raise HarnessError("prediction tracking is a LAX feature")
        kwargs["tracker"] = tracker
    policy = make_scheduler(spec.scheduler, **kwargs)
    jobs = build_workload(spec.benchmark, spec.rate_level,
                          num_jobs=spec.num_jobs, seed=spec.seed,
                          gpu=config.gpu)
    system = GPUSystem(policy, config, telemetry=telemetry,
                       validator=validator)
    system.submit_workload(jobs)
    metrics = system.run()
    diagnostics = run_diagnostics(system)
    admission = getattr(policy, "admission", None)
    if admission is not None:
        diagnostics["admission_accepted"] = admission.accepted
        diagnostics["admission_rejected"] = admission.rejected
    if validator is not None:
        from ..validation.oracles import audit_run
        summary = validator.summary()
        summary["oracle_failures"] = audit_run(system, jobs, metrics)
        diagnostics["validation"] = summary
    result = CellResult(spec=spec, metrics=metrics, diagnostics=diagnostics)
    if not observed:
        _CACHE[key] = result
    return result


def run_diagnostics(system: GPUSystem) -> Dict[str, object]:
    """Device and engine counters of a finished single-device run.

    The ``event_core`` block (committed events plus the scheduler's
    periodic-tick counts) feeds the report's "Event core" section;
    bundles written without it simply skip that section.
    """
    event_core: Dict[str, object] = {
        "events_committed": system.sim.events_committed}
    updater = getattr(system.policy, "_updater", None)
    if updater is not None:
        event_core["periodic_ticks_fired"] = updater.ticks_fired
        event_core["periodic_ticks_elided"] = updater.ticks_elided
    return {
        "events_fired": system.sim.events_fired,
        "wgs_issued": system.dispatcher.wgs_issued,
        "wgs_preempted": system.dispatcher.wgs_preempted,
        "host_commands": system.host.commands_sent,
        "event_core": event_core,
    }


def deadline_counts(benchmark: str, schedulers, rate_level: str = "high",
                    num_jobs: Optional[int] = None, seed: int = 1,
                    config: SimConfig = DEFAULT_CONFIG,
                    runner=None) -> Dict[str, int]:
    """Jobs-meeting-deadline per scheduler for one benchmark/rate.

    Executes through the sweep :class:`~repro.harness.runner.Runner`
    (serial by default); pass ``runner=Runner(workers=N)`` to fan the
    schedulers out over worker processes.
    """
    from .runner import Runner
    from .spec import RunOptions, SweepSpec
    jobs = num_jobs if num_jobs is not None else default_num_jobs()
    sweep = SweepSpec(benchmarks=(benchmark,), schedulers=tuple(schedulers),
                      rate_levels=(rate_level,), seeds=(seed,),
                      num_jobs=jobs)
    active = runner if runner is not None else Runner(workers=1)
    outcome = active.run(sweep, RunOptions(config=config))
    outcome.raise_failures()
    return {spec.scheduler: result.metrics.jobs_meeting_deadline
            for spec, result in outcome.results.items()}
