"""Seed replication: running cells across seeds for robust comparisons.

The paper reports single runs with "randomly generated" arrival times;
anything this reproduction asserts about *shape* should survive a change
of seed.  :func:`replicate_sweep` runs every (benchmark, scheduler,
rate) combination of a :class:`~repro.harness.spec.SweepSpec` across
the sweep's seeds and aggregates the key metrics;
:func:`compare_sweep` determines whether one scheduler beats another
consistently across seeds (a sign-test-style criterion that makes no
distributional assumptions).

Both execute through the sweep :class:`~repro.harness.runner.Runner` —
serial by default, so behaviour matches the old in-process loops; pass
``runner=Runner(workers=N)`` to fan the seeds out over processes and
reuse the persistent result cache.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..errors import HarnessError
from .spec import RunOptions, SweepSpec


@dataclass(frozen=True)
class ReplicatedMetric:
    """Mean/spread of one metric across seeds."""

    values: tuple

    @property
    def mean(self) -> float:
        """Mean across seeds."""
        return statistics.mean(self.values)

    @property
    def stdev(self) -> float:
        """Sample standard deviation (0 for a single seed)."""
        if len(self.values) < 2:
            return 0.0
        return statistics.stdev(self.values)

    @property
    def minimum(self) -> float:
        """Smallest per-seed value."""
        return min(self.values)

    @property
    def maximum(self) -> float:
        """Largest per-seed value."""
        return max(self.values)

    def describe(self) -> str:
        """``mean +/- stdev [min..max]`` rendering."""
        return (f"{self.mean:.1f} +/- {self.stdev:.1f} "
                f"[{self.minimum:.0f}..{self.maximum:.0f}]")


@dataclass(frozen=True)
class ReplicatedCell:
    """Aggregated outcome of one cell across seeds."""

    benchmark: str
    scheduler: str
    rate_level: str
    seeds: tuple
    deadline_met: ReplicatedMetric
    rejected: ReplicatedMetric
    wasted_fraction: ReplicatedMetric


def _default_runner(runner):
    if runner is not None:
        return runner
    from .runner import Runner
    return Runner(workers=1)


def replicate_sweep(sweep: SweepSpec,
                    options: Optional[RunOptions] = None,
                    runner=None) -> List[ReplicatedCell]:
    """Run ``sweep`` and aggregate each combination across its seeds.

    Returns one :class:`ReplicatedCell` per (benchmark, scheduler,
    rate) combination, in the sweep's deterministic order.  A
    ``RunOptions(validate=True)`` attaches a fresh
    :class:`~repro.validation.invariants.InvariantChecker` to every
    seed's run, so a whole replication sweep self-checks (any violation
    raises out of the sweep with its event context).
    """
    outcome = _default_runner(runner).run(
        sweep, options if options is not None else RunOptions())
    outcome.raise_failures()
    by_cell = outcome.results
    aggregated: List[ReplicatedCell] = []
    for benchmark in sweep.benchmarks:
        for scheduler in sweep.schedulers:
            for rate in sweep.rate_levels:
                met: List[float] = []
                rejected: List[float] = []
                wasted: List[float] = []
                for spec, result in by_cell.items():
                    if (spec.benchmark, spec.scheduler, spec.rate_level) \
                            != (benchmark, scheduler, rate):
                        continue
                    metrics = result.metrics
                    met.append(metrics.jobs_meeting_deadline)
                    rejected.append(metrics.jobs_rejected)
                    wasted.append(metrics.wasted_wg_fraction)
                aggregated.append(ReplicatedCell(
                    benchmark=benchmark, scheduler=scheduler,
                    rate_level=rate, seeds=tuple(sweep.seeds),
                    deadline_met=ReplicatedMetric(tuple(met)),
                    rejected=ReplicatedMetric(tuple(rejected)),
                    wasted_fraction=ReplicatedMetric(tuple(wasted))))
    return aggregated


def compare_sweep(sweep: SweepSpec,
                  options: Optional[RunOptions] = None,
                  runner=None) -> Dict[str, object]:
    """Per-seed win/loss duel between the sweep's two schedulers.

    The sweep must name exactly one benchmark, one rate level and two
    schedulers — the first is the challenger, the second the baseline.
    Returns the per-seed deadline-met pairs, the win count (ties count
    as half), and ``consistent`` — True when the challenger wins or
    ties on every seed.
    """
    if len(sweep.schedulers) != 2:
        raise HarnessError("compare_sweep needs exactly two schedulers "
                           "(challenger, baseline)")
    if len(sweep.benchmarks) != 1 or len(sweep.rate_levels) != 1:
        raise HarnessError("compare_sweep duels run on one benchmark at "
                           "one rate level")
    challenger, baseline = sweep.schedulers
    benchmark = sweep.benchmarks[0]
    outcome = _default_runner(runner).run(
        sweep, options if options is not None else RunOptions())
    outcome.raise_failures()
    met = {(spec.scheduler, spec.seed):
           result.metrics.jobs_meeting_deadline
           for spec, result in outcome.results.items()}
    pairs = []
    wins = 0.0
    for seed in sweep.seeds:
        a = met[(challenger, seed)]
        b = met[(baseline, seed)]
        pairs.append((seed, a, b))
        if a > b:
            wins += 1.0
        elif a == b:
            wins += 0.5
    return {
        "benchmark": benchmark,
        "challenger": challenger,
        "baseline": baseline,
        "pairs": pairs,
        "wins": wins,
        "num_seeds": len(sweep.seeds),
        "consistent": all(a >= b for _, a, b in pairs),
    }

