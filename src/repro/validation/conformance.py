"""Cross-scheduler conformance: one scenario battery, every policy.

Every scheduler in :mod:`repro.schedulers.registry` must survive the same
battery of deterministic scenarios under the runtime invariant checker
and satisfy **policy-independent postconditions** (every job terminal,
best-effort work never rejected, conservation of work, physically
impossible deadlines missed, uncontended generous deadlines met).  On top
of that, per-policy **contracts** pin down what makes each policy itself:
LAX admits iff Algorithm 1's inequality holds, RR serves queues in
rotation order, EDF finishes earlier deadlines first, SJF shorter jobs
first, PREMA actually preempts under priority inversion.

The battery is what the ``validation`` CI job runs for all registered
schedulers, and what every future perf refactor must keep green.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from ..config import SimConfig
from ..errors import SimulationError
from ..metrics.collector import RunMetrics
from ..schedulers.registry import ALL_SCHEDULERS, make_scheduler
from ..sim.device import GPUSystem
from ..sim.job import Job
from ..sim.kernel import KernelDescriptor
from ..units import MS, US
from .invariants import InvariantChecker
from .oracles import audit_run, single_job_latency_band

#: Deterministic kernel shapes used across scenarios.  16 WGs of 640
#: threads occupy exactly half the default device, so two kernels saturate
#: it — the same trick the Figure 3 test uses.
_HALF = dict(num_wgs=16, threads_per_wg=640, vgpr_bytes_per_wg=1024,
             lds_bytes_per_wg=512)
_SMALL = dict(num_wgs=4, threads_per_wg=64, vgpr_bytes_per_wg=1024,
              lds_bytes_per_wg=512)


def _desc(name: str, wg_work: int, shape: dict = _SMALL,
          **overrides) -> KernelDescriptor:
    fields = dict(shape)
    fields.update(overrides)
    return KernelDescriptor(name=name, wg_work=wg_work, **fields)


# ----------------------------------------------------------------------
# Scenario builders (all deterministic; no RNG anywhere)
# ----------------------------------------------------------------------

def empty_device_jobs() -> List[Job]:
    """One best-effort job arriving at an idle device mid-simulation."""
    return [Job(job_id=0, benchmark="CONF",
                descriptors=[_desc("lone", 20 * US)],
                arrival=1 * MS, deadline=None)]


def single_job_jobs() -> List[Job]:
    """A three-kernel deadline job, alone, with a generous deadline."""
    chain = [_desc("solo", 50 * US) for _ in range(3)]
    return [Job(job_id=0, benchmark="CONF", descriptors=chain,
                arrival=0, deadline=5 * MS)]


def saturation_jobs() -> List[Job]:
    """Thirty-two half-device jobs arriving nearly at once.

    Sixteen devices' worth of simultaneous work: deadline-blind policies
    drag everything late, deadline-aware ones shed load.  Either way the
    conservation laws must hold and every job must terminate.
    """
    jobs = []
    for i in range(32):
        jobs.append(Job(job_id=i, benchmark="CONF",
                        descriptors=[_desc("sat", 200 * US, _HALF)],
                        arrival=i * US, deadline=2 * MS))
    return jobs


def deadline_cliff_jobs() -> List[Job]:
    """Uncontended jobs straddling the feasibility cliff.

    Arrivals are spaced far apart so each job runs alone.  Even-indexed
    jobs get deadlines several times their isolated time — **every**
    policy must finish them in time.  Odd-indexed jobs get deadlines
    below their isolated time — **no** policy can finish them in time
    (they must miss or be shed).
    """
    gpu = SimConfig().gpu
    jobs = []
    spacing = 4 * MS
    for i in range(8):
        desc = _desc("cliff", 100 * US)
        isolated = desc.isolated_time(gpu)
        if i % 2 == 0:
            deadline = isolated * 4 + 200 * US
        else:
            deadline = max(1, isolated // 2)
        jobs.append(Job(job_id=i, benchmark="CONF", descriptors=[desc],
                        arrival=i * spacing, deadline=deadline))
    return jobs


def preemption_storm_jobs() -> List[Job]:
    """A long low-priority resident swamped by urgent high-priority work.

    A device-filling background job starts first; a burst of short,
    tight-deadline, high-user-priority jobs lands on top.  PREMA must
    preempt; everyone else must still conserve WGs while the burst and
    the background job fight for occupancy.
    """
    jobs = [Job(job_id=0, benchmark="CONF",
                descriptors=[_desc("storm_bg", 500 * US, _HALF)] * 2,
                arrival=0, deadline=20 * MS, user_priority=4)]
    for i in range(1, 9):
        jobs.append(Job(job_id=i, benchmark="CONF",
                        descriptors=[_desc("storm_fg", 50 * US, _HALF)],
                        arrival=300 * US + i * 10 * US, deadline=1500 * US,
                        user_priority=0))
    return jobs


SCENARIOS: Dict[str, Callable[[], List[Job]]] = {
    "empty_device": empty_device_jobs,
    "single_job": single_job_jobs,
    "saturation": saturation_jobs,
    "deadline_cliff": deadline_cliff_jobs,
    "preemption_storm": preemption_storm_jobs,
}


# ----------------------------------------------------------------------
# Running one (scheduler, scenario) cell
# ----------------------------------------------------------------------

@dataclass
class ScenarioOutcome:
    """Everything the postconditions and contracts inspect."""

    scheduler: str
    scenario: str
    jobs: List[Job]
    metrics: RunMetrics
    system: GPUSystem
    checker: InvariantChecker
    telemetry: Optional[object] = None
    failures: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Whether every postcondition and contract held."""
        return not self.failures


def run_scenario(scheduler: str, scenario: str,
                 config: Optional[SimConfig] = None,
                 telemetry=None) -> ScenarioOutcome:
    """Run one scenario under one scheduler with the checker attached."""
    builder = SCENARIOS.get(scenario)
    if builder is None:
        raise SimulationError(
            f"unknown scenario {scenario!r}; known: "
            f"{', '.join(SCENARIOS)}")
    jobs = builder()
    checker = InvariantChecker()
    # Postconditions and contracts audit every job's individual outcome
    # (no retirement).
    system = GPUSystem(make_scheduler(scheduler),
                       config if config is not None else SimConfig(),
                       telemetry=telemetry, validator=checker)
    system.submit_workload(jobs)
    metrics = system.run()
    return ScenarioOutcome(scheduler=scheduler, scenario=scenario,
                           jobs=jobs, metrics=metrics, system=system,
                           checker=checker, telemetry=telemetry)


# ----------------------------------------------------------------------
# Policy-independent postconditions
# ----------------------------------------------------------------------

def check_postconditions(outcome: ScenarioOutcome) -> List[str]:
    """Invariants every scheduling policy must satisfy; returns failures."""
    failures: List[str] = []
    for job in outcome.jobs:
        if not job.is_done:
            failures.append(f"job {job.job_id} never reached a terminal "
                            f"state (is {job.state.value})")
        if job.deadline is None and job.state.value == "rejected":
            failures.append(f"best-effort job {job.job_id} was rejected")
    by_id = {o.job_id: o for o in outcome.metrics.outcomes}
    if len(by_id) != len(outcome.jobs):
        failures.append(f"metrics saw {len(by_id)} jobs, workload had "
                        f"{len(outcome.jobs)}")
    gpu = outcome.system.config.gpu
    for job in outcome.jobs:
        o = by_id.get(job.job_id)
        if o is None or o.completion is None:
            continue
        if o.latency < job.isolated_time(gpu):
            failures.append(
                f"job {job.job_id} finished in {o.latency} ticks, faster "
                f"than its isolated time {job.isolated_time(gpu)}")
        if o.met_deadline and o.latency > job.deadline:
            failures.append(f"job {job.job_id} marked met_deadline with "
                            f"latency {o.latency} > deadline {job.deadline}")
    failures.extend(audit_run(outcome.system, outcome.jobs, outcome.metrics))
    failures.extend(_scenario_postconditions(outcome, by_id))
    if outcome.checker.violations:
        failures.append(
            f"{len(outcome.checker.violations)} invariant violations")
    return failures


def _scenario_postconditions(outcome: ScenarioOutcome,
                             by_id: Dict[int, object]) -> List[str]:
    failures: List[str] = []
    scenario = outcome.scenario
    if scenario == "empty_device":
        o = by_id.get(0)
        if o is None or o.completion is None:
            failures.append("the lone best-effort job did not complete")
    elif scenario == "single_job":
        o = by_id.get(0)
        if o is None or not o.met_deadline:
            failures.append("the lone generous-deadline job missed")
    elif scenario == "deadline_cliff":
        for job in outcome.jobs:
            o = by_id.get(job.job_id)
            if job.job_id % 2 == 1 and o is not None and o.met_deadline:
                failures.append(
                    f"job {job.job_id} met a deadline below its isolated "
                    "time — physically impossible")
            if (job.job_id % 2 == 0
                    and (o is None or not o.met_deadline)):
                failures.append(
                    f"uncontended job {job.job_id} missed a deadline 4x "
                    "its isolated time")
    return failures


# ----------------------------------------------------------------------
# Per-policy contracts
# ----------------------------------------------------------------------

def lax_admission_contract(outcome: ScenarioOutcome) -> List[str]:
    """LAX admits iff Algorithm 1 predicts the job fits its deadline.

    Replays every ``admission_verdict`` decision event: a ``littles_law``
    verdict must agree with its own recorded inequality
    ``totRem + hold + dur < deadline``.
    """
    failures: List[str] = []
    hub = outcome.telemetry
    if hub is None or hub.decisions is None:
        return ["LAX contract needs a telemetry hub with decision events"]
    verdicts = [e for e in hub.decisions.events
                if e.kind == "admission_verdict"]
    if not verdicts:
        failures.append("no admission verdicts recorded")
    for event in verdicts:
        fields = event.fields
        if fields.get("reason") != "littles_law":
            continue
        predicted_fits = (fields["tot_rem_time"] + fields["hold_time"]
                          + fields["dur_time"]) < fields["deadline"]
        if bool(fields["accepted"]) != predicted_fits:
            failures.append(
                f"job {fields['job_id']}: verdict accepted="
                f"{fields['accepted']} contradicts Algorithm 1 inputs")
    return failures


def rr_rotation_contract(outcome: ScenarioOutcome) -> List[str]:
    """RR serves identical simultaneous jobs in queue-binding order."""
    completions = [(o.job_id, o.completion)
                   for o in outcome.metrics.outcomes
                   if o.completion is not None]
    failures = []
    for (a_id, a_done), (b_id, b_done) in zip(completions, completions[1:]):
        if a_id < b_id and a_done > b_done:
            failures.append(
                f"job {b_id} (bound later) finished before job {a_id} "
                f"under rotation order ({b_done} < {a_done})")
    return failures


def edf_order_contract(outcome: ScenarioOutcome) -> List[str]:
    """EDF never finishes a later-deadline job before an earlier one
    (identical shapes, saturation scenario)."""
    pairs = sorted(((job.arrival + job.deadline, job.job_id)
                    for job in outcome.jobs if job.deadline is not None))
    by_id = {o.job_id: o for o in outcome.metrics.outcomes}
    failures = []
    previous = None
    for absolute, job_id in pairs:
        o = by_id.get(job_id)
        if o is None or o.completion is None:
            continue
        if previous is not None and o.completion < previous[1]:
            failures.append(
                f"job {job_id} (deadline {absolute}) finished at "
                f"{o.completion}, before earlier-deadline job "
                f"{previous[0]}")
        previous = (job_id, o.completion)
    return failures


def prema_preempts_contract(outcome: ScenarioOutcome) -> List[str]:
    """PREMA must actually evict WGs in the preemption storm."""
    if outcome.system.dispatcher.wgs_preempted <= 0:
        return ["PREMA performed no preemptions under priority inversion"]
    return []


def lax_best_effort_contract(outcome: ScenarioOutcome) -> List[str]:
    """LAX never rejects deadline-less work (Section 5.2)."""
    failures = []
    for job in outcome.jobs:
        if job.deadline is None and job.state.value == "rejected":
            failures.append(f"LAX rejected best-effort job {job.job_id}")
    return failures


#: scheduler -> (scenario, contract, needs_decision_telemetry).
POLICY_CONTRACTS: Dict[str, List[tuple]] = {
    "LAX": [("saturation", lax_admission_contract, True),
            ("empty_device", lax_best_effort_contract, False)],
    "RR": [("saturation", rr_rotation_contract, False)],
    "EDF": [("saturation", edf_order_contract, False)],
    "PREMA": [("preemption_storm", prema_preempts_contract, False)],
}


def run_policy_contracts(scheduler: str) -> Dict[str, List[str]]:
    """Run ``scheduler``'s registered contracts; scenario -> failures."""
    results: Dict[str, List[str]] = {}
    for scenario, contract, needs_decisions in POLICY_CONTRACTS.get(
            scheduler, ()):
        telemetry = None
        if needs_decisions:
            from ..telemetry import TelemetryHub
            telemetry = TelemetryHub(self_profile=False)
        outcome = run_scenario(scheduler, scenario, telemetry=telemetry)
        results[scenario] = contract(outcome)
    return results


# ----------------------------------------------------------------------
# Full battery
# ----------------------------------------------------------------------

def run_conformance(schedulers=None, scenarios=None) -> Dict[str, Dict[str, List[str]]]:
    """Run the whole battery; scheduler -> scenario -> failure list.

    An empty failure list everywhere means full conformance.  This is the
    entry point the CI job and ``tests/test_conformance.py`` drive.
    """
    report: Dict[str, Dict[str, List[str]]] = {}
    for scheduler in (schedulers if schedulers is not None
                      else ALL_SCHEDULERS):
        per_scenario: Dict[str, List[str]] = {}
        for scenario in (scenarios if scenarios is not None else SCENARIOS):
            outcome = run_scenario(scheduler, scenario)
            per_scenario[scenario] = check_postconditions(outcome)
        for scenario, failures in run_policy_contracts(scheduler).items():
            key = f"{scenario}:contract"
            per_scenario[key] = per_scenario.get(key, []) + failures
        report[scheduler] = per_scenario
    return report
