"""Validation subsystem: invariants, analytic oracles, conformance.

The layers, each usable alone:

* :mod:`repro.validation.invariants` — the opt-in runtime
  :class:`InvariantChecker` the sim hot path calls into per event;
* :mod:`repro.validation.oracles` — closed-form latency / utilization /
  conservation results a finished run must reproduce;
* :mod:`repro.validation.conformance` — the scenario battery every
  registered scheduler must pass, plus per-policy contracts;
* :mod:`repro.validation.router` — the cluster tier's conservation
  audit: every arrival routed to exactly one device lane (or rejected
  at the router) and observed by exactly that device.

``lax-sim --validate`` attaches the checker and runs the oracle sweep;
``tests/test_conformance.py`` drives the battery in CI.
"""

from .invariants import FLOAT_TOLERANCE, InvariantChecker, InvariantViolation
from .oracles import (LatencyBand, UtilizationAudit, WorkLedger, audit_run,
                      erlang_c, fits_fully_resident, mdc_mean_wait,
                      mmc_mean_wait, single_job_latency_band,
                      utilization_audit, work_ledger)
from .conformance import (POLICY_CONTRACTS, SCENARIOS, ScenarioOutcome,
                          check_postconditions, run_conformance,
                          run_policy_contracts, run_scenario)
from .router import audit_routing

__all__ = [
    "FLOAT_TOLERANCE",
    "InvariantChecker",
    "InvariantViolation",
    "LatencyBand",
    "UtilizationAudit",
    "WorkLedger",
    "audit_routing",
    "audit_run",
    "erlang_c",
    "fits_fully_resident",
    "mdc_mean_wait",
    "mmc_mean_wait",
    "single_job_latency_band",
    "utilization_audit",
    "work_ledger",
    "POLICY_CONTRACTS",
    "SCENARIOS",
    "ScenarioOutcome",
    "check_postconditions",
    "run_conformance",
    "run_policy_contracts",
    "run_scenario",
]
