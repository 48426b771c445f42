"""The sweep engine: parallel cell execution with deterministic output.

:class:`Runner` executes every cell of a
:class:`~repro.harness.spec.SweepSpec` and returns a
:class:`SweepOutcome` whose results are keyed and ordered by cell
identity, never by completion order — a sweep run on eight workers is
bit-identical to the same sweep run serially (``workers=1``), because
each cell is an independent deterministic simulation and the assembly
step sorts by the sweep's own cell order.

Execution layers, outermost first:

1. **Persistent cache** (:class:`~repro.harness.cache.ResultCache`):
   cells whose content digest is already stored are served without
   touching a worker.  ``refresh=True`` recomputes and overwrites;
   ``cache=False`` bypasses the store entirely.
2. **Process pool** (``workers > 1``): cache misses fan out over a
   ``ProcessPoolExecutor``.  A worker failure never aborts the sweep —
   exceptions, invariant violations, timeouts and hard worker crashes
   are captured as structured :class:`CellFailure` records while the
   remaining cells keep running.  After a pool breaks (a worker died),
   the unfinished cells re-run isolated one-per-pool so a single
   crashing cell cannot take healthy neighbours down with it.
3. **In-process serial** (``workers=1``): cells run through
   :func:`~repro.harness.experiment.run_cell` in sweep order.  This is
   the only mode that supports live observer objects (telemetry hub,
   prediction tracker, pre-built validator) since those cannot cross a
   process boundary; ``RunOptions.validate`` works in every mode.

Progress is reported through the existing telemetry layer: pass a
:class:`~repro.telemetry.TelemetryHub` and the runner maintains
``repro_sweep_*`` instruments in its metrics registry; pass an
``on_progress`` callback for line-by-line reporting (the CLI does).
"""

from __future__ import annotations

import concurrent.futures
import os
import time
import traceback as traceback_module
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..errors import HarnessError
from ..config import SimConfig
from .cache import ResultCache
from .experiment import CellResult, ExperimentSpec, run_cell
from .spec import RunOptions, SweepSpec

#: ``on_progress(done, total, spec, source)`` with source one of
#: ``"cache"``, ``"run"``, ``"failed"``.
ProgressCallback = Callable[[int, int, ExperimentSpec, str], None]


@dataclass
class CellFailure:
    """Structured record of one cell that did not produce a result."""

    spec: ExperimentSpec
    #: ``"error"`` (exception in the simulation), ``"invariant"``
    #: (validation violation), ``"timeout"`` or ``"crash"`` (worker
    #: process died).
    kind: str
    message: str
    attempts: int = 1
    traceback: str = ""
    #: Invariant violations carry their structured event context here.
    context: Dict[str, object] = field(default_factory=dict)
    #: The original exception object — only populated for in-process
    #: (serial) execution; never crosses a process boundary.
    exception: Optional[BaseException] = None

    def describe(self) -> str:
        """One-line rendering for logs and error messages."""
        return f"{self.spec.describe()}: {self.kind}: {self.message}"


@dataclass
class SweepOutcome:
    """Everything one sweep produced, in deterministic cell order."""

    sweep: SweepSpec
    #: Successful cells, keyed by spec in ``sweep.cells()`` order.
    results: Dict[ExperimentSpec, CellResult]
    #: Failed cells, keyed by spec in ``sweep.cells()`` order.
    failures: Dict[ExperimentSpec, CellFailure]
    workers: int
    wall_seconds: float
    cache_hits: int = 0
    cache_misses: int = 0

    @property
    def ok(self) -> bool:
        """Whether every cell produced a result."""
        return not self.failures

    def raise_failures(self) -> None:
        """Re-raise the first failure (serial) or raise a summary.

        Serial failures carry the original exception and re-raise it
        unchanged, preserving pre-runner control flow (e.g. an
        ``InvariantViolation`` escaping a validated replication sweep).
        """
        if not self.failures:
            return
        first = next(iter(self.failures.values()))
        if first.exception is not None:
            raise first.exception
        lines = "; ".join(f.describe() for f in self.failures.values())
        raise HarnessError(f"{len(self.failures)} cell(s) failed: {lines}")

    def records(self) -> List[Dict[str, object]]:
        """Flat JSON-ready records for every successful cell, in order.

        This is the canonical aggregated form for bit-identity checks:
        serialising these records must give the same bytes whether the
        sweep ran serially or across workers.
        """
        from .artifacts import result_record
        return [result_record(result) for result in self.results.values()]

    def describe(self) -> str:
        """One-line sweep summary (the CLI prints this)."""
        computed = max(0, len(self.results) - self.cache_hits)
        return (f"sweep: {len(self.sweep)} cells, {computed} computed, "
                f"{self.cache_hits} cached, {len(self.failures)} failed "
                f"(workers={self.workers}, {self.wall_seconds:.2f}s)")


def _pool_worker(spec: ExperimentSpec, config: SimConfig,
                 validate: bool) -> Tuple[str, object]:
    """Run one cell in a worker process; never raises.

    Returns a picklable ``(status, payload)`` pair: ``("ok",
    CellResult)`` on success, otherwise a failure-kind tag plus a
    context dict.  Exceptions are flattened here because exception
    classes with rich constructors (e.g. ``InvariantViolation``) do not
    round-trip through pickle reliably.
    """
    try:
        validator = None
        if validate:
            from ..validation import InvariantChecker
            validator = InvariantChecker()
        result = run_cell(spec, config=config, validator=validator)
        return ("ok", result)
    except BaseException as exc:  # noqa: BLE001 - converted to data
        from ..validation import InvariantViolation
        if isinstance(exc, InvariantViolation):
            return ("invariant", {
                "message": str(exc),
                "invariant": exc.invariant,
                "time": exc.time,
                "context": dict(exc.context),
            })
        return ("error", {
            "message": f"{type(exc).__name__}: {exc}",
            "traceback": traceback_module.format_exc(),
        })


class Runner:
    """Executes sweeps: cache first, then workers, deterministic output.

    Parameters
    ----------
    workers:
        Process count for cache misses; ``None`` means
        ``os.cpu_count()``.  ``1`` executes in-process (no pool).
    cache / cache_dir / refresh:
        Persistent result cache controls.  ``cache=False`` disables the
        store; ``refresh=True`` ignores stored results but rewrites
        them from the fresh runs.
    timeout:
        Per-cell wall-clock budget in seconds (pool mode only; serial
        cells cannot be preempted).  A timed-out cell becomes a
        ``CellFailure(kind="timeout")`` and its worker process is
        terminated at the end of the sweep.
    retries:
        Extra attempts granted to cells whose worker *crashed* (died
        without returning).  Deterministic in-simulation exceptions are
        not retried — the same inputs would fail the same way.
    telemetry:
        Optional :class:`~repro.telemetry.TelemetryHub`; the runner
        keeps ``repro_sweep_*`` gauges/counters in its registry.
    on_progress:
        Optional callback invoked per finished cell.
    """

    def __init__(self, workers: Optional[int] = None, cache: bool = True,
                 cache_dir: Optional[str] = None, refresh: bool = False,
                 timeout: Optional[float] = None, retries: int = 1,
                 telemetry=None,
                 on_progress: Optional[ProgressCallback] = None) -> None:
        resolved = workers if workers is not None else (os.cpu_count() or 1)
        if resolved < 1:
            raise HarnessError("Runner workers must be >= 1")
        if retries < 0:
            raise HarnessError("Runner retries must be >= 0")
        self.workers = resolved
        self.cache_enabled = cache
        self.cache = ResultCache(cache_dir) if cache else None
        self.refresh = refresh
        self.timeout = timeout
        self.retries = retries
        self.telemetry = telemetry
        self.on_progress = on_progress

    # ------------------------------------------------------------------

    def run(self, sweep: SweepSpec,
            options: Optional[RunOptions] = None) -> SweepOutcome:
        """Execute every cell of ``sweep`` and assemble the outcome."""
        options = options if options is not None else RunOptions()
        if self.workers > 1 and options.has_live_sinks:
            raise HarnessError(
                "telemetry hubs, trackers and pre-built validators are "
                "in-process observers; run them with workers=1 or use "
                "RunOptions.validate for pool-safe validation")
        cells = sweep.cells()
        started = time.perf_counter()
        progress = self._progress_instruments(len(cells))

        results: Dict[ExperimentSpec, CellResult] = {}
        failures: Dict[ExperimentSpec, CellFailure] = {}
        cache_hits = 0
        # Live observer objects accumulate state from the run they
        # watch; a cached replay would leave them blind, so those runs
        # bypass the store in both directions.
        cacheable = self.cache is not None and not options.has_live_sinks
        todo: List[ExperimentSpec] = []
        if cacheable and not self.refresh:
            for spec in cells:
                cached = self.cache.get(spec, options.config,
                                        options.validate)
                if cached is not None:
                    results[spec] = cached
                    cache_hits += 1
                    self._report(progress, len(results) + len(failures),
                                 len(cells), spec, "cache")
                else:
                    todo.append(spec)
        else:
            todo = list(cells)

        if todo:
            if self.workers == 1:
                run_results, run_failures = self._run_serial(
                    todo, options, progress, len(cells),
                    done=len(results) + len(failures))
            else:
                run_results, run_failures = self._run_pool(
                    todo, options, progress, len(cells),
                    done=len(results) + len(failures))
            results.update(run_results)
            failures.update(run_failures)
            if cacheable:
                for spec, result in run_results.items():
                    self.cache.put(spec, options.config, result,
                                   options.validate)

        ordered_results = {spec: results[spec] for spec in cells
                           if spec in results}
        ordered_failures = {spec: failures[spec] for spec in cells
                            if spec in failures}
        outcome = SweepOutcome(
            sweep=sweep, results=ordered_results,
            failures=ordered_failures, workers=self.workers,
            wall_seconds=time.perf_counter() - started,
            cache_hits=cache_hits, cache_misses=len(todo))
        self._finish_instruments(progress, outcome)
        return outcome

    def run_cell(self, spec: ExperimentSpec,
                 options: Optional[RunOptions] = None) -> CellResult:
        """Run a single cell through the cache/runner stack.

        Failures propagate as exceptions (serial mode re-raises the
        original; pool mode raises :class:`HarnessError` with the
        structured context), making this a drop-in cached variant of
        :func:`~repro.harness.experiment.run_cell`.
        """
        from .spec import single_cell_sweep
        outcome = self.run(single_cell_sweep(spec), options)
        outcome.raise_failures()
        return next(iter(outcome.results.values()))

    # ------------------------------------------------------------------
    # Serial execution
    # ------------------------------------------------------------------

    def _run_serial(self, todo, options, progress, total, done):
        results: Dict[ExperimentSpec, CellResult] = {}
        failures: Dict[ExperimentSpec, CellFailure] = {}
        for spec in todo:
            try:
                results[spec] = run_cell(
                    spec, config=options.config, tracker=options.tracker,
                    telemetry=options.telemetry,
                    validator=options.build_validator())
                done += 1
                self._report(progress, done, total, spec, "run")
            except Exception as exc:  # noqa: BLE001 - captured per cell
                failures[spec] = self._failure_from_exception(spec, exc)
                done += 1
                self._report(progress, done, total, spec, "failed")
        return results, failures

    @staticmethod
    def _failure_from_exception(spec, exc) -> CellFailure:
        from ..validation import InvariantViolation
        if isinstance(exc, InvariantViolation):
            return CellFailure(
                spec=spec, kind="invariant", message=str(exc),
                context=dict(exc.context), exception=exc)
        return CellFailure(
            spec=spec, kind="error",
            message=f"{type(exc).__name__}: {exc}",
            traceback=traceback_module.format_exc(), exception=exc)

    # ------------------------------------------------------------------
    # Pool execution
    # ------------------------------------------------------------------

    def _run_pool(self, todo, options, progress, total, done):
        results: Dict[ExperimentSpec, CellResult] = {}
        failures: Dict[ExperimentSpec, CellFailure] = {}
        attempts = {spec: 1 for spec in todo}
        base = done  # cells already accounted for (cache hits)
        survivors = self._pool_round(todo, options, results, failures,
                                     attempts, progress, total, base)
        # A broken pool leaves survivors unattributed: re-run each in
        # its own single-worker pool so only the genuinely crashing
        # cell fails its retry budget.
        while survivors:
            spec = survivors.pop(0)
            if attempts[spec] > self.retries:
                failures[spec] = CellFailure(
                    spec=spec, kind="crash",
                    message="worker process died before returning a result",
                    attempts=attempts[spec])
                self._report(progress, base + len(results) + len(failures),
                             total, spec, "failed")
                continue
            attempts[spec] += 1
            leftover = self._pool_round(
                [spec], options, results, failures, attempts, progress,
                total, base + len(results) + len(failures), isolate=True)
            survivors = leftover + survivors
        return results, failures

    def _pool_round(self, todo, options, results, failures, attempts,
                    progress, total, done, isolate=False):
        """One executor's worth of cells; returns crash survivors."""
        max_workers = 1 if isolate else min(self.workers, len(todo))
        executor = concurrent.futures.ProcessPoolExecutor(
            max_workers=max_workers)
        futures = [(executor.submit(_pool_worker, spec, options.config,
                                    options.validate), spec)
                   for spec in todo]
        survivors: List[ExperimentSpec] = []
        timed_out = False
        broken = False
        for future, spec in futures:
            try:
                status, payload = future.result(timeout=self.timeout)
            except concurrent.futures.TimeoutError:
                future.cancel()
                failures[spec] = CellFailure(
                    spec=spec, kind="timeout",
                    message=(f"cell exceeded the {self.timeout:.1f}s "
                             "per-cell budget"),
                    attempts=attempts[spec])
                timed_out = True
                done += 1
                self._report(progress, done, total, spec, "failed")
                continue
            except (BrokenProcessPool, EOFError, OSError):
                broken = True
                survivors.append(spec)
                continue
            if status == "ok":
                results[spec] = payload
                done += 1
                self._report(progress, done, total, spec, "run")
            elif status == "invariant":
                failures[spec] = CellFailure(
                    spec=spec, kind="invariant",
                    message=payload["message"],
                    attempts=attempts[spec],
                    context=dict(payload.get("context", {})))
                done += 1
                self._report(progress, done, total, spec, "failed")
            else:
                failures[spec] = CellFailure(
                    spec=spec, kind="error", message=payload["message"],
                    attempts=attempts[spec],
                    traceback=payload.get("traceback", ""))
                done += 1
                self._report(progress, done, total, spec, "failed")
        self._shutdown(executor, kill=timed_out or broken)
        return survivors

    @staticmethod
    def _shutdown(executor, kill: bool) -> None:
        """Tear an executor down without hanging on stuck workers."""
        if not kill:
            executor.shutdown(wait=True)
            return
        # shutdown() drops its process table, so grab it first — the
        # stuck/dead workers must be terminated, not waited on.
        processes = list((getattr(executor, "_processes", None) or {})
                         .values())
        try:
            executor.shutdown(wait=False, cancel_futures=True)
        except TypeError:  # pragma: no cover - pre-3.9 signature
            executor.shutdown(wait=False)
        for process in processes:
            try:
                process.terminate()
            except (OSError, AttributeError):  # pragma: no cover
                pass

    # ------------------------------------------------------------------
    # Progress reporting
    # ------------------------------------------------------------------

    def _progress_instruments(self, total: int):
        if self.telemetry is None:
            return None
        registry = self.telemetry.registry
        instruments = {
            "total": registry.gauge(
                "sweep_cells", "Cells in the current sweep"),
            "completed": registry.counter(
                "sweep_cells_completed_total",
                "Sweep cells finished (cached, computed or failed)"),
            "cache_hits": registry.counter(
                "sweep_cache_hits_total",
                "Sweep cells served from the persistent result cache"),
            "failures": registry.counter(
                "sweep_cell_failures_total",
                "Sweep cells that ended in a structured failure"),
        }
        instruments["total"].set(total)
        return instruments

    def _report(self, instruments, done, total, spec, source) -> None:
        if instruments is not None:
            instruments["completed"].inc()
            if source == "cache":
                instruments["cache_hits"].inc()
            elif source == "failed":
                instruments["failures"].inc()
        if self.on_progress is not None:
            self.on_progress(done, total, spec, source)

    @staticmethod
    def _finish_instruments(instruments, outcome) -> None:
        if instruments is None:
            return
        instruments["total"].set(len(outcome.sweep))
