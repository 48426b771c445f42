"""Command-line front end: run experiment cells and print summaries.

Examples::

    lax-sim --benchmark LSTM --scheduler LAX --rate high
    lax-sim --benchmark IPV6 --scheduler RR --rate medium --jobs 64
    lax-sim --benchmark SUSTAINED --scheduler LAX --stream 100000
    lax-sim --benchmark SUSTAINED --stream 50000 --rate x1.5 --validate
    lax-sim --benchmark LSTM --scheduler LAX --emit-telemetry out/
    lax-sim --benchmark LSTM --scheduler LAX --window 2 --slo-monitor
    lax-sim --benchmark LSTM --sink jsonl --emit-telemetry out/
    lax-sim report --benchmark LSTM --scheduler LAX --rate high
    lax-sim report --from-bundle out/
    lax-sim --benchmark LSTM --compare LAX RR PREMA --workers 4
    lax-sim --benchmark LSTM --compare LAX RR --workers 4 --validate
    lax-sim --benchmark LSTM --scheduler LAX --refresh
    lax-sim cache stats
    lax-sim cache clear
    lax-sim --list

Cell runs and ``--compare`` sweeps execute through the sweep runner
(:mod:`repro.harness.runner`): results are served from the persistent
content-addressed cache when the same (spec, config, code version) has
run before, ``--workers N`` fans a comparison sweep out over worker
processes, ``--no-cache`` bypasses the cache and ``--refresh``
recomputes and overwrites it.  ``lax-sim cache stats``/``clear``
inspect and empty the store (``$REPRO_CACHE_DIR`` or
``~/.cache/repro``; override per call with ``--cache-dir``).

``--trace`` and ``--emit-telemetry`` compose with every run mode
(single cell, ``--workload`` and, for ``--emit-telemetry``, ``--compare``);
combinations that cannot run (e.g. with ``--save-workload``, which never
simulates) exit with a clear error instead of being silently dropped.
``--validate`` attaches the runtime invariant checker and sweeps the
analytic oracles after the run; a violation exits with code 3 and the
structured event context instead of a traceback.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from .harness.experiment import ExperimentSpec, run_cell
from .harness.formatting import format_table
from .schedulers.registry import scheduler_names
from .sim.time import to_ms
from .workloads.registry import BENCHMARK_ORDER, RATE_LEVELS


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lax-sim",
        description=("Simulate one (benchmark, scheduler, arrival rate) "
                     "cell of the LAX evaluation (HPCA 2021)."))
    parser.add_argument("command", nargs="?", default="run",
                        choices=("run", "report", "cache"),
                        help="'run' prints the summary table (default); "
                             "'report' prints the full markdown run report "
                             "with deadline-miss post-mortems; 'cache' "
                             "manages the persistent result cache")
    parser.add_argument("action", nargs="?", default=None,
                        metavar="ACTION",
                        help="subcommand for 'cache': 'stats' or 'clear'")
    parser.add_argument("--benchmark", default="LSTM",
                        choices=list(BENCHMARK_ORDER) + ["SUSTAINED"],
                        help="one of the Table 4 benchmarks, or SUSTAINED "
                             "(the streaming sustained-traffic cell)")
    parser.add_argument("--scheduler", default="LAX",
                        choices=scheduler_names())
    parser.add_argument("--rate", default="high",
                        help="arrival-rate level from Table 4 ('high', "
                             "'medium', 'low') or an 'x<multiplier>' of "
                             "the high rate (e.g. 'x1.5') for load sweeps")
    parser.add_argument("--jobs", type=int, default=128,
                        help="jobs to simulate (paper uses 128)")
    parser.add_argument("--stream", type=int, metavar="N",
                        help="run N jobs as a lazy streamed workload "
                             "(SUSTAINED only): jobs are generated on "
                             "demand and retired on completion, so memory "
                             "stays O(live jobs) at any N")
    parser.add_argument("--no-retire", action="store_true", dest="no_retire",
                        help="with --stream: keep every job's state until "
                             "the end of the run (the seed bookkeeping; "
                             "memory grows with N)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--devices", type=int, metavar="N",
                        help="run a routed N-device cluster instead of one "
                             "GPU; works with a finite cell or --stream "
                             "(the stream offers N x the per-device rate)")
    parser.add_argument("--router", metavar="NAME",
                        help="cluster routing policy (default laxity); "
                             "requires --devices.  See 'lax-sim --list'")
    parser.add_argument("--list", action="store_true",
                        help="list benchmarks and schedulers, then exit")
    parser.add_argument("--compare", nargs="+", metavar="SCHED",
                        help="run several schedulers on the same cell and "
                             "print a comparison table")
    parser.add_argument("--trace", metavar="PATH",
                        help="record a WG-level event trace of the run to "
                             "PATH (.jsonl or .csv)")
    parser.add_argument("--emit-telemetry", metavar="DIR",
                        dest="emit_telemetry",
                        help="write the full telemetry bundle (Perfetto "
                             "trace, metrics snapshots, run report) to DIR")
    parser.add_argument("--sink", default="list", metavar="SPEC",
                        help="telemetry sink backing the event streams: "
                             "'list' (default, retain all in memory), "
                             "'ring[:N]' (last N events), 'jsonl[:DIR]' "
                             "(stream to disk, flat memory) or 'null'")
    parser.add_argument("--window", type=float, metavar="MS",
                        help="collect windowed steady-state metrics "
                             "(per-window p50/p99, SLO attainment, "
                             "throughput, occupancy) over tumbling "
                             "MS-millisecond windows of sim-time")
    parser.add_argument("--slo-monitor", action="store_true",
                        dest="slo_monitor",
                        help="stream a live per-window progress line and "
                             "SLO threshold alerts to stderr "
                             "(needs --window)")
    parser.add_argument("--from-bundle", metavar="DIR", dest="from_bundle",
                        help="with the report command: render DIR's "
                             "report.json instead of running a simulation")
    parser.add_argument("--workload", metavar="FILE",
                        help="run a workload JSON file instead of a "
                             "generated benchmark")
    parser.add_argument("--save-workload", metavar="FILE",
                        help="write the generated workload to FILE and exit")
    parser.add_argument("--validate", action="store_true",
                        help="run under the invariant checker and sweep the "
                             "analytic oracles afterwards; exits 3 with the "
                             "violation's event context on failure")
    parser.add_argument("--workers", type=int, default=1, metavar="N",
                        help="worker processes for --compare sweeps "
                             "(default 1 = serial; results are "
                             "bit-identical either way)")
    parser.add_argument("--cache-dir", metavar="DIR", dest="cache_dir",
                        help="persistent result-cache directory (default "
                             "$REPRO_CACHE_DIR or ~/.cache/repro)")
    parser.add_argument("--no-cache", action="store_true", dest="no_cache",
                        help="bypass the persistent result cache entirely")
    parser.add_argument("--refresh", action="store_true",
                        help="ignore cached results but rewrite the cache "
                             "from the fresh runs")
    return parser


def _mode_error(args) -> Optional[str]:
    """Reject argument combinations that cannot do what they ask."""
    report = args.command == "report"
    if args.command == "cache":
        if args.action not in ("stats", "clear"):
            return "cache expects an action: 'stats' or 'clear'"
        if (args.compare or args.workload or args.save_workload
                or args.trace or args.emit_telemetry or args.validate
                or args.window is not None or args.slo_monitor
                or args.sink != "list" or args.from_bundle):
            return ("'cache stats/clear' manages the result store and "
                    "cannot be combined with run flags")
    elif args.action is not None:
        return (f"unexpected positional {args.action!r}; only the cache "
                "command takes an action")
    if args.workers < 1:
        return "--workers must be at least 1"
    if args.jobs < 1:
        return "--jobs needs a positive job count"
    if args.seed < 0:
        return "--seed must be a non-negative integer"
    from .errors import WorkloadError
    from .workloads.registry import validate_rate_level
    try:
        validate_rate_level(args.rate)
    except WorkloadError as exc:
        return str(exc)
    if args.no_retire and args.stream is None:
        return "--no-retire only changes --stream runs; add --stream N"
    if args.stream is not None:
        if args.stream < 1:
            return "--stream needs a positive job count"
        if args.benchmark != "SUSTAINED":
            return ("--stream feeds the lazy SUSTAINED arrival source; "
                    "use --benchmark SUSTAINED")
        if args.compare or args.workload or args.save_workload:
            return ("--stream simulates one lazily generated run and "
                    "cannot be combined with --compare, --workload or "
                    "--save-workload")
        if args.workers > 1 and args.devices is None:
            return "--stream runs one in-process simulation; drop --workers"
        if args.from_bundle:
            return "--stream and --from-bundle cannot be combined"
    if args.devices is not None:
        if args.devices < 1:
            return "--devices needs a positive device count"
        from .cluster import router_names
        router = args.router if args.router is not None else "laxity"
        if router not in router_names():
            return (f"unknown router {router!r}; known: "
                    f"{', '.join(router_names())}")
        if router == "pass-through" and args.devices != 1:
            return "--router pass-through is single-device; use --devices 1"
        if (args.compare or args.workload or args.save_workload
                or args.trace or args.emit_telemetry
                or args.window is not None or args.slo_monitor
                or args.sink != "list" or args.from_bundle
                or args.command == "report"):
            return ("--devices runs a routed fleet and prints its summary "
                    "table; it cannot be combined with --compare, "
                    "--workload, --save-workload, --trace, "
                    "--emit-telemetry, --sink/--window/--slo-monitor or "
                    "the report command")
    elif args.router is not None:
        return "--router chooses a cluster policy; add --devices N"
    if args.no_cache and args.refresh:
        return ("--no-cache skips the result cache entirely; --refresh "
                "rewrites it — pick one")
    if args.workers > 1:
        if (args.trace or args.emit_telemetry or args.window is not None
                or args.slo_monitor or args.sink != "list"):
            return ("--trace/--emit-telemetry/--sink/--window/--slo-monitor "
                    "observe one in-process run; telemetry requires serial "
                    "execution — drop --workers")
        if args.workload:
            return "--workload runs a single file; --workers does not apply"
    if args.from_bundle:
        if not report:
            return ("--from-bundle renders an existing bundle's report; "
                    "use the report command")
        if (args.compare or args.workload or args.save_workload
                or args.trace or args.emit_telemetry or args.validate
                or args.window is not None or args.slo_monitor
                or args.sink != "list"):
            return ("report --from-bundle renders an existing report.json "
                    "and cannot be combined with run flags")
    if args.window is not None and args.window <= 0:
        return "--window must be a positive duration in milliseconds"
    if args.slo_monitor and args.window is None:
        return "--slo-monitor needs --window MS to define its windows"
    if args.sink != "list":
        from .errors import TelemetryError
        from .telemetry import parse_sink_spec
        try:
            kind, arg = parse_sink_spec(args.sink)
        except TelemetryError as exc:
            return str(exc)
        if kind == "jsonl" and arg is None and not args.emit_telemetry:
            return ("--sink jsonl needs a directory: use jsonl:DIR or "
                    "combine with --emit-telemetry DIR")
    if args.save_workload:
        if (args.trace or args.emit_telemetry or report or args.validate
                or args.window is not None or args.slo_monitor
                or args.sink != "list"):
            return ("--save-workload only writes a workload file (nothing "
                    "is simulated); it cannot be combined with --trace, "
                    "--emit-telemetry, --sink/--window/--slo-monitor, "
                    "--validate or the report command")
        if args.compare:
            return "--save-workload and --compare cannot be combined"
    if args.compare:
        if args.workload:
            return "--workload and --compare cannot be combined"
        if args.trace:
            return ("--trace records a single run; with --compare use "
                    "--emit-telemetry DIR to write one bundle per scheduler")
        if report:
            return ("the report command describes a single run; drop "
                    "--compare or use --emit-telemetry DIR instead")
    if args.trace and not args.trace.endswith((".jsonl", ".csv")):
        return "--trace expects a .jsonl or .csv path"
    return None


def _output_error(args) -> Optional[str]:
    """Create every output directory before anything is simulated, so
    an unusable location fails at once, with one line."""
    directories = [args.emit_telemetry]
    if args.sink != "list":
        from .telemetry import parse_sink_spec
        kind, arg = parse_sink_spec(args.sink)
        if kind == "jsonl":
            directories.append(arg)
    for path in (args.trace, args.save_workload):
        if path:
            directories.append(os.path.dirname(path))
    for directory in filter(None, directories):
        try:
            os.makedirs(directory, exist_ok=True)
        except OSError as exc:
            return f"cannot create output directory {directory}: {exc}"
    return None


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point for the ``lax-sim`` console script."""
    args = _build_parser().parse_args(argv)
    if args.list:
        from .cluster import router_names
        print("benchmarks:", ", ".join(BENCHMARK_ORDER),
              "+ SUSTAINED (streaming)")
        print("schedulers:", ", ".join(scheduler_names()))
        print("rate levels:", ", ".join(RATE_LEVELS),
              "or x<multiplier> of high (e.g. x1.5)")
        print("routers:", ", ".join(router_names()),
              "(--devices N --router NAME)")
        return 0
    error = _mode_error(args) or _output_error(args)
    if error is not None:
        print(error)
        return 2
    if args.command == "cache":
        return _cache_command(args)
    if args.from_bundle:
        return _report_from_bundle(args)
    if args.save_workload:
        return _save_workload(args)
    if args.compare:
        return _compare(args)
    if args.devices is not None:
        return _run_cluster(args)
    if args.workload or args.stream is not None:
        return _run_direct(args)
    return _run_single(args)


def _cache_command(args) -> int:
    """``lax-sim cache stats`` / ``lax-sim cache clear``."""
    from .harness.cache import ResultCache
    cache = ResultCache(args.cache_dir)
    if args.action == "clear":
        removed = cache.clear()
        print(f"removed {removed} cached result(s) from {cache.directory}")
        return 0
    stats = cache.stats()
    rows = [
        ("directory", stats["directory"]),
        ("entries", stats["entries"]),
        ("total bytes", stats["total_bytes"]),
        ("package version", stats["version"]),
    ]
    print(format_table(("field", "value"), rows, title="result cache"))
    return 0


def _make_runner(args, workers: int = 1, on_progress=None):
    """A Runner wired to this invocation's cache and worker flags."""
    from .harness.runner import Runner
    return Runner(workers=workers, cache=not args.no_cache,
                  cache_dir=args.cache_dir, refresh=args.refresh,
                  on_progress=on_progress)


def _window_ticks(args) -> Optional[int]:
    """--window milliseconds as integer ticks, or None."""
    if args.window is None:
        return None
    from .units import MS
    return max(1, int(args.window * MS))


def _make_hub(args, label: str = "run", sink_dir: Optional[str] = None):
    """Telemetry hub for this invocation, or None when nothing asked."""
    if not (args.trace or args.emit_telemetry or args.command == "report"
            or args.window is not None or args.slo_monitor
            or args.sink != "list"):
        return None
    from .telemetry import TelemetryHub
    hub = TelemetryHub(wg_events=bool(args.trace), sink=args.sink,
                       sink_dir=(sink_dir if sink_dir is not None
                                 else args.emit_telemetry),
                       window=_window_ticks(args),
                       slo_monitor=args.slo_monitor,
                       slo_stream=sys.stderr if args.slo_monitor else None,
                       label=label)
    if hub.monitor is not None:
        from .telemetry import print_alert, reject_rate_above, slo_below
        hub.monitor.add_rule("slo_attainment<0.95", slo_below(0.95),
                             consecutive=3, callback=print_alert)
        hub.monitor.add_rule("reject_rate>0.5", reject_rate_above(0.5),
                             consecutive=3, callback=print_alert)
    return hub


def _report_from_bundle(args) -> int:
    """Render an already-written bundle's report.json as markdown.

    Works on bundles written before windowed metrics existed — the
    renderer skips sections whose keys are absent.
    """
    from .errors import TelemetryError
    from .telemetry import render_markdown
    from .telemetry.report import load_report
    try:
        report = load_report(args.from_bundle)
    except TelemetryError as exc:
        print(f"cannot render --from-bundle {args.from_bundle}: {exc}")
        return 2
    print(render_markdown(report), end="")
    return 0


def _make_validator(args):
    """Invariant checker when ``--validate`` was passed, else None."""
    if not args.validate:
        return None
    from .validation import InvariantChecker
    return InvariantChecker()


def _violation_exit(exc, validator, args, hub=None) -> int:
    """Report an invariant violation cleanly; exit code 3.

    Prints the structured event context line by line, and — when
    ``--emit-telemetry`` was also requested — flushes the checker's
    summary into the bundle directory so the post-mortem has the
    conservation state on disk.  Closes the run's telemetry hub.
    """
    print(f"error: {exc}", file=sys.stderr)
    print(f"  invariant: {exc.invariant}", file=sys.stderr)
    print(f"  sim time:  {exc.time}", file=sys.stderr)
    for key, value in sorted(exc.context.items()):
        print(f"  {key}: {value}", file=sys.stderr)
    if args.emit_telemetry and validator is not None:
        from .telemetry import write_validation_summary
        path = write_validation_summary(args.emit_telemetry,
                                        validator.summary())
        print(f"wrote violation summary to {path}", file=sys.stderr)
    _close_hub(hub)
    return 3


def _validation_outcome(summary, quiet: bool = False) -> int:
    """Print the post-run validation verdict; 0 ok, 3 on oracle failure.

    ``quiet`` skips the one-line verdict (report mode embeds it already)
    but still surfaces oracle failures on stderr.
    """
    failures = summary.get("oracle_failures") or []
    if not quiet:
        print(f"validation: {summary['total_checks']} invariant checks, "
              f"{len(summary['violations'])} violations, "
              f"{len(failures)} oracle failures")
    for failure in failures:
        print(f"  oracle: {failure}", file=sys.stderr)
    return 3 if failures else 0


def _sink_note(hub) -> None:
    """One line saying where a non-default sink put the event stream."""
    if hub is None or hub.sink_spec == "list":
        return
    events = hub.sink_summary()["events"]
    note = (f"telemetry sink {events['kind']}: {events['total']} events, "
            f"{events['retained']} retained in memory")
    if "path" in events:
        note += f" -> {events['path']}"
    print(note)


def _close_hub(hub) -> None:
    """Close the hub's sinks (JSONL files) once the run's output is out."""
    if hub is not None:
        hub.close()


def _export_trace(hub, path: str) -> None:
    if path.endswith(".jsonl"):
        count = hub.trace.to_jsonl(path)
    else:
        count = hub.trace.to_csv(path)
    print(f"wrote {count} trace events to {path}")


def _emit_bundle(directory: str, hub, metrics, label: str,
                 diagnostics, validation=None) -> None:
    from .telemetry import write_bundle
    paths = write_bundle(directory, hub, metrics, label=label,
                         diagnostics=diagnostics, validation=validation)
    print(f"wrote telemetry bundle ({len(paths)} files) to {directory}")


def _print_report(hub, metrics, label: str, diagnostics,
                  validation=None) -> None:
    from .telemetry import build_report, render_markdown
    print(render_markdown(build_report(metrics, hub, label=label,
                                       diagnostics=diagnostics,
                                       validation=validation)), end="")


def _summary_rows(metrics) -> List[tuple]:
    p99_value = metrics.p99_latency_ticks
    energy = metrics.energy_per_successful_job_mj
    return [
        ("jobs arrived", metrics.num_jobs),
        ("jobs meeting deadline", metrics.jobs_meeting_deadline),
        ("jobs rejected", metrics.jobs_rejected),
        ("deadline ratio", f"{metrics.deadline_ratio:.3f}"),
        ("successful throughput (jobs/s)",
         f"{metrics.successful_throughput:.0f}"),
        ("99p latency (ms)",
         f"{to_ms(p99_value):.3f}" if p99_value is not None else "-"),
        ("energy per successful job (mJ)",
         f"{energy:.4f}" if energy is not None else "-"),
        ("wasted WG fraction", f"{metrics.wasted_wg_fraction:.3f}"),
        ("makespan (ms)", f"{to_ms(metrics.makespan_ticks):.3f}"),
    ]


def _run_single(args) -> int:
    """Run one generated cell; print a table or a full report.

    The cell executes through the serial runner, so an unobserved run
    (no trace/telemetry/report) is served from the persistent result
    cache when its content digest has run before.
    """
    from .harness.spec import RunOptions, single_cell_sweep
    from .validation import InvariantViolation
    spec = ExperimentSpec(benchmark=args.benchmark, scheduler=args.scheduler,
                          rate_level=args.rate, num_jobs=args.jobs,
                          seed=args.seed)
    hub = _make_hub(args, label=spec.describe())
    validator = _make_validator(args)
    options = RunOptions(telemetry=hub, validator=validator,
                         validate=args.validate)
    outcome = _make_runner(args, workers=1).run(single_cell_sweep(spec),
                                                options)
    failure = outcome.failures.get(spec)
    if failure is not None:
        if isinstance(failure.exception, InvariantViolation):
            return _violation_exit(failure.exception, validator, args, hub)
        outcome.raise_failures()
    result = outcome.results[spec]
    return _finish_run(args, hub, result.metrics, spec.describe(),
                       result.diagnostics,
                       result.diagnostics.get("validation"))


def _finish_run(args, hub, metrics, label: str, diagnostics,
                validation) -> int:
    """Print a single-device run's table or report, write what it
    asked for, close the hub and return the exit code."""
    if args.command == "report":
        _print_report(hub, metrics, label, diagnostics,
                      validation=validation)
    else:
        print(format_table(("metric", "value"), _summary_rows(metrics),
                           title=label))
    if args.trace:
        _export_trace(hub, args.trace)
    if args.emit_telemetry:
        _emit_bundle(args.emit_telemetry, hub, metrics, label, diagnostics,
                     validation=validation)
    _sink_note(hub)
    _close_hub(hub)
    if validation is not None:
        return _validation_outcome(validation,
                                   quiet=args.command == "report")
    return 0


def _save_workload(args) -> int:
    """Generate a benchmark workload and write it to a JSON file."""
    from .config import SimConfig
    from .workloads.registry import build_workload
    from .workloads.serialization import save_workload

    jobs = build_workload(args.benchmark, args.rate, num_jobs=args.jobs,
                          seed=args.seed, gpu=SimConfig().gpu)
    count = save_workload(jobs, args.save_workload)
    print(f"wrote {count} {args.benchmark}@{args.rate} jobs to "
          f"{args.save_workload}")
    return 0


def _run_direct(args) -> int:
    """Run a workload file or a streamed SUSTAINED cell in-process.

    Both submit an arrival stream to one device.  A file is a finite
    list, which ``submit_workload`` sorts by ``(arrival, job_id)``.
    ``--stream N`` draws N jobs on demand from the Poisson
    sustained-traffic source and, unless ``--no-retire``, retires each
    one as it reaches a terminal state, so memory stays O(live jobs) at
    any N; the summary then reads the stream aggregate.
    """
    from .config import SimConfig
    from .harness.experiment import run_diagnostics
    from .schedulers.registry import make_scheduler
    from .sim.device import GPUSystem
    from .validation import InvariantViolation, audit_run

    config = SimConfig()
    # The jobs the oracles audit.  Retired jobs carry no kernel state,
    # so a retired stream leaves this empty and the oracles read the
    # banked stream aggregate instead.
    jobs: List[object] = []
    if args.workload:
        from .errors import WorkloadError
        from .workloads.serialization import load_workload
        try:
            jobs = load_workload(args.workload)
        except (OSError, ValueError, WorkloadError) as exc:
            print(f"cannot load --workload {args.workload}: {exc}")
            return 2
        label = f"{args.workload} under {args.scheduler}"
    else:
        label = (f"{args.benchmark}/{args.scheduler}@{args.rate} "
                 f"stream n={args.stream} seed={args.seed}")
    hub = _make_hub(args, label=label)
    validator = _make_validator(args)
    retire = args.stream is not None and not args.no_retire
    system = GPUSystem(make_scheduler(args.scheduler), config,
                       telemetry=hub, validator=validator, retire=retire)
    if args.workload:
        system.submit_workload(jobs)
    else:
        from .workloads.registry import benchmark_spec
        from .workloads.streaming import sustained_source
        source = sustained_source(benchmark_spec(args.benchmark)
                                  .rate(args.rate),
                                  seed=args.seed, gpu=config.gpu)
        stream = source.jobs()
        if validator is not None and not retire:
            stream = jobs = source.materialize(args.stream)
        system.submit_stream(stream, max_jobs=args.stream)
    try:
        metrics = system.run()
    except InvariantViolation as exc:
        return _violation_exit(exc, validator, args, hub)
    diagnostics = run_diagnostics(system)
    if args.stream is not None:
        diagnostics["jobs_retired"] = \
            metrics.stream.jobs if metrics.stream else 0
    validation = None
    if validator is not None:
        validation = validator.summary()
        validation["oracle_failures"] = audit_run(system, jobs, metrics)
    return _finish_run(args, hub, metrics, label, diagnostics, validation)


def _run_cluster(args) -> int:
    """Run a routed multi-device fleet; print the fleet summary table.

    A finite cell routes the generated workload across the devices; a
    ``--stream N`` run offers ``--devices`` times the per-device
    sustained rate through one front door, so a balanced router loads
    each device like the single-device cell at the same level.
    ``--workers`` fans the per-device simulations out over processes
    (bit-identical to serial).
    """
    from .cluster import ClusterSystem
    from .config import SimConfig
    from .workloads.registry import benchmark_spec, build_workload
    from .workloads.streaming import sustained_fleet_source

    config = SimConfig()
    router = args.router if args.router is not None else "laxity"
    fleet = ClusterSystem(
        args.scheduler, config, num_devices=args.devices, router=router,
        seed=args.seed, validate=args.validate, workers=args.workers,
        retire=args.stream is not None and not args.no_retire)
    if args.stream is not None:
        rate = benchmark_spec(args.benchmark).rate(args.rate)
        source = sustained_fleet_source(args.devices, rate,
                                        seed=args.seed, gpu=config.gpu)
        fleet.submit_stream(source, max_jobs=args.stream)
        label = (f"{args.benchmark}/{args.scheduler}@{args.rate} "
                 f"x{args.devices} router={router} stream n={args.stream} "
                 f"seed={args.seed}")
    else:
        fleet.submit_workload(build_workload(
            args.benchmark, args.rate, args.jobs, seed=args.seed))
        label = (f"{args.benchmark}/{args.scheduler}@{args.rate} "
                 f"x{args.devices} router={router} n={args.jobs} "
                 f"seed={args.seed}")
    if args.validate:
        from .validation import InvariantViolation
        try:
            metrics = fleet.run()
        except InvariantViolation as exc:
            return _violation_exit(exc, None, args)
    else:
        metrics = fleet.run()
    p99_value = metrics.p99_latency_ticks
    rows = [
        ("jobs arrived", metrics.num_jobs),
        ("jobs meeting deadline", metrics.jobs_meeting_deadline),
        ("jobs rejected (router)", metrics.router_rejected),
        ("jobs rejected (total)", metrics.jobs_rejected),
        ("fleet SLO attainment", f"{metrics.deadline_ratio:.3f}"),
        ("load imbalance (jobs max/mean)", f"{metrics.load_imbalance:.3f}"),
        ("work imbalance (WGs max/mean)", f"{metrics.work_imbalance:.3f}"),
        ("99p latency (ms)",
         f"{to_ms(p99_value):.3f}" if p99_value is not None else "-"),
        ("device wall-clock (s)", f"{metrics.wall_seconds:.2f}"),
    ]
    for index, size in enumerate(metrics.lane_sizes):
        attainment = metrics.per_device_attainment[index]
        rows.append((f"device {index}",
                     f"{size} jobs, SLO {attainment:.3f}"))
    print(format_table(("metric", "value"), rows, title=label))
    if args.validate:
        checks = sum(
            1 for diag in metrics.diagnostics if diag is not None)
        print(f"validation: router conservation ok, invariant checker "
              f"attached to {checks} device runs")
    return 0


def _comparison_row(name, metrics) -> tuple:
    p99_value = metrics.p99_latency_ticks
    return (
        name,
        f"{metrics.jobs_meeting_deadline}/{metrics.num_jobs}",
        metrics.jobs_rejected,
        f"{metrics.wasted_wg_fraction * 100:.0f}%",
        f"{to_ms(p99_value):.3f}" if p99_value is not None else "-",
        f"{metrics.successful_throughput:.0f}",
    )


def _print_comparison(args, rows) -> None:
    print(format_table(
        ("scheduler", "met deadline", "rejected", "wasted", "p99 (ms)",
         "throughput (jobs/s)"),
        rows,
        title=f"{args.benchmark}@{args.rate} n={args.jobs} seed={args.seed}"))


def _oracle_exit_code(name, validation) -> int:
    """Print a scheduler's oracle failures; 3 when any, else 0."""
    if validation is not None and validation.get("oracle_failures"):
        for failure in validation["oracle_failures"]:
            print(f"  oracle ({name}): {failure}", file=sys.stderr)
        return 3
    return 0


def _compare(args) -> int:
    """Run one (benchmark, rate) cell under several schedulers.

    The sweep executes through the parallel runner (``--workers N``
    fans schedulers out over processes; results are identical to
    serial) with the persistent result cache in front.  With
    ``--emit-telemetry DIR`` the sweep runs serially in-process and
    each scheduler's bundle lands in its own ``DIR/<scheduler>/``
    subdirectory.
    """
    known = set(scheduler_names())
    for name in args.compare:
        if name not in known:
            print(f"unknown scheduler {name!r}; known: "
                  f"{', '.join(sorted(known))}")
            return 2
    if args.emit_telemetry:
        return _compare_with_bundles(args)

    from .harness.spec import RunOptions, SweepSpec
    sweep = SweepSpec(benchmarks=(args.benchmark,),
                      schedulers=tuple(args.compare),
                      rate_levels=(args.rate,), seeds=(args.seed,),
                      num_jobs=args.jobs)

    def report_progress(done, total, spec, source):
        tag = {"cache": "cached", "run": "ran", "failed": "FAILED"}[source]
        print(f"[{done}/{total}] {spec.describe()} ({tag})",
              file=sys.stderr)

    runner = _make_runner(args, workers=args.workers,
                          on_progress=report_progress)
    outcome = runner.run(sweep, RunOptions(validate=args.validate))
    exit_code = 0
    for failure in outcome.failures.values():
        if failure.kind == "invariant":
            print(f"error: {failure.message}", file=sys.stderr)
            for key, value in sorted(failure.context.items()):
                print(f"  {key}: {value}", file=sys.stderr)
            exit_code = 3
        else:
            print(f"error: {failure.describe()}", file=sys.stderr)
            exit_code = exit_code or 1
    rows = []
    for spec, result in outcome.results.items():
        validation = result.diagnostics.get("validation")
        oracle_code = _oracle_exit_code(spec.scheduler, validation)
        exit_code = exit_code or oracle_code
        rows.append(_comparison_row(spec.scheduler, result.metrics))
    _print_comparison(args, rows)
    print(outcome.describe())
    return exit_code


def _compare_with_bundles(args) -> int:
    """Serial comparison that writes one telemetry bundle per scheduler."""
    exit_code = 0
    rows = []
    for name in args.compare:
        spec = ExperimentSpec(benchmark=args.benchmark, scheduler=name,
                              rate_level=args.rate, num_jobs=args.jobs,
                              seed=args.seed)
        hub = _make_hub(args, label=spec.describe(),
                        sink_dir=os.path.join(args.emit_telemetry, name))
        validator = _make_validator(args)
        if validator is not None:
            from .validation import InvariantViolation
            try:
                result = run_cell(spec, telemetry=hub, validator=validator)
            except InvariantViolation as exc:
                return _violation_exit(exc, validator, args, hub)
        else:
            result = run_cell(spec, telemetry=hub)
        metrics = result.metrics
        validation = result.diagnostics.get("validation")
        _emit_bundle(os.path.join(args.emit_telemetry, name), hub,
                     metrics, spec.describe(), result.diagnostics,
                     validation=validation)
        _close_hub(hub)
        exit_code = exit_code or _oracle_exit_code(name, validation)
        rows.append(_comparison_row(name, metrics))
    _print_comparison(args, rows)
    return exit_code


if __name__ == "__main__":  # pragma: no cover - manual entry
    sys.exit(main())
