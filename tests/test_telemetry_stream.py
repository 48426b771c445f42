"""End-to-end tests for the streaming telemetry pipeline.

Covers the PR's acceptance criteria: sink choice never perturbs
simulation results, the JSONL sink holds telemetry memory flat on long
runs, the streamed Perfetto export is byte-identical to the in-memory
document, and report bundles carry (and gracefully omit) the windowed
series.
"""

import json
import os
import tracemalloc

import pytest

import repro.sim.trace as trace_mod
import repro.telemetry.sinks as sinks_mod
import repro.telemetry.windows as windows_mod
from repro.cli import main
from repro.harness.experiment import ExperimentSpec, run_cell
from repro.telemetry import (TelemetryHub, build_chrome_trace,
                             render_markdown, validate_bundle,
                             write_bundle, write_chrome_trace)
from repro.units import MS


def _signature(metrics):
    """Everything a run decides, as a comparable value."""
    return ([(o.job_id, o.accepted, o.completion, o.wgs_executed)
             for o in metrics.outcomes],
            metrics.end_time, metrics.total_energy_joules,
            metrics.wg_completions)


def _spec(num_jobs=24):
    return ExperimentSpec(benchmark="LSTM", scheduler="LAX",
                          rate_level="high", num_jobs=num_jobs)


class TestSinkSwapBitIdentity:
    def test_results_identical_across_sinks(self, tmp_path):
        baseline = run_cell(_spec())
        for spec_string in ("list", "ring:64", "null", "jsonl"):
            hub = TelemetryHub(wg_events=True, sink=spec_string,
                               sink_dir=str(tmp_path / spec_string))
            result = run_cell(_spec(), telemetry=hub)
            hub.close()
            assert _signature(result.metrics) == \
                _signature(baseline.metrics), spec_string

    def test_windows_and_monitor_do_not_perturb(self, tmp_path):
        baseline = run_cell(_spec())
        hub = TelemetryHub(window=2 * MS, slo_monitor=True)
        result = run_cell(_spec(), telemetry=hub)
        assert _signature(result.metrics) == _signature(baseline.metrics)
        assert hub.windows.windows_closed > 0

    def test_stream_totals_identical_across_sinks(self, tmp_path):
        hub_list = TelemetryHub(wg_events=True)
        run_cell(_spec(), telemetry=hub_list)
        hub_jsonl = TelemetryHub(wg_events=True, sink="jsonl",
                                 sink_dir=str(tmp_path))
        run_cell(_spec(), telemetry=hub_jsonl)
        hub_jsonl.close()
        assert hub_jsonl.trace.sink.total == hub_list.trace.sink.total
        assert hub_jsonl.trace.counts() == hub_list.trace.counts()
        spilled = sum(1 for _ in hub_jsonl.trace.sink.read_back())
        assert spilled == hub_list.trace.sink.total


class TestFlatMemory:
    def _telemetry_peak(self, num_jobs, tmp_path, sink):
        """Peak bytes retained by telemetry modules during one run."""
        hub = TelemetryHub(wg_events=True, sink=sink,
                           sink_dir=str(tmp_path / f"run{num_jobs}"),
                           window=1 * MS)
        tracemalloc.start()
        run_cell(_spec(num_jobs=num_jobs), telemetry=hub)
        snapshot = tracemalloc.take_snapshot()
        tracemalloc.stop()
        hub.close()
        telemetry_files = {trace_mod.__file__, sinks_mod.__file__,
                           windows_mod.__file__}
        return sum(stat.size for stat in snapshot.statistics("filename")
                   if stat.traceback[0].filename in telemetry_files)

    def test_jsonl_sink_memory_flat_over_run_length(self, tmp_path):
        short = self._telemetry_peak(6, tmp_path, "jsonl")
        long = self._telemetry_peak(36, tmp_path, "jsonl")
        assert long <= 2 * max(short, 1), (short, long)

    def test_list_sink_memory_grows_with_run_length(self, tmp_path):
        short = self._telemetry_peak(6, tmp_path, "list")
        long = self._telemetry_peak(36, tmp_path, "list")
        assert long > 2 * short, (short, long)


class TestStreamedPerfetto:
    def test_streamed_file_byte_identical_to_document(self, tmp_path):
        hub = TelemetryHub(wg_events=True, window=2 * MS)
        result = run_cell(_spec(), telemetry=hub)
        path = str(tmp_path / "trace.json")
        count = write_chrome_trace(path, hub.trace, decisions=hub.decisions,
                                   outcomes=result.metrics.outcomes,
                                   windows=hub.windows.records)
        document = build_chrome_trace(hub.trace, decisions=hub.decisions,
                                      outcomes=result.metrics.outcomes,
                                      windows=hub.windows.records)
        assert count == len(document["traceEvents"])
        with open(path, encoding="utf-8") as source:
            assert source.read() == json.dumps(document)

    def test_windows_render_as_counter_track(self, tmp_path):
        from repro.telemetry import PID_WINDOWS
        hub = TelemetryHub(window=2 * MS)
        run_cell(_spec(), telemetry=hub)
        document = build_chrome_trace(hub.trace, windows=hub.windows.records)
        window_events = [e for e in document["traceEvents"]
                         if e["pid"] == PID_WINDOWS]
        assert any(e["ph"] == "C" for e in window_events)
        assert any(e.get("name") == "window throughput (jobs/s)"
                   for e in window_events)

    def test_no_windows_process_without_windows(self):
        from repro.telemetry import PID_WINDOWS
        hub = TelemetryHub()
        run_cell(_spec(), telemetry=hub)
        document = build_chrome_trace(hub.trace)
        assert not any(e["pid"] == PID_WINDOWS
                       for e in document["traceEvents"])


class TestBundleWindows:
    def test_bundle_carries_window_series(self, tmp_path):
        hub = TelemetryHub(window=2 * MS, slo_monitor=True)
        result = run_cell(_spec(), telemetry=hub)
        directory = str(tmp_path / "bundle")
        paths = write_bundle(directory, hub, result.metrics, label="cell",
                             diagnostics=result.diagnostics)
        assert validate_bundle(directory)["trace_events"] > 0
        assert "windows.jsonl" in paths
        with open(paths["windows.jsonl"]) as source:
            lines = source.read().strip().split("\n")
        assert len(lines) == hub.windows.windows_closed
        with open(os.path.join(directory, "report.json")) as source:
            report = json.load(source)
        windows_doc = report["windows"]
        assert windows_doc["windows_closed"] == hub.windows.windows_closed
        assert len(windows_doc["series"]) == hub.windows.windows_closed
        assert "monitor" in windows_doc
        with open(os.path.join(directory, "report.md")) as source:
            assert "## Windowed metrics" in source.read()

    def test_report_without_windows_degrades_gracefully(self):
        hub = TelemetryHub()
        result = run_cell(_spec(), telemetry=hub)
        from repro.telemetry import build_report
        report = build_report(result.metrics, hub, label="cell")
        assert "windows" not in report
        markdown = render_markdown(report)
        assert "## Windowed metrics" not in markdown

    def test_render_markdown_tolerates_pre_window_reports(self):
        # A report dict written before windowed metrics existed: the
        # renderer must not KeyError on the absent sections.
        old_report = {
            "format": "repro-run-report-v1",
            "label": "old",
            "summary": {
                "jobs_arrived": 1, "jobs_meeting_deadline": 1,
                "jobs_rejected": 0, "latency_sensitive_jobs": 1,
                "deadline_ratio": 1.0, "p99_latency_ms": 1.0,
                "makespan_ms": 2.0, "wasted_wg_fraction": 0.0,
                "energy_per_successful_job_mj": None,
            },
        }
        markdown = render_markdown(old_report)
        assert "# Run report — old" in markdown
        assert "## Windowed metrics" not in markdown


class TestCliStreaming:
    def test_window_and_monitor_flags(self, capsys):
        code = main(["--benchmark", "LSTM", "--scheduler", "LAX",
                     "--jobs", "12", "--window", "2", "--slo-monitor",
                     "--no-cache"])
        assert code == 0
        err = capsys.readouterr().err
        assert "w=0" in err
        assert "p99=" in err

    def test_jsonl_sink_with_bundle(self, tmp_path, capsys):
        out = str(tmp_path / "bundle")
        code = main(["--benchmark", "LSTM", "--scheduler", "LAX",
                     "--jobs", "12", "--sink", "jsonl", "--window", "2",
                     "--emit-telemetry", out, "--no-cache"])
        assert code == 0
        assert os.path.isfile(os.path.join(out, "events.stream.jsonl"))
        assert os.path.isfile(os.path.join(out, "windows.jsonl"))
        assert validate_bundle(out)["trace_events"] > 0
        assert "telemetry sink jsonl" in capsys.readouterr().out

    def test_report_from_bundle(self, tmp_path, capsys):
        out = str(tmp_path / "bundle")
        assert main(["--benchmark", "LSTM", "--scheduler", "LAX",
                     "--jobs", "12", "--window", "2",
                     "--emit-telemetry", out, "--no-cache"]) == 0
        capsys.readouterr()
        assert main(["report", "--from-bundle", out]) == 0
        markdown = capsys.readouterr().out
        assert "# Run report" in markdown
        assert "## Windowed metrics" in markdown

    def test_report_from_bundle_without_windows(self, tmp_path, capsys):
        out = str(tmp_path / "bundle")
        assert main(["--benchmark", "LSTM", "--scheduler", "LAX",
                     "--jobs", "12", "--emit-telemetry", out,
                     "--no-cache"]) == 0
        capsys.readouterr()
        assert main(["report", "--from-bundle", out]) == 0
        markdown = capsys.readouterr().out
        assert "# Run report" in markdown
        assert "## Windowed metrics" not in markdown

    def test_slo_monitor_requires_window(self, capsys):
        assert main(["--slo-monitor"]) == 2
        assert "--window" in capsys.readouterr().out

    def test_unknown_sink_rejected(self, capsys):
        assert main(["--sink", "kafka"]) == 2
        assert "unknown sink kind" in capsys.readouterr().out

    def test_jsonl_sink_needs_directory(self, capsys):
        assert main(["--sink", "jsonl"]) == 2
        assert "jsonl" in capsys.readouterr().out

    def test_from_bundle_requires_report_command(self, capsys):
        assert main(["--from-bundle", "somewhere"]) == 2
        assert "report" in capsys.readouterr().out

    def test_from_bundle_missing_report(self, tmp_path, capsys):
        assert main(["report", "--from-bundle", str(tmp_path)]) == 2
        assert "no report.json" in capsys.readouterr().out
