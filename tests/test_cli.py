"""Unit tests for the lax-sim command-line entry point."""

import json

import pytest

from repro.cli import main
from repro.telemetry import validate_bundle

from conftest import REPORT_SUMMARY, report_document


class TestCli:
    def test_list_mode(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "LSTM" in out
        assert "LAX" in out
        assert "high" in out

    def test_runs_small_cell(self, capsys):
        code = main(["--benchmark", "IPV6", "--scheduler", "LAX",
                     "--rate", "high", "--jobs", "12"])
        assert code == 0
        out = capsys.readouterr().out
        assert "jobs meeting deadline" in out
        assert "IPV6/LAX@high" in out

    def test_rejects_unknown_benchmark(self):
        with pytest.raises(SystemExit):
            main(["--benchmark", "NOPE"])

    def test_rejects_unknown_scheduler(self):
        with pytest.raises(SystemExit):
            main(["--scheduler", "FIFO"])


def _workload(jobs=None, kernel_types=None, **job_fields):
    """A ``repro-workload-v1`` document: one valid job unless overridden."""
    job = {"job_id": 0, "benchmark": "T", "arrival": 0,
           "deadline": 1000000, "kernels": ["k"], **job_fields}
    return {"format": "repro-workload-v1",
            "kernels": kernel_types or {"k": {"num_wgs": 4, "threads_per_wg": 64,
                                         "wg_work": 1000}},
            "jobs": [job] if jobs is None else jobs}


def _without_arrival():
    document = _workload()
    del document["jobs"][0]["arrival"]
    return document


#: Workload files that pass the format check but are malformed inside.
MALFORMED_WORKLOADS = {
    "no-arrival.json": _without_arrival(),
    "kernels-not-a-list.json": _workload(kernels=5),
    "jobs-not-a-list.json": _workload(jobs={"0": {}}),
    "kernel-without-num-wgs.json": _workload(
        kernel_types={"k": {"threads_per_wg": 64, "wg_work": 1000}}),
    "string-deadline.json": _workload(deadline="soon"),
    "dependencies-list.json": _workload(dependencies=[[0]]),
}

#: ``report.json`` contents that no bundle reader can use, by bundle
#: directory name.
MALFORMED_REPORTS = {
    "report-not-json": "not json",
    "report-array": "[1, 2]",
    "report-empty-object": "{}",
    "report-no-label": json.dumps({"format": "repro-run-report-v1",
                                   "summary": {}, "post_mortems": []}),
    "report-summary-missing-field": report_document(summary={}),
    "report-field-not-a-number": report_document(
        summary={**REPORT_SUMMARY, "deadline_ratio": "x"}),
    "report-post-mortem-not-an-object": report_document(post_mortems=[1]),
}


class TestBadInput:
    """Bad numbers, unreadable or malformed workload files, malformed
    bundles under ``report --from-bundle`` and unusable output locations
    end the run with exit code 2 and a single line, never a traceback;
    an output location fails before simulating."""

    CASES = {
        "jobs-zero-run": ["--jobs", "0"],
        "jobs-negative-compare": ["--jobs", "-3", "--compare", "LAX", "RR"],
        "jobs-zero-devices": ["--jobs", "0", "--devices", "2"],
        "jobs-negative-report": ["report", "--jobs", "-3"],
        "jobs-zero-save-workload": ["--jobs", "0",
                                    "--save-workload", "w.json"],
        "seed-negative-run": ["--seed", "-1", "--jobs", "4"],
        "seed-negative-stream": ["--seed", "-1", "--benchmark",
                                 "SUSTAINED", "--stream", "10"],
        "seed-negative-devices": ["--seed", "-1", "--jobs", "4",
                                  "--devices", "2"],
        "seed-negative-compare-workers": [
            "--seed", "-1", "--jobs", "4", "--compare", "LAX", "RR",
            "--workers", "2", "--no-cache"],
        "sink-ring-zero": ["--sink", "ring:0", "--jobs", "4"],
        "sink-ring-not-a-number": ["--sink", "ring:abc", "--jobs", "4"],
        "workload-missing": ["--workload", "missing.json"],
        "workload-not-json": ["--workload", "not-json.json"],
        "workload-no-format": ["--workload", "no-format.json"],
        "workload-not-an-object": ["--workload", "list.json"],
        **{f"workload-{name[:-len('.json')]}": ["--workload", name]
           for name in MALFORMED_WORKLOADS},
        # "file" is a regular file: nothing can be created beneath it.
        "emit-telemetry-under-file": ["--jobs", "4",
                                      "--emit-telemetry", "file/out"],
        "sink-jsonl-under-file": ["--jobs", "4", "--sink", "jsonl:file/out"],
        "trace-under-file": ["--jobs", "4", "--trace", "file/t.jsonl"],
        "save-workload-under-file": ["--jobs", "4",
                                     "--save-workload", "file/w.json"],
        **{f"from-bundle-{name}": ["report", "--from-bundle", name]
           for name in MALFORMED_REPORTS},
    }

    @pytest.mark.parametrize("argv", list(CASES.values()), ids=list(CASES))
    def test_rejected_with_one_line(self, argv, tmp_path, monkeypatch,
                                    capsys):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        (tmp_path / "not-json.json").write_text("not json")
        (tmp_path / "no-format.json").write_text('{"jobs": []}')
        (tmp_path / "list.json").write_text("[1, 2]")
        for name, document in MALFORMED_WORKLOADS.items():
            (tmp_path / name).write_text(json.dumps(document))
        for name, text in MALFORMED_REPORTS.items():
            (tmp_path / name).mkdir()
            (tmp_path / name / "report.json").write_text(text)
        (tmp_path / "file").write_text("")
        assert main(argv) == 2
        captured = capsys.readouterr()
        lines = (captured.out + captured.err).splitlines()
        assert len(lines) == 1, lines
        assert "Traceback" not in lines[0]


class TestTelemetryModes:
    def test_emit_telemetry_writes_valid_bundle(self, tmp_path, capsys):
        out = str(tmp_path / "bundle")
        code = main(["--benchmark", "LSTM", "--scheduler", "LAX",
                     "--jobs", "16", "--emit-telemetry", out])
        assert code == 0
        assert validate_bundle(out)["trace_events"] > 0
        assert "telemetry bundle" in capsys.readouterr().out

    def test_report_from_minimal_bundle(self, tmp_path, capsys):
        """The report the malformed ones are made from renders."""
        (tmp_path / "report.json").write_text(report_document())
        assert main(["report", "--from-bundle", str(tmp_path)]) == 0
        assert "# Run report — x" in capsys.readouterr().out

    def test_report_command_prints_markdown(self, capsys):
        code = main(["report", "--benchmark", "LSTM", "--scheduler", "LAX",
                     "--jobs", "16"])
        assert code == 0
        out = capsys.readouterr().out
        assert "# Run report" in out
        assert "post-mortems" in out

    def test_trace_composes_with_workload(self, tmp_path, capsys):
        workload = str(tmp_path / "w.json")
        assert main(["--benchmark", "IPV6", "--jobs", "8",
                     "--save-workload", workload]) == 0
        trace = str(tmp_path / "t.jsonl")
        code = main(["--workload", workload, "--scheduler", "RR",
                     "--trace", trace])
        assert code == 0
        assert "trace events" in capsys.readouterr().out

    def test_emit_telemetry_composes_with_compare(self, tmp_path, capsys):
        out = str(tmp_path / "cmp")
        code = main(["--benchmark", "LSTM", "--jobs", "12",
                     "--compare", "RR", "LAX", "--emit-telemetry", out])
        assert code == 0
        for name in ("RR", "LAX"):
            assert validate_bundle(f"{out}/{name}")["trace_events"] > 0

    @pytest.mark.parametrize("schedulers,hubs_built",
                             ((["--scheduler", "LAX"], 1),
                              (["--compare", "LAX", "RR"], 2)),
                             ids=("single", "compare"))
    def test_jsonl_sinks_closed_when_main_returns(self, tmp_path, capsys,
                                                  monkeypatch, schedulers,
                                                  hubs_built):
        """Every hub the CLI builds has its JSONL streams written and
        their files closed by the time ``main`` returns."""
        import repro.cli
        from repro.telemetry.sinks import JsonlSink
        make_hub = repro.cli._make_hub
        hubs = []

        def capture(*args, **kwargs):
            hub = make_hub(*args, **kwargs)
            hubs.append(hub)
            return hub

        monkeypatch.setattr(repro.cli, "_make_hub", capture)
        code = main(["--benchmark", "LSTM", "--jobs", "12", "--sink",
                     "jsonl", "--emit-telemetry", str(tmp_path / "out")]
                    + schedulers)
        assert code == 0
        assert len(hubs) == hubs_built
        sinks = [sink for hub in hubs for sink in hub._sinks()
                 if isinstance(sink, JsonlSink)]
        assert len(sinks) == 3 * len(hubs)
        for sink in sinks:
            assert sink.total > 0
            assert sink._file is None
            with open(sink.path, encoding="utf-8") as stream:
                assert sum(1 for _ in stream) == sink.total

    def test_trace_with_compare_is_an_error(self, capsys):
        code = main(["--compare", "RR", "LAX", "--trace", "x.jsonl"])
        assert code == 2
        assert "--emit-telemetry" in capsys.readouterr().out

    def test_save_workload_with_telemetry_is_an_error(self, tmp_path,
                                                      capsys):
        code = main(["--save-workload", str(tmp_path / "w.json"),
                     "--emit-telemetry", str(tmp_path / "b")])
        assert code == 2
        assert "nothing is simulated" in capsys.readouterr().out

    def test_workload_with_compare_is_an_error(self, capsys):
        code = main(["--workload", "w.json", "--compare", "RR"])
        assert code == 2
        assert "cannot be combined" in capsys.readouterr().out

    def test_bad_trace_extension_is_an_error(self, capsys):
        code = main(["--trace", "trace.txt"])
        assert code == 2
        assert ".jsonl or .csv" in capsys.readouterr().out


class TestEventCoreReport:
    """``lax-sim report`` surfaces the engine counters."""

    def test_stream_report_includes_event_core_section(self, capsys):
        code = main(["report", "--benchmark", "SUSTAINED",
                     "--scheduler", "LAX", "--stream", "300"])
        assert code == 0
        out = capsys.readouterr().out
        assert "## Event core" in out
        assert "committed events" in out
        assert "periodic ticks" in out

    def test_generated_cell_report_includes_event_core_section(self,
                                                               capsys):
        assert main(["report", "--benchmark", "LSTM", "--jobs", "8"]) == 0
        out = capsys.readouterr().out
        assert "## Event core" in out
        assert "periodic ticks" in out

    def test_from_bundle_surfaces_counters(self, tmp_path, capsys):
        bundle = str(tmp_path / "bundle")
        assert main(["report", "--benchmark", "SUSTAINED",
                     "--scheduler", "LAX", "--stream", "300",
                     "--emit-telemetry", bundle]) == 0
        capsys.readouterr()
        assert main(["report", "--from-bundle", bundle]) == 0
        out = capsys.readouterr().out
        assert "## Event core" in out
        assert "periodic ticks" in out

    def test_older_bundle_without_counters_renders_clean(self, tmp_path,
                                                         capsys):
        """Bundles written without engine counters lack the key; the
        renderer must skip the section, not crash."""
        import json
        import os

        bundle = str(tmp_path / "old")
        assert main(["report", "--benchmark", "SUSTAINED",
                     "--scheduler", "LAX", "--stream", "300",
                     "--emit-telemetry", bundle]) == 0
        capsys.readouterr()
        path = os.path.join(bundle, "report.json")
        with open(path, encoding="utf-8") as source:
            report = json.load(source)
        report["diagnostics"].pop("event_core")
        with open(path, "w", encoding="utf-8") as sink:
            json.dump(report, sink)
        assert main(["report", "--from-bundle", bundle]) == 0
        out = capsys.readouterr().out
        assert "## Event core" not in out
        assert "# Run report" in out

    def test_bundle_with_retired_engine_counters_renders(self, tmp_path,
                                                         capsys):
        """Bundles written while the engine had a calendar queue and a
        job pool carry extra counters; the renderer shows the committed
        events and periodic ticks and ignores the rest."""
        import json
        import os

        bundle = str(tmp_path / "wheel")
        assert main(["report", "--benchmark", "SUSTAINED",
                     "--scheduler", "LAX", "--stream", "300",
                     "--emit-telemetry", bundle]) == 0
        capsys.readouterr()
        path = os.path.join(bundle, "report.json")
        with open(path, encoding="utf-8") as source:
            report = json.load(source)
        report["diagnostics"]["event_core"].update(
            wheeled=True, events_fired=10, events_coalesced=5,
            wheel_pops=10, heap_pops=0,
            job_pool={"enabled": True, "hits": 3, "misses": 1})
        with open(path, "w", encoding="utf-8") as sink:
            json.dump(report, sink)
        assert main(["report", "--from-bundle", bundle]) == 0
        out = capsys.readouterr().out
        assert "committed events" in out
        assert "periodic ticks" in out
        assert "job pool" not in out
