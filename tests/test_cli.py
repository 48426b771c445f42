"""Unit tests for the lax-sim command-line entry point."""

import pytest

from repro.cli import main
from repro.telemetry import validate_bundle


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


class TestTelemetryModes:
    def test_emit_telemetry_writes_valid_bundle(self, tmp_path, capsys):
        out = str(tmp_path / "bundle")
        code = main(["--benchmark", "LSTM", "--scheduler", "LAX",
                     "--jobs", "16", "--emit-telemetry", out])
        assert code == 0
        assert validate_bundle(out)["trace_events"] > 0
        assert "telemetry bundle" in capsys.readouterr().out

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
