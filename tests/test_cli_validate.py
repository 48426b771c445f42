"""CLI contract for ``--validate``: exit codes, stderr context, bundles.

An injected invariant violation must surface as a clean structured error
(exit code 3, no traceback), and with ``--emit-telemetry`` the checker's
summary must land in the bundle directory even though the run died before
metrics were finalized.
"""

import json
import os

import pytest

from repro.cli import main
from repro.validation import InvariantChecker, InvariantViolation


ARGS = ["--benchmark", "LSTM", "--rate", "low", "--jobs", "6"]


def inject_violation(monkeypatch):
    """Make the first engine-hook call fail like a real violation."""

    def explode(self, event, now):
        self._fail("clock_monotonic", "injected for the CLI test",
                   {"event_time": event[0], "clock": now,
                    "injected": True})

    monkeypatch.setattr(InvariantChecker, "on_event", explode)


class TestValidateCleanRun:
    def test_exit_zero_with_verdict_line(self, capsys):
        assert main(ARGS + ["--validate"]) == 0
        out = capsys.readouterr().out
        assert "validation:" in out
        assert "0 violations" in out
        assert "0 oracle failures" in out

    def test_report_mode_embeds_validation_section(self, capsys):
        assert main(["report"] + ARGS + ["--validate"]) == 0
        out = capsys.readouterr().out
        assert "## Validation" in out
        assert "analytic oracles: all passed" in out

    def test_bundle_report_carries_validation(self, tmp_path, capsys):
        bundle = tmp_path / "bundle"
        assert main(ARGS + ["--validate",
                            "--emit-telemetry", str(bundle)]) == 0
        report = json.loads((bundle / "report.json").read_text())
        assert report["validation"]["violations"] == []
        assert report["validation"]["total_checks"] > 0
        # No violations -> no separate validation.json in the bundle.
        assert not (bundle / "validation.json").exists()

    def test_without_flag_no_validation_output(self, capsys):
        assert main(ARGS) == 0
        assert "validation:" not in capsys.readouterr().out


class TestValidateViolation:
    def test_exit_three_with_structured_context(self, monkeypatch, capsys):
        inject_violation(monkeypatch)
        assert main(ARGS + ["--validate"]) == 3
        err = capsys.readouterr().err
        assert "invariant: clock_monotonic" in err
        assert "sim time:" in err
        assert "injected: True" in err
        assert "Traceback" not in err

    def test_violation_summary_flushed_into_bundle(self, monkeypatch,
                                                   tmp_path, capsys):
        inject_violation(monkeypatch)
        bundle = tmp_path / "bundle"
        assert main(ARGS + ["--validate",
                            "--emit-telemetry", str(bundle)]) == 3
        summary = json.loads((bundle / "validation.json").read_text())
        assert len(summary["violations"]) == 1
        record = summary["violations"][0]
        assert record["invariant"] == "clock_monotonic"
        assert record["context"]["injected"] is True
        assert "wrote violation summary" in capsys.readouterr().err

    def test_no_bundle_flag_writes_nothing(self, monkeypatch, tmp_path,
                                           capsys):
        inject_violation(monkeypatch)
        os_listdir_before = set(os.listdir(tmp_path))
        assert main(ARGS + ["--validate"]) == 3
        assert set(os.listdir(tmp_path)) == os_listdir_before

    def test_workload_file_path_also_exits_three(self, monkeypatch,
                                                 tmp_path, capsys):
        workload = tmp_path / "w.json"
        assert main(ARGS + ["--save-workload", str(workload)]) == 0
        inject_violation(monkeypatch)
        assert main(["--workload", str(workload), "--validate"]) == 3
        err = capsys.readouterr().err
        assert "invariant: clock_monotonic" in err


class TestModeErrors:
    def test_save_workload_rejects_validate(self, tmp_path, capsys):
        code = main(ARGS + ["--validate",
                            "--save-workload", str(tmp_path / "w.json")])
        assert code == 2
        assert "--validate" in capsys.readouterr().out
        assert not (tmp_path / "w.json").exists()


class TestCompareValidate:
    def test_compare_runs_each_scheduler_validated(self, capsys):
        code = main(ARGS + ["--validate", "--compare", "LAX", "RR"])
        assert code == 0
        out = capsys.readouterr().out
        assert "LAX" in out and "RR" in out
