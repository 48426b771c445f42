"""Unit tests for seed replication and the extended CLI."""

import pytest

from repro.cli import main
from repro.harness import SweepSpec
from repro.harness.replication import (ReplicatedMetric, compare_sweep,
                                       replicate_sweep)


def _replicate(benchmark, scheduler, num_jobs, seeds):
    sweep = SweepSpec(benchmarks=(benchmark,), schedulers=(scheduler,),
                      seeds=seeds, num_jobs=num_jobs)
    return replicate_sweep(sweep)[0]


class TestReplicatedMetric:
    def test_mean_and_stdev(self):
        metric = ReplicatedMetric((1.0, 2.0, 3.0))
        assert metric.mean == 2.0
        assert metric.stdev == pytest.approx(1.0)
        assert metric.minimum == 1.0
        assert metric.maximum == 3.0

    def test_single_value_has_zero_stdev(self):
        assert ReplicatedMetric((5.0,)).stdev == 0.0

    def test_describe(self):
        text = ReplicatedMetric((1.0, 3.0)).describe()
        assert "2.0" in text
        assert "[1..3]" in text


class TestReplicateSweep:
    def test_runs_across_seeds(self):
        cell = _replicate("IPV6", "LAX", num_jobs=16, seeds=(1, 2))
        assert cell.seeds == (1, 2)
        assert len(cell.deadline_met.values) == 2
        assert cell.deadline_met.mean >= 0

    def test_seeds_vary_outcomes(self):
        cell = _replicate("LSTM", "RR", num_jobs=24, seeds=(1, 2, 3))
        # Different arrival draws should not all produce one exact count
        # (an identical triple would suggest the seed is ignored).
        assert len(set(cell.deadline_met.values)) >= 2


class TestCompareSweep:
    def test_duel_structure(self):
        duel = compare_sweep(SweepSpec(
            benchmarks=("IPV6",), schedulers=("LAX", "RR"),
            seeds=(1, 2), num_jobs=16))
        assert duel["num_seeds"] == 2
        assert len(duel["pairs"]) == 2
        assert 0 <= duel["wins"] <= 2

    def test_self_duel_ties(self):
        duel = compare_sweep(SweepSpec(
            benchmarks=("IPV6",), schedulers=("RR", "RR"),
            seeds=(1, 2), num_jobs=16))
        assert duel["wins"] == 1.0  # two ties at half a win each
        assert duel["consistent"]


class TestCliCompare:
    def test_compare_prints_table(self, capsys):
        code = main(["--benchmark", "IPV6", "--jobs", "12",
                     "--compare", "RR", "LAX"])
        assert code == 0
        out = capsys.readouterr().out
        assert "RR" in out and "LAX" in out
        assert "met deadline" in out

    def test_compare_rejects_unknown(self, capsys):
        code = main(["--benchmark", "IPV6", "--jobs", "12",
                     "--compare", "FIFO"])
        assert code == 2


class TestCliWorkloadFiles:
    def test_save_and_run_workload(self, tmp_path, capsys):
        path = tmp_path / "wl.json"
        assert main(["--benchmark", "IPV6", "--jobs", "8",
                     "--save-workload", str(path)]) == 0
        assert path.exists()
        assert main(["--scheduler", "LAX", "--workload", str(path)]) == 0
        out = capsys.readouterr().out
        assert "jobs meeting deadline" in out

    def test_workload_file_order_does_not_matter(self, tmp_path,
                                                 monkeypatch, capsys):
        """``--workload`` sorts the file's jobs by (arrival, job_id), so
        a file saved in reverse arrival order prints the same table."""
        import json

        saved = tmp_path / "saved.json"
        assert main(["--benchmark", "IPV6", "--jobs", "16",
                     "--save-workload", str(saved)]) == 0
        data = json.loads(saved.read_text())
        tables = []
        for order in ("sorted", "reversed"):
            if order == "reversed":
                data["jobs"].reverse()
            # The same relative path in both runs, so the titles match.
            (tmp_path / order).mkdir()
            (tmp_path / order / "w.json").write_text(json.dumps(data))
            monkeypatch.chdir(tmp_path / order)
            capsys.readouterr()
            assert main(["--scheduler", "LAX", "--workload", "w.json"]) == 0
            tables.append(capsys.readouterr().out)
        assert "jobs meeting deadline" in tables[0]
        assert tables[1] == tables[0]
