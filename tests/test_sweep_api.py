"""The sweep API surface: SweepSpec, RunOptions, deprecated wrappers."""

import pytest

import repro
import repro.harness as harness
from repro.errors import HarnessError
from repro.harness import RunOptions, Runner, SweepSpec, run_cell
from repro.harness.replication import compare_sweep, replicate_sweep
from repro.harness.spec import single_cell_sweep
from repro.harness.experiment import ExperimentSpec


class TestSweepSpec:
    def test_cells_deterministic_order(self):
        sweep = SweepSpec(benchmarks=("IPV6", "LSTM"),
                          schedulers=("RR", "LAX"),
                          rate_levels=("high", "low"), seeds=(1, 2),
                          num_jobs=8)
        cells = sweep.cells()
        assert len(cells) == len(sweep) == 16
        # Benchmark-major, then scheduler, rate, seed.
        assert cells[0] == ExperimentSpec(benchmark="IPV6", scheduler="RR",
                                          rate_level="high", num_jobs=8,
                                          seed=1)
        assert cells[1].seed == 2
        assert cells[2].rate_level == "low"
        assert cells[4].scheduler == "LAX"
        assert cells[8].benchmark == "LSTM"
        assert cells == sweep.cells()  # stable across calls

    def test_accepts_lists_and_strings(self):
        sweep = SweepSpec(benchmarks="IPV6", schedulers=["RR"],
                          seeds=[3], num_jobs=4)
        assert sweep.benchmarks == ("IPV6",)
        assert sweep.schedulers == ("RR",)
        assert sweep.seeds == (3,)

    def test_rejects_unknown_names(self):
        with pytest.raises(Exception):
            SweepSpec(benchmarks=("NOPE",), schedulers=("RR",))
        with pytest.raises(HarnessError):
            SweepSpec(benchmarks=("IPV6",), schedulers=("FIFO",))
        with pytest.raises(HarnessError):
            SweepSpec(benchmarks=("IPV6",), schedulers=("RR",),
                      rate_levels=("turbo",))

    def test_rejects_empty_axes_and_bad_jobs(self):
        with pytest.raises(HarnessError):
            SweepSpec(benchmarks=(), schedulers=("RR",))
        with pytest.raises(HarnessError):
            SweepSpec(benchmarks=("IPV6",), schedulers=("RR",), seeds=())
        with pytest.raises(HarnessError):
            SweepSpec(benchmarks=("IPV6",), schedulers=("RR",), num_jobs=0)

    def test_scheduler_args_propagate_to_cells(self):
        sweep = SweepSpec(benchmarks=("IPV6",), schedulers=("LAX",),
                          num_jobs=8,
                          scheduler_args=(("enable_admission", False),))
        assert sweep.cells()[0].scheduler_args == \
            (("enable_admission", False),)

    def test_describe_counts(self):
        sweep = SweepSpec(benchmarks=("IPV6",), schedulers=("RR", "LAX"),
                          seeds=(1, 2, 3), num_jobs=8)
        assert "6 cells" in sweep.describe()

    def test_single_cell_round_trip(self):
        spec = ExperimentSpec(benchmark="IPV6", scheduler="LAX",
                              rate_level="low", num_jobs=8, seed=7)
        assert single_cell_sweep(spec).cells() == [spec]


class TestRunOptions:
    def test_defaults_are_unobserved(self):
        options = RunOptions()
        assert not options.has_live_sinks
        assert options.build_validator() is None

    def test_validate_builds_fresh_checkers(self):
        options = RunOptions(validate=True)
        first = options.build_validator()
        second = options.build_validator()
        assert first is not None
        assert first is not second
        assert not options.has_live_sinks  # flag alone is pool-safe

    def test_explicit_validator_wins(self):
        sentinel = object()
        options = RunOptions(validator=sentinel, validate=True)
        assert options.build_validator() is sentinel
        assert options.has_live_sinks

    def test_run_cell_accepts_options(self):
        spec = ExperimentSpec(benchmark="IPV6", scheduler="RR", num_jobs=8)
        result = run_cell(spec, options=RunOptions())
        assert result.metrics.num_jobs == 8

    def test_run_cell_rejects_mixed_forms(self):
        spec = ExperimentSpec(benchmark="IPV6", scheduler="RR", num_jobs=8)
        from repro.config import SimConfig
        with pytest.raises(HarnessError):
            run_cell(spec, config=SimConfig(), options=RunOptions())


class TestPublicSurface:
    def test_harness_reexports(self):
        for name in ("SweepSpec", "RunOptions", "Runner", "run_cell",
                     "CellFailure", "SweepOutcome", "ResultCache",
                     "replicate_sweep", "compare_sweep"):
            assert name in harness.__all__
            assert hasattr(harness, name)

    def test_package_reexports(self):
        assert repro.SweepSpec is SweepSpec
        assert repro.RunOptions is RunOptions
        assert repro.Runner is Runner
        for name in ("SweepSpec", "RunOptions", "Runner"):
            assert name in repro.__all__


class TestCompareSweepShape:
    def test_needs_two_schedulers(self):
        sweep = SweepSpec(benchmarks=("IPV6",), schedulers=("LAX",),
                          num_jobs=8)
        with pytest.raises(HarnessError):
            compare_sweep(sweep)

    def test_needs_single_benchmark(self):
        sweep = SweepSpec(benchmarks=("IPV6", "LSTM"),
                          schedulers=("LAX", "RR"), num_jobs=8)
        with pytest.raises(HarnessError):
            compare_sweep(sweep)
