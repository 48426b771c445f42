"""Experiment harness: cells, sweeps, the parallel runner, summaries.

The public sweep surface is :class:`SweepSpec` (what to run),
:class:`RunOptions` (how to run it), :class:`Runner` (parallel
execution + persistent result cache) and :func:`run_cell` (one cell,
in-process).  Everything else supports the paper's tables and figures.
"""

from .artifacts import (cell_record, collect_results, load_results,
                        result_record, save_results)
from .cache import ResultCache, cache_key, code_fingerprint, default_cache_dir
from .experiment import (CellResult, ExperimentSpec, PAPER_NUM_JOBS,
                         clear_cache, deadline_counts, default_num_jobs,
                         run_cell)
from .replication import (ReplicatedCell, ReplicatedMetric, compare_sweep,
                          replicate_sweep)
from .runner import CellFailure, Runner, SweepOutcome
from .spec import RunOptions, SweepSpec, single_cell_sweep
from .formatting import format_bar_series, format_table
from .paper_expected import (PAPER_GEOMEAN_CLAIMS, PAPER_JOB_TABLE_BYTES,
                             PAPER_PREDICTION_MAE, PAPER_WASTED_WORK,
                             TABLE5A_THROUGHPUT, TABLE5B_P99_MS,
                             TABLE5C_ENERGY_MJ, TABLE5_SCHEDULERS)
from .summary import (GEOMEAN_FLOOR, geomean_over_benchmarks, geomean_ratio,
                      grid_results, normalized_deadline_grid,
                      wasted_work_by_scheduler)

__all__ = [
    "CellFailure",
    "CellResult",
    "ExperimentSpec",
    "GEOMEAN_FLOOR",
    "PAPER_GEOMEAN_CLAIMS",
    "PAPER_JOB_TABLE_BYTES",
    "PAPER_NUM_JOBS",
    "PAPER_PREDICTION_MAE",
    "PAPER_WASTED_WORK",
    "ReplicatedCell",
    "ReplicatedMetric",
    "ResultCache",
    "RunOptions",
    "Runner",
    "SweepOutcome",
    "SweepSpec",
    "TABLE5A_THROUGHPUT",
    "TABLE5B_P99_MS",
    "TABLE5C_ENERGY_MJ",
    "TABLE5_SCHEDULERS",
    "cache_key",
    "cell_record",
    "clear_cache",
    "code_fingerprint",
    "collect_results",
    "compare_sweep",
    "deadline_counts",
    "default_cache_dir",
    "default_num_jobs",
    "format_bar_series",
    "format_table",
    "geomean_over_benchmarks",
    "geomean_ratio",
    "grid_results",
    "load_results",
    "normalized_deadline_grid",
    "replicate_sweep",
    "result_record",
    "run_cell",
    "save_results",
    "single_cell_sweep",
    "wasted_work_by_scheduler",
]
