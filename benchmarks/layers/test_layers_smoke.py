"""Smoke test of the layered benchmark at reduced sizes (about 30 s).

Kept out of the tier-1 suite; run it explicitly::

    PYTHONPATH=src python -m pytest benchmarks/layers/test_layers_smoke.py

It runs ``run.py --check`` once (every workload, three untraced
repetitions and two traced pairs, each in its own process) and checks
the result from outside.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run as bench  # noqa: E402  (the benchmark's own tables)
from cell import WORKLOADS  # noqa: E402

TELEMETRY_OFF = ("paper_grid", "fleet_backlog", "sustained_stream",
                 "fleet4_overload")


@pytest.fixture(scope="module")
def result(tmp_path_factory):
    out = tmp_path_factory.mktemp("layers") / "check.json"
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--check",
         "--out", str(out)],
        capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-4000:]
    return json.loads(out.read_text())


def test_benchmark_json_names_the_measured_metrics():
    root = os.path.dirname(os.path.dirname(HERE))
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        name: bench.END_TO_END[name][0] for name in bench.HOST_METRICS}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        bench.per_layer_units()


def test_every_metric_is_present_with_its_unit(result):
    units = bench.per_layer_units()
    assert list(result["workloads"]) == list(WORKLOADS)
    for summary in result["workloads"].values():
        e2e = summary["end_to_end"]
        assert {name: e2e[name]["unit"] for name in e2e} == {
            name: spec[0] for name, spec in bench.END_TO_END.items()}
        assert all(entry["median"] is not None for entry in e2e.values())
        layers = summary["per_layer"]
        assert {name: layers[name]["unit"] for name in layers} == units
        assert all(entry["value"] is not None for entry in layers.values())


def test_no_operation_fails_and_runs_repeat_exactly(result):
    for name, summary in result["workloads"].items():
        assert summary["correct"], (name, summary["problems"])
        runs = summary["runs"]
        assert summary["failed"] == 0
        assert summary["attempted"] == WORKLOADS[name]["cells"] * len(runs)
        traced = [r for r in runs if r["profiled"]]
        assert len(traced) >= 2
        for other in traced[1:]:
            assert other["profile"]["calls"] == traced[0]["profile"]["calls"]
            assert other["counters"] == traced[0]["counters"]
        assert len({r["digest"] for r in runs}) == 1


def test_other_layer_stays_small(result):
    for summary in result["workloads"].values():
        assert summary["per_layer"]["other.self_frac"]["value"] < 0.05


def test_telemetry_runs_only_where_a_hub_is_attached(result):
    for name, summary in result["workloads"].items():
        calls = summary["per_layer"]["telemetry.calls_per_job"]["value"]
        if name in TELEMETRY_OFF:
            assert calls == 0, name
        else:
            assert calls > 0, name
