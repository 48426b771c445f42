"""Every corpus cell reproduces its recorded decisions exactly.

``tests/golden/corpus.json`` was recorded by ``tests/golden/record.py``;
this test re-runs each cell and compares every recorded field.  On a
mismatch the assertion names the fields that moved, with the recorded
and the current value, so a failure says *what* changed (admission
counters, a WG count, the clock, or only the trace bytes) before anyone
has to diff a trace.

Every cell runs twice: under the population gates as recorded, and on
the gated side (``<cell>-gated``), with ``lax._VEC_MIN_JOBS`` and
``dispatcher._BUCKETED_MIN_ACTIVE`` at 1 so every base-order policy
takes the array tick, the array admission sum and the bucketed pump from
the first job on.  Both must reproduce the recorded decisions.
"""

from __future__ import annotations

import json
import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "golden"))

import record  # noqa: E402

with open(record.CORPUS_PATH) as _handle:
    CORPUS = json.load(_handle)

CELLS = dict(record.cells())


def _moved(recorded, current, path=""):
    """(path, recorded, current) for every leaf that differs."""
    if isinstance(recorded, dict) and isinstance(current, dict):
        for key in sorted(set(recorded) | set(current)):
            yield from _moved(recorded.get(key), current.get(key),
                              f"{path}.{key}" if path else key)
    elif (isinstance(recorded, list) and isinstance(current, list)
            and len(recorded) == len(current)):
        for index, (old, new) in enumerate(zip(recorded, current)):
            yield from _moved(old, new, f"{path}[{index}]")
    elif recorded != current:
        yield path, recorded, current


def test_corpus_covers_the_matrix():
    assert sorted(CORPUS) == sorted(CELLS)


@pytest.mark.parametrize(
    "name, gated",
    [pytest.param(name, False, id=name) for name in sorted(CORPUS)]
    + [pytest.param(name, True, id=f"{name}-gated")
       for name in sorted(CORPUS)])
def test_cell_matches_corpus(name, gated, monkeypatch):
    if gated:
        monkeypatch.setattr("repro.schedulers.lax._VEC_MIN_JOBS", 1)
        monkeypatch.setattr("repro.sim.dispatcher._BUCKETED_MIN_ACTIVE", 1)
    current = json.loads(json.dumps(CELLS[name]()))
    moved = [entry for entry in _moved(CORPUS[name], current)
             if entry[0] != "digest"]
    assert not moved, "\n".join(
        f"{name}: {path}: recorded {old!r}, now {new!r}"
        for path, old, new in moved)
    assert current["digest"] == CORPUS[name]["digest"]
