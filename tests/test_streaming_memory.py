"""Memory-flatness regression: streamed + retired runs are O(live jobs).

The claim the streaming subsystem exists to make: pushing 5x more jobs
through one engine must not move the traced-allocation peak when
retirement is on (job state is released at each terminal transition),
and must grow it when retirement is off (the seed bookkeeping keeps
every Job and outcome alive).  A streamed, retired fleet must stay flat
too: its devices advance in lockstep, so the per-device arrival FIFOs
hold one step's arrivals, not the stream.

Peaks are measured with :mod:`tracemalloc` after a small warmup run so
one-time allocations (imports, memo caches) don't land in the first
measurement, and computed lazily once per session — tests asserting on
the same run share its number.
"""

from __future__ import annotations

import gc
import tracemalloc
from typing import Dict, Tuple

from repro.cluster import ClusterSystem
from repro.config import SimConfig
from repro.schedulers.registry import make_scheduler
from repro.sim.device import GPUSystem
from repro.workloads.streaming import (SUSTAINED_RATES,
                                       sustained_fleet_source,
                                       sustained_source)

SHORT_JOBS = 2000
LONG_JOBS = 10000

FLEET_DEVICES = 4

_peaks: Dict[Tuple[int, bool, bool], int] = {}


def _run(num_jobs: int, retire: bool, fleet: bool) -> None:
    rate = SUSTAINED_RATES["high"]
    if fleet:
        system = ClusterSystem("LAX", SimConfig(), num_devices=FLEET_DEVICES,
                               router="laxity", retire=retire)
        system.submit_stream(sustained_fleet_source(FLEET_DEVICES, rate),
                             max_jobs=num_jobs)
    else:
        system = GPUSystem(make_scheduler("LAX"), SimConfig(), retire=retire)
        system.submit_stream(sustained_source(rate).jobs(),
                             max_jobs=num_jobs)
    system.run()


def _peak(num_jobs: int, retire: bool, fleet: bool = False) -> int:
    key = (num_jobs, retire, fleet)
    if key not in _peaks:
        if not any(measured[2] == fleet for measured in _peaks):
            # warmup: absorb one-time allocations
            _run(200, True, fleet)
        gc.collect()
        tracemalloc.start()
        _run(num_jobs, retire, fleet)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        _peaks[key] = peak
    return _peaks[key]


def test_retired_stream_memory_flat_over_run_length():
    short = _peak(SHORT_JOBS, True)
    long = _peak(LONG_JOBS, True)
    assert long <= 1.2 * max(short, 1), (short, long)


def test_unretired_stream_memory_grows_with_run_length():
    short = _peak(SHORT_JOBS, False)
    long = _peak(LONG_JOBS, False)
    assert long > 2 * short, (short, long)
    # ... and dwarfs the retired run of the same length.
    assert long > 2 * _peak(LONG_JOBS, True)


def test_retired_fleet_memory_flat_over_run_length():
    short = _peak(SHORT_JOBS, True, fleet=True)
    long = _peak(LONG_JOBS, True, fleet=True)
    assert long <= 1.2 * max(short, 1), (short, long)
