"""Bill a ``cProfile`` profile of ``run()`` to the simulator's layers.

A profiled function belongs to a layer by its source file under
``src/repro/``: the file is looked up first, then its package directory;
any other ``repro`` module is ``other``.  Functions outside the package
(C builtins, ``numpy``, ``random``, ``heapq``) have no layer of their
own: their exclusive time and call counts go to the layers that called
them, split along ``pstats`` caller edges, so a ``heapq.heappush`` made
by the engine is engine time.

This module reads only the profile; it imports nothing from the
simulator.
"""

from __future__ import annotations

import os
from typing import Dict, Tuple

#: Layers in report order.
LAYERS = ("engine", "command_processor", "dispatcher", "compute_unit",
          "schedulers", "jobs", "metrics", "telemetry", "cluster",
          "validation", "workloads", "other")

#: Files matched before their package directory (paths under src/repro).
FILE_LAYERS = {
    "sim/engine.py": "engine",
    "sim/time.py": "engine",
    "sim/command_processor.py": "command_processor",
    "sim/host.py": "command_processor",
    "sim/queues.py": "command_processor",
    "sim/device.py": "command_processor",
    "core/admission.py": "command_processor",
    "core/job_table.py": "command_processor",
    "core/inspection.py": "command_processor",
    "sim/dispatcher.py": "dispatcher",
    "sim/cu_arrays.py": "dispatcher",
    "sim/compute_unit.py": "compute_unit",
    "sim/energy.py": "compute_unit",
    "core/laxity.py": "schedulers",
    "core/rank_soa.py": "schedulers",
    "core/profiling.py": "schedulers",
    "core/calibration.py": "schedulers",
    "sim/job.py": "jobs",
    "sim/kernel.py": "jobs",
    "sim/job_pool.py": "jobs",
    "sim/trace.py": "telemetry",
    # MetricsCollector keeps its always-on device counters in this
    # registry, so its cost is the metrics layer's on every run; the
    # telemetry layer is what an attached TelemetryHub adds.
    "telemetry/registry.py": "metrics",
}

#: Package directories (under src/repro) and their layer.
PACKAGE_LAYERS = {
    "schedulers": "schedulers",
    "metrics": "metrics",
    "telemetry": "telemetry",
    "cluster": "cluster",
    "validation": "validation",
    "workloads": "workloads",
}

Func = Tuple[str, int, str]


def layer_of(path: str, package_dir: str):
    """The layer of a source file, or None when it is not a repro module."""
    rel = os.path.relpath(os.path.abspath(path), package_dir)
    if rel.startswith(os.pardir) or os.path.isabs(rel):
        return None
    rel = rel.replace(os.sep, "/")
    if rel in FILE_LAYERS:
        return FILE_LAYERS[rel]
    head = rel.split("/", 1)[0]
    return PACKAGE_LAYERS.get(head, "other")


def _is_profiler_hook(func: Func) -> bool:
    return func[0] == "~" and "_lsprof.Profiler" in func[2]


def attribute(stats: Dict[Func, tuple], package_dir: str) -> dict:
    """Exclusive seconds and call counts per layer.

    ``stats`` is ``pstats.Stats(profile).stats``: each function maps to
    ``(cc, nc, tt, ct, callers)`` and ``callers`` maps each calling
    function to the same tuple restricted to that edge.  A non-repro
    function's time is split by its edges' exclusive time and its calls
    by the edges' call counts, recursively through non-repro callers; one
    with no caller left to bill is ``other``.  Returns ``{"self_s": {layer: s}, "calls": {layer: n}, "total_s": s}``.
    """
    own = {func: layer_of(func[0], package_dir) for func in stats}

    def shares(func, edge_weight, memo, active):
        if own[func] is not None:
            return {own[func]: 1.0}
        if func in memo:
            return memo[func]
        callers = stats[func][4]
        weights = {caller: edge_weight(edge) for caller, edge in
                   callers.items() if caller in stats and caller not in active}
        total = sum(weights.values())
        if total <= 0:
            # No edge took measurable time: split by call count.
            weights = {caller: callers[caller][1] for caller in weights}
            total = sum(weights.values())
        if total <= 0:
            result = {"other": 1.0}
        else:
            active.add(func)
            result = {}
            for caller, weight in weights.items():
                for layer, share in shares(caller, edge_weight, memo,
                                           active).items():
                    result[layer] = result.get(layer, 0.0) \
                        + share * weight / total
            active.discard(func)
        memo[func] = result
        return result

    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0.0)
    time_memo, call_memo = {}, {}
    for func, (_, nc, tt, _, _) in stats.items():
        if _is_profiler_hook(func):
            continue
        for layer, share in shares(func, lambda e: e[2], time_memo,
                                   set()).items():
            self_s[layer] += tt * share
        for layer, share in shares(func, lambda e: e[1], call_memo,
                                   set()).items():
            calls[layer] += nc * share
    return {"self_s": self_s, "calls": calls,
            "total_s": sum(self_s.values())}
