"""Workload serialisation: save and load job sets as JSON.

Lets users capture a generated workload (or hand-author one from their
own production traces) and replay it bit-for-bit later or on another
machine — the moral equivalent of the paper's recorded job-arrival traces.

Format (``repro-workload-v1``)::

    {
      "format": "repro-workload-v1",
      "kernels": {
        "<name>": {"num_wgs": ..., "threads_per_wg": ..., "wg_work": ...,
                    "vgpr_bytes_per_wg": ..., "lds_bytes_per_wg": ...,
                    "context_bytes": ..., "cu_concurrency": ...,
                    "bytes_per_wg": ...}
      },
      "jobs": [
        {"job_id": ..., "benchmark": ..., "arrival": ...,
         "deadline": ... | null, "tag": ... | null, "user_priority": ...,
         "kernels": ["<name>", ...],
         "dependencies": {"<index>": [<index>, ...]} | null}
      ]
    }

Kernel *types* are deduplicated by name; all times are integer
nanoseconds.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List

from ..errors import ConfigError, WorkloadError
from ..sim.job import Job
from ..sim.kernel import KernelDescriptor

FORMAT_TAG = "repro-workload-v1"

_DESCRIPTOR_FIELDS = ("num_wgs", "threads_per_wg", "wg_work",
                      "vgpr_bytes_per_wg", "lds_bytes_per_wg",
                      "context_bytes", "cu_concurrency", "bytes_per_wg")


def workload_to_dict(jobs: Iterable[Job]) -> Dict:
    """Serialise jobs (and their kernel types) to a plain dict."""
    job_list = list(jobs)
    if not job_list:
        raise WorkloadError("nothing to serialise")
    kernels: Dict[str, Dict] = {}
    serialized_jobs: List[Dict] = []
    for job in job_list:
        names = []
        for kernel in job.kernels:
            desc = kernel.descriptor
            entry = {field: getattr(desc, field)
                     for field in _DESCRIPTOR_FIELDS}
            existing = kernels.get(desc.name)
            if existing is not None and existing != entry:
                raise WorkloadError(
                    f"kernel name {desc.name!r} used with two different "
                    "shapes; serialisation requires unique names per shape")
            kernels[desc.name] = entry
            names.append(desc.name)
        dependencies = None
        if job.dependencies is not None:
            dependencies = {str(index): list(deps)
                            for index, deps in job.dependencies.items()}
        serialized_jobs.append({
            "job_id": job.job_id,
            "benchmark": job.benchmark,
            "arrival": job.arrival,
            "deadline": job.deadline,
            "tag": job.tag,
            "user_priority": job.user_priority,
            "kernels": names,
            "dependencies": dependencies,
        })
    return {"format": FORMAT_TAG, "kernels": kernels,
            "jobs": serialized_jobs}


def workload_from_dict(data: Dict) -> List[Job]:
    """Rebuild a job list from :func:`workload_to_dict` output.

    A malformed file raises :class:`WorkloadError` naming the bad kernel
    type or job entry, never a bare ``KeyError`` or ``TypeError``.
    """
    tag = data.get("format") if isinstance(data, dict) else None
    if tag != FORMAT_TAG:
        raise WorkloadError(
            f"unsupported workload format {tag!r}; "
            f"expected {FORMAT_TAG!r}")
    kernels = data.get("kernels", {})
    if not isinstance(kernels, dict):
        raise WorkloadError("'kernels' must map kernel names to fields")
    descriptors = {}
    for name, fields in kernels.items():
        try:
            descriptors[name] = KernelDescriptor(name=name, **fields)
        except (TypeError, ValueError, ConfigError) as exc:
            raise WorkloadError(f"kernel type {name!r}: {exc}") from None
    entries = data.get("jobs", [])
    if not isinstance(entries, list):
        raise WorkloadError("'jobs' must be a list of job entries")
    jobs: List[Job] = []
    for index, entry in enumerate(entries):
        try:
            jobs.append(_job_from_dict(entry, descriptors))
        except WorkloadError as exc:
            raise WorkloadError(f"job entry {index}: {exc}") from None
    if not jobs:
        raise WorkloadError("workload file contains no jobs")
    return jobs


def _job_from_dict(entry, descriptors: Dict[str, KernelDescriptor]) -> Job:
    """One job entry; raises :class:`WorkloadError` on a malformed field."""
    if not isinstance(entry, dict):
        raise WorkloadError("must be an object")
    missing = [field for field in ("job_id", "benchmark", "arrival",
                                   "deadline", "kernels")
               if field not in entry]
    if missing:
        raise WorkloadError(f"missing {', '.join(map(repr, missing))}")
    names = entry["kernels"]
    if not isinstance(names, list):
        raise WorkloadError("'kernels' must be a list of kernel names")
    for field in ("arrival", "deadline"):
        value = entry[field]
        if field == "deadline" and value is None:
            continue
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise WorkloadError(f"{field!r} must be a number, got {value!r}")
    dependencies = entry.get("dependencies")
    if dependencies is not None and not isinstance(dependencies, dict):
        raise WorkloadError("'dependencies' must map a kernel index to a "
                            "list of earlier kernel indices")
    unknown = [name for name in names
               if not isinstance(name, str) or name not in descriptors]
    if unknown:
        raise WorkloadError(f"references unknown kernel {unknown[0]!r}")
    try:
        if dependencies is not None:
            dependencies = {int(index): tuple(deps)
                            for index, deps in dependencies.items()}
        return Job(job_id=entry["job_id"], benchmark=entry["benchmark"],
                   descriptors=[descriptors[name] for name in names],
                   arrival=entry["arrival"],
                   deadline=entry["deadline"], tag=entry.get("tag"),
                   user_priority=entry.get("user_priority", 0),
                   dependencies=dependencies)
    except (TypeError, ValueError) as exc:
        raise WorkloadError(str(exc)) from None


def save_workload(jobs: Iterable[Job], path: str) -> int:
    """Write a workload JSON file; returns the job count."""
    data = workload_to_dict(jobs)
    with open(path, "w", encoding="utf-8") as sink:
        json.dump(data, sink, indent=1)
    return len(data["jobs"])


def load_workload(path: str) -> List[Job]:
    """Load a workload JSON file."""
    with open(path, encoding="utf-8") as source:
        return workload_from_dict(json.load(source))
