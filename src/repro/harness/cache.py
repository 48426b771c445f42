"""Persistent content-addressed result cache for experiment cells.

Cell results are stored on disk under a digest of everything that can
change them:

* the cell identity (:class:`~repro.harness.experiment.ExperimentSpec`
  fields: benchmark, scheduler, rate, job count, seed, scheduler args);
* the full :class:`~repro.config.SimConfig` (flattened to a dict, so
  changing any field — even a nested ``GPUConfig`` knob — is a miss);
* the package version (``repro.__version__``), guarding against
  version skew between the writer and the reader;
* a *code fingerprint*: a digest of the package sources split into a
  common part (simulator, workloads, harness — everything except the
  per-policy scheduler modules) and the modules implementing the cell's
  scheduler.  Editing the engine invalidates every cached cell; editing
  one scheduler invalidates only that scheduler's cells, which is what
  makes re-running a full sweep after a scheduler tweak cheap;
* whether the run was validated (a validated result carries extra
  diagnostics and must not be served for an unvalidated request).

The scheduler part of the fingerprint covers the policy's defining
module plus every ``repro.schedulers`` module it (transitively)
references.  A dependency smuggled in through dynamic import is not
tracked — ``--refresh`` is the escape hatch.

The cache lives at ``$REPRO_CACHE_DIR`` (or ``~/.cache/repro``) as one
pickle per result under ``objects/<2-hex>/<digest>.pkl``; writes are
atomic (temp file + rename), unreadable entries count as misses.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle
import sys
import tempfile
from types import ModuleType
from typing import Dict, List, Optional, Tuple

from ..config import SimConfig
from .experiment import CellResult, ExperimentSpec

def _package_version() -> str:
    """Current ``repro._version`` string (read at call time, so tests
    can simulate version skew by patching the module attribute)."""
    from .. import _version
    return _version.__version__


#: Environment variable overriding the default cache location.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"
#: On-disk payload format tag; bump when the pickle layout changes.
CACHE_FORMAT = "repro-cell-cache-v1"


def default_cache_dir() -> str:
    """Resolve the cache directory: env override, else ``~/.cache/repro``."""
    override = os.environ.get(CACHE_DIR_ENV)
    if override:
        return override
    base = os.environ.get("XDG_CACHE_HOME",
                          os.path.join(os.path.expanduser("~"), ".cache"))
    return os.path.join(base, "repro")


# ----------------------------------------------------------------------
# Code fingerprinting
# ----------------------------------------------------------------------

def _file_digest(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as source:
        digest.update(source.read())
    return digest.hexdigest()


def _package_root() -> str:
    import repro
    return os.path.dirname(os.path.abspath(repro.__file__))


def _iter_source_files() -> List[str]:
    root = _package_root()
    files = []
    for dirpath, _dirnames, filenames in os.walk(root):
        for name in filenames:
            if name.endswith(".py"):
                files.append(os.path.join(dirpath, name))
    return sorted(files)


def _is_policy_module(relpath: str) -> bool:
    """Per-policy scheduler sources, excluded from the common digest.

    ``base``/``registry``/``__init__`` stay in the common digest: they
    shape every policy, so editing them must invalidate everything.
    """
    parts = relpath.split(os.sep)
    if parts[0] != "schedulers":
        return False
    leaf = os.path.basename(relpath)
    return leaf not in ("__init__.py", "base.py", "registry.py")


_FINGERPRINTS: Optional[Tuple[str, Dict[str, str]]] = None


def _fingerprints() -> Tuple[str, Dict[str, str]]:
    """(common digest, per-module digest for policy modules), memoised."""
    global _FINGERPRINTS
    if _FINGERPRINTS is None:
        root = _package_root()
        common = hashlib.sha256()
        policy: Dict[str, str] = {}
        for path in _iter_source_files():
            relpath = os.path.relpath(path, root)
            digest = _file_digest(path)
            if _is_policy_module(relpath):
                module = "repro." + relpath[:-3].replace(os.sep, ".")
                policy[module] = digest
            else:
                common.update(f"{relpath}:{digest}\n".encode())
        _FINGERPRINTS = (common.hexdigest(), policy)
    return _FINGERPRINTS


def _policy_module_closure(scheduler: str) -> List[str]:
    """``repro.schedulers`` modules reachable from a policy's module."""
    from ..schedulers.registry import make_scheduler  # noqa: F401 (loads modules)
    from ..schedulers import registry as sched_registry
    factory = sched_registry._FACTORIES.get(scheduler)
    if factory is None:
        return []
    start = getattr(factory, "__module__", None)
    seen: set = set()
    stack = [start] if start else []
    while stack:
        name = stack.pop()
        if not isinstance(name, str) or name in seen \
                or not name.startswith("repro.schedulers"):
            continue
        seen.add(name)
        module = sys.modules.get(name)
        if module is None:
            continue
        for value in vars(module).values():
            if isinstance(value, ModuleType):
                stack.append(value.__name__)
            else:
                stack.append(getattr(value, "__module__", None))
    return sorted(seen)


def code_fingerprint(scheduler: str) -> str:
    """Digest of the sources a cell for ``scheduler`` depends on."""
    common, policy = _fingerprints()
    parts = [common]
    for module in _policy_module_closure(scheduler):
        digest = policy.get(module)
        if digest is not None:
            parts.append(f"{module}:{digest}")
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


# ----------------------------------------------------------------------
# Key derivation
# ----------------------------------------------------------------------

def cache_key(spec: ExperimentSpec, config: SimConfig,
              validate: bool = False) -> str:
    """Content digest identifying one cell result."""
    payload = {
        "format": CACHE_FORMAT,
        "version": _package_version(),
        "spec": {
            "benchmark": spec.benchmark,
            "scheduler": spec.scheduler,
            "rate_level": spec.rate_level,
            "num_jobs": spec.num_jobs,
            "seed": spec.seed,
            "scheduler_args": spec.scheduler_args,
        },
        "config": dataclasses.asdict(config),
        "code": code_fingerprint(spec.scheduler),
        "validate": bool(validate),
    }
    text = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


# ----------------------------------------------------------------------
# The cache proper
# ----------------------------------------------------------------------

class ResultCache:
    """Pickle-per-result store addressed by :func:`cache_key`.

    The cache never invents data: a digest mismatch, version mismatch
    or unreadable pickle is treated as a miss and the entry stays for
    :meth:`clear` to reap.  ``hits``/``misses``/``stores`` count this
    instance's traffic (the runner surfaces them per sweep).
    """

    def __init__(self, directory: Optional[str] = None) -> None:
        self.directory = directory or default_cache_dir()
        self.hits = 0
        self.misses = 0
        self.stores = 0

    def _objects_dir(self) -> str:
        return os.path.join(self.directory, "objects")

    def _path(self, digest: str) -> str:
        return os.path.join(self._objects_dir(), digest[:2],
                            digest + ".pkl")

    def get(self, spec: ExperimentSpec, config: SimConfig,
            validate: bool = False) -> Optional[CellResult]:
        """Cached result for a cell, or None on any kind of miss."""
        digest = cache_key(spec, config, validate)
        path = self._path(digest)
        try:
            with open(path, "rb") as source:
                payload = pickle.load(source)
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError,
                ImportError, IndexError):
            self.misses += 1
            return None
        if (not isinstance(payload, dict)
                or payload.get("format") != CACHE_FORMAT
                or payload.get("version") != _package_version()
                or payload.get("key") != digest):
            self.misses += 1
            return None
        result = payload.get("result")
        if not isinstance(result, CellResult):
            self.misses += 1
            return None
        self.hits += 1
        return result

    def put(self, spec: ExperimentSpec, config: SimConfig,
            result: CellResult, validate: bool = False) -> str:
        """Store one result atomically; returns its digest."""
        digest = cache_key(spec, config, validate)
        path = self._path(digest)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        payload = {
            "format": CACHE_FORMAT,
            "version": _package_version(),
            "key": digest,
            "result": result,
        }
        fd, tmp_path = tempfile.mkstemp(dir=os.path.dirname(path),
                                        suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as sink:
                pickle.dump(payload, sink, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp_path, path)
        except OSError:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise
        self.stores += 1
        return digest

    # -- maintenance ----------------------------------------------------

    def _entries(self) -> List[str]:
        objects = self._objects_dir()
        found: List[str] = []
        if not os.path.isdir(objects):
            return found
        for dirpath, _dirnames, filenames in os.walk(objects):
            for name in filenames:
                if name.endswith(".pkl"):
                    found.append(os.path.join(dirpath, name))
        return sorted(found)

    def stats(self) -> Dict[str, object]:
        """Entry count and footprint of the on-disk store."""
        entries = self._entries()
        total = 0
        for path in entries:
            try:
                total += os.path.getsize(path)
            except OSError:
                pass
        return {
            "directory": self.directory,
            "entries": len(entries),
            "total_bytes": total,
            "version": _package_version(),
        }

    def clear(self) -> int:
        """Delete every stored result; returns how many were removed."""
        removed = 0
        for path in self._entries():
            try:
                os.unlink(path)
                removed += 1
            except OSError:
                pass
        return removed
