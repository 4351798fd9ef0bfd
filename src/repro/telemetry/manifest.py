"""Run manifests: one JSON document per scenario run, next to the store.

A manifest answers "what ran, from which config, at which revision, in
which environment, and where did the time go" without replaying anything:
config hash, git revision and dirty flag, the Python/numpy/scipy versions,
their BLAS builds and thread settings, platform and core count, unit
accounting, stage timings aggregated from the telemetry spans, and the full
counter dump.  ``repro run`` writes one per scenario under
``<store>/manifests/`` (latest run wins), and ``repro stats`` renders them.

The config hash is a SHA-256 over the canonical-JSON scenario document —
the same canonicalisation discipline as the result store's signature
keys, but deliberately *separate* from them: manifests describe runs,
they never feed back into store addressing, and telemetry state never
enters a store signature.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import time
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

__all__ = [
    "MANIFEST_FORMAT",
    "config_hash",
    "build_manifest",
    "write_manifest",
    "manifest_path",
    "read_manifests",
]

MANIFEST_FORMAT = 1


def config_hash(document: Mapping[str, Any]) -> str:
    """SHA-256 of the canonical-JSON form of a scenario document."""
    canonical = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def git_state(cwd: Optional[Union[str, Path]] = None) -> Tuple[str, Optional[bool]]:
    """``(commit hash, dirty)`` of the checkout, from one ``git status`` call.

    ``git status --porcelain=v2 --branch`` reports the commit on its
    ``# branch.oid`` header line and one line per modified or untracked
    path.  Outside a checkout (or without ``git``) this is
    ``("unknown", None)``.
    """
    try:
        proc = subprocess.run(
            ["git", "status", "--porcelain=v2", "--branch"],
            cwd=str(cwd) if cwd is not None else None,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown", None
    if proc.returncode != 0:
        return "unknown", None
    rev, dirty = "unknown", False
    for line in proc.stdout.splitlines():
        if line.startswith("# branch.oid "):
            oid = line.split()[-1]
            rev = "unknown" if oid == "(initial)" else oid
        elif not line.startswith("#"):
            dirty = True
    return rev, dirty


#: Thread-count variables the BLAS libraries read at load time.
_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _blas_build(module: Any) -> Optional[Dict[str, str]]:
    """Name and version of the BLAS that ``module`` (numpy or scipy) was built against.

    Read from ``module.show_config(mode="dicts")``; ``None`` on a release
    too old to report it.
    """
    try:
        blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError, AttributeError):
        return None
    return {"name": str(blas.get("name", "unknown")), "version": str(blas.get("version", "unknown"))}


def environment() -> Dict[str, Any]:
    """The interpreter, solver build, BLAS, platform and core count of this process.

    SLSQP's LAPACK calls run on scipy's BLAS, whose thread count the
    ``*_NUM_THREADS`` variables set (``None`` when unset), so both go into
    every manifest.
    """
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _blas_build(numpy),
        "scipy_blas": _blas_build(scipy),
        "blas_threads": {name: os.environ.get(name) for name in _BLAS_THREAD_VARIABLES},
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
    }


def build_manifest(
    *,
    scenario: str,
    config: Mapping[str, Any],
    computed: int,
    skipped: int,
    elapsed_seconds: float,
    stage_timings: Optional[Mapping[str, Mapping[str, float]]] = None,
    counters: Optional[Mapping[str, int]] = None,
) -> Dict[str, Any]:
    """Assemble a manifest document (plain JSON-serialisable data).

    ``stage_timings``/``counters`` come from an enabled telemetry
    collector; with telemetry off the manifest still records the config
    hash, revision, environment, unit accounting, and wall-clock.
    """
    git_rev, git_dirty = git_state()
    manifest: Dict[str, Any] = {
        "manifest_format": MANIFEST_FORMAT,
        "scenario": scenario,
        "config_hash": config_hash(config),
        "git_rev": git_rev,
        "git_dirty": git_dirty,
        "environment": environment(),
        "created_unix": time.time(),
        "computed": computed,
        "skipped": skipped,
        "elapsed_seconds": elapsed_seconds,
    }
    if stage_timings:
        manifest["stage_timings"] = {name: dict(row) for name, row in stage_timings.items()}
    if counters:
        manifest["counters"] = dict(counters)
    return manifest


def manifest_path(store_root: Union[str, Path], scenario: str) -> Path:
    return Path(store_root) / "manifests" / f"{scenario}.json"


def write_manifest(store_root: Union[str, Path], manifest: Mapping[str, Any]) -> Path:
    """Atomically write ``<store>/manifests/<scenario>.json`` (latest wins)."""
    target = manifest_path(store_root, str(manifest["scenario"]))
    target.parent.mkdir(parents=True, exist_ok=True)
    tmp = target.with_name(f".tmp-{os.getpid()}-{target.name}")
    tmp.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    os.replace(tmp, target)
    return target


def read_manifests(store_root: Union[str, Path]) -> List[Dict[str, Any]]:
    """All manifests under a store, sorted by scenario name."""
    directory = Path(store_root) / "manifests"
    if not directory.is_dir():
        return []
    manifests = []
    for path in sorted(directory.glob("*.json")):
        manifests.append(json.loads(path.read_text(encoding="utf-8")))
    return manifests
