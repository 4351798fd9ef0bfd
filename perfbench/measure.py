"""Process-level measurement for the benchmark: child runs, rusage, statistics.

Everything here is observation from outside the program: a ``repro run``
child is started, reaped with ``os.wait4`` (whose rusage covers the child and
every descendant it waited for), and its manifest, output JSON and solve-memo
records are read back after it exits.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence

ROOT = Path(__file__).resolve().parents[1]

#: Thread-count variables of the BLAS/OpenMP runtimes.  They are recorded
#: from the caller's environment and then removed from the child's, so a
#: result never depends on the shell it was started from.  They are never
#: pinned: the oversubscription of pool workers is part of what is measured.
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: Percentiles considered for the tail figure of a timing.
_PERCENTILES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)


@dataclass
class ChildRun:
    """One finished child process."""

    returncode: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    invol_ctx_switches: int
    output: str


def child_env() -> Dict[str, str]:
    """The caller's environment with ``src`` importable and no thread pins."""
    env = {key: value for key, value in os.environ.items() if key not in THREAD_VARIABLES}
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv: Sequence[str], log_path: Path, *, timeout_s: float) -> ChildRun:
    """Run ``argv`` from the repository root and account for its resources.

    The child is killed if it outlives ``timeout_s``; either way it is reaped
    before this returns, so no process outlives the call.
    """
    log_path.parent.mkdir(parents=True, exist_ok=True)
    with log_path.open("w", encoding="utf-8") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(list(argv), cwd=ROOT, env=child_env(),
                                stdout=log, stderr=subprocess.STDOUT)
        killer = threading.Timer(timeout_s, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildRun(
        returncode=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,  # Linux reports KiB
        invol_ctx_switches=usage.ru_nivcsw,
        output=log_path.read_text(encoding="utf-8", errors="replace"),
    )


# --------------------------------------------------------------------- #
# Program artifacts
# --------------------------------------------------------------------- #
def read_manifest(store: Path, scenario: str) -> Dict[str, Any]:
    """The run manifest ``repro run`` wrote for ``scenario`` under ``store``."""
    return json.loads((store / "manifests" / f"{scenario}.json").read_text(encoding="utf-8"))


def solve_statuses(store: Path) -> List[int]:
    """SLSQP exit status of every solve-memo record under ``store``."""
    from repro.scenarios.store import ResultStore

    memo = ResultStore(store / "solve-memo")
    statuses = []
    for entry in memo.entries():
        payload = memo.get(entry.key)
        if payload is not None:
            statuses.append(int(payload["metadata"].get("solver_status", 0)))
    return statuses


# --------------------------------------------------------------------- #
# Statistics
# --------------------------------------------------------------------- #
def summarize(samples: Sequence[float]) -> Dict[str, Any]:
    """Median plus the highest percentile with at least ten samples beyond it."""
    values = sorted(samples)
    count = len(values)
    summary: Dict[str, Any] = {"median": statistics.median(values), "n": count,
                               "tail_pct": None, "tail": None}
    for pct in _PERCENTILES:
        rank = int(round(pct / 100.0 * (count - 1)))
        if count - 1 - rank >= 10:
            summary["tail_pct"], summary["tail"] = pct, values[rank]
    return summary


# --------------------------------------------------------------------- #
# Environment
# --------------------------------------------------------------------- #
def _git(*args: str) -> Optional[str]:
    try:
        proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment() -> Dict[str, Any]:
    """Interpreter, library, BLAS, core-count and revision facts of this run."""
    import numpy
    import scipy

    blas: Mapping[str, Any] = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    rev = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain") if rev else None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "nproc": nproc(),
        "platform": platform.platform(),
        "git_rev": rev or "unknown",
        "git_dirty": None if status is None else bool(status),
        "thread_variables": {name: os.environ.get(name) for name in THREAD_VARIABLES},
    }


def nproc() -> int:
    return len(os.sched_getaffinity(0))
