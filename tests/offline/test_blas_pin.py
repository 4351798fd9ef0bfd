"""Every SLSQP solve runs on one scipy-OpenBLAS thread.

SLSQP's dense subproblem runs on scipy's bundled OpenBLAS, whose thread
count changes a solve's output bits.  :func:`~repro.offline.nlp.single_blas_thread`
pins it to one thread around each solve and restores the caller's count, so
a solve-memo payload is the same whatever ``OPENBLAS_NUM_THREADS`` says.  A
solve that cannot be pinned still runs, is counted as unpinned and is
stored under its own key.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.preemption import expand_fully_preemptive
from repro.offline import SolveMemo, solve_nlp
from repro.offline import nlp as nlp_module
from repro.offline import slsqp
from repro.offline.batched_solver import solve_signature
from repro.offline.nlp import ReducedNLP
from repro.offline.nlp_literal import LiteralNLPScheduler
from repro.scenarios.store import signature_key
from repro.telemetry.core import Telemetry, using

SRC = Path(__file__).resolve().parents[2] / "src"

#: The CNC case study at BCEC/WCEC 0.1: a 52-variable NLP, planned by WCS and ACS.
SPEC = {
    "kind": "comparison",
    "name": "blas-pin",
    "taskset": {"source": "cnc", "ratio": 0.1},
    "simulation": {"hyperperiods": 1, "repetitions": 1},
}

PLAN = """
import json, sys
from repro.scenarios import ResultStore, ScenarioEngine, ScenarioSpec
root = sys.argv[1]
ScenarioEngine(ResultStore(root)).run(ScenarioSpec.from_dict(json.loads(sys.argv[2])))
memo = ResultStore(root + "/solve-memo")
print(json.dumps({entry.key: memo.get(entry.key) for entry in memo.entries()}, sort_keys=True))
"""


def memo_payloads(root, threads):
    """Plan ``SPEC`` in a fresh interpreter; its solve-memo records as canonical JSON."""
    proc = subprocess.run([sys.executable, "-c", PLAN, str(root), json.dumps(SPEC)],
                          env=child_env(threads), capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()[-1]


def child_env(threads):
    """This process's environment for a child, with ``OPENBLAS_NUM_THREADS`` unset or ``threads``."""
    env = {name: value for name, value in os.environ.items() if name != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    return env


def openblas():
    library = nlp_module._scipy_openblas()
    if library is None:
        pytest.skip("scipy is not linked against its bundled OpenBLAS")
    return library


def test_memo_payloads_do_not_depend_on_openblas_num_threads(tmp_path):
    openblas()
    unset = memo_payloads(tmp_path / "unset", None)
    assert memo_payloads(tmp_path / "one", "1") == unset
    assert memo_payloads(tmp_path / "four", "4") == unset
    records = json.loads(unset)
    assert len(records) == 3  # WCS, plain ACS, WCS-seeded ACS
    assert {payload["metadata"]["blas_threads"] for payload in records.values()} == {1}


class TestSingleBlasThread:
    @pytest.fixture
    def nlp(self, processor, two_task_set):
        return ReducedNLP(expand_fully_preemptive(two_task_set), processor)

    @pytest.fixture
    def caller_threads(self):
        """The caller runs three OpenBLAS threads; its own count comes back afterwards."""
        get_threads, set_threads = openblas()
        previous = get_threads()
        set_threads(3)
        yield get_threads
        set_threads(previous)

    def test_solve_runs_on_one_thread_and_restores_the_callers_count(self, nlp, caller_threads,
                                                                     monkeypatch):
        """Every call into the solver sees one thread: each step of SLSQP's
        compiled kernel, or ``scipy.optimize.minimize`` on an unverified scipy."""
        seen = []

        def spying(solver):
            def spy(*args, **kwargs):
                seen.append(caller_threads())
                return solver(*args, **kwargs)
            return spy

        kernel = slsqp.kernel()
        if kernel is not None:
            monkeypatch.setattr(slsqp, "kernel", lambda: spying(kernel))
        else:
            from scipy import optimize

            monkeypatch.setattr(optimize, "minimize", spying(optimize.minimize))
        with using(Telemetry()) as telemetry:
            schedule = nlp.solve()
        assert seen and set(seen) == {1}
        assert caller_threads() == 3
        assert schedule.metadata["blas_threads"] == 1
        assert telemetry.counters["solve.blas.pinned"] == 1
        assert "solve.blas.unpinned" not in telemetry.counters

    def test_literal_formulation_solves_on_one_thread_too(self, processor, two_task_set):
        openblas()
        with using(Telemetry()) as telemetry:
            LiteralNLPScheduler(processor).schedule_expansion(expand_fully_preemptive(two_task_set))
        assert telemetry.counters["solve.blas.pinned"] == 2  # its reduced seed solve, then its own

    def test_callers_count_comes_back_when_the_objective_raises(self, nlp, caller_threads,
                                                                monkeypatch):
        def failing(x):
            raise RuntimeError("objective failed")

        monkeypatch.setattr(nlp, "objective", failing)
        with pytest.raises(RuntimeError, match="objective failed"):
            nlp.solve()
        assert caller_threads() == 3

    def test_unpinnable_solve_still_runs_and_never_answers_a_pinned_lookup(self, nlp, monkeypatch):
        monkeypatch.setattr(nlp_module, "_scipy_openblas", lambda: None)
        memo = SolveMemo()
        with using(Telemetry()) as telemetry:
            schedule = solve_nlp(nlp, memo=memo)
        assert schedule.metadata["blas_threads"] == "unpinned"
        assert telemetry.counters["solve.blas.unpinned"] == 1
        assert "solve.blas.pinned" not in telemetry.counters
        assert memo.lookup(signature_key(solve_signature(nlp))) is None
        assert memo.lookup(signature_key(solve_signature(nlp, blas_threads="unpinned"))) is not None


#: Runs ``python -m repro store ls`` in this interpreter, then prints the
#: thread counts of numpy's and scipy's OpenBLAS (``null`` when not found).
CLI_THREADS = """
import ctypes, json, runpy, sys
from pathlib import Path
sys.argv = ["repro", "store", "ls", "--store", sys.argv[1]]
try:
    runpy.run_module("repro", run_name="__main__", alter_sys=True)
except SystemExit:
    pass
import numpy
from repro.offline.nlp import _scipy_openblas

def numpy_threads():
    package = Path(numpy.__file__).parent
    for path in sorted([*package.parent.glob("numpy.libs/libscipy_openblas64_*"),
                        *package.glob(".dylibs/libscipy_openblas64_*")]):
        try:
            get_threads = ctypes.CDLL(str(path)).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        get_threads.argtypes, get_threads.restype = [], ctypes.c_int
        return get_threads()
    return None

import scipy.linalg  # loads scipy's OpenBLAS, as a solve does
scipy_library = _scipy_openblas()
print(json.dumps({"numpy": numpy_threads(),
                  "scipy": None if scipy_library is None else scipy_library[0]()}))
"""


class TestCliStartsOpenBlasOnOneThread:
    """numpy's and scipy's OpenBLAS each start one thread per core when they
    load, and the idle ones spin beside the main thread.  The CLI defaults
    ``OPENBLAS_NUM_THREADS`` to 1 before numpy loads; ``import repro`` loads
    no numpy, so library importers keep their own threads."""

    def test_importing_the_package_loads_no_numpy(self):
        probe = "import sys, repro\nprint('numpy' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", probe], env=child_env(None),
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    @pytest.mark.parametrize("first, expected", [("", "True 1"), ("import numpy\n", "False None")],
                             ids=["numpy-unloaded", "numpy-loaded"])
    def test_cli_defaults_the_variable_only_before_numpy_loads(self, first, expected):
        """A process that loaded numpy first started its BLAS threads already:
        the CLI then sets nothing and records no default."""
        probe = (f"import os\n{first}import repro.cli\n"
                 "print(repro.cli._blas_default.DEFAULTED, os.environ.get('OPENBLAS_NUM_THREADS'))")
        proc = subprocess.run([sys.executable, "-c", probe], env=child_env(None),
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == expected

    @pytest.mark.parametrize("threads, expected", [(None, 1), ("2", 2)], ids=["unset", "explicit-2"])
    def test_cli_default_yields_to_the_callers_count(self, tmp_path, threads, expected):
        openblas()
        if expected > (os.cpu_count() or 1):
            pytest.skip("OpenBLAS caps its threads at the core count")
        proc = subprocess.run([sys.executable, "-c", CLI_THREADS, str(tmp_path / "store")],
                              env=child_env(threads), capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        counts = json.loads(proc.stdout.strip().splitlines()[-1])
        assert counts["scipy"] == expected
        assert counts["numpy"] in (expected, None)  # None: numpy built against another BLAS
