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
    env = {name: value for name, value in os.environ.items() if name != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    proc = subprocess.run([sys.executable, "-c", PLAN, str(root), json.dumps(SPEC)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()[-1]


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
        from scipy import optimize

        seen = []
        minimize = optimize.minimize

        def spying(*args, **kwargs):
            seen.append(caller_threads())
            return minimize(*args, **kwargs)

        monkeypatch.setattr(optimize, "minimize", spying)
        with using(Telemetry()) as telemetry:
            schedule = nlp.solve()
        assert seen == [1]
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
