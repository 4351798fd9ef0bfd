"""The solver stack loads on the first solve, never at import.

``scipy.optimize`` is the slowest import of the package, and most runs never
call it: a warm solve memo, a warm result store, ``repro stats``/``store``/
``submit``.  ``ReducedNLP.solve`` imports it itself, so importing ``repro``
and replaying every schedule from the memo must leave it unloaded.  Each
check runs in a fresh interpreter, since this test process has long since
loaded it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.scenarios import ResultStore, ScenarioEngine, ScenarioSpec

SRC = Path(__file__).resolve().parents[2] / "src"

#: A real NLP-backed sweep: a fixed task set, two repetitions, batched.
SPEC = {
    "kind": "comparison",
    "name": "lazy-solver",
    "taskset": {"source": "cnc", "ratio": 0.5},
    "simulation": {"hyperperiods": 2, "seed": 3, "repetitions": 2, "engine": "batched"},
}


def loads_optimizer(code):
    """Run ``code`` in a fresh interpreter; did it load ``scipy.optimize``?"""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    probe = code + "\nimport sys\nprint('scipy.optimize' in sys.modules)\n"
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()[-1] == "True"


def test_importing_the_package_leaves_the_optimizer_unloaded():
    assert not loads_optimizer("import repro, repro.cli")
    assert loads_optimizer("import repro\nimport scipy.optimize")  # the probe does see it


def test_warm_memo_run_leaves_the_optimizer_unloaded(tmp_path):
    root = tmp_path / "store"
    cold = ScenarioEngine(ResultStore(root)).run(ScenarioSpec.from_dict(SPEC))
    assert cold.computed == 2
    rerun = f"""
import json
from repro.scenarios import ResultStore, ScenarioEngine, ScenarioSpec
spec = ScenarioSpec.from_dict(json.loads({json.dumps(SPEC)!r}))
result = ScenarioEngine(ResultStore({str(root)!r})).run(spec, force=True)
assert result.computed == 2, result.computed
assert result.points == json.loads({json.dumps(cold.points)!r}), result.points
"""
    assert not loads_optimizer(rerun)
