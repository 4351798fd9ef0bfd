"""The solver stack loads on the first solve, never at import.

``scipy.optimize`` is the slowest import of the package, and most runs never
call it: a warm solve memo, a warm result store, ``repro stats``/``store``/
``submit``.  ``ReducedNLP.solve`` imports it itself, and looks up scipy's
OpenBLAS to pin its threads only then, so importing ``repro`` and replaying
every schedule from the memo must leave both unloaded.  Each check runs in a
fresh interpreter, since this test process has long since loaded them.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

from repro.scenarios import ResultStore, ScenarioEngine, ScenarioSpec

SRC = Path(__file__).resolve().parents[2] / "src"

#: A real NLP-backed sweep: a fixed task set, two repetitions.
SPEC = {
    "kind": "comparison",
    "name": "lazy-solver",
    "taskset": {"source": "cnc", "ratio": 0.5},
    "simulation": {"hyperperiods": 2, "seed": 3, "repetitions": 2},
}


LINUX = sys.platform.startswith("linux")


def loads_solver(code):
    """Run ``code`` in a fresh interpreter: did it load ``scipy.optimize``, and map scipy's OpenBLAS?

    scipy's OpenBLAS is ``libscipy_openblas-<hash>``; numpy's own
    ``libscipy_openblas64_-<hash>`` is mapped by every numpy import and does
    not count.  Mappings are read from ``/proc/self/maps``, so off Linux the
    second answer is always ``False``.
    """
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    probe = code + textwrap.dedent("""
        import sys
        maps = open("/proc/self/maps").read() if sys.platform.startswith("linux") else ""
        print("scipy.optimize" in sys.modules, "libscipy_openblas-" in maps)
    """)
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    optimizer, openblas = proc.stdout.strip().splitlines()[-1].split()
    return optimizer == "True", openblas == "True"


def test_importing_the_package_leaves_the_optimizer_unloaded():
    assert loads_solver("import repro, repro.cli") == (False, False)
    # The probe does see both.
    assert loads_solver("import repro\nimport scipy.optimize") == (True, LINUX)


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
    assert loads_solver(rerun) == (False, False)
