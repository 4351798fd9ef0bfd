"""The benchmark's layer tracer still finds every name it wraps.

``perfbench/tracer.py`` wraps entry points of ``repro`` by name (module and
class attributes such as ``harness.plan_expansions`` or
``batched_solver._evaluate_drain``), so renaming or deleting one only
surfaces when a traced benchmark run crashes.  This test installs the
tracer in a fresh interpreter, where its patches cannot leak into the test
process, and plans one small comparison through the wrapped names.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
TRACER = ROOT / "perfbench" / "tracer.py"

PROBE = f"""
import importlib.util, json
spec = importlib.util.spec_from_file_location("perfbench_tracer", {str(TRACER)!r})
module = importlib.util.module_from_spec(spec)
spec.loader.exec_module(module)
tracer = module.LayerTracer()
tracer.install()

from repro.core.task import Task
from repro.core.taskset import TaskSet
from repro.experiments.harness import ComparisonConfig, compare_schedulers
from repro.power.presets import ideal_processor

taskset = TaskSet([Task("A", period=10, wcec=3000, acec=1500, bcec=600),
                   Task("B", period=20, wcec=8000, acec=4400, bcec=800)], name="two-tasks")
compare_schedulers(taskset, ideal_processor(fmax=1000.0),
                   config=ComparisonConfig(n_hyperperiods=2, seed=1))
print(json.dumps(tracer.snapshot()))
"""


def test_tracer_installs_and_sees_the_planning_layers():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    snapshot = json.loads(proc.stdout.strip().splitlines()[-1])
    # WCS, ACS from the default guess, ACS from the WCS solution; ACS's WCS
    # warm start is answered by the memo.
    assert len(snapshot["solves"]) == 3
    assert snapshot["counts"]["memo.lookups"] == 4
    assert snapshot["counts"]["memo.hits"] == 1
    assert snapshot["seconds"]["offline.plan"] > 0
    assert snapshot["counts"]["analysis.sub_instances"] > 0
    # SLSQP differences through ReducedNLP.jacobian: the layer the tracer
    # reports as offline.jacobian would read 0 if another gradient were used.
    assert snapshot["counts"]["offline.jacobian_calls"] > 0
    assert snapshot["seconds"]["offline.jacobian"] > 0
