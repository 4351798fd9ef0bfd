"""The benchmark's layer tracer still finds every name it wraps.

``perfbench/tracer.py`` wraps entry points of ``repro`` by name (module and
class attributes such as ``harness.plan_expansions`` or
``batched_solver._evaluate_drain``), so renaming or deleting one only
surfaces when a traced benchmark run crashes.  This test installs the
tracer in a fresh interpreter, where its patches cannot leak into the test
process, and plans one small comparison through the wrapped names; a second,
traced comparison runs both of its units through ``batched.run_compiled``,
the per-unit reference-loop fallback the tracer counts by name.
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
processor = ideal_processor(fmax=1000.0)
compare_schedulers(taskset, processor, config=ComparisonConfig(n_hyperperiods=2, seed=1))
untraced = tracer.snapshot()
compare_schedulers(taskset, processor,
                   config=ComparisonConfig(n_hyperperiods=2, seed=1, trace=True))
print(json.dumps([untraced, tracer.snapshot()]))
"""


def test_tracer_installs_and_sees_the_planning_layers():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    snapshot, after_traced = json.loads(proc.stdout.strip().splitlines()[-1])
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
    # The untraced comparison's two units run on the lane engine; the traced
    # one's two units fall back, each through the wrapped run_compiled.
    assert snapshot["counts"]["runtime.batched_units"] == 2
    assert "runtime.batch_fallbacks" not in snapshot["counts"]
    assert after_traced["counts"]["runtime.batch_fallbacks"] == 2
