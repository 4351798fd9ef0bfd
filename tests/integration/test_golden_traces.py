"""Golden event-trace regression tests.

Each fixture under ``tests/fixtures/traces/`` pins, per method, the static
schedule of one deterministic run (its ``end_times``/``wc_budgets`` vectors
and objective value) and the *complete* typed event stream the simulator
produced from that schedule — every release, resume, frequency change,
segment, preemption and deadline miss with full float precision.

The two halves are checked apart, because only one of them is independent
of the numpy/scipy build:

* :func:`test_golden_trace` rebuilds each committed schedule with
  ``StaticSchedule.from_vectors`` and simulates it.  Any change to dispatch
  order, RNG consumption, slack arithmetic or event emission shows up as a
  trace diff here, on every build, long before it would move an aggregate
  energy number.
* :func:`test_fresh_solve_matches_committed_objective` solves the same NLPs
  fresh, validates each schedule and compares its objective with the
  committed one within the run's :data:`OBJECTIVE_RTOL`.  SLSQP's stopping
  point moves between scipy builds, so the solver is held to a tolerance,
  never to bits.

Pinned runs:

* ``figure6a_smoke_unit0``  — the first work unit of the committed
  ``examples/scenarios/figure6a.toml`` at its smoke profile (trace forced on;
  tracing is opt-in, so forcing it cannot change the simulated numbers).
* ``demo_greedy``           — the CLI demo application (``repro trace`` with
  its defaults).  The committed motivation scenario itself is the analytic
  end-times table (kind ``motivation``) and never runs the simulator, so the
  demo frame stands in for it as the hand-sized golden run.
* ``sporadic_unit0``        — the first unit of the committed
  ``examples/scenarios/sporadic.toml`` exactly as ``repro run`` executes it.

Regenerate intentionally with::

    REPRO_REGEN_FIXTURES=1 PYTHONPATH=src python -m pytest tests/integration/test_golden_traces.py

after reviewing the diff.  A regeneration re-solves every schedule, so it
is a semantic change to the simulator or the solver and should be called
out in the commit message.
"""

import copy
import json
import os
from dataclasses import dataclass
from typing import Any, Dict

import numpy as np
import pytest

from repro.analysis.preemption import expand_fully_preemptive
from repro.cli import main as cli_main
from repro.core.taskset import TaskSet
from repro.experiments.harness import make_schedulers
from repro.offline.base import VoltageScheduler
from repro.offline.schedule import StaticSchedule
from repro.power.presets import ideal_processor
from repro.power.processor import ProcessorModel
from repro.runtime.policies import get_policy
from repro.runtime.simulator import DVSSimulator, SimulationConfig
from repro.runtime.trace import EventTrace
from repro.scenarios import MemoryStore, ScenarioEngine, ScenarioSpec, load_scenario
from repro.workloads.distributions import NormalWorkload, WorkloadModel

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
FIXTURES_DIR = os.path.join(REPO_ROOT, "tests", "fixtures", "traces")
SCENARIOS_DIR = os.path.join(REPO_ROOT, "examples", "scenarios")
REGEN = os.environ.get("REPRO_REGEN_FIXTURES") == "1"

#: Relative tolerance of a fresh solve's objective against the committed one,
#: per pinned run.  Measured by restarting every solve from its default guess
#: nudged by 1e-9 (relative, 20 draws), a stand-in for another build's
#: rounding: the figure6a unit's objectives moved by at most 3e-10, so 1e-6
#: pins them.  On the demo task set (``demo_greedy`` and ``sporadic_unit0``)
#: SLSQP stops at start-dependent points — the ACS solve ends with status 8
#: (line-search failure) — and the objectives moved by up to 38%, so only a
#: loose 0.5 is honest there.
OBJECTIVE_RTOL = {"figure6a_smoke_unit0": 1e-6, "demo_greedy": 0.5, "sporadic_unit0": 0.5}


# --------------------------------------------------------------------- #
# Pinned runs
# --------------------------------------------------------------------- #
@dataclass
class Case:
    """One pinned run: what is planned, and how each schedule is simulated."""

    taskset: TaskSet
    processor: ProcessorModel
    schedulers: Dict[str, VoltageScheduler]
    policy: Any
    workload: WorkloadModel
    config: SimulationConfig
    seed: int

    def simulate(self, schedule):
        """Simulate one schedule exactly as the comparison harness does."""
        simulator = DVSSimulator(self.processor, policy=copy.deepcopy(self.policy),
                                 config=self.config)
        return simulator.run(schedule, self.workload, np.random.default_rng(self.seed))


def _scenario_case(spec, unit_index=0):
    """The first point's ``unit_index``-th unit of a committed scenario."""
    compiled = ScenarioEngine(MemoryStore()).compile(spec)
    job = compiled.units[compiled.points[0].unit_keys[unit_index]]
    cfg = job.config
    return Case(job.resolve_taskset(), job.processor,
                make_schedulers(job.schedulers, job.processor),
                cfg.policy, cfg.workload, cfg.simulation_config(), cfg.seed)


def figure6a_smoke_unit0():
    spec = load_scenario(os.path.join(SCENARIOS_DIR, "figure6a.toml"), profile="smoke")
    data = spec.to_dict()
    data["simulation"]["trace"] = True
    return _scenario_case(ScenarioSpec.from_dict(data))


def sporadic_unit0():
    # sporadic.toml already declares trace = true; no forcing needed.
    spec = load_scenario(os.path.join(SCENARIOS_DIR, "sporadic.toml"))
    assert spec.simulation.trace, "sporadic.toml must commit to trace = true"
    return _scenario_case(spec)


def demo_greedy():
    """The `repro trace` default run."""
    from repro.cli import _demo_taskset

    processor = ideal_processor(fmax=1000.0)
    return Case(_demo_taskset(0.5), processor, make_schedulers(["acs"], processor),
                get_policy("greedy"), NormalWorkload(),
                SimulationConfig(n_hyperperiods=2, trace=True), 2005)


CASES = {
    "figure6a_smoke_unit0": figure6a_smoke_unit0,
    "demo_greedy": demo_greedy,
    "sporadic_unit0": sporadic_unit0,
}


# --------------------------------------------------------------------- #
# Fixture I/O (one event per line, so regeneration diffs stay readable)
# --------------------------------------------------------------------- #
def _fixture_path(name):
    return os.path.join(FIXTURES_DIR, f"{name}.json")


def _write_fixture(name, case):
    """Solve every method fresh, simulate it, and commit schedule plus events."""
    expansion = expand_fully_preemptive(case.taskset)
    chunks = []
    for method in sorted(case.schedulers):
        schedule = case.schedulers[method].schedule_expansion(expansion)
        events = case.simulate(schedule).trace.to_dicts()
        fields = [
            f"    {json.dumps(key)}: {json.dumps(value)}"
            for key, value in (
                ("objective_value", schedule.objective_value),
                ("end_times", [float(v) for v in schedule.end_times()]),
                ("wc_budgets", [float(v) for v in schedule.wc_budgets()]),
            )
        ]
        rows = ",\n".join("      " + json.dumps(row, sort_keys=True) for row in events)
        fields.append(f'    "events": [\n{rows}\n    ]')
        chunks.append(f"  {json.dumps(method)}: {{\n" + ",\n".join(fields) + "\n  }")
    os.makedirs(FIXTURES_DIR, exist_ok=True)
    with open(_fixture_path(name), "w") as handle:
        handle.write("{\n" + ",\n".join(chunks) + "\n}\n")


def _read_fixture(name):
    assert os.path.exists(_fixture_path(name)), (
        f"missing fixture {name}.json — generate it with REPRO_REGEN_FIXTURES=1")
    with open(_fixture_path(name)) as handle:
        return json.load(handle)


# --------------------------------------------------------------------- #
# Tests
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_trace(name):
    case = CASES[name]()
    if REGEN:
        _write_fixture(name, case)
    golden = _read_fixture(name)
    assert sorted(golden) == sorted(case.schedulers)
    expansion = expand_fully_preemptive(case.taskset)
    for method in sorted(golden):
        pinned = golden[method]
        schedule = StaticSchedule.from_vectors(expansion, pinned["end_times"],
                                               pinned["wc_budgets"], method=method)
        actual = case.simulate(schedule).trace.to_dicts()
        expected = pinned["events"]
        assert len(actual) == len(expected), (
            f"{name}/{method}: {len(actual)} events, fixture has {len(expected)}")
        for index, (got, want) in enumerate(zip(actual, expected)):
            assert got == want, (
                f"{name}/{method} diverges at event {index}:\n"
                f"  got  {got}\n  want {want}")
        # The committed rows must also rebuild into a well-formed trace.
        rebuilt = EventTrace.from_dicts(expected)
        assert rebuilt.to_dicts() == expected


@pytest.mark.parametrize("name", sorted(CASES))
def test_fresh_solve_matches_committed_objective(name):
    case = CASES[name]()
    golden = _read_fixture(name)
    expansion = expand_fully_preemptive(case.taskset)
    for method in sorted(case.schedulers):
        schedule = case.schedulers[method].schedule_expansion(expansion)
        schedule.validate(case.processor)
        assert schedule.objective_value == pytest.approx(
            golden[method]["objective_value"], rel=OBJECTIVE_RTOL[name]), f"{name}/{method}"


def test_fixture_directory_has_no_orphans():
    committed = {name[:-5] for name in os.listdir(FIXTURES_DIR)
                 if name.endswith(".json")}
    assert committed == set(CASES), (
        "fixtures and cases out of sync — delete stale files or add a case")


def test_sporadic_scenario_runs_end_to_end_through_the_cli(tmp_path, capsys):
    """The acceptance path: `repro run examples/scenarios/sporadic.toml`."""
    spec_path = os.path.join(SCENARIOS_DIR, "sporadic.toml")
    exit_code = cli_main(["run", spec_path, "--store", str(tmp_path / "store"),
                          "--output", str(tmp_path / "out")])
    assert exit_code == 0
    output = capsys.readouterr().out
    assert "sporadic" in output
    assert "computed=2 skipped=0" in output
    # Warm rerun: everything store-hits, nothing recomputed.
    exit_code = cli_main(["run", spec_path, "--store", str(tmp_path / "store")])
    assert exit_code == 0
    assert "computed=0 skipped=2" in capsys.readouterr().out
    result = json.loads((tmp_path / "out" / "sporadic.json").read_text())
    assert result["scenario"]["name"] == "sporadic"
    assert result["points"]
