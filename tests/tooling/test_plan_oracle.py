"""Tests for tools/plan_oracle.py (a script, not a package): a record of a
small spec compares equal to itself, and a worse record fails the comparison."""

import copy
import importlib.util
import json
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parents[2] / "tools" / "plan_oracle.py"
_spec = importlib.util.spec_from_file_location("plan_oracle", _SCRIPT)
plan_oracle = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(plan_oracle)

#: The two-task set planned by WCS and ACS (JSON, so it loads on Python 3.10 too).
SPEC = {
    "kind": "comparison",
    "name": "oracle-demo",
    "taskset": {"source": "explicit", "name": "two-tasks", "ratio": 0.5, "tasks": [
        {"name": "A", "period": 10, "wcec": 3000},
        {"name": "B", "period": 20, "wcec": 8000},
    ]},
    "offline": {"methods": ["wcs", "acs"], "baseline": "wcs"},
    "online": {"policy": "greedy"},
    "workload": {"model": "normal"},
    "power": {"model": "ideal", "fmax": 1000.0},
    "simulation": {"hyperperiods": 2, "seed": 1, "repetitions": 2},
}


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    root = tmp_path_factory.mktemp("oracle")
    spec = root / "spec.json"
    spec.write_text(json.dumps(SPEC), encoding="utf-8")
    output = root / "record.json"
    assert plan_oracle.main(["record", str(spec), str(output)]) == 0
    return json.loads(output.read_text(encoding="utf-8"))


def _write(path, data):
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def test_record_holds_each_plan_and_every_solve(recorded):
    # Two repetitions of one task set: one plan per method.  ACS solves from
    # its plain start and from the WCS schedule, whose solve WCS already made.
    assert sorted(row["label"] for row in recorded["plans"].values()) == ["two-tasks/acs", "two-tasks/wcs"]
    assert sorted(row["label"] for row in recorded["solves"]) == [
        "two-tasks/acec/plain", "two-tasks/acec/warm", "two-tasks/wcec/plain"]
    assert all(row["n_vars"] == 6 for row in recorded["solves"])
    assert recorded["deadline_misses"] == 0


def test_a_record_compares_equal_to_itself(recorded, tmp_path):
    path = _write(tmp_path / "a.json", recorded)
    assert plan_oracle.compare(recorded, recorded) == []
    assert plan_oracle.main(["compare", path, path]) == 0


def test_a_worse_objective_fails(recorded, tmp_path):
    worse = copy.deepcopy(recorded)
    plan = next(iter(worse["plans"].values()))
    plan["objective"] *= 1 + 1e-5
    (problem,) = plan_oracle.compare(recorded, worse, rtol=1e-6)
    assert problem.startswith(plan["label"])
    assert plan_oracle.compare(recorded, worse, rtol=1e-4) == []
    # Better is never a failure.
    assert plan_oracle.compare(worse, recorded, rtol=1e-6) == []
    assert plan_oracle.main(["compare", _write(tmp_path / "a.json", recorded),
                             _write(tmp_path / "b.json", worse), "--rtol", "1e-6"]) == 1


@pytest.mark.parametrize("field, value", [("status", 9), ("fallback", True)])
def test_more_abnormal_solves_fail(recorded, field, value):
    worse = copy.deepcopy(recorded)
    worse["solves"][0][field] = value
    assert len(plan_oracle.compare(recorded, worse)) == 1


#: The motivation table's spec (``examples/scenarios/motivation.toml``), as JSON.
MOTIVATION = {
    "kind": "motivation",
    "name": "motivation",
    "motivation": {"frame_length": 20.0, "wcec": 5000.0, "acec": 1500.0, "bcec": 500.0},
    "power": {"model": "ideal", "vmax": 5.0, "vmin": 0.5, "fmax": 1000.0},
}


def test_motivation_record_holds_its_plans(tmp_path):
    # The motivation table plans through ``schedule_expansion``, not through
    # a ``plan_expansions`` call, and its plans are recorded all the same.
    spec = tmp_path / "motivation.json"
    spec.write_text(json.dumps(MOTIVATION), encoding="utf-8")
    record = plan_oracle.record(str(spec))
    labels = {row["label"]: key for key, row in record["plans"].items()}
    assert sorted(labels) == ["motivation/acs", "motivation/wcs"]
    worse = copy.deepcopy(record)
    worse["plans"][labels["motivation/acs"]]["objective"] *= 1 + 1e-5
    (problem,) = plan_oracle.compare(record, worse)
    assert problem.startswith("motivation/acs")
