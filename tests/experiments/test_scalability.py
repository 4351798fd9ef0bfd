"""Tests for the multicore scalability scenario (`repro scalability`)."""

import json

import pytest

from repro.power.presets import ideal_processor
from repro.reporting.serialization import scenario_result_to_dict
from repro.scenarios import ScenarioEngine, ScenarioError, ScenarioSpec, TasksetSpec
from repro.scenarios.engine import build_taskset

QUICK = {
    "kind": "multicore",
    "name": "scalability-quick",
    "taskset": {"source": "cnc", "ratio": 0.5, "utilization": 0.7},
    "offline": {"methods": ["acs"], "baseline": "acs"},
    "simulation": {"hyperperiods": 3, "seed": 2005},
    "multicore": {"cores": [1, 2], "partitioners": ["ffd", "wfd"]},
}


def _energy(result, n_cores, partitioner):
    return result.point(cores=n_cores, partitioner=partitioner)["mean_energy_per_hyperperiod"]


@pytest.fixture(scope="module")
def result():
    return ScenarioEngine().run(ScenarioSpec.from_dict(QUICK))


class TestSweep:
    def test_grid_is_complete(self, result):
        assert len(result.points) == 4
        for n_cores in (1, 2):
            for partitioner in ("ffd", "wfd"):
                point = result.point(cores=n_cores, partitioner=partitioner)
                assert point["deadline_misses"] == 0
                assert point["mean_energy_per_hyperperiod"] > 0

    def test_balancing_beats_packing_at_m2(self, result):
        # WFD spreads the CNC set over both cores; FFD packs it onto one.
        # With the quadratic energy law the balanced partition must win big.
        wfd = _energy(result, 2, "wfd")
        assert wfd < 0.8 * _energy(result, 2, "ffd")
        single = _energy(result, 1, "wfd")
        assert 100.0 * (single - wfd) / single > 20.0

    def test_identical_partitions_give_identical_energy(self, result):
        # FFD at m=2 packs everything onto core 0, i.e. the same partition as
        # m=1 — the paired seeding must make the energies exactly equal.
        assert _energy(result, 2, "ffd") == _energy(result, 1, "ffd")

    def test_markdown_report(self, result):
        report = result.to_markdown()
        assert "improvement vs m=1 %" in report
        assert "ffd" in report and "wfd" in report

    def test_parallel_matches_serial(self, result):
        parallel = ScenarioEngine().run(ScenarioSpec.from_dict(QUICK), n_jobs=2)
        assert parallel.points == result.points
        assert parallel.to_markdown() == result.to_markdown()

    def test_serialization_round_trip_shape(self, result):
        data = scenario_result_to_dict(result)
        assert data["scenario"]["multicore"]["cores"] == [1, 2]
        assert len(data["points"]) == 4
        assert json.loads(json.dumps(data))["points"] == data["points"]


class TestPoint:
    def test_single_point_runs(self):
        document = {**QUICK, "multicore": {"cores": [2], "partitioners": ["wfd"]}}
        spec = ScenarioSpec.from_dict(document)
        engine = ScenarioEngine()
        (point,) = engine.run(spec).points
        assert point["coords"] == {"multicore.cores": 2, "multicore.partitioner": "wfd"}
        (key,) = engine.compile(spec).units
        payload = engine.store.get(key)
        assert payload["n_cores"] == 2
        assert payload["partitioner"] == "wfd"
        assert payload["deadline_misses"] == 0

    def test_unknown_application_rejected(self):
        with pytest.raises(ScenarioError, match="satellite"):
            ScenarioSpec.from_dict({**QUICK, "taskset": {"source": "satellite"}})

    def test_gap_application_builds(self):
        taskset = build_taskset(TasksetSpec(source="gap", gap_tasks=5), ideal_processor())
        assert len(taskset) == 5
