"""Trend checks for the Figure 6(a)/6(b) scenarios (tiny configurations)."""

import pytest

from repro.scenarios import ScenarioEngine, ScenarioError, ScenarioSpec


def _run(document):
    return ScenarioEngine().run(ScenarioSpec.from_dict(document))


def _improvement(point):
    return point["methods"]["acs"]["mean_improvement_percent"]


class TestFigure6a:
    DOCUMENT = {
        "kind": "comparison",
        "name": "figure6a-tiny",
        "taskset": {"source": "random", "utilization": 0.7},
        "simulation": {"hyperperiods": 5, "seed": 7, "repetitions": 1},
        "matrix": {"taskset.n_tasks": [2, 3], "taskset.ratio": [0.1, 0.9]},
    }

    @pytest.fixture(scope="class")
    def result(self):
        return _run(self.DOCUMENT)

    def test_all_points_present(self, result):
        assert len(result.points) == 4
        assert result.point(n_tasks=2, ratio=0.1)["coords"]["taskset.n_tasks"] == 2
        with pytest.raises(KeyError):
            result.point(n_tasks=10, ratio=0.1)

    def test_no_deadline_misses(self, result):
        assert all(p["deadline_misses"] == 0 for p in result.points)

    def test_low_ratio_beats_high_ratio(self, result):
        """More workload variation → more opportunity for ACS (the figure's main trend)."""
        for n_tasks in (2, 3):
            low = _improvement(result.point(n_tasks=n_tasks, ratio=0.1))
            high = _improvement(result.point(n_tasks=n_tasks, ratio=0.9))
            assert low >= high - 2.0  # allow small sampling noise

    def test_series_and_markdown(self, result):
        series = [p["coords"]["taskset.n_tasks"] for p in result.points
                  if p["coords"]["taskset.ratio"] == 0.1]
        assert series == [2, 3]
        table = result.to_markdown()
        assert "| n_tasks | ratio" in table and "acs improvement %" in table


class TestFigure6b:
    DOCUMENT = {
        "kind": "comparison",
        "name": "figure6b-tiny",
        "taskset": {"source": "cnc", "utilization": 0.7, "gap_tasks": 5},
        "simulation": {"hyperperiods": 3, "seed": 7},
        "matrix": {"taskset.source": ["cnc", "gap"], "taskset.ratio": [0.1, 0.9]},
    }

    @pytest.fixture(scope="class")
    def result(self):
        return _run(self.DOCUMENT)

    def test_both_applications_present(self, result):
        assert {p["coords"]["taskset.source"] for p in result.points} == {"cnc", "gap"}
        assert len(result.points) == 4

    def test_no_deadline_misses(self, result):
        assert all(p["deadline_misses"] == 0 for p in result.points)

    def test_improvement_positive_at_low_ratio(self, result):
        assert _improvement(result.point(source="cnc", ratio=0.1)) > 5.0
        assert _improvement(result.point(source="gap", ratio=0.1)) > 0.0

    def test_series_and_markdown(self, result):
        series = [p["coords"]["taskset.ratio"] for p in result.points
                  if p["coords"]["taskset.source"] == "cnc"]
        assert series == [0.1, 0.9]
        table = result.to_markdown()
        assert "| source | ratio" in table and "| cnc" in table and "| gap" in table

    def test_unknown_application_rejected(self):
        matrix = {**self.DOCUMENT["matrix"], "taskset.source": ["cnc", "flight-sim"]}
        spec = ScenarioSpec.from_dict({**self.DOCUMENT, "matrix": matrix})
        with pytest.raises(ScenarioError, match="flight-sim"):
            ScenarioEngine().compile(spec)
