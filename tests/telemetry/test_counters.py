"""Counter accuracy against known store/memo behaviour.

A cold scenario run computes every unit (store misses == computed units);
the warm rerun replays everything (store hits == units, ``computed=0``);
a ``--force``-style rerun recomputes the units but answers every NLP solve
from the warm solve-memo (memo hits, zero memo computes).
"""

import pytest

from repro.scenarios import ResultStore, ScenarioEngine, ScenarioSpec
from repro.telemetry import Telemetry, using

#: Two work units, seconds end to end (mirrors the CLI test sweep).
SPEC = {
    "kind": "comparison",
    "name": "counter-sweep",
    "taskset": {"source": "random", "n_tasks": 2, "periods": [10.0, 20.0]},
    "simulation": {"hyperperiods": 2, "seed": 5, "repetitions": 2},
}


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """One cold, one warm, one forced run over the same store, each with a
    fresh collector so every snapshot describes exactly one run."""
    store_root = tmp_path_factory.mktemp("store")
    spec = ScenarioSpec.from_dict(SPEC)
    engine = ScenarioEngine(ResultStore(store_root))
    out = {}
    for label, force in (("cold", False), ("warm", False), ("forced", True)):
        telemetry = Telemetry()
        with using(telemetry):
            result = engine.run(spec, force=force)
        out[label] = (result, telemetry.counters)
    return out


class TestColdRun:
    def test_every_unit_misses_then_computes(self, runs):
        result, counters = runs["cold"]
        n_units = result.computed
        assert n_units > 0 and result.skipped == 0
        assert counters["result_store.miss"] == n_units
        assert counters["result_store.computed"] == n_units
        # Only replays count as hits: a cold run never reads back what it stored.
        assert "result_store.hit" not in counters
        assert counters["scenario.units_computed"] == n_units
        assert counters["scenario.units_replayed"] == 0

    def test_solves_populate_the_memo(self, runs):
        _, counters = runs["cold"]
        assert counters["solve_memo.computed"] > 0
        assert counters["solve_memo_store.computed"] == counters["solve_memo.computed"]

    def test_every_computed_solve_counts_its_exit_status(self, runs):
        _, counters = runs["cold"]
        statuses = [count for name, count in counters.items() if name.startswith("solve.status.")]
        assert sum(statuses) == counters["solve_memo.computed"]

    def test_computed_solves_count_their_iterations(self, runs):
        _, counters = runs["cold"]
        assert counters["solve.iterations"] > 0


class TestWarmRun:
    def test_replays_everything_from_the_store(self, runs):
        result, counters = runs["warm"]
        n_units = runs["cold"][0].computed
        assert result.computed == 0 and result.skipped == n_units
        assert counters["result_store.hit"] == n_units
        assert counters["scenario.units_replayed"] == n_units
        assert counters["scenario.units_computed"] == 0
        assert "result_store.computed" not in counters
        assert "result_store.miss" not in counters

    def test_replay_never_touches_the_solver(self, runs):
        _, counters = runs["warm"]
        assert not any(name.startswith("solve_memo") for name in counters)
        assert not any(name.startswith("solve.") for name in counters)


class TestForcedRun:
    def test_recomputes_units_but_answers_solves_from_the_memo(self, runs):
        result, counters = runs["forced"]
        n_units = runs["cold"][0].computed
        assert result.computed == n_units
        assert counters["scenario.units_computed"] == n_units
        assert counters["solve_memo.hit"] > 0
        assert "solve_memo.computed" not in counters
        assert "solve_memo.miss" not in counters
        # Memoized solves mean the solver never runs at all.
        assert "solve.iterations" not in counters
        assert not any(name.startswith("solve.status.") for name in counters)

    def test_bitwise_equal_results_across_all_three_runs(self, runs):
        cold, warm, forced = (runs[k][0] for k in ("cold", "warm", "forced"))
        assert cold.points == warm.points == forced.points
