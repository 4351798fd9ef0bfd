"""Counter accuracy against known store/memo behaviour.

A cold scenario run computes every unit (store misses == computed units);
the warm rerun replays everything (store hits == units, ``computed=0``);
a ``--force``-style rerun recomputes the units but answers every NLP solve
from the warm solve-memo (memo hits, zero memo computes).  Sweeps count
the units the vectorized simulation core ran and, per reason, the units
that fell back from it; a batch of known block structure checks the
batched engine's own block counters.
"""

import numpy as np
import pytest

from repro.analysis.preemption import expand_fully_preemptive
from repro.core.task import Task
from repro.core.taskset import TaskSet
from repro.offline import slsqp
from repro.offline.baselines import ConstantSpeedScheduler
from repro.power.presets import ideal_processor
from repro.runtime import batched
from repro.runtime.simulator import SimulationConfig
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
        modes = [count for name, count in counters.items() if name.startswith("solve.blas.")]
        assert sum(modes) == counters["solve_memo.computed"]

    def test_every_computed_solve_counts_its_solver_path(self, runs):
        """On a verified scipy every solve runs on the compiled SLSQP kernel;
        elsewhere every one runs through ``scipy.optimize.minimize``."""
        _, counters = runs["cold"]
        path = "kernel" if slsqp.kernel() is not None else "scipy"
        paths = {name: count for name, count in counters.items() if name.startswith("solve.slsqp.")}
        assert paths == {f"solve.slsqp.{path}": counters["solve_memo.computed"]}

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
        assert not any(name.startswith(("solve.status.", "solve.blas.", "solve.slsqp."))
                       for name in counters)

    def test_bitwise_equal_results_across_all_three_runs(self, runs):
        cold, warm, forced = (runs[k][0] for k in ("cold", "warm", "forced"))
        assert cold.points == warm.points == forced.points


class TestPooledRun:
    """``--jobs 2`` workers record under their own collector and hand the
    counters and observations back, so a pooled cold run records what a
    serial one records."""

    @staticmethod
    def cold_run(store_root, n_jobs):
        # A sweep this small runs every job as its own pool task.
        with using(Telemetry()) as telemetry:
            ScenarioEngine(ResultStore(store_root)).run(
                ScenarioSpec.from_dict(SPEC), n_jobs=n_jobs)
        return telemetry

    @pytest.fixture(scope="class")
    def serial_and_pooled(self, tmp_path_factory):
        return (self.cold_run(tmp_path_factory.mktemp("serial"), n_jobs=1),
                self.cold_run(tmp_path_factory.mktemp("pooled"), n_jobs=2))

    def test_pool_workers_report_their_solver_counters(self, serial_and_pooled):
        serial, pooled = (telemetry.counters for telemetry in serial_and_pooled)
        for counters in (serial, pooled):
            statuses = [count for name, count in counters.items()
                        if name.startswith("solve.status.")]
            assert sum(statuses) == counters["solve_memo.miss"] > 0
            assert counters["solve.iterations"] > 0
            modes = [count for name, count in counters.items() if name.startswith("solve.blas.")]
            assert sum(modes) == counters["solve_memo.miss"]
        lookups = [counters.get("solve_memo.hit", 0) + counters["solve_memo.miss"]
                   for counters in (serial, pooled)]
        assert lookups[0] == lookups[1]

    def test_pool_workers_report_their_observations(self, serial_and_pooled):
        # One job per task, so each worker's batched blocks are the serial
        # run's, and they arrive in result order.
        serial, pooled = (telemetry.observations for telemetry in serial_and_pooled)
        assert serial["sim.soa_width"]
        assert pooled.get("sim.soa_width") == serial["sim.soa_width"]

    def test_multicore_pool_workers_report_their_solves(self, tmp_path):
        spec = ScenarioSpec.from_dict({
            "kind": "multicore",
            "name": "counter-multicore",
            "taskset": {"source": "cnc"},
            "offline": {"methods": ["acs"], "baseline": "acs"},
            "simulation": {"hyperperiods": 2},
            "multicore": {"cores": [1, 2], "partitioners": ["wfd"]},
        })
        counters = []
        for n_jobs in (1, 2):
            # A fresh store per side: the process-wide memo of a storeless
            # engine would answer the second run's solves.
            with using(Telemetry()) as telemetry:
                ScenarioEngine(ResultStore(tmp_path / f"jobs{n_jobs}")).run(spec, n_jobs=n_jobs)
            counters.append(telemetry.counters)
        for run in counters:
            statuses = [count for name, count in run.items() if name.startswith("solve.status.")]
            assert sum(statuses) == run["solve_memo.miss"] > 0
        lookups = [run.get("solve_memo.hit", 0) + run["solve_memo.miss"] for run in counters]
        assert lookups[0] == lookups[1]


class TestSimulationRoute:
    """Every comparison unit goes through ``simulate_batch``: its counters say
    which units the vectorized core ran and why the others fell back."""

    def test_untraced_sweep_runs_every_unit_vectorized(self, runs):
        result, counters = runs["cold"]
        units = result.computed * len(ScenarioSpec.from_dict(SPEC).offline.methods)
        assert counters["sim.batched_units"] == units
        assert not any(name.startswith("sim.batch_fallback.") for name in counters)

    def test_traced_sweep_falls_back_once_per_unit(self):
        spec = ScenarioSpec.from_dict({**SPEC, "simulation": {**SPEC["simulation"], "trace": True}})
        with using(Telemetry()) as telemetry:
            result = ScenarioEngine().run(spec)
        units = result.computed * len(spec.offline.methods)
        assert units > 0
        assert telemetry.counters["sim.batch_fallback.trace"] == units
        assert telemetry.counters.get("sim.batched_units", 0) == 0


class TestBatchedSimulation:
    """The batched engine's counters describe its blocks of lanes."""

    def test_blocks_lanes_and_units(self, monkeypatch):
        processor = ideal_processor(fmax=1000.0)
        schedule = ConstantSpeedScheduler(processor).schedule_expansion(expand_fully_preemptive(
            TaskSet([Task("a", period=8, wcec=1200, acec=700, bcec=200),
                     Task("b", period=16, wcec=3000, acec=1500, bcec=500)])))
        units = [
            batched.BatchUnit(schedule=schedule, processor=processor, policy="greedy",
                              config=SimulationConfig(n_hyperperiods=n_hp),
                              rng=np.random.default_rng(n_hp))
            for n_hp in (3, 5, 8)
        ]
        # Budget 6: blocks of 2 hyperperiods for 3 live units, 3 for 2 and
        # 6 for 1, each capped at the unit's hyperperiods left:
        # (2, 2, 2), (1, 2, 2), (1, 3) and (1,) lanes.
        monkeypatch.setattr(batched, "LANE_BUDGET", 6)
        with using(Telemetry()) as telemetry:
            batched.simulate_batch(units)
        assert telemetry.counters["sim.batched_units"] == 3
        assert telemetry.counters["sim.lane_blocks"] == 4
        assert telemetry.observations["sim.soa_width"] == [6.0, 5.0, 4.0, 1.0]
        # The four blocks' lock-step iterations, summed.
        assert telemetry.counters["sim.lane_steps"] == 20
