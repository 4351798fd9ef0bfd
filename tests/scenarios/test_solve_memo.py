"""Scenario-level solve memoization: resumed sweeps never re-solve NLPs.

The scenario engine hands its result-store root to the harness, which keeps
a content-addressed memo of every offline NLP solve in a ``solve-memo/``
subdirectory.  A sweep that loses its *comparison* records (killed run,
``--force``, a changed simulation seed) must replan its schedules entirely
from that memo — zero optimizer invocations — and the memo records must
stay invisible to the scenario store's own listing and garbage collection.
"""

import json

from repro.allocation.multicore import MulticoreProblem
from repro.reporting.serialization import taskset_to_dict
from repro.scenarios import ResultStore, ScenarioEngine, ScenarioSpec
from repro.scenarios.engine import build_taskset
from repro.telemetry import Telemetry, using

#: Real NLP-backed sweep (wcs + acs are both solver methods): 2 points.
SWEEP = {
    "kind": "comparison",
    "name": "memo-sweep",
    "taskset": {"source": "random", "n_tasks": 3, "periods": [10.0, 20.0, 40.0]},
    "simulation": {"hyperperiods": 2, "seed": 13},
    "matrix": {"taskset.ratio": [0.2, 0.8]},
}

#: The scalability smoke grid: four cells, whose core task sets repeat.
MULTICORE = {
    "kind": "multicore",
    "name": "memo-multicore",
    "taskset": {"source": "cnc"},
    "offline": {"methods": ["acs"], "baseline": "acs"},
    "simulation": {"hyperperiods": 2},
    "multicore": {"cores": [1, 2], "partitioners": ["ffd", "wfd"]},
}


def test_killed_sweep_replans_from_the_solve_memo(tmp_path, monkeypatch):
    store = ResultStore(tmp_path / "store")
    spec = ScenarioSpec.from_dict(SWEEP)

    cold = ScenarioEngine(store).run(spec)
    assert cold.computed == 2 and cold.skipped == 0
    comparison_keys = {entry.key for entry in store.entries()}
    assert len(comparison_keys) == 2

    # Simulate a lost/killed sweep: every comparison record is gone, the
    # solve memo (a subdirectory the store listing must not see) survives.
    for key in comparison_keys:
        store.remove(key)
    assert store.entries() == []
    assert (tmp_path / "store" / "solve-memo").is_dir()

    # Resume with the optimizer hard-disabled: the full replan must come out
    # of the memo, and still reproduce the cold aggregates bitwise.
    from repro.offline.nlp import ReducedNLP

    def exploding_solve(self, x0=None):
        raise AssertionError("ReducedNLP.solve invoked despite a warm solve memo")

    monkeypatch.setattr(ReducedNLP, "solve", exploding_solve)
    resumed = ScenarioEngine(store).run(spec)
    assert (resumed.computed, resumed.skipped) == (2, 0)
    assert resumed.points == cold.points


def test_solve_memo_is_invisible_to_store_listing_and_gc(tmp_path):
    store = ResultStore(tmp_path / "store")
    spec = ScenarioSpec.from_dict(SWEEP)
    ScenarioEngine(store).run(spec)
    # Only the two comparison payloads are listed...
    assert len(store.entries()) == 2
    # ...and a full GC leaves the memo untouched.
    store.gc(remove_all=True)
    assert store.entries() == []
    memo_store = ResultStore(tmp_path / "store" / "solve-memo")
    assert len(memo_store.entries()) > 0


def test_warm_rerun_over_a_memory_store_still_memoizes_in_process():
    """Without a persistent store the process-wide memo still deduplicates."""
    from repro.offline.batched_solver import default_solve_memo

    spec = ScenarioSpec.from_dict(SWEEP)
    memo = default_solve_memo()
    before = memo.computed
    ScenarioEngine().run(spec)
    first_run = memo.computed - before
    assert first_run > 0
    ScenarioEngine().run(spec)
    # The second run's solves all hit the in-memory memo.
    assert memo.computed == before + first_run


def test_multicore_cores_solve_once_per_store(tmp_path):
    store = ResultStore(tmp_path / "store")
    spec = ScenarioSpec.from_dict(MULTICORE)
    cold = ScenarioEngine(store).run(spec)
    assert cold.computed == 4

    processor = spec.power.build()
    taskset = build_taskset(spec.taskset, processor)
    core_sets = [
        json.dumps(taskset_to_dict(core_set), sort_keys=True)
        for cores in spec.multicore.cores
        for partitioner in spec.multicore.partitioners
        for core_set in MulticoreProblem(taskset, processor, cores, partitioner).partition().core_tasksets
        if core_set is not None
    ]
    assert len(set(core_sets)) < len(core_sets)
    # ACS solves three NLPs per core task set: from the default guess, the
    # WCS problem, and from the WCS solution.  Each is stored once.
    memo_records = ResultStore(tmp_path / "store" / "solve-memo").entries()
    assert len(memo_records) == 3 * len(set(core_sets))

    def payload_bytes():
        return {entry.key: json.dumps(store.get(entry.key), sort_keys=True)
                for entry in store.entries()}

    cold_payloads = payload_bytes()
    with using(Telemetry()) as telemetry:
        forced = ScenarioEngine(store).run(spec, force=True)
    assert forced.computed == 4
    assert telemetry.counters["solve_memo.hit"] == 3 * len(core_sets)
    assert "solve_memo.computed" not in telemetry.counters
    assert payload_bytes() == cold_payloads
    assert forced.points == cold.points
