"""Result store: content addressing, atomicity, resume and garbage collection."""

import json

import pytest

from repro.core.errors import ReproError
from repro.scenarios import ResultStore, ScenarioEngine, ScenarioSpec, signature_key

#: Small but real comparison sweep: 2 ratios x 2 repetitions = 4 work units.
SWEEP = {
    "kind": "comparison",
    "name": "mini-sweep",
    "taskset": {"source": "random", "n_tasks": 3, "periods": [10.0, 20.0, 40.0]},
    "simulation": {"hyperperiods": 3, "seed": 7, "repetitions": 2},
    "matrix": {"taskset.ratio": [0.1, 0.9]},
}


class TestSignatureKey:
    def test_key_is_order_insensitive_and_content_sensitive(self):
        key_a = signature_key({"seed": 1, "kind": "comparison"})
        key_b = signature_key({"kind": "comparison", "seed": 1})
        key_c = signature_key({"kind": "comparison", "seed": 2})
        assert key_a == key_b
        assert key_a != key_c
        assert len(key_a) == 64

    def test_non_serialisable_signature_fails_cleanly(self):
        with pytest.raises(ReproError, match="serialisable"):
            signature_key({"bad": object()})


class TestStoreBasics:
    def test_put_get_round_trip(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        key = signature_key({"x": 1})
        assert store.get(key) is None
        store.put(key, {"value": 1.5}, scenario="s", label="p")
        assert store.get(key) == {"value": 1.5}
        (entry,) = store.entries()
        assert entry.key == key
        assert entry.scenario == "s" and entry.label == "p"
        assert not entry.stale

    def test_torn_record_reads_as_miss_and_gc_stale_removes_it(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        key = signature_key({"x": 2})
        store.put(key, {"value": 2})
        store.path_for(key).write_text("{ torn json", encoding="utf-8")
        assert store.get(key) is None
        removed = store.gc(stale_only=True)
        assert [entry.key for entry in removed] == [key]
        assert not store.path_for(key).exists()

    def test_gc_needs_exactly_one_criterion(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        with pytest.raises(ReproError, match="exactly one"):
            store.gc()
        with pytest.raises(ReproError, match="exactly one"):
            store.gc(remove_all=True, stale_only=True)

    def test_gc_older_than_and_dry_run(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        key = signature_key({"x": 3})
        store.put(key, {"value": 3})
        assert store.gc(older_than_days=1.0) == []  # fresh record survives
        would_remove = store.gc(older_than_days=-1.0, dry_run=True)  # cutoff in the future
        assert [entry.key for entry in would_remove] == [key]
        assert store.contains(key)  # dry run removed nothing
        store.gc(older_than_days=-1.0)
        assert not store.contains(key)

    def test_killed_mid_write_orphan_is_collected_by_stale_gc(self, tmp_path):
        """A put killed between scratch write and rename leaves a .tmp-<pid> orphan."""
        store = ResultStore(tmp_path / "store")
        key = signature_key({"x": 4})
        store.put(key, {"value": 4})
        # Simulate a writer killed mid-put: the scratch file was written but
        # the atomic rename never happened (same naming as ResultStore.put).
        orphan = store.path_for(key).with_suffix(".tmp-12345")
        orphan.write_text('{"partial":', encoding="utf-8")
        # The orphan never corrupts reads or listings...
        assert store.get(key) == {"value": 4}
        assert [entry.key for entry in store.entries()] == [key]
        # ...and stale GC collects it (and only it — the real record survives).
        removed = store.gc(stale_only=True)
        assert [entry.key for entry in removed] == [key]
        assert [entry.label for entry in removed] == ["(orphaned scratch file)"]
        assert not orphan.exists()
        assert store.contains(key)

    def test_orphan_age_is_respected_by_older_than_gc(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        key = signature_key({"x": 5})
        store.put(key, {"value": 5})
        orphan = store.path_for(key).with_suffix(".tmp-999")
        orphan.write_text("x", encoding="utf-8")
        assert store.gc(older_than_days=1.0) == []  # fresh orphan survives by mtime
        removed = store.gc(older_than_days=-1.0)  # cutoff in the future collects both
        assert {entry.key for entry in removed} == {key}
        assert not orphan.exists()
        # remove_all also sweeps orphans.
        orphan.write_text("x", encoding="utf-8")
        removed = store.gc(remove_all=True)
        assert [entry.label for entry in removed] == ["(orphaned scratch file)"]
        assert not orphan.exists()


class TestResume:
    def test_killed_sweep_resumes_with_zero_recomputation(self, tmp_path):
        """Cold run, simulated kill, resume: no duplicate work, bitwise aggregates."""
        store = ResultStore(tmp_path / "store")
        spec = ScenarioSpec.from_dict(SWEEP)

        cold = ScenarioEngine(store).run(spec)
        assert (cold.computed, cold.skipped) == (4, 0)

        # A finished sweep replays entirely from the store...
        warm = ScenarioEngine(store).run(spec)
        assert (warm.computed, warm.skipped) == (0, 4)
        assert warm.points == cold.points  # bitwise: identical floats, not approx

        # ...and a sweep killed halfway (half the records gone) resumes by
        # recomputing exactly the missing units, to the same aggregates.
        victims = [entry.key for entry in store.entries()][:2]
        for key in victims:
            store.remove(key)
        resumed = ScenarioEngine(store).run(spec)
        assert (resumed.computed, resumed.skipped) == (2, 2)
        assert resumed.points == cold.points

    def test_units_are_persisted_as_they_finish(self, tmp_path, monkeypatch):
        """A run that dies mid-sweep keeps every already-finished unit on disk."""
        import repro.experiments.harness as harness

        store = ResultStore(tmp_path / "store")
        spec = ScenarioSpec.from_dict(SWEEP)
        real_compare = harness._compare_chunk
        calls = {"n": 0}

        def dying_compare(entries, solve_memo):
            # A compiled-engine sweep runs one job per chunk.
            assert len(entries) == 1
            calls["n"] += 1
            if calls["n"] > 2:
                raise RuntimeError("simulated crash mid-sweep")
            return real_compare(entries, solve_memo)

        monkeypatch.setattr(harness, "_compare_chunk", dying_compare)
        with pytest.raises(RuntimeError, match="mid-sweep"):
            ScenarioEngine(store).run(spec)
        # The two units that finished before the crash are already stored...
        assert len(store.entries()) == 2
        monkeypatch.undo()
        # ...so the resumed run recomputes exactly the other two.
        resumed = ScenarioEngine(store).run(spec)
        assert (resumed.computed, resumed.skipped) == (2, 2)
        fresh = ScenarioEngine(ResultStore(tmp_path / "fresh")).run(spec)
        assert resumed.points == fresh.points

    def test_force_recomputes_everything(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        spec = ScenarioSpec.from_dict(SWEEP)
        cold = ScenarioEngine(store).run(spec)
        forced = ScenarioEngine(store).run(spec, force=True)
        assert forced.computed == 4 and forced.skipped == 0
        assert forced.points == cold.points

    def test_spec_changes_miss_the_store(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        spec = ScenarioSpec.from_dict(SWEEP)
        ScenarioEngine(store).run(spec)
        changed = ScenarioSpec.from_dict({**SWEEP, "simulation": {**SWEEP["simulation"], "seed": 8}})
        rerun = ScenarioEngine(store).run(changed)
        assert rerun.computed == 4  # different seed -> different content hashes

    def test_payloads_survive_json_round_trip_bitwise(self, tmp_path):
        """Floats replayed from disk equal the in-memory originals exactly."""
        store = ResultStore(tmp_path / "store")
        spec = ScenarioSpec.from_dict(SWEEP)
        ScenarioEngine(store).run(spec)
        for entry in store.entries():
            payload = store.get(entry.key)
            assert json.loads(json.dumps(payload)) == payload
