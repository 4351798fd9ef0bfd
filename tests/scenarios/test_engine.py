"""Scenario engine: compilation, store keys, determinism and the unit-level API."""

import sys
from pathlib import Path

import pytest

from repro.experiments.motivation import run_motivation
from repro.scenarios import ScenarioEngine, ScenarioSpec, load_scenario

REPO_ROOT = Path(__file__).resolve().parents[2]


class TestCompile:
    def test_points_and_units_follow_the_matrix(self):
        spec = ScenarioSpec.from_dict({
            "kind": "comparison",
            "name": "grid",
            "simulation": {"repetitions": 3},
            "matrix": {"taskset.n_tasks": [2, 4], "taskset.ratio": [0.1, 0.5, 0.9]},
        })
        compiled = ScenarioEngine().compile(spec)
        assert len(compiled.points) == 6
        assert all(len(point.unit_keys) == 3 for point in compiled.points)
        assert len(compiled.units) == 18  # all units distinct (coords pin the seeds)
        assert compiled.points[0].coords == {"taskset.n_tasks": 2, "taskset.ratio": 0.1}

    def test_fixed_task_set_is_built_once_per_point(self, monkeypatch):
        from repro.scenarios import engine

        build, calls = engine.build_taskset, []

        def spy(taskset_spec, processor):
            calls.append(taskset_spec.ratio)
            return build(taskset_spec, processor)

        monkeypatch.setattr(engine, "build_taskset", spy)
        spec = ScenarioSpec.from_dict({
            "kind": "comparison",
            "name": "fixed",
            "taskset": {"source": "cnc"},
            "simulation": {"repetitions": 3},
            "matrix": {"taskset.ratio": [0.1, 0.9]},
        })
        compiled = ScenarioEngine().compile(spec)
        assert calls == [0.1, 0.9]
        assert len(compiled.units) == 6  # the repetitions still key apart
        for point in compiled.points:
            tasksets = {id(compiled.units[key].taskset) for key in point.unit_keys}
            assert len(tasksets) == 1

    def test_multicore_grid_is_native(self):
        spec = ScenarioSpec.from_dict({
            "kind": "multicore",
            "name": "grid",
            "taskset": {"source": "cnc"},
            "offline": {"methods": ["acs"], "baseline": "acs"},
            "multicore": {"cores": [1, 2, 4], "partitioners": ["ffd", "wfd"]},
        })
        compiled = ScenarioEngine().compile(spec)
        assert len(compiled.points) == 6
        assert len(compiled.units) == 6


@pytest.mark.skipif(sys.version_info < (3, 11), reason="TOML scenario files need tomllib")
class TestTraceAndArrivalsSignatures:
    """Trace/arrivals are *conditional* signature keys: every pre-existing
    store hash must be preserved, while traced/jittered units key apart."""

    def _first_unit(self, document):
        spec = ScenarioSpec.from_dict(document)
        compiled = ScenarioEngine().compile(spec)
        key = compiled.points[0].unit_keys[0]
        return key, compiled.units[key]

    def test_defaults_add_no_new_signature_keys(self):
        from repro.scenarios.engine import _comparison_signature

        document = {"kind": "comparison", "name": "sig",
                    "simulation": {"hyperperiods": 2, "repetitions": 1}}
        _, job = self._first_unit(document)
        signature = _comparison_signature(job)
        assert "trace" not in signature
        assert "arrivals" not in signature

    def test_trace_and_arrivals_key_apart_from_the_default(self):
        base = {"kind": "comparison", "name": "sig",
                "simulation": {"hyperperiods": 2, "repetitions": 1}}
        default_key, _ = self._first_unit(base)
        traced_key, traced_job = self._first_unit(
            {**base, "simulation": {"hyperperiods": 2, "repetitions": 1, "trace": True}})
        jittered_key, jittered_job = self._first_unit(
            {**base, "arrivals": {"model": "sporadic", "max_jitter": 1.5}})
        assert len({default_key, traced_key, jittered_key}) == 3
        assert traced_job.config.trace is True
        assert type(jittered_job.config.arrivals).__name__ == "SporadicArrivals"

    def test_explicit_periodic_arrivals_hit_the_default_key(self):
        """[arrivals] model = "periodic" is spelled-out default — same hash."""
        base = {"kind": "comparison", "name": "sig",
                "simulation": {"hyperperiods": 2, "repetitions": 1}}
        default_key, default_job = self._first_unit(base)
        periodic_key, periodic_job = self._first_unit(
            {**base, "arrivals": {"model": "periodic"}})
        assert periodic_key == default_key
        assert periodic_job.config.arrivals is None is default_job.config.arrivals

    def test_sporadic_scenario_units_are_traced_and_jittered(self):
        spec = load_scenario(REPO_ROOT / "examples" / "scenarios" / "sporadic.toml")
        compiled = ScenarioEngine().compile(spec)
        from repro.scenarios.engine import _comparison_signature

        for job in compiled.units.values():
            signature = _comparison_signature(job)
            assert signature["trace"] is True
            assert signature["arrivals"] == {
                "max_jitter": 1.5, "name": "sporadic", "type": "SporadicArrivals"}


@pytest.mark.skipif(sys.version_info < (3, 11), reason="TOML scenario files need tomllib")
class TestCommittedStoreKeys:
    """The first unit key of every committed spec is pinned: a refactor that
    re-keys units would silently orphan every existing store.  The solver
    build is pinned to fixed strings, so the hex values hold on every
    numpy/scipy release."""

    @pytest.mark.parametrize(("name", "profile", "key"), [
        ("figure6a", "smoke", "1f5dc2aedbb6910217f36ddc00de6d7b720e825975738346aec00fce90ee0938"),
        ("figure6b", "smoke", "0bde99eeaa7ad73290997a0c4bd0d987adca2ad101d73c52e842f8ef035f16cf"),
        ("scalability", "smoke", "38b4d0361b791c1aeaa3aad87cfa911a9064f9f7df0fcde32776976f83eca04a"),
        ("motivation", None, "334ed17364fc7532b7d735c764973b462377bf44dbb6a697123ba8c8ae91a6f1"),
    ], ids=["figure6a-smoke", "figure6b-smoke", "scalability-smoke", "motivation"])
    def test_first_unit_key_is_pinned(self, name, profile, key, monkeypatch):
        import numpy
        import scipy

        monkeypatch.setattr(numpy, "__version__", "0.0-pinned")
        monkeypatch.setattr(scipy, "__version__", "0.0-pinned")
        spec = load_scenario(REPO_ROOT / "examples" / "scenarios" / f"{name}.toml", profile=profile)
        compiled = ScenarioEngine().compile(spec)
        assert compiled.points[0].unit_keys[0] == key

    @pytest.mark.parametrize(("name", "profile"), [
        ("figure6b", "smoke"), ("scalability", "smoke"), ("motivation", None),
    ], ids=["comparison", "multicore", "motivation"])
    def test_solver_build_is_part_of_every_unit_key(self, name, profile, monkeypatch):
        """A unit computed under one scipy build is never replayed under another."""
        import scipy

        spec = load_scenario(REPO_ROOT / "examples" / "scenarios" / f"{name}.toml", profile=profile)
        here = ScenarioEngine().compile(spec).points[0].unit_keys[0]
        monkeypatch.setattr(scipy, "__version__", scipy.__version__ + ".other")
        assert ScenarioEngine().compile(spec).points[0].unit_keys[0] != here

    @pytest.mark.parametrize(("name", "profile"), [
        ("figure6b", "smoke"), ("scalability", "smoke"), ("motivation", None),
    ], ids=["comparison", "multicore", "motivation"])
    def test_store_format_is_part_of_every_unit_key(self, name, profile, monkeypatch):
        """A unit computed under one store format (one NLP) is never replayed under another."""
        from repro.scenarios import engine

        spec = load_scenario(REPO_ROOT / "examples" / "scenarios" / f"{name}.toml", profile=profile)
        here = ScenarioEngine().compile(spec).points[0].unit_keys[0]
        monkeypatch.setattr(engine, "STORE_FORMAT", engine.STORE_FORMAT + 1)
        assert ScenarioEngine().compile(spec).points[0].unit_keys[0] != here


class TestMotivationEquivalence:
    def test_motivation_scenario_matches_run_motivation(self):
        spec = ScenarioSpec.from_dict({
            "kind": "motivation",
            "name": "motivation",
            "power": {"model": "ideal", "vmax": 5.0, "vmin": 0.5, "fmax": 1000.0},
        })
        (point,) = ScenarioEngine().run(spec).points
        reference = run_motivation()
        assert point["wcs_end_times"] == reference.wcs_end_times
        assert point["acs_end_times"] == reference.acs_end_times
        assert point["wcs_worst_case_energy"] == reference.wcs_worst_case_energy
        assert point["acs_average_case_energy"] == reference.acs_average_case_energy
        assert point["improvement_average_case_percent"] == reference.improvement_average_case_percent


class TestChunkRule:
    """A sweep is chunked by the simulation units it computes (jobs x methods):
    one job per chunk below ``CHUNK_SLICE_THRESHOLD``, one chunk in-process
    at or above it.  Chunking never touches a unit's key or its result."""

    def spec(self, repetitions):
        # 2 matrix points x repetitions x 2 methods = 4 * repetitions units.
        return ScenarioSpec.from_dict({
            "kind": "comparison",
            "name": "chunk-rule",
            "taskset": {"source": "random", "n_tasks": 2, "periods": [10.0, 20.0]},
            "offline": {"methods": ["max_speed", "wcs"], "baseline": "max_speed"},
            "simulation": {"hyperperiods": 2, "seed": 7, "repetitions": repetitions},
            "matrix": {"taskset.ratio": [0.1, 0.9]},
        })

    @pytest.fixture
    def chunks(self, monkeypatch):
        """Entry counts of every ``_compare_chunk`` call, in call order."""
        from repro.experiments import harness

        sizes = []
        compare_chunk = harness._compare_chunk

        def counting(entries, solve_memo):
            sizes.append(len(entries))
            return compare_chunk(entries, solve_memo)

        monkeypatch.setattr(harness, "_compare_chunk", counting)
        return sizes

    def run(self, monkeypatch, threshold, spec, engine=None):
        from repro.experiments import harness

        monkeypatch.setattr(harness, "CHUNK_SLICE_THRESHOLD", threshold)
        return (engine or ScenarioEngine()).run(spec)

    def test_small_sweep_runs_one_job_per_chunk(self, monkeypatch, chunks):
        result = self.run(monkeypatch, 9, self.spec(repetitions=2))
        assert chunks == [1, 1, 1, 1]
        assert result.computed == 4

    def test_sweep_at_the_threshold_runs_as_one_chunk(self, monkeypatch, chunks):
        sliced = self.run(monkeypatch, 8, self.spec(repetitions=2))
        assert chunks == [4]
        per_job = self.run(monkeypatch, 9, self.spec(repetitions=2))
        assert per_job.points == sliced.points

    def test_resumed_run_counts_only_its_pending_units(self, monkeypatch, chunks, tmp_path):
        from repro.scenarios import ResultStore

        engine = ScenarioEngine(ResultStore(tmp_path / "store"))
        self.run(monkeypatch, 8, self.spec(repetitions=2), engine)
        assert chunks == [4]
        # The third repetition adds 2 jobs (4 units, below the threshold);
        # the 4 stored jobs replay without counting.
        chunks.clear()
        resumed = self.run(monkeypatch, 8, self.spec(repetitions=3), engine)
        assert chunks == [1, 1]
        assert (resumed.computed, resumed.skipped) == (2, 4)

    def test_compiled_units_keep_their_keys(self):
        from repro.scenarios.engine import _comparison_signature
        from repro.scenarios.store import signature_key

        compiled = ScenarioEngine().compile(self.spec(repetitions=2))
        assert [key for point in compiled.points for key in point.unit_keys] == list(compiled.units)
        for key, job in compiled.units.items():
            assert signature_key(_comparison_signature(job)) == key


class TestParallelDeterminism:
    def test_worker_count_does_not_change_aggregates(self):
        spec = ScenarioSpec.from_dict({
            "kind": "comparison",
            "name": "par",
            "taskset": {"source": "random", "n_tasks": 3, "periods": [10.0, 20.0, 40.0]},
            "simulation": {"hyperperiods": 2, "seed": 11, "repetitions": 2},
            "matrix": {"taskset.ratio": [0.2, 0.8]},
        })
        serial = ScenarioEngine().run(spec, n_jobs=1)
        parallel = ScenarioEngine().run(spec, n_jobs=2)
        assert serial.points == parallel.points

    def test_markdown_report_is_deterministic(self):
        spec = ScenarioSpec.from_dict({
            "kind": "comparison",
            "name": "md",
            "taskset": {"source": "random", "n_tasks": 2, "periods": [10.0, 20.0]},
            "simulation": {"hyperperiods": 2, "seed": 3},
            "matrix": {"taskset.ratio": [0.5]},
        })
        first = ScenarioEngine().run(spec).to_markdown()
        second = ScenarioEngine().run(spec).to_markdown()
        assert first == second
        assert "| ratio" in first and "misses" in first
