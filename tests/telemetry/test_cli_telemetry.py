"""CLI surfaces: ``repro run --telemetry`` and ``repro stats``."""

import json

import pytest

from repro.cli import build_parser, main
from repro.telemetry import read_jsonl, read_manifests

#: Instant scenario (deterministic, no simulation) for CLI-level round trips.
MOTIVATION = {
    "kind": "motivation",
    "name": "motivation-telemetry",
    "power": {"model": "ideal", "vmax": 5.0, "vmin": 0.5, "fmax": 1000.0},
}


def write_spec(tmp_path, document):
    target = tmp_path / "scenario.json"
    target.write_text(json.dumps(document))
    return str(target)


class TestParser:
    def test_run_telemetry_flag_forms(self):
        off = build_parser().parse_args(["run", "a.toml"])
        assert off.telemetry is None
        bare = build_parser().parse_args(["run", "a.toml", "--telemetry"])
        assert bare.telemetry == ""
        explicit = build_parser().parse_args(["run", "a.toml", "--telemetry", "t.jsonl"])
        assert explicit.telemetry == "t.jsonl"

    def test_stats_subcommand(self):
        args = build_parser().parse_args(["stats", "/tmp/s", "--telemetry", "t.jsonl"])
        assert args.store == "/tmp/s" and args.telemetry == "t.jsonl"
        assert build_parser().parse_args(["stats"]).store is None


class TestRunTelemetry:
    def test_run_writes_manifest_jsonl_and_stderr_summary(self, capsys, tmp_path):
        spec = write_spec(tmp_path, MOTIVATION)
        store = tmp_path / "store"
        assert main(["run", spec, "--store", str(store), "--telemetry"]) == 0
        err = capsys.readouterr().err
        assert "telemetry summary" in err and "scenario.run" in err
        (manifest,) = read_manifests(store)
        assert manifest["scenario"] == "motivation-telemetry"
        assert manifest["computed"] == 1 and manifest["skipped"] == 0
        assert manifest["stage_timings"]["scenario.run"]["count"] == 1
        (record,) = read_jsonl(store / "telemetry" / "motivation-telemetry.jsonl")
        assert record["scenario"] == "motivation-telemetry"
        assert any(span["name"] == "scenario.run" for span in record["spans"])

    def test_explicit_jsonl_path(self, capsys, tmp_path):
        spec = write_spec(tmp_path, MOTIVATION)
        target = tmp_path / "out" / "t.jsonl"
        store = tmp_path / "store"
        assert main(["run", spec, "--store", str(store),
                     "--telemetry", str(target)]) == 0
        capsys.readouterr()
        (record,) = read_jsonl(target)
        assert record["scenario"] == "motivation-telemetry"

    def test_manifest_written_even_without_telemetry(self, capsys, tmp_path):
        spec = write_spec(tmp_path, MOTIVATION)
        store = tmp_path / "store"
        assert main(["run", spec, "--store", str(store)]) == 0
        assert capsys.readouterr().err == ""
        (manifest,) = read_manifests(store)
        assert manifest["scenario"] == "motivation-telemetry"
        assert "stage_timings" not in manifest and "counters" not in manifest

    def test_same_named_specs_get_distinct_jsonl_files(self, capsys, tmp_path):
        """Two spec files sharing a scenario name must not overwrite each
        other's derived telemetry dump — the second gets a suffixed path."""
        dir_a = tmp_path / "a"
        dir_b = tmp_path / "b"
        dir_a.mkdir()
        dir_b.mkdir()
        spec_a = write_spec(dir_a, MOTIVATION)
        spec_b = write_spec(dir_b, MOTIVATION)  # same scenario name, other file
        store = tmp_path / "store"
        with pytest.warns(RuntimeWarning, match="would collide"):
            assert main(["run", spec_a, spec_b, "--store", str(store),
                         "--telemetry"]) == 0
        capsys.readouterr()
        dumps = sorted((store / "telemetry").glob("*.jsonl"))
        names = {dump.name for dump in dumps}
        assert len(dumps) == 2
        assert "motivation-telemetry.jsonl" in names  # the first claimant keeps it
        assert any(name.startswith("motivation-telemetry-") for name in names)
        for dump in dumps:  # each file holds exactly one run's records
            (record,) = read_jsonl(dump)
            assert record["scenario"] == "motivation-telemetry"

    def test_rerunning_one_spec_reuses_its_derived_path(self, capsys, tmp_path):
        spec = write_spec(tmp_path, MOTIVATION)
        store = tmp_path / "store"
        assert main(["run", spec, "--store", str(store), "--telemetry"]) == 0
        assert main(["run", spec, "--store", str(store), "--telemetry"]) == 0
        capsys.readouterr()
        dumps = sorted((store / "telemetry").glob("*.jsonl"))
        assert [dump.name for dump in dumps] == ["motivation-telemetry.jsonl"]
        assert len(read_jsonl(dumps[0])) == 2  # appended, never forked

    def test_no_store_run_writes_no_manifest(self, capsys, tmp_path):
        spec = write_spec(tmp_path, MOTIVATION)
        target = tmp_path / "t.jsonl"
        assert main(["run", spec, "--no-store", "--telemetry", str(target)]) == 0
        capsys.readouterr()
        assert read_jsonl(target)  # telemetry still recorded
        assert not (tmp_path / "manifests").exists()


class TestStats:
    def test_renders_manifest_and_jsonl_without_rerunning(self, capsys, tmp_path):
        spec = write_spec(tmp_path, MOTIVATION)
        store = tmp_path / "store"
        jsonl = tmp_path / "t.jsonl"
        assert main(["run", spec, "--store", str(store),
                     "--telemetry", str(jsonl)]) == 0
        capsys.readouterr()
        assert main(["stats", str(store), "--telemetry", str(jsonl)]) == 0
        out = capsys.readouterr().out
        assert "== motivation-telemetry" in out
        assert "computed=1" in out
        assert "scenario.run" in out
        assert "1 run(s)" in out
        import numpy
        import scipy

        assert f"numpy {numpy.__version__} | scipy {scipy.__version__}" in out

    def test_flags_abnormal_solver_exits_and_prints_the_blas_build(self, capsys, tmp_path):
        from repro.telemetry import build_manifest, write_manifest

        for scenario, counters in (("clean", {"solve.status.0": 4}),
                                   ("rough", {"solve.status.0": 3, "solve.status.8": 1,
                                              "solve.status.9": 2})):
            write_manifest(tmp_path, build_manifest(
                scenario=scenario, config={}, computed=1, skipped=0,
                elapsed_seconds=0.0, counters=counters))
        assert main(["stats", str(tmp_path)]) == 0
        clean, rough = capsys.readouterr().out.split("== rough")
        assert "solver health" not in clean
        assert "solver health: 3 of 6 solves ended abnormally (status 8 x1, status 9 x2)" in rough
        assert "blas: numpy " in clean and "OPENBLAS_NUM_THREADS=" in clean

    def test_reports_how_each_solve_ran_on_blas_and_warns_on_unpinned(self, capsys, tmp_path):
        from repro.telemetry import build_manifest, write_manifest

        for scenario, counters in (("all-pinned", {"solve.status.0": 3, "solve.blas.pinned": 3}),
                                   ("mixed", {"solve.status.0": 3, "solve.blas.pinned": 2,
                                              "solve.blas.unpinned": 1})):
            write_manifest(tmp_path, build_manifest(
                scenario=scenario, config={}, computed=1, skipped=0,
                elapsed_seconds=0.0, counters=counters))
        assert main(["stats", str(tmp_path)]) == 0
        pinned, mixed = capsys.readouterr().out.split("== mixed")
        assert "solver health: 3 solves on one BLAS thread, 0 unpinned" in pinned
        assert "warning" not in pinned
        assert "solver health: 2 solves on one BLAS thread, 1 unpinned" in mixed
        assert ("warning: 1 of 3 solves ran with scipy's BLAS threads unpinned; "
                "compare their results only with a tolerance") in mixed

    def test_empty_store_reports_no_manifests(self, capsys, tmp_path):
        assert main(["stats", str(tmp_path)]) == 0
        assert "no run manifests" in capsys.readouterr().out
