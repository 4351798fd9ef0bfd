"""Run manifests: stable hashing, atomic writes, store-side reading."""

import json
import shutil
import subprocess

import pytest

from repro.telemetry import (
    MANIFEST_FORMAT,
    build_manifest,
    config_hash,
    manifest_path,
    read_manifests,
    write_manifest,
)
from repro.telemetry.manifest import git_state


class TestConfigHash:
    def test_key_order_does_not_matter(self):
        assert config_hash({"a": 1, "b": [2, 3]}) == config_hash({"b": [2, 3], "a": 1})

    def test_values_do_matter(self):
        assert config_hash({"a": 1}) != config_hash({"a": 2})


class TestBuildManifest:
    def test_required_fields(self):
        manifest = build_manifest(scenario="demo", config={"kind": "comparison"},
                                  computed=3, skipped=1, elapsed_seconds=0.5)
        assert manifest["manifest_format"] == MANIFEST_FORMAT
        assert manifest["scenario"] == "demo"
        assert manifest["config_hash"] == config_hash({"kind": "comparison"})
        assert manifest["computed"] == 3 and manifest["skipped"] == 1
        assert manifest["elapsed_seconds"] == 0.5
        assert "git_rev" in manifest and "created_unix" in manifest

    def test_records_the_environment(self):
        import numpy
        import scipy

        manifest = build_manifest(scenario="demo", config={}, computed=0, skipped=0,
                                  elapsed_seconds=0.0)
        env = manifest["environment"]
        assert env["numpy"] == numpy.__version__ and env["scipy"] == scipy.__version__
        assert env["python"] and env["platform"] and env["cpu_count"] >= 1
        assert manifest["git_dirty"] in (True, False, None)

    def test_records_the_blas_builds_and_thread_variables(self, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        env = build_manifest(scenario="demo", config={}, computed=0, skipped=0,
                             elapsed_seconds=0.0)["environment"]
        assert env["blas_threads"]["OPENBLAS_NUM_THREADS"] == "1"
        assert env["blas_threads"]["MKL_NUM_THREADS"] is None
        assert set(env["blas_threads"]) == {
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"}
        for key in ("numpy_blas", "scipy_blas"):
            # None only on a numpy/scipy too old for show_config(mode="dicts").
            assert env[key] is None or set(env[key]) == {"name", "version"}
        json.dumps(env)  # stays plain JSON data

    def test_optional_sections_only_when_present(self):
        bare = build_manifest(scenario="demo", config={}, computed=0, skipped=0,
                              elapsed_seconds=0.0)
        assert "stage_timings" not in bare and "counters" not in bare
        rich = build_manifest(scenario="demo", config={}, computed=0, skipped=0,
                              elapsed_seconds=0.0,
                              stage_timings={"run": {"count": 1, "total_seconds": 0.1}},
                              counters={"hits": 2})
        assert rich["stage_timings"]["run"]["count"] == 1
        assert rich["counters"] == {"hits": 2}


class TestGitState:
    @pytest.mark.skipif(shutil.which("git") is None, reason="git is not installed")
    def test_commit_and_dirty_flag_from_one_status_call(self, tmp_path):
        assert git_state(tmp_path) == ("unknown", None)  # not a checkout

        def git(*args):
            subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
                           cwd=tmp_path, check=True, capture_output=True)

        git("init", "-q")
        (tmp_path / "a.txt").write_text("a")
        git("add", "a.txt")
        git("commit", "-q", "-m", "a")
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=tmp_path, check=True,
                              capture_output=True, text=True).stdout.strip()
        assert git_state(tmp_path) == (head, False)
        (tmp_path / "a.txt").write_text("b")
        assert git_state(tmp_path) == (head, True)


class TestWriteAndRead:
    def test_round_trip(self, tmp_path):
        manifest = build_manifest(scenario="demo", config={"x": 1}, computed=2,
                                  skipped=0, elapsed_seconds=1.5)
        written = write_manifest(tmp_path, manifest)
        assert written == manifest_path(tmp_path, "demo")
        assert json.loads(written.read_text()) == manifest
        assert read_manifests(tmp_path) == [manifest]

    def test_latest_run_wins(self, tmp_path):
        first = build_manifest(scenario="demo", config={}, computed=1, skipped=0,
                               elapsed_seconds=0.1)
        second = build_manifest(scenario="demo", config={}, computed=0, skipped=1,
                                elapsed_seconds=0.2)
        write_manifest(tmp_path, first)
        write_manifest(tmp_path, second)
        (only,) = read_manifests(tmp_path)
        assert only["skipped"] == 1

    def test_read_is_sorted_and_tolerates_empty_store(self, tmp_path):
        assert read_manifests(tmp_path) == []
        for name in ("zeta", "alpha"):
            write_manifest(tmp_path, build_manifest(
                scenario=name, config={}, computed=0, skipped=0, elapsed_seconds=0.0))
        assert [m["scenario"] for m in read_manifests(tmp_path)] == ["alpha", "zeta"]
