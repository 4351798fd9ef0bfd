"""Regression tests for benchmarks/compare_bench.py (a script, not a package).

Two silent-failure modes are pinned here:

* a benchmark with a non-positive baseline wall time used to be reported as
  ``+0.0%`` — i.e. a perfect score — no matter how slow the fresh run was;
* a benchmark present in the baseline but missing from the fresh run (renamed,
  deselected, broken collection) was only listed informally, so shrinking
  coverage never warned anyone.

Both now emit GitHub ``::warning`` annotations.
"""

import importlib.util
import json
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parents[2] / "benchmarks" / "compare_bench.py"
_spec = importlib.util.spec_from_file_location("compare_bench", _SCRIPT)
compare_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_bench)


def snapshot(path: Path, walls: dict, commit: str = "abc123") -> Path:
    payload = {
        "commit": commit,
        "benchmarks": [{"name": name, "wall_s": wall} for name, wall in walls.items()],
    }
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def run(tmp_path, baseline_walls, fresh_walls, extra_args=()):
    baseline = snapshot(tmp_path / "BENCH_base.json", baseline_walls)
    fresh = snapshot(tmp_path / "BENCH_fresh.json", fresh_walls)
    argv = [str(fresh), "--baseline", str(baseline), *extra_args]
    return compare_bench.main(argv)


def test_normal_regression_is_warned_and_can_fail(tmp_path, capsys):
    status = run(tmp_path, {"a": 1.0, "b": 1.0}, {"a": 1.0, "b": 2.0},
                 extra_args=["--threshold", "25", "--fail"])
    out = capsys.readouterr().out
    assert status == 1
    assert "::warning title=benchmark regression::b is 100.0% slower" in out
    assert "  ! b:" in out and "  ! a:" not in out


def test_zero_baseline_warns_instead_of_reporting_zero_delta(tmp_path, capsys):
    """A 0.000s baseline must not translate a 9s fresh run into '+0.0%'."""
    status = run(tmp_path, {"a": 0.0}, {"a": 9.0},
                 extra_args=["--threshold", "25", "--fail"])
    out = capsys.readouterr().out
    assert status == 0  # not comparable, so not a failure -- but loudly flagged
    assert "+0.0%" not in out
    assert "::warning title=unusable benchmark baseline::a" in out
    assert "regression check skipped" in out


def test_dropped_benchmark_warns(tmp_path, capsys):
    status = run(tmp_path, {"kept": 1.0, "gone_1": 1.0, "gone_2": 1.0},
                 {"kept": 1.0, "brand_new": 1.0})
    out = capsys.readouterr().out
    assert status == 0
    assert ("::warning title=benchmarks dropped::2 benchmark(s) in "
            "BENCH_base.json missing from the fresh run: gone_1, gone_2") in out
    # New benchmarks on the fresh side are informational, not warnings.
    assert "brand_new" in out
    assert "::warning title=benchmarks dropped::1" not in out


def test_no_overlap_short_circuits(tmp_path, capsys):
    status = run(tmp_path, {"only_old": 1.0}, {"only_new": 1.0})
    assert status == 0
    assert "no overlapping benchmarks" in capsys.readouterr().out


@pytest.mark.parametrize("within_threshold", [True, False])
def test_threshold_boundary(tmp_path, capsys, within_threshold):
    fresh = 1.25 if within_threshold else 1.26
    status = run(tmp_path, {"a": 1.0}, {"a": fresh},
                 extra_args=["--threshold", "25", "--fail"])
    assert status == (0 if within_threshold else 1)


def manifest_store(root: Path, scenario: str, stages: dict, elapsed: float) -> Path:
    manifests = root / "manifests"
    manifests.mkdir(parents=True, exist_ok=True)
    payload = {
        "scenario": scenario,
        "elapsed_seconds": elapsed,
        "stage_timings": {
            name: {"count": 1, "total_seconds": wall} for name, wall in stages.items()
        },
    }
    (manifests / f"{scenario}.json").write_text(json.dumps(payload), encoding="utf-8")
    return root


def test_manifest_mode_localises_stage_regressions(tmp_path, capsys):
    base = manifest_store(tmp_path / "old", "fig", {"plan": 1.0, "sim.comparison": 1.0}, 2.0)
    fresh = manifest_store(tmp_path / "new", "fig", {"plan": 2.0, "sim.comparison": 1.0}, 3.0)
    status = compare_bench.main(
        ["--manifests", str(base), str(fresh), "--threshold", "25", "--fail"])
    out = capsys.readouterr().out
    assert status == 1
    assert "! plan: 1.000s -> 2.000s" in out
    assert "  sim.comparison: 1.000s -> 1.000s" in out  # unregressed stage stays unmarked
    assert "::warning title=stage regression::fig/plan" in out
    assert "::warning title=stage regression::fig/sim.comparison" not in out


def test_manifest_mode_compares_the_end_to_end_elapsed(tmp_path, capsys):
    base = manifest_store(tmp_path / "old", "fig", {}, 1.0)
    fresh = manifest_store(tmp_path / "new", "fig", {}, 4.0)
    status = compare_bench.main(["--manifests", str(base), str(fresh), "--fail"])
    assert status == 1
    assert "elapsed: 1.000s -> 4.000s" in capsys.readouterr().out


def test_manifest_mode_without_overlap_short_circuits(tmp_path, capsys):
    base = manifest_store(tmp_path / "old", "one", {}, 1.0)
    fresh = manifest_store(tmp_path / "new", "two", {}, 1.0)
    assert compare_bench.main(["--manifests", str(base), str(fresh), "--fail"]) == 0
    assert "no overlapping scenario manifests" in capsys.readouterr().out


def test_manifest_mode_rejects_an_extra_snapshot_argument(tmp_path):
    with pytest.raises(SystemExit):
        compare_bench.main(["snap.json", "--manifests", "a", "b"])


def test_snapshot_argument_is_still_required_without_manifests():
    with pytest.raises(SystemExit):
        compare_bench.main([])
