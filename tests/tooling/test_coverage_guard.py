"""Unit tests for the CI coverage guard (synthetic reports — the real
coverage run only happens in CI where pytest-cov is installed)."""

import importlib.util
import json
import os

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
GUARD_PATH = os.path.join(REPO_ROOT, "tools", "coverage_guard.py")
BASELINE_PATH = os.path.join(REPO_ROOT, "tools", "runtime_coverage_baseline.json")


@pytest.fixture(scope="module")
def guard():
    spec = importlib.util.spec_from_file_location("coverage_guard", GUARD_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _report(files):
    return {"files": {
        path: {"summary": {"covered_lines": covered, "missing_lines": missing}}
        for path, (covered, missing) in files.items()
    }}


def test_aggregates_only_the_watched_prefix(guard):
    report = _report({
        "src/repro/runtime/simulator.py": (90, 10),
        "src/repro/runtime/trace.py": (50, 50),
        "src/repro/reporting/gantt.py": (0, 100),  # outside the prefix
    })
    percent = guard.runtime_coverage(report, "src/repro/runtime/")
    assert percent == pytest.approx(100.0 * 140 / 200)


def test_matches_absolute_paths(guard):
    report = _report({"/ci/work/src/repro/runtime/compiled.py": (80, 20)})
    assert guard.runtime_coverage(report, "src/repro/runtime/") == pytest.approx(80.0)


def test_empty_match_is_none_not_zero(guard):
    report = _report({"src/repro/reporting/gantt.py": (10, 0)})
    assert guard.runtime_coverage(report, "src/repro/runtime/") is None


def test_warns_below_baseline_but_exits_zero(guard, tmp_path, capsys):
    report_path = tmp_path / "coverage.json"
    report_path.write_text(json.dumps(_report(
        {"src/repro/runtime/simulator.py": (10, 90),
         "src/repro/telemetry/core.py": (99, 1)})))
    exit_code = guard.main([str(report_path), "--baseline", BASELINE_PATH])
    assert exit_code == 0  # non-blocking by design
    output = capsys.readouterr().out
    assert output.startswith("::warning::")
    assert "below the merge baseline" in output


def test_silent_pass_above_baseline(guard, tmp_path, capsys):
    report_path = tmp_path / "coverage.json"
    report_path.write_text(json.dumps(_report(
        {"src/repro/runtime/simulator.py": (99, 1),
         "src/repro/telemetry/core.py": (99, 1)})))
    assert guard.main([str(report_path), "--baseline", BASELINE_PATH]) == 0
    output = capsys.readouterr().out
    assert "::warning::" not in output
    assert "99.00%" in output


def test_missing_subsystem_files_warn_instead_of_reporting_zero(guard, tmp_path, capsys):
    report_path = tmp_path / "coverage.json"
    report_path.write_text(json.dumps(_report({"src/repro/cli.py": (5, 5)})))
    assert guard.main([str(report_path), "--baseline", BASELINE_PATH]) == 0
    assert "never imported" in capsys.readouterr().out


def test_legacy_single_target_baseline_still_works(guard, tmp_path, capsys):
    baseline_path = tmp_path / "baseline.json"
    baseline_path.write_text(json.dumps(
        {"prefix": "src/repro/runtime/", "percent": 50.0}))
    report_path = tmp_path / "coverage.json"
    report_path.write_text(json.dumps(_report(
        {"src/repro/runtime/simulator.py": (99, 1)})))
    assert guard.main([str(report_path), "--baseline", str(baseline_path)]) == 0
    output = capsys.readouterr().out
    assert "::warning::" not in output and "99.00%" in output


def test_every_target_is_checked(guard, tmp_path, capsys):
    baseline_path = tmp_path / "baseline.json"
    baseline_path.write_text(json.dumps({"targets": [
        {"prefix": "src/repro/runtime/", "percent": 50.0},
        {"prefix": "src/repro/telemetry/", "percent": 50.0},
    ]}))
    report_path = tmp_path / "coverage.json"
    report_path.write_text(json.dumps(_report(
        {"src/repro/runtime/simulator.py": (99, 1),
         "src/repro/telemetry/core.py": (10, 90)})))
    assert guard.main([str(report_path), "--baseline", str(baseline_path)]) == 0
    output = capsys.readouterr().out
    assert "src/repro/runtime/ at 99.00%" in output
    assert "below the merge baseline" in output  # the telemetry target fires


def test_committed_baseline_shape():
    with open(BASELINE_PATH) as handle:
        baseline = json.load(handle)
    prefixes = {target["prefix"] for target in baseline["targets"]}
    assert {"src/repro/runtime/", "src/repro/telemetry/"} <= prefixes
    assert all(0.0 < target["percent"] <= 100.0 for target in baseline["targets"])
