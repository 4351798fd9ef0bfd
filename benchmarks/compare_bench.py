#!/usr/bin/env python
"""Diff a fresh benchmark snapshot against the committed BENCH_* trajectory.

The CI benchmarks job runs ``benchmarks/run_benchmarks.py`` into a scratch
directory and then calls this script to compare the fresh numbers against the
newest ``BENCH_<date>.json`` committed at the repository root.  Benchmarks are
matched by name; anything more than ``--threshold`` percent slower is
annotated with a GitHub ``::warning::`` line.  The step is informational by
default (shared runners are noisy), so the exit status is 0 unless ``--fail``
is given.

With ``--manifests`` the script instead diffs the *stage timings* recorded in
two stores' run manifests (written by ``repro run`` next to the result store,
see docs/architecture.md "Telemetry and run manifests"): scenarios are matched
by name and each recorded stage (``plan``, ``sim.comparison``, …) is
compared like a benchmark, which localises a regression to plan vs simulate vs
store instead of one end-to-end number.

Usage::

    python benchmarks/compare_bench.py bench-artifacts/BENCH_*.json
    python benchmarks/compare_bench.py fresh.json --baseline BENCH_2026-07-29.json
    python benchmarks/compare_bench.py fresh.json --threshold 10 --fail
    python benchmarks/compare_bench.py --manifests old-store new-store
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def load_snapshot(path: Path) -> dict:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as error:
        raise SystemExit(f"cannot read benchmark snapshot {path}: {error}")


def newest_committed_baseline(exclude: Path) -> Path | None:
    """The lexically newest BENCH_<date>.json at the repo root (dates sort lexically)."""
    candidates = [
        path
        for path in sorted(REPO_ROOT.glob("BENCH_*.json"))
        if path.resolve() != exclude.resolve()
    ]
    return candidates[-1] if candidates else None


def wall_by_name(snapshot: dict) -> dict:
    return {
        record["name"]: record.get("wall_s")
        for record in snapshot.get("benchmarks", [])
        if record.get("wall_s") is not None
    }


def load_manifests(store: Path) -> dict:
    """``{scenario: manifest}`` read from ``<store>/manifests/*.json``."""
    manifests = {}
    for path in sorted((store / "manifests").glob("*.json")):
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as error:
            raise SystemExit(f"cannot read run manifest {path}: {error}")
        manifests[data.get("scenario", path.stem)] = data
    return manifests


def stage_walls(manifest: dict) -> dict:
    """Stage name -> total seconds, plus the end-to-end ``elapsed`` wall."""
    walls = {
        name: data.get("total_seconds")
        for name, data in manifest.get("stage_timings", {}).items()
        if data.get("total_seconds") is not None
    }
    if manifest.get("elapsed_seconds") is not None:
        walls["elapsed"] = manifest["elapsed_seconds"]
    return walls


def compare_manifests(baseline_store: Path, fresh_store: Path, threshold: float, fail: bool) -> int:
    baseline_manifests = load_manifests(baseline_store)
    fresh_manifests = load_manifests(fresh_store)
    shared_scenarios = sorted(set(baseline_manifests) & set(fresh_manifests))
    if not shared_scenarios:
        print(f"no overlapping scenario manifests between {baseline_store} and {fresh_store}")
        return 0
    print(f"baseline: {baseline_store}")
    print(f"fresh:    {fresh_store}")
    regressions = []
    for scenario in shared_scenarios:
        baseline_walls = stage_walls(baseline_manifests[scenario])
        fresh_walls = stage_walls(fresh_manifests[scenario])
        print(f"{scenario}:")
        for stage in sorted(set(baseline_walls) & set(fresh_walls)):
            base = baseline_walls[stage]
            now = fresh_walls[stage]
            if base <= 0:
                print(f"  ? {stage}: unusable baseline wall time {base:.3f}s (fresh {now:.3f}s)")
                continue
            delta = 100.0 * (now - base) / base
            marker = " "
            if delta > threshold:
                marker = "!"
                regressions.append((f"{scenario}/{stage}", base, now, delta))
            print(f"  {marker} {stage}: {base:.3f}s -> {now:.3f}s ({delta:+.1f}%)")
        only_one_side = sorted(set(baseline_walls) ^ set(fresh_walls))
        if only_one_side:
            print(f"  not compared (recorded on one side only): {', '.join(only_one_side)}")
    for name, base, now, delta in regressions:
        print(
            f"::warning title=stage regression::{name} is {delta:.1f}% slower "
            f"({base:.3f}s -> {now:.3f}s)"
        )
    if regressions and fail:
        return 1
    return 0


def main(argv: list | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "fresh",
        nargs="?",
        default=None,
        help="snapshot JSON produced by run_benchmarks.py",
    )
    parser.add_argument(
        "--manifests",
        nargs=2,
        default=None,
        metavar=("BASELINE_STORE", "FRESH_STORE"),
        help="compare per-stage timings from two stores' run manifests instead of snapshots",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        help="baseline snapshot (default: newest committed BENCH_*.json)",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=25.0,
        help="warn when a benchmark is this many percent slower (default 25)",
    )
    parser.add_argument(
        "--fail",
        action="store_true",
        help="exit non-zero when any benchmark crosses the threshold",
    )
    options = parser.parse_args(argv)

    if options.manifests:
        if options.fresh is not None:
            parser.error("--manifests replaces the snapshot argument; give stores only")
        baseline_store, fresh_store = (Path(store) for store in options.manifests)
        return compare_manifests(baseline_store, fresh_store, options.threshold, options.fail)
    if options.fresh is None:
        parser.error("a snapshot JSON (or --manifests) is required")

    fresh_path = Path(options.fresh)
    fresh = load_snapshot(fresh_path)
    if options.baseline:
        baseline_path = Path(options.baseline)
    else:
        baseline_path = newest_committed_baseline(exclude=fresh_path)
        if baseline_path is None:
            print("no committed BENCH_*.json baseline found; nothing to compare")
            return 0
    baseline = load_snapshot(baseline_path)

    fresh_walls = wall_by_name(fresh)
    baseline_walls = wall_by_name(baseline)
    shared = sorted(set(fresh_walls) & set(baseline_walls))
    if not shared:
        print(f"no overlapping benchmarks between {fresh_path.name} and {baseline_path.name}")
        return 0

    print(f"baseline: {baseline_path.name} (commit {baseline.get('commit', '?')[:12]})")
    print(f"fresh:    {fresh_path.name} (commit {fresh.get('commit', '?')[:12]})")
    regressions = []
    for name in shared:
        base = baseline_walls[name]
        now = fresh_walls[name]
        if base <= 0:
            # A zero/negative baseline makes the percentage meaningless; it
            # used to be silently mapped to 0.0, masking any regression.
            print(f"  ? {name}: unusable baseline wall time {base:.3f}s (fresh {now:.3f}s)")
            print(
                f"::warning title=unusable benchmark baseline::{name} has a "
                f"non-positive baseline wall time ({base:.3f}s) in "
                f"{baseline_path.name}; regression check skipped"
            )
            continue
        delta = 100.0 * (now - base) / base
        marker = " "
        if delta > options.threshold:
            marker = "!"
            regressions.append((name, base, now, delta))
        print(f"  {marker} {name}: {base:.3f}s -> {now:.3f}s ({delta:+.1f}%)")
    skipped = sorted(set(fresh_walls) ^ set(baseline_walls))
    if skipped:
        print(f"not compared (present on one side only): {', '.join(skipped)}")
    dropped = sorted(set(baseline_walls) - set(fresh_walls))
    if dropped:
        # Baseline-only benchmarks mean coverage shrank (renamed, deselected
        # or broken) — a silent drop would hide a benchmark going missing.
        print(
            f"::warning title=benchmarks dropped::{len(dropped)} benchmark(s) in "
            f"{baseline_path.name} missing from the fresh run: {', '.join(dropped)}"
        )

    for name, base, now, delta in regressions:
        print(
            f"::warning title=benchmark regression::{name} is {delta:.1f}% slower "
            f"than {baseline_path.name} ({base:.3f}s -> {now:.3f}s)"
        )
    if regressions and options.fail:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
