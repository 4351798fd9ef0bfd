#!/usr/bin/env python
"""Planning oracle: record what a scenario plans, and compare two records.

``record`` runs a scenario spec in-process (``--jobs 1``, on a fresh
temporary store, so every solve is computed) and writes one JSON record:

* ``plans``: for each distinct (task-set content, horizon, processor, method)
  the planned schedule's objective, SLSQP status, iteration count and
  fallback flag;
* ``solves``: every computed NLP solve (ACS's two starts and its WCS solve
  included), with its size, status, iterations, fallback flag and objective;
* ``deadline_misses``: summed over the run's points.

``compare A B`` exits 1 when a plan of ``B`` has an objective worse than
``A``'s beyond ``--rtol`` (relative), when the plans differ, or when ``B``
has more status-8/9 exits, fallbacks or deadline misses than ``A``.  Run the
same spec and profile through two trees to accept a change to the NLP by its
results.

Usage (from the repository root)::

    PYTHONPATH=src python tools/plan_oracle.py record examples/scenarios/figure6b.toml --profile smoke after.json
    PYTHONPATH=src python tools/plan_oracle.py compare before.json after.json --rtol 1e-6
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, List, Mapping, Optional, Sequence

#: SLSQP exit statuses counted as abnormal: 8 (positive directional
#: derivative in the line search) and 9 (iteration limit reached).
ABNORMAL_STATUSES = (8, 9)


def _metadata_row(objective: float, metadata: Mapping[str, Any]) -> Dict[str, Any]:
    return {
        "objective": float(objective),
        "status": metadata.get("solver_status"),
        "iterations": metadata.get("solver_iterations"),
        "fallback": bool(metadata.get("fallback", False)),
    }


def _plan_key(expansion: Any, scheduler: Any, method: str) -> str:
    from repro.reporting.serialization import taskset_to_dict
    from repro.scenarios.store import processor_signature

    content = {
        "taskset": taskset_to_dict(expansion.taskset),
        "horizon": expansion.horizon,
        "processor": processor_signature(scheduler.processor),
        "method": method,
    }
    encoded = json.dumps(content, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


@contextmanager
def _recording(plans: Dict[str, Dict[str, Any]], solves: List[Dict[str, Any]]) -> Iterator[None]:
    """Record every plan and every computed solve made inside the block.

    Every planning path (comparisons, multicore cores, the motivation table)
    runs ``schedule_expansion`` of a scheduler class in the harness registry,
    and every computed solve runs ``ReducedNLP.solve``, so wrapping those
    sees all of a run's planning.
    """
    from repro.experiments import harness
    from repro.offline.nlp import ReducedNLP

    solve = ReducedNLP.solve

    def recorded_solve(nlp: Any, x0: Optional[Any] = None) -> Any:
        schedule = solve(nlp, x0)
        start = "plain" if x0 is None else "warm"
        solves.append({
            "label": f"{nlp.expansion.taskset.name}/{nlp.workload_mode}/{start}",
            "n_vars": nlp.n_variables,
            **_metadata_row(schedule.objective_value, schedule.metadata),
        })
        return schedule

    def recorded(schedule_expansion: Any) -> Any:
        def plan(scheduler: Any, expansion: Any, *, memo: Any = None) -> Any:
            schedule = schedule_expansion(scheduler, expansion, memo=memo)
            plans.setdefault(_plan_key(expansion, scheduler, scheduler.name), {
                "label": f"{expansion.taskset.name}/{scheduler.name}",
                **_metadata_row(schedule.objective_value, schedule.metadata),
            })
            return schedule
        return plan

    classes = list(dict.fromkeys(harness._SCHEDULER_FACTORIES.values()))
    originals = [cls.schedule_expansion for cls in classes]
    ReducedNLP.solve = recorded_solve
    for cls, original in zip(classes, originals):
        cls.schedule_expansion = recorded(original)
    try:
        yield
    finally:
        ReducedNLP.solve = solve
        for cls, original in zip(classes, originals):
            cls.schedule_expansion = original


def record(spec_path: str, profile: Optional[str] = None) -> Dict[str, Any]:
    """Run ``spec_path`` (under ``profile``) cold at ``--jobs 1`` and return its record."""
    from repro.scenarios.engine import ScenarioEngine
    from repro.scenarios.loader import load_scenario
    from repro.scenarios.store import STORE_FORMAT, ResultStore, solver_build

    spec = load_scenario(spec_path, profile=profile)
    plans: Dict[str, Dict[str, Any]] = {}
    solves: List[Dict[str, Any]] = []
    with tempfile.TemporaryDirectory(prefix="plan-oracle-") as root:
        with _recording(plans, solves):
            result = ScenarioEngine(ResultStore(root)).run(spec, n_jobs=1)
    return {
        "spec": str(spec_path),
        "profile": profile,
        "store_format": STORE_FORMAT,
        "build": solver_build(),
        "plans": plans,
        "solves": solves,
        "deadline_misses": sum(point.get("deadline_misses", 0) for point in result.points),
    }


def _counts(data: Mapping[str, Any]) -> Dict[str, int]:
    solves = data["solves"]
    return {
        "status-8/9 exits": sum(1 for row in solves if row["status"] in ABNORMAL_STATUSES),
        "fallbacks": sum(1 for row in solves if row["fallback"]),
        "deadline misses": data["deadline_misses"],
    }


def compare(before: Mapping[str, Any], after: Mapping[str, Any], rtol: float = 1e-6) -> List[str]:
    """Every way ``after`` plans worse than ``before``; empty when it does not."""
    problems = []
    only = set(before["plans"]) ^ set(after["plans"])
    if only:
        problems.append(f"{len(only)} plans are in only one record (not the same spec and profile?)")
    for key in sorted(set(before["plans"]) & set(after["plans"])):
        old, new = before["plans"][key], after["plans"][key]
        if new["objective"] - old["objective"] > rtol * abs(old["objective"]):
            change = (new["objective"] - old["objective"]) / abs(old["objective"])
            problems.append(f"{new['label']}: objective {old['objective']!r} -> "
                            f"{new['objective']!r} ({change:+.3g} relative)")
    old_counts, new_counts = _counts(before), _counts(after)
    for name, old in old_counts.items():
        if new_counts[name] > old:
            problems.append(f"{name}: {old} -> {new_counts[name]}")
    return problems


def _summary(before: Mapping[str, Any], after: Mapping[str, Any]) -> str:
    common = sorted(set(before["plans"]) & set(after["plans"]))
    changes = [(after["plans"][key]["objective"] - before["plans"][key]["objective"])
               / abs(before["plans"][key]["objective"]) for key in common]
    iterations = [sum(row["iterations"] or 0 for row in data["solves"]) for data in (before, after)]
    lines = [
        f"plans: {len(common)} compared, {sum(c < 0 for c in changes)} better, "
        f"{sum(c > 0 for c in changes)} worse, {sum(c == 0 for c in changes)} equal",
        f"relative objective change: min {min(changes, default=0.0):+.3g}, "
        f"max {max(changes, default=0.0):+.3g}",
        f"solves: {len(before['solves'])} -> {len(after['solves'])}, "
        f"iterations {iterations[0]} -> {iterations[1]}",
    ]
    old_counts, new_counts = _counts(before), _counts(after)
    lines += [f"{name}: {old} -> {new_counts[name]}" for name, old in old_counts.items()]
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    commands = parser.add_subparsers(dest="command", required=True)
    record_parser = commands.add_parser("record", help="run a spec and write its planning record")
    record_parser.add_argument("spec")
    record_parser.add_argument("--profile", default=None)
    record_parser.add_argument("output")
    compare_parser = commands.add_parser("compare", help="exit 1 when B plans worse than A")
    compare_parser.add_argument("before")
    compare_parser.add_argument("after")
    compare_parser.add_argument("--rtol", type=float, default=1e-6)
    args = parser.parse_args(argv)

    if args.command == "record":
        data = record(args.spec, args.profile)
        Path(args.output).write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")
        print(f"{len(data['plans'])} plans, {len(data['solves'])} solves -> {args.output}")
        return 0
    before, after = (json.loads(Path(path).read_text(encoding="utf-8"))
                     for path in (args.before, args.after))
    print(_summary(before, after))
    problems = compare(before, after, args.rtol)
    for problem in problems:
        print(f"WORSE: {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
