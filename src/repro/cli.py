"""Command-line interface: ``python -m repro`` or the ``repro`` script (see ``repro.__main__``).

Sub-commands regenerate the paper's experiments and print the corresponding
table to standard output:

* ``motivation`` — Table 1 / Figures 1–2 (the non-preemptive example);
* ``figure6a``   — random task-set sweep (supports ``--jobs N``);
* ``figure6b``   — CNC and GAP case studies (supports ``--jobs N``);
* ``sweep``      — one random task-set comparison, ``--tasksets`` repetitions
  (``--jobs N``; any worker count produces bitwise-identical output);
* ``scalability`` — the multicore sweep: energy across core counts m ∈
  {1, 2, 4, 8} and across partitioning heuristics;

  each builds a scenario document (``examples/scenarios/figure6a.toml``,
  ``figure6b.toml`` and ``scalability.toml`` for the figures, with the flags
  applied) and runs it on the scenario engine, without a result store;

and expose the online runtime and the multicore planner directly:

* ``simulate``   — schedule one application and simulate it under one or more
  online DVS policies (``--policy static|greedy|lookahead|proportional|all``);
* ``trace``      — simulate one application with the typed event stream
  recorded (``SimulationConfig(trace=True)``): prints per-kind event counts
  plus the ASCII Gantt chart projected from the trace, optionally with
  sporadic release jitter (``--jitter J``) and a JSON event dump
  (``--output FILE``);
* ``partition``  — partition an application across ``--cores`` processors,
  plan each core offline, simulate the multicore system and serialise the
  resulting ``MulticoreResult``;

and the declarative scenario runner (see ``docs/scenarios.md``):

* ``run``       — execute one or more scenario spec files (TOML/JSON) through
  the resumable, content-addressed result store (``--store DIR``, ``--force``,
  ``--profile smoke``, ``--jobs N``); ``--telemetry [PATH]`` records spans and
  counters (JSONL dump plus a stderr summary table), and every store-backed
  run writes a run manifest under ``<store>/manifests/``;
* ``stats``     — render the stage timings, counters and fallback tallies of
  past runs from the stored manifests (and optionally a telemetry JSONL)
  without re-running anything;
* ``store``     — inspect (``ls``) or garbage-collect (``gc``) the store.

Use ``--full`` for the paper-scale sample sizes (slow) and ``--quick`` for a
smoke-test-sized run.
"""

from __future__ import annotations

# First, before anything loads numpy: start OpenBLAS on one thread unless
# the caller chose a count.
from . import _blas_default

import argparse
import functools
import hashlib
import os
import sys
import warnings
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Dict, List, Optional

import numpy as np

from .allocation.multicore import MulticoreProblem, plan_multicore
from .allocation.partitioners import available_partitioners
from .core.errors import ExperimentError, ReproError
from .experiments.harness import make_schedulers, scheduler_names
from .experiments.motivation import run_motivation
from .power.presets import ideal_processor
from .runtime.multicore import MulticoreRunner
from .runtime.policies import available_policies, get_policy
from .runtime.simulator import DVSSimulator, SimulationConfig
from .scenarios import ScenarioEngine, ScenarioLoader, ScenarioSpec
from .utils.tables import format_markdown_table
from .workloads.cnc import cnc_taskset
from .workloads.distributions import NormalWorkload
from .workloads.gap import gap_taskset

__all__ = ["main", "build_parser"]

#: Default scenario result-store directory (overridable via $REPRO_STORE or --store).
DEFAULT_STORE_DIR = ".repro-store"


def _resolve_store_dir(value: Optional[str]) -> str:
    return value or os.environ.get("REPRO_STORE") or DEFAULT_STORE_DIR


# The paper's figures as scenario documents: the base document, plus the
# profiles --quick/--full select, of examples/scenarios/{figure6a,figure6b,
# scalability}.toml (tests/test_cli.py asserts each resolves to the committed
# spec). They live here because reading TOML needs tomllib (Python >= 3.11).
FIGURE6A: Dict[str, Any] = {
    "kind": "comparison",
    "name": "figure6a",
    "description": "ACS vs WCS energy improvement on random task sets (Figure 6a)",
    "taskset": {"source": "random", "utilization": 0.7},
    "offline": {"methods": ["wcs", "acs"], "baseline": "wcs"},
    "online": {"policy": "greedy"},
    "workload": {"model": "normal"},
    "power": {"model": "ideal"},
    "simulation": {"hyperperiods": 20, "seed": 2005, "repetitions": 5},
    "matrix": {"taskset.n_tasks": [2, 4, 6, 8, 10], "taskset.ratio": [0.1, 0.5, 0.9]},
    "profiles": {
        "smoke": {"simulation": {"hyperperiods": 5, "repetitions": 2},
                  "matrix": {"taskset.n_tasks": [2, 4]}},
        "full": {"simulation": {"hyperperiods": 1000, "repetitions": 100}},
    },
}

FIGURE6B: Dict[str, Any] = {
    "kind": "comparison",
    "name": "figure6b",
    "description": "ACS vs WCS on the CNC and GAP case studies (Figure 6b)",
    "taskset": {"source": "cnc", "utilization": 0.7, "gap_tasks": 8},
    "offline": {"methods": ["wcs", "acs"], "baseline": "wcs"},
    "online": {"policy": "greedy"},
    "workload": {"model": "normal"},
    "power": {"model": "ideal"},
    "simulation": {"hyperperiods": 20, "seed": 2005, "repetitions": 1},
    "matrix": {"taskset.source": ["cnc", "gap"], "taskset.ratio": [0.1, 0.5, 0.9]},
    "profiles": {
        "smoke": {"simulation": {"hyperperiods": 5}, "taskset": {"gap_tasks": 5}},
        "full": {"simulation": {"hyperperiods": 1000}, "taskset": {"gap_tasks": 17}},
    },
}

SCALABILITY: Dict[str, Any] = {
    "kind": "multicore",
    "name": "scalability",
    "description": "Energy vs core count across partitioning heuristics",
    "taskset": {"source": "cnc", "ratio": 0.5, "utilization": 0.7},
    "offline": {"methods": ["acs"], "baseline": "acs"},
    "online": {"policy": "greedy"},
    "power": {"model": "ideal"},
    "simulation": {"hyperperiods": 20, "seed": 2005},
    "multicore": {"cores": [1, 2, 4, 8], "partitioners": ["ffd", "bfd", "wfd", "energy"]},
    "profiles": {
        "smoke": {"simulation": {"hyperperiods": 5}, "taskset": {"gap_tasks": 5},
                  "multicore": {"cores": [1, 2], "partitioners": ["ffd", "wfd"]}},
    },
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the experiments of the DATE 2005 ACS paper.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    motivation = subparsers.add_parser("motivation", help="Table 1 / Figures 1-2")
    motivation.set_defaults(runner=_run_motivation)

    for name, document, help_text in (
        ("figure6a", FIGURE6A, "random task-set sweep (Figure 6a)"),
        ("figure6b", FIGURE6B, "CNC and GAP case studies (Figure 6b)"),
    ):
        figure = subparsers.add_parser(name, help=help_text)
        scale = figure.add_mutually_exclusive_group()
        scale.add_argument("--quick", action="store_true",
                           help="tiny sample sizes (smoke test; the 'smoke' profile)")
        scale.add_argument("--full", action="store_true",
                           help="paper-scale sample sizes (slow; the 'full' profile)")
        figure.add_argument("--seed", type=int, default=2005)
        figure.add_argument("--jobs", type=int, default=1,
                            help="worker processes (results identical for any value)")
        figure.set_defaults(runner=_run_paper_scenario,
                            scenario=functools.partial(_figure_spec, document))

    simulate = subparsers.add_parser(
        "simulate",
        help="simulate one application under one or more online DVS policies")
    simulate.add_argument("--app", choices=("demo", "cnc", "gap"), default="demo",
                          help="task set to schedule (demo = small 3-task example)")
    simulate.add_argument("--method", choices=scheduler_names(), default="acs",
                          help="offline scheduler producing the static schedule")
    simulate.add_argument("--policy", default="greedy",
                          help="online policy name, comma-separated list, or 'all' "
                               f"(known: {', '.join(available_policies())})")
    simulate.add_argument("--hyperperiods", type=int, default=50)
    simulate.add_argument("--seed", type=int, default=2005)
    simulate.add_argument("--ratio", type=float, default=0.5,
                          help="BCEC/WCEC ratio of the workload")
    simulate.set_defaults(runner=_run_simulate)

    trace = subparsers.add_parser(
        "trace",
        help="simulate one application with the typed event stream recorded")
    trace.add_argument("--app", choices=("demo", "cnc", "gap"), default="demo",
                       help="task set to schedule (demo = small 3-task example)")
    trace.add_argument("--method", choices=scheduler_names(), default="acs",
                       help="offline scheduler producing the static schedule")
    trace.add_argument("--policy", choices=available_policies(), default="greedy",
                       help="online DVS policy")
    trace.add_argument("--hyperperiods", type=int, default=2)
    trace.add_argument("--seed", type=int, default=2005)
    trace.add_argument("--ratio", type=float, default=0.5,
                       help="BCEC/WCEC ratio of the workload")
    trace.add_argument("--jitter", type=float, default=None, metavar="J",
                       help="sporadic arrivals with release jitter U(0, J) "
                            "(default: strictly periodic)")
    trace.add_argument("--width", type=int, default=72, help="chart width in columns")
    trace.add_argument("--output", default=None, metavar="FILE",
                       help="also write the serialised events as JSON to this path")
    trace.set_defaults(runner=_run_trace)

    sweep = subparsers.add_parser(
        "sweep",
        help="one random-taskset comparison over --tasksets task sets")
    sweep.add_argument("--tasksets", type=int, default=8, help="number of random task sets")
    sweep.add_argument("--tasks", type=int, default=4, help="tasks per task set")
    sweep.add_argument("--ratio", type=float, default=0.5, help="BCEC/WCEC ratio")
    sweep.add_argument("--utilization", type=float, default=0.7)
    sweep.add_argument("--hyperperiods", type=int, default=20)
    sweep.add_argument("--seed", type=int, default=2005)
    sweep.add_argument("--policy", choices=available_policies(), default="greedy")
    sweep.add_argument("--jobs", type=int, default=1,
                       help="worker processes (results identical for any value)")
    sweep.add_argument("--quick", action="store_true", help="tiny sample sizes (smoke test)")
    sweep.add_argument("--output", default=None,
                       help="also write the full result as JSON to this path")
    sweep.set_defaults(runner=_run_paper_scenario, scenario=_sweep_spec)

    partition = subparsers.add_parser(
        "partition",
        help="partition one application across cores, plan and simulate it")
    partition.add_argument("--cores", type=int, default=4, help="number of cores m")
    partition.add_argument("--partitioner", choices=available_partitioners(),
                           default="wfd", help="task-to-core allocation heuristic")
    partition.add_argument("--app", choices=("demo", "cnc", "gap"), default="cnc",
                           help="task set to partition (demo = small 3-task example)")
    partition.add_argument("--method", choices=scheduler_names(), default="acs",
                           help="offline scheduler run independently per core")
    partition.add_argument("--policy", choices=available_policies(), default="greedy",
                           help="online DVS policy driving every core")
    partition.add_argument("--hyperperiods", type=int, default=20,
                           help="global hyperperiods to simulate")
    partition.add_argument("--ratio", type=float, default=0.5,
                           help="BCEC/WCEC ratio of the workload")
    partition.add_argument("--seed", type=int, default=2005)
    partition.add_argument("--output", default="multicore_result.json",
                           help="path of the serialized MulticoreResult JSON")
    partition.set_defaults(runner=_run_partition)

    scalability = subparsers.add_parser(
        "scalability",
        help="multicore scalability sweep: energy across core counts and partitioners")
    scalability.add_argument("--cores", default=None,
                             help="comma-separated core counts "
                                  "(default 1,2,4,8; 1,2 with --quick)")
    scalability.add_argument("--partitioners", default=None,
                             help="comma-separated partitioner names "
                                  "(default all; ffd,wfd with --quick)")
    scalability.add_argument("--app", choices=("cnc", "gap"), default="cnc")
    scalability.add_argument("--method", choices=scheduler_names(), default="acs")
    scalability.add_argument("--policy", choices=available_policies(), default="greedy")
    scalability.add_argument("--ratio", type=float, default=0.5)
    scalability.add_argument("--hyperperiods", type=int, default=None,
                             help="global hyperperiods per point "
                                  "(default 20; 5 with --quick)")
    scalability.add_argument("--seed", type=int, default=2005)
    scalability.add_argument("--jobs", type=int, default=1,
                             help="worker processes (results identical for any value)")
    scalability.add_argument("--quick", action="store_true",
                             help="tiny sweep (smoke test): shrinks the defaults of "
                                  "--cores/--partitioners/--hyperperiods; explicitly "
                                  "given values are honoured as-is")
    scalability.add_argument("--output", default=None,
                             help="also write the full result as JSON to this path")
    scalability.set_defaults(runner=_run_paper_scenario, scenario=_scalability_spec)

    run = subparsers.add_parser(
        "run",
        help="execute declarative scenario spec files (TOML/JSON) via the result store")
    run.add_argument("specs", nargs="+", metavar="SPEC",
                     help="scenario file(s); see docs/scenarios.md and examples/scenarios/")
    run.add_argument("--profile", default=None,
                     help="named override profile declared in the spec (e.g. 'smoke')")
    run.add_argument("--jobs", type=int, default=1,
                     help="worker processes (results identical for any value)")
    run.add_argument("--store", default=None, metavar="DIR",
                     help=f"result store directory (default: $REPRO_STORE or {DEFAULT_STORE_DIR})")
    run.add_argument("--no-store", action="store_true",
                     help="compute everything in-process without touching a store")
    run.add_argument("--force", action="store_true",
                     help="recompute (and overwrite) units already present in the store")
    run.add_argument("--output", default=None, metavar="DIR",
                     help="also write one <scenario-name>.json result file per spec here")
    run.add_argument("--telemetry", nargs="?", const="", default=None, metavar="PATH",
                     help="record spans/counters; JSONL goes to PATH, or to "
                          "<store>/telemetry/<scenario>.jsonl when PATH is omitted "
                          "(a summary table is printed to stderr either way)")
    run.set_defaults(runner=_run_scenarios)

    stats = subparsers.add_parser(
        "stats",
        help="render run manifests (stage timings, counters) from a store without re-running")
    stats.add_argument("store", nargs="?", default=None, metavar="STORE",
                       help=f"result store directory (default: $REPRO_STORE or {DEFAULT_STORE_DIR})")
    stats.add_argument("--telemetry", default=None, metavar="PATH",
                       help="also aggregate spans/counters from this telemetry JSONL dump")
    stats.set_defaults(runner=_run_stats)

    store = subparsers.add_parser(
        "store",
        help="inspect or garbage-collect the scenario result store")
    store_commands = store.add_subparsers(dest="store_command", required=True)
    store_ls = store_commands.add_parser("ls", help="list stored result records")
    store_ls.add_argument("--store", default=None, metavar="DIR")
    store_ls.set_defaults(runner=_run_store_ls)
    store_gc = store_commands.add_parser("gc", help="remove stored result records")
    store_gc.add_argument("--store", default=None, metavar="DIR")
    criteria = store_gc.add_mutually_exclusive_group(required=True)
    criteria.add_argument("--all", action="store_true", help="remove every record")
    criteria.add_argument("--older-than", type=float, default=None, metavar="DAYS",
                          help="remove records created more than DAYS days ago")
    criteria.add_argument("--stale", action="store_true",
                          help="remove unreadable records and records from old store formats")
    store_gc.add_argument("--dry-run", action="store_true",
                          help="report what would be removed without deleting anything")
    store_gc.set_defaults(runner=_run_store_gc)

    return parser


def _run_motivation(args: argparse.Namespace) -> str:
    result = run_motivation()
    lines = [
        result.to_markdown(),
        "",
        f"average-case improvement of ACS end-times: {result.improvement_average_case_percent:.1f}%",
        f"worst-case penalty of ACS end-times:       {result.penalty_worst_case_percent:.1f}%",
    ]
    return "\n".join(lines)


def _figure_spec(document: Dict[str, Any], args: argparse.Namespace) -> ScenarioSpec:
    """``figure6a``/``figure6b``: the document at the --quick/--full profile, reseeded."""
    profile = "full" if args.full else "smoke" if args.quick else None
    seeded = {**document, "simulation": {**document["simulation"], "seed": args.seed}}
    return ScenarioLoader().from_document(seeded, profile=profile)


def _scalability_spec(args: argparse.Namespace) -> ScenarioSpec:
    """``scalability``: the document at the --quick profile, with the flags applied.

    --quick only shrinks the *defaults*; values the user gave explicitly
    (--cores/--partitioners/--hyperperiods) are honoured as-is.
    """
    document = ScenarioLoader().from_document(
        SCALABILITY, profile="smoke" if args.quick else None).to_dict()
    document["taskset"].update(source=args.app, ratio=args.ratio)
    document["offline"] = {"methods": [args.method], "baseline": args.method}
    document["online"]["policy"] = args.policy
    document["simulation"]["seed"] = args.seed
    if args.hyperperiods is not None:
        document["simulation"]["hyperperiods"] = args.hyperperiods
    if args.cores is not None:
        try:
            document["multicore"]["cores"] = [
                int(part) for part in args.cores.split(",") if part.strip()]
        except ValueError:
            raise ExperimentError(
                f"--cores must be comma-separated integers, got {args.cores!r}") from None
    if args.partitioners is not None:
        document["multicore"]["partitioners"] = [
            part.strip() for part in args.partitioners.split(",") if part.strip()]
    return ScenarioSpec.from_dict(document)


def _sweep_spec(args: argparse.Namespace) -> ScenarioSpec:
    """``sweep``: one random-taskset comparison, ``--tasksets`` repetitions, no matrix.

    --quick caps the *size* knobs (task sets, tasks, hyperperiods) and
    restricts the period pool so the NLPs stay tiny, but the scenario knobs
    (ratio, utilization, policy, seed) are honoured as given.
    """
    taskset: Dict[str, Any] = {"source": "random", "n_tasks": args.tasks,
                               "ratio": args.ratio, "utilization": args.utilization}
    simulation = {"hyperperiods": args.hyperperiods, "seed": args.seed,
                  "repetitions": args.tasksets}
    if args.quick:
        taskset.update(n_tasks=min(args.tasks, 3), periods=[10.0, 20.0, 40.0])
        simulation.update(hyperperiods=5, repetitions=min(args.tasksets, 2))
    return ScenarioSpec.from_dict({
        "kind": "comparison",
        "name": "sweep",
        "taskset": taskset,
        "offline": {"methods": ["wcs", "acs"], "baseline": "wcs"},
        "online": {"policy": args.policy},
        "simulation": simulation,
    })


def _run_paper_scenario(args: argparse.Namespace) -> str:
    """Run the subcommand's scenario document on an in-memory engine."""
    result = ScenarioEngine().run(args.scenario(args), n_jobs=args.jobs)
    if getattr(args, "output", None):
        from .reporting.serialization import save_json, scenario_result_to_dict
        save_json(scenario_result_to_dict(result), args.output)
    # Wall-clock goes on a separate trailing line so the deterministic report
    # above stays byte-identical across --jobs values.
    return (f"{result.to_markdown()}\n\n"
            f"wall-clock: {result.elapsed_seconds:.2f}s (jobs={args.jobs})")


def _demo_taskset(ratio: float):
    from .core.task import Task
    from .core.taskset import TaskSet

    taskset = TaskSet([
        Task("camera", period=10, wcec=3000),
        Task("planner", period=20, wcec=8000),
        Task("logger", period=40, wcec=6000),
    ], name="demo")
    return taskset.with_bcec_ratio(ratio)


def _select_taskset(app: str, ratio: float, processor):
    """The ``--app`` dispatch shared by ``simulate`` and ``partition``."""
    if app == "demo":
        return _demo_taskset(ratio)
    if app == "cnc":
        return cnc_taskset(processor, bcec_wcec_ratio=ratio)
    return gap_taskset(processor, bcec_wcec_ratio=ratio, n_tasks=8)


def _run_simulate(args: argparse.Namespace) -> str:
    if args.policy == "all":
        policies = available_policies()
    else:
        policies = tuple(name.strip() for name in args.policy.split(",") if name.strip())
    if not policies:
        raise ExperimentError(
            f"--policy needs at least one policy name (known: {', '.join(available_policies())})")
    for name in policies:  # validate before the (expensive) offline scheduling
        try:
            get_policy(name)
        except ValueError as error:
            raise ExperimentError(str(error)) from None

    processor = ideal_processor(fmax=1000.0)
    taskset = _select_taskset(args.app, args.ratio, processor)

    scheduler = make_schedulers([args.method], processor)[args.method]
    schedule = scheduler.schedule(taskset)

    rows: List[List[object]] = []
    energies = {}
    for name in policies:
        simulator = DVSSimulator(
            processor, policy=name,
            config=SimulationConfig(n_hyperperiods=args.hyperperiods),
        )
        result = simulator.run(schedule, NormalWorkload(), np.random.default_rng(args.seed))
        energies[name] = result.mean_energy_per_hyperperiod
        rows.append([name, result.mean_energy_per_hyperperiod, result.miss_count])

    reference_name = "static" if "static" in energies else policies[0]
    reference = energies[reference_name]
    for row in rows:
        row.append(100.0 * (reference - energies[row[0]]) / reference if reference > 0 else 0.0)

    header = (f"app={args.app} method={args.method} ratio={args.ratio:g} "
              f"hyperperiods={args.hyperperiods} seed={args.seed}")
    table = format_markdown_table(
        ["policy", "energy / hyperperiod", "misses", f"saving vs {reference_name} %"], rows)
    return "\n".join([header, "", table])


def _run_trace(args: argparse.Namespace) -> str:
    if args.hyperperiods < 1:
        raise ExperimentError(f"--hyperperiods must be at least 1, got {args.hyperperiods}")
    processor = ideal_processor(fmax=1000.0)
    taskset = _select_taskset(args.app, args.ratio, processor)

    scheduler = make_schedulers([args.method], processor)[args.method]
    schedule = scheduler.schedule(taskset)

    arrivals = None
    if args.jitter is not None:
        from .workloads.arrivals import SporadicArrivals
        arrivals = SporadicArrivals(max_jitter=args.jitter)
    simulator = DVSSimulator(
        processor, policy=args.policy,
        config=SimulationConfig(n_hyperperiods=args.hyperperiods,
                                trace=True, arrivals=arrivals),
    )
    result = simulator.run(schedule, NormalWorkload(), np.random.default_rng(args.seed))
    trace = result.trace
    assert trace is not None  # trace=True guarantees a recorded stream

    from .reporting.gantt import render_trace
    counts = trace.counts()
    count_rows: List[List[object]] = [[kind, counts[kind]] for kind in sorted(counts)]
    arrivals_label = f"sporadic(max_jitter={args.jitter:g})" if arrivals else "periodic"
    header = (f"app={args.app} method={args.method} policy={args.policy} "
              f"ratio={args.ratio:g} hyperperiods={args.hyperperiods} "
              f"seed={args.seed} arrivals={arrivals_label}")
    sections = [
        header,
        "",
        render_trace(trace, processor, width=args.width),
        "",
        format_markdown_table(["event", "count"], count_rows),
        "",
        (f"{len(trace)} events | energy/hyperperiod "
         f"{result.mean_energy_per_hyperperiod:.6g} | misses {result.miss_count}"),
    ]
    if args.output:
        from .reporting.serialization import save_json, trace_to_dicts
        output_path = save_json({"events": trace_to_dicts(trace)}, args.output)
        sections.append(f"wrote {len(trace)} events to {output_path}")
    return "\n".join(sections)


def _run_partition(args: argparse.Namespace) -> str:
    if args.cores < 1:
        raise ExperimentError(f"--cores must be at least 1, got {args.cores}")
    processor = ideal_processor(fmax=1000.0)
    taskset = _select_taskset(args.app, args.ratio, processor)

    problem = MulticoreProblem(
        taskset=taskset,
        processor=processor,
        n_cores=args.cores,
        partitioner=args.partitioner,
        method=args.method,
    )
    plan = plan_multicore(problem)
    runner = MulticoreRunner(
        processor, policy=args.policy,
        config=SimulationConfig(n_hyperperiods=args.hyperperiods),
    )
    result = runner.run(plan, seed=args.seed)

    from .reporting.serialization import multicore_result_to_dict, save_json
    output_path = save_json(multicore_result_to_dict(result), args.output)

    rows: List[List[object]] = []
    for core, core_result in enumerate(result.core_results):
        if core_result is None:
            rows.append([core, "idle", 0.0, 0.0, 0.0, 0])
            continue
        tasks = ", ".join(sorted(
            name for name, owner in result.assignment.items() if owner == core))
        rows.append([
            core, tasks, result.core_utilizations[core],
            result.core_slacks[core],
            core_result.mean_energy_per_hyperperiod, core_result.miss_count,
        ])
    header = (f"app={args.app} cores={args.cores} partitioner={args.partitioner} "
              f"method={args.method} policy={args.policy} "
              f"hyperperiods={args.hyperperiods} seed={args.seed}")
    table = format_markdown_table(
        ["core", "tasks", "utilisation", "slack", "energy / core hyperperiod", "misses"],
        rows)
    summary = (f"total energy: {result.total_energy:.6g} | "
               f"mean energy per global hyperperiod: "
               f"{result.mean_energy_per_hyperperiod:.6g} | "
               f"misses: {result.miss_count}")
    return "\n".join([header, "", table, "", summary,
                      f"wrote MulticoreResult to {output_path}"])


def _telemetry_jsonl_path(store_dir: Optional[str], name: str, spec_path: str,
                          seen: dict) -> Path:
    """Derived ``--telemetry`` JSONL path for one spec, collision-safe.

    The default ``<store>/telemetry/<scenario>.jsonl`` is ambiguous when two
    spec files in different directories share a scenario name: the second
    would silently append to (and pollute) the first's dump.  The first file
    to claim a name keeps the pretty path; later *distinct* spec files get a
    ``-<hash-of-path>`` suffix and a warning.
    """
    base = Path(store_dir or ".") / "telemetry"
    resolved = str(Path(spec_path).resolve())
    default = base / f"{name}.jsonl"
    claimed = seen.setdefault(default, resolved)
    if claimed == resolved:
        return default
    digest = hashlib.sha256(resolved.encode("utf-8")).hexdigest()[:8]
    unique = base / f"{name}-{digest}.jsonl"
    warnings.warn(
        f"telemetry for {spec_path} would collide with {default} (already "
        f"written for {claimed}); writing {unique} instead — pass "
        f"--telemetry PATH to choose the destination",
        RuntimeWarning, stacklevel=2)
    seen.setdefault(unique, resolved)
    return unique


def _run_scenarios(args: argparse.Namespace) -> str:
    from .reporting.serialization import save_json, scenario_result_to_dict
    from .scenarios import ResultStore, ScenarioEngine, load_scenario
    from .telemetry import (
        JsonlSink,
        SummarySink,
        Telemetry,
        build_manifest,
        using,
        write_manifest,
    )

    if args.jobs < 1:
        raise ExperimentError(f"--jobs must be at least 1, got {args.jobs}")
    if args.no_store and args.store:
        raise ExperimentError("--no-store and --store are mutually exclusive")
    store_dir = None if args.no_store else _resolve_store_dir(args.store)
    engine = ScenarioEngine(ResultStore(store_dir) if store_dir else None)
    telemetry_arg = getattr(args, "telemetry", None)
    telemetry_enabled = telemetry_arg is not None
    claimed_jsonl: dict = {}
    sections: List[str] = []
    for path in args.specs:
        spec = load_scenario(path, profile=args.profile)
        stage_timings = counters = None
        if telemetry_enabled:
            # One fresh collector per spec so every manifest and JSONL block
            # describes exactly one scenario run.
            telemetry = Telemetry()
            with using(telemetry):
                result = engine.run(spec, n_jobs=args.jobs, force=args.force)
            snapshot = telemetry.snapshot()
            stage_timings = telemetry.stage_timings()
            counters = snapshot["counters"]
            if telemetry_arg:
                jsonl_path = Path(telemetry_arg)
            else:
                jsonl_path = _telemetry_jsonl_path(store_dir, spec.name, path, claimed_jsonl)
            JsonlSink(jsonl_path).emit(snapshot, scenario=spec.name)
            SummarySink().emit(snapshot, scenario=spec.name)
        else:
            result = engine.run(spec, n_jobs=args.jobs, force=args.force)
        if store_dir:
            manifest = build_manifest(
                scenario=spec.name,
                config=spec.to_dict(),
                computed=result.computed,
                skipped=result.skipped,
                elapsed_seconds=result.elapsed_seconds,
                stage_timings=stage_timings,
                counters=counters,
                openblas_defaulted=_blas_default.DEFAULTED,
            )
            write_manifest(store_dir, manifest)
        if args.output:
            output_dir = Path(args.output)
            output_dir.mkdir(parents=True, exist_ok=True)
            save_json(scenario_result_to_dict(result), output_dir / f"{spec.name}.json")
        where = store_dir if store_dir else "disabled"
        # Wall-clock goes on a separate trailing line so the deterministic
        # report above stays byte-identical across --jobs values and reruns.
        sections.append("\n".join([
            f"== {spec.name} ({path})",
            "",
            result.to_markdown(),
            "",
            f"{result.summary()} (store: {where})",
            f"wall-clock: {result.elapsed_seconds:.2f}s (jobs={args.jobs})",
        ]))
    return "\n\n".join(sections)


def _blas_line(env: Dict[str, Any]) -> str:
    """The manifest's BLAS builds and thread variables as one ``repro stats`` line.

    The variables are shown as the caller passed them (``-`` when unset),
    followed by the CLI's default when it set ``OPENBLAS_NUM_THREADS``.
    """

    def build(key: str) -> str:
        blas = env.get(key)
        return f"{blas['name']} {blas['version']}" if blas else "?"

    threads = " ".join(f"{name}={'-' if value is None else value}"
                       for name, value in env.get("blas_threads", {}).items())
    default = " | CLI default: OPENBLAS_NUM_THREADS=1" if env.get("openblas_defaulted") else ""
    return (f"blas: numpy {build('numpy_blas')} | scipy {build('scipy_blas')} | "
            f"threads: {threads or '?'}{default}")


def _counter_lines(counters: Dict[str, int]) -> List[str]:
    """The counter table, plus solver-health lines for the counted solves.

    ``solve.status.<code>`` counts every computed solve by optimizer exit
    status; any non-zero code (8: line search failed, 9: iteration cap, ...)
    is flagged, because its schedule is not a converged optimum.
    ``solve.blas.pinned``/``unpinned`` count the solves that ran on one BLAS
    thread or could not be pinned; an unpinned solve is flagged, because its
    numbers match a pinned solve's only within a tolerance.
    ``solve.slsqp.kernel``/``scipy`` count the solves that ran on scipy's
    compiled SLSQP kernel or through ``scipy.optimize.minimize``; the latter
    is flagged, because each such process paid for importing
    ``scipy.optimize`` (its plans are the same).
    """
    rows = [[name, value] for name, value in sorted(counters.items())]
    lines = ["", format_markdown_table(["counter", "value"], rows)]
    health: List[str] = []
    statuses = {name[len("solve.status."):]: value for name, value in counters.items()
                if name.startswith("solve.status.")}
    abnormal = {code: count for code, count in statuses.items() if code != "0" and count}
    if abnormal:
        detail = ", ".join(f"status {code} x{count}" for code, count in sorted(abnormal.items()))
        health.append(f"solver health: {sum(abnormal.values())} of {sum(statuses.values())} "
                      f"solves ended abnormally ({detail})")
    pinned = counters.get("solve.blas.pinned", 0)
    unpinned = counters.get("solve.blas.unpinned", 0)
    if pinned or unpinned:
        health.append(f"solver health: {pinned} solves on one BLAS thread, {unpinned} unpinned")
    if unpinned:
        health.append(f"warning: {unpinned} of {pinned + unpinned} solves ran with scipy's BLAS "
                      "threads unpinned; compare their results only with a tolerance")
    on_kernel = counters.get("solve.slsqp.kernel", 0)
    on_scipy = counters.get("solve.slsqp.scipy", 0)
    if on_kernel or on_scipy:
        health.append(f"solver health: {on_kernel} solves on scipy's SLSQP kernel, "
                      f"{on_scipy} through scipy.optimize")
    if on_scipy:
        health.append(f"warning: {on_scipy} of {on_kernel + on_scipy} solves ran through "
                      "scipy.optimize (no verified SLSQP kernel for this scipy); the plans are "
                      "the same, but each such process imported scipy.optimize")
    if health:
        lines += ["", *health]
    return lines


def _run_stats(args: argparse.Namespace) -> str:
    from .telemetry import aggregate_spans, read_jsonl, read_manifests

    store_dir = _resolve_store_dir(args.store)
    manifests = read_manifests(store_dir)
    sections: List[str] = []
    for manifest in manifests:
        created = datetime.fromtimestamp(manifest.get("created_unix", 0.0), tz=timezone.utc)
        dirty = " (dirty)" if manifest.get("git_dirty") else ""
        env = manifest.get("environment", {})
        lines = [
            f"== {manifest.get('scenario', '?')}",
            "",
            f"created: {created.strftime('%Y-%m-%d %H:%M:%S')} UTC | "
            f"git: {manifest.get('git_rev', 'unknown')[:12]}{dirty} | "
            f"config: {manifest.get('config_hash', '?')[:12]} | "
            f"store format: {manifest.get('store_format', '?')}",
            f"environment: python {env.get('python', '?')} | numpy {env.get('numpy', '?')} | "
            f"scipy {env.get('scipy', '?')} | {env.get('platform', '?')} | "
            f"cpus: {env.get('cpu_count', '?')}",
            _blas_line(env),
            f"units: computed={manifest.get('computed', 0)} "
            f"skipped={manifest.get('skipped', 0)} | "
            f"elapsed: {manifest.get('elapsed_seconds', 0.0):.2f}s",
        ]
        timings = manifest.get("stage_timings")
        if timings:
            rows: List[List[object]] = [
                [name, data["count"], f"{data['total_seconds']:.6f}"]
                for name, data in sorted(timings.items())
            ]
            lines += ["", format_markdown_table(["stage", "spans", "total_s"], rows)]
        counters = manifest.get("counters")
        if counters:
            lines += _counter_lines(counters)
        sections.append("\n".join(lines))
    if not sections:
        sections.append(f"store {store_dir}: no run manifests "
                        "(run `repro run ... --store` first)")
    if args.telemetry:
        spans: List[dict] = []
        counters_total: dict = {}
        records = read_jsonl(args.telemetry)
        for record in records:
            spans.extend(record["spans"])
            for name, value in record["counters"].items():
                counters_total[name] = counters_total.get(name, 0) + value
        lines = [f"== telemetry {args.telemetry} ({len(records)} run(s))"]
        aggregated = aggregate_spans(spans)
        if aggregated:
            rows = [[name, data["count"], f"{data['total_seconds']:.6f}"]
                    for name, data in sorted(aggregated.items())]
            lines += ["", format_markdown_table(["stage", "spans", "total_s"], rows)]
        if counters_total:
            lines += _counter_lines(counters_total)
        if not aggregated and not counters_total:
            lines.append("(no telemetry recorded)")
        sections.append("\n".join(lines))
    return "\n\n".join(sections)


def _run_store_ls(args: argparse.Namespace) -> str:
    from .scenarios import ResultStore

    store = ResultStore(_resolve_store_dir(args.store))
    entries = store.entries()
    if not entries:
        return f"store {store.root}: empty"
    rows: List[List[object]] = []
    for entry in entries:
        created = datetime.fromtimestamp(entry.created, tz=timezone.utc)
        rows.append([
            entry.key[:12],
            entry.scenario or "-",
            entry.label or "-",
            created.strftime("%Y-%m-%d %H:%M:%S"),
            "stale" if entry.stale else "ok",
            entry.size_bytes,
        ])
    table = format_markdown_table(
        ["key", "scenario", "label", "created (UTC)", "state", "bytes"], rows)
    return "\n".join([table, "", f"{len(entries)} record(s) in {store.root}"])


def _run_store_gc(args: argparse.Namespace) -> str:
    from .scenarios import ResultStore

    store = ResultStore(_resolve_store_dir(args.store))
    removed = store.gc(
        remove_all=args.all,
        older_than_days=args.older_than,
        stale_only=args.stale,
        dry_run=args.dry_run,
    )
    verb = "would remove" if args.dry_run else "removed"
    lines = [f"{verb} {entry.key[:12]}  {entry.scenario or '-'}  {entry.label or '-'}"
             for entry in removed]
    lines.append(f"{verb} {len(removed)} record(s) from {store.root}")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        output = args.runner(args)
    except ReproError as error:
        # Bad user input surfaces as a clean message; genuine library bugs
        # (anything not derived from ReproError) keep their traceback.
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(output)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
