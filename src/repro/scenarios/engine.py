"""Scenario engine: compile declarative specs down to the experiment harness.

The engine turns a :class:`~repro.scenarios.spec.ScenarioSpec` into work
units — picklable :class:`~repro.experiments.harness.ComparisonJob` batches
for ``comparison`` scenarios (executed through :func:`iter_comparisons`, so
``--jobs N`` keeps the bitwise serial/parallel guarantee),
per-``(m, partitioner)`` multicore plans for ``multicore`` scenarios, and the
motivation table for ``motivation`` ones.  It is the only sweep runner:
``repro run`` executes spec files here, and ``repro figure6a``, ``figure6b``,
``scalability`` and ``sweep`` build a scenario document and run it here.

A point's matrix-axis indices are the seed coordinates of its work units
(plus the repetition index for random task sets), so
``examples/scenarios/figure6a.toml`` is what ``repro figure6a`` runs, unit
for unit — and because every unit is keyed in the result store by a content
hash of its full signature, rerunning a finished or interrupted scenario
recomputes only the missing units.
"""

from __future__ import annotations

import copy
import functools
import itertools
from dataclasses import asdict, dataclass, field, is_dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..allocation.multicore import MulticoreProblem, plan_multicore
from ..core.errors import ExperimentError
from ..core.task import Task
from ..core.taskset import TaskSet
from ..experiments.harness import (
    ComparisonConfig,
    ComparisonJob,
    iter_comparisons,
    random_comparison_job,
)
from ..experiments.motivation import MotivationConfig, run_motivation
from ..experiments.seeding import SIMULATION_STREAM
from ..offline.batched_solver import resolve_solve_memo
from ..power.processor import ProcessorModel
from ..runtime.multicore import MulticoreRunner
from ..runtime.policies import get_policy
from ..runtime.simulator import SimulationConfig
from ..telemetry.core import current as _telemetry
from ..telemetry.core import map_counted
from ..utils.tables import format_markdown_table
from ..workloads.cnc import cnc_taskset
from ..workloads.gap import gap_taskset
from ..workloads.random_tasksets import RandomTaskSetConfig
from .spec import ScenarioError, ScenarioSpec, TasksetSpec, _set_dotted
from .store import STORE_FORMAT, MemoryStore, ResultStore, processor_signature, signature_key, solver_build

__all__ = [
    "ScenarioEngine",
    "ScenarioResult",
    "CompiledPoint",
    "CompiledScenario",
]


# --------------------------------------------------------------------- #
# Work-unit signatures (what the store hashes)
# --------------------------------------------------------------------- #
def _model_signature(model: Any) -> Dict[str, Any]:
    signature = dict(asdict(model)) if is_dataclass(model) else {}
    signature["type"] = type(model).__name__
    return signature


def _comparison_signature(job: ComparisonJob) -> Dict[str, Any]:
    from ..reporting.serialization import taskset_to_dict

    config = job.config
    signature: Dict[str, Any] = {
        "store_format": STORE_FORMAT,
        "kind": "comparison",
        "processor": processor_signature(job.processor),
        "schedulers": list(job.schedulers),
        "n_hyperperiods": config.n_hyperperiods,
        "seed": config.seed,
        "baseline": config.baseline,
        "fast_path": config.fast_path,
        "workload": _model_signature(config.workload),
        "policy": {"type": type(config.policy).__name__, "name": config.policy.name},
        "build": solver_build(),
    }
    # Added only when non-default so every pre-existing store hash is
    # preserved; trace-on payloads carry the event stream, hence must key
    # differently from trace-off ones.
    if config.trace:
        signature["trace"] = True
    if config.arrivals is not None:
        signature["arrivals"] = _model_signature(config.arrivals)
    if job.taskset is not None:
        signature["taskset"] = taskset_to_dict(job.taskset)
    else:
        signature["taskset_config"] = asdict(job.taskset_config)
        signature["taskset_seed"] = job.taskset_seed
        signature["taskset_index"] = job.taskset_index
    return signature


@dataclass(frozen=True)
class _MulticoreUnit:
    """One picklable ``(core count, partitioner)`` work unit."""

    processor: ProcessorModel
    taskset: TaskSet
    n_cores: int
    partitioner: str
    method: str
    policy: str
    n_hyperperiods: int
    seed: int
    fast_path: bool = True

    def signature(self) -> Dict[str, Any]:
        from ..reporting.serialization import taskset_to_dict

        return {
            "store_format": STORE_FORMAT,
            "kind": "multicore",
            "processor": processor_signature(self.processor),
            "taskset": taskset_to_dict(self.taskset),
            "n_cores": self.n_cores,
            "partitioner": self.partitioner,
            "method": self.method,
            "policy": self.policy,
            "n_hyperperiods": self.n_hyperperiods,
            "seed": self.seed,
            "fast_path": self.fast_path,
            "build": solver_build(),
        }


def _run_multicore_unit(unit: _MulticoreUnit, solve_memo_root: Optional[str] = None) -> Dict[str, Any]:
    """Worker entry point (module-level so the process pool can pickle it)."""
    from ..reporting.serialization import multicore_result_to_dict

    problem = MulticoreProblem(
        taskset=unit.taskset,
        processor=unit.processor,
        n_cores=unit.n_cores,
        partitioner=unit.partitioner,
        method=unit.method,
    )
    plan = plan_multicore(problem, memo=resolve_solve_memo(solve_memo_root))
    runner = MulticoreRunner(
        unit.processor,
        policy=unit.policy,
        config=SimulationConfig(n_hyperperiods=unit.n_hyperperiods, fast_path=unit.fast_path),
    )
    return multicore_result_to_dict(runner.run(plan, seed=unit.seed))


@dataclass(frozen=True)
class _MotivationUnit:
    """The motivation table as a (cheap, deterministic) work unit."""

    config: MotivationConfig

    def signature(self) -> Dict[str, Any]:
        return {
            "store_format": STORE_FORMAT,
            "kind": "motivation",
            "frame_length": self.config.frame_length,
            "wcec": self.config.wcec,
            "acec": self.config.acec,
            "bcec": self.config.bcec,
            "processor": processor_signature(self.config.resolved_processor()),
            "build": solver_build(),
        }


def _run_motivation_unit(unit: _MotivationUnit, solve_memo_root: Optional[str] = None) -> Dict[str, Any]:
    result = run_motivation(unit.config, memo=resolve_solve_memo(solve_memo_root))
    return {
        "wcs_end_times": list(result.wcs_end_times),
        "acs_end_times": list(result.acs_end_times),
        "wcs_worst_case_energy": result.wcs_worst_case_energy,
        "wcs_average_case_energy": result.wcs_average_case_energy,
        "acs_average_case_energy": result.acs_average_case_energy,
        "acs_worst_case_energy": result.acs_worst_case_energy,
        "improvement_average_case_percent": result.improvement_average_case_percent,
        "penalty_worst_case_percent": result.penalty_worst_case_percent,
    }


_Unit = Union[ComparisonJob, _MulticoreUnit, _MotivationUnit]

#: One expanded matrix cell: axis indices, axis values, and the resolved point spec.
_ExpandedPoint = Tuple[Tuple[int, ...], Dict[str, Any], ScenarioSpec]


# --------------------------------------------------------------------- #
# Compilation
# --------------------------------------------------------------------- #
@dataclass
class CompiledPoint:
    """One sweep point: its axis coordinates and the keys of its work units."""

    coords: Dict[str, Any]
    label: str
    unit_keys: List[str] = field(default_factory=list)


@dataclass
class CompiledScenario:
    """A spec lowered to content-addressed work units grouped into points."""

    spec: ScenarioSpec
    points: List[CompiledPoint]
    units: Dict[str, _Unit]


def build_taskset(spec: TasksetSpec, processor: ProcessorModel) -> TaskSet:
    """Materialise a fixed (non-random) task set described by a spec section."""
    if spec.source == "cnc":
        return cnc_taskset(processor, target_utilization=spec.utilization, bcec_wcec_ratio=spec.ratio)
    if spec.source == "gap":
        return gap_taskset(
            processor,
            target_utilization=spec.utilization,
            bcec_wcec_ratio=spec.ratio,
            n_tasks=spec.gap_tasks,
        )
    if spec.source == "explicit":
        try:
            tasks = [Task(**dict(entry)) for entry in spec.tasks]
        except TypeError as error:
            raise ScenarioError(f"taskset.tasks: {error}") from None
        taskset = TaskSet(tasks, name=spec.name)
        if not any("acec" in entry or "bcec" in entry for entry in spec.tasks):
            taskset = taskset.with_bcec_ratio(spec.ratio)
        return taskset
    raise ScenarioError(f"taskset source {spec.source!r} does not describe a fixed task set")


def _coord_label(coords: Dict[str, Any]) -> str:
    return " ".join(f"{key.split('.')[-1]}={value}" for key, value in coords.items())


class ScenarioEngine:
    """Compiles and executes scenarios against an optional result store."""

    def __init__(self, store: Optional[ResultStore] = None):
        self.store = store if store is not None else MemoryStore()

    # ------------------------------------------------------------------ #
    # Compile
    # ------------------------------------------------------------------ #
    def compile(self, spec: ScenarioSpec) -> CompiledScenario:
        """Expand the matrix and lower every point to keyed work units."""
        if spec.kind == "comparison":
            return self._compile_comparison(spec)
        if spec.kind == "multicore":
            return self._compile_multicore(spec)
        return self._compile_motivation(spec)

    def _expand_matrix(self, spec: ScenarioSpec) -> List["_ExpandedPoint"]:
        base = spec.to_dict()
        base.pop("matrix")
        expanded = []
        ranges = [range(len(values)) for _, values in spec.matrix]
        for coords_idx in itertools.product(*ranges):
            point_dict = copy.deepcopy(base)
            coords: Dict[str, Any] = {}
            for (key, values), index in zip(spec.matrix, coords_idx):
                _set_dotted(point_dict, key, values[index])
                coords[key] = values[index]
            point_dict["matrix"] = {}
            expanded.append((coords_idx, coords, ScenarioSpec.from_dict(point_dict)))
        return expanded

    def _compile_comparison(self, spec: ScenarioSpec) -> CompiledScenario:
        points: List[CompiledPoint] = []
        units: Dict[str, _Unit] = {}
        for coords_idx, coords, point_spec in self._expand_matrix(spec):
            processor = point_spec.power.build()
            simulation = point_spec.simulation
            config = ComparisonConfig(
                n_hyperperiods=simulation.hyperperiods,
                seed=simulation.seed,
                baseline=point_spec.offline.baseline,
                workload=point_spec.workload.build(),
                policy=get_policy(point_spec.online.policy),
                fast_path=simulation.fast_path,
                trace=simulation.trace,
                # None (not PeriodicArrivals) for the default keeps the
                # simulator's zero-overhead path and the store signature of
                # every pre-existing scenario unchanged.
                arrivals=None if point_spec.arrivals.model == "periodic"
                else point_spec.arrivals.build(),
            )
            methods = tuple(point_spec.offline.methods)
            point = CompiledPoint(coords=coords, label=_coord_label(coords) or spec.name)
            # A fixed source gives every repetition the same task set, so the
            # point's jobs share one (nothing assigns to a TaskSet after this).
            fixed = None
            if point_spec.taskset.source != "random":
                fixed = build_taskset(point_spec.taskset, processor)
            for repetition in range(simulation.repetitions):
                if fixed is None:
                    generator_kwargs: Dict[str, Any] = {
                        "n_tasks": point_spec.taskset.n_tasks,
                        "target_utilization": point_spec.taskset.utilization,
                        "bcec_wcec_ratio": point_spec.taskset.ratio,
                    }
                    if point_spec.taskset.periods is not None:
                        generator_kwargs["periods"] = point_spec.taskset.periods
                    job = random_comparison_job(
                        processor,
                        RandomTaskSetConfig(**generator_kwargs),
                        config,
                        *coords_idx,
                        repetition,
                        taskset_index=repetition,
                        schedulers=methods,
                    )
                else:
                    # A fixed task set with one repetition derives its seed from
                    # the point coordinates alone — exactly the Figure-6b path.
                    path = coords_idx if simulation.repetitions == 1 else (*coords_idx, repetition)
                    job = ComparisonJob(
                        processor=processor,
                        config=config.with_derived_seed(*path, SIMULATION_STREAM),
                        taskset=fixed,
                        schedulers=methods,
                    )
                key = signature_key(_comparison_signature(job))
                units[key] = job
                point.unit_keys.append(key)
            points.append(point)
        return CompiledScenario(spec=spec, points=points, units=units)

    def _compile_multicore(self, spec: ScenarioSpec) -> CompiledScenario:
        if spec.matrix:
            raise ScenarioError(
                "multicore scenarios use the native cores x partitioners grid; "
                "a [matrix] is not supported for this kind"
            )
        processor = spec.power.build()
        taskset = build_taskset(spec.taskset, processor)
        points: List[CompiledPoint] = []
        units: Dict[str, _Unit] = {}
        for n_cores in spec.multicore.cores:
            for partitioner in spec.multicore.partitioners:
                unit = _MulticoreUnit(
                    processor=processor,
                    taskset=taskset,
                    n_cores=n_cores,
                    partitioner=partitioner,
                    method=spec.offline.methods[0],
                    policy=spec.online.policy,
                    n_hyperperiods=spec.simulation.hyperperiods,
                    seed=spec.simulation.seed,
                    fast_path=spec.simulation.fast_path,
                )
                key = signature_key(unit.signature())
                units[key] = unit
                coords = {"multicore.cores": n_cores, "multicore.partitioner": partitioner}
                points.append(CompiledPoint(coords=coords, label=_coord_label(coords), unit_keys=[key]))
        return CompiledScenario(spec=spec, points=points, units=units)

    def _compile_motivation(self, spec: ScenarioSpec) -> CompiledScenario:
        unit = _MotivationUnit(
            config=MotivationConfig(
                frame_length=spec.motivation.frame_length,
                wcec=spec.motivation.wcec,
                acec=spec.motivation.acec,
                bcec=spec.motivation.bcec,
                processor=spec.power.build(),
            )
        )
        key = signature_key(unit.signature())
        point = CompiledPoint(coords={}, label=spec.name, unit_keys=[key])
        return CompiledScenario(spec=spec, points=[point], units={key: unit})

    # ------------------------------------------------------------------ #
    # Execute
    # ------------------------------------------------------------------ #
    def run(self, spec: ScenarioSpec, *, n_jobs: int = 1, force: bool = False) -> "ScenarioResult":
        """Execute a scenario, replaying stored units and computing the rest.

        ``force=True`` ignores (and overwrites) stored results.  Aggregates
        are always computed from the serialised payload form, so warm and
        cold runs are bitwise-identical.
        """
        if n_jobs < 1:
            raise ExperimentError("n_jobs must be at least 1")
        telemetry = _telemetry()
        # The stage timer replaces the old inline perf_counter pair: with
        # telemetry enabled the same ns interval is recorded as a
        # "scenario.run" span, so elapsed_seconds stays bitwise-derivable
        # from the span row.
        with telemetry.stage("scenario.run") as timer:
            with telemetry.span("scenario.compile"):
                compiled = self.compile(spec)
            labels = {key: point.label for point in compiled.points for key in point.unit_keys}
            payloads: Dict[str, Dict[str, Any]] = {}
            pending = []
            with telemetry.span("scenario.replay"):
                for key in compiled.units:
                    payload = None if force else self.store.get(key)
                    if payload is None:
                        pending.append(key)
                    else:
                        payloads[key] = payload
            telemetry.count("scenario.units_computed", len(pending))
            telemetry.count("scenario.units_replayed", len(compiled.units) - len(pending))
            with telemetry.span("scenario.execute"):
                payloads.update(self._execute_pending(compiled, pending, spec, labels, n_jobs))
            with telemetry.span("scenario.aggregate"):
                points = self.aggregate(compiled, payloads)
        return ScenarioResult(
            spec=spec,
            points=points,
            computed=len(pending),
            skipped=len(compiled.units) - len(pending),
            elapsed_seconds=timer.elapsed_seconds,
        )

    def _execute_pending(
        self,
        compiled: CompiledScenario,
        pending: Sequence[str],
        spec: ScenarioSpec,
        labels: Dict[str, str],
        n_jobs: int,
    ) -> Dict[str, Dict[str, Any]]:
        """Compute, persist and return the payload of every pending unit.

        Every finished unit is persisted the moment its result arrives (the
        executors are consumed lazily), so a run killed mid-sweep loses at
        most the units still in flight — that is the resume guarantee.
        """
        computed: Dict[str, Dict[str, Any]] = {}

        def persist(key: str, payload: Dict[str, Any]) -> None:
            self.store.put(key, payload, scenario=spec.name, label=labels[key])
            computed[key] = payload

        # A disk-backed store doubles as the solve memo's persistence root:
        # NLP solves land next to the unit payloads, so a killed sweep
        # resumes its offline planning for free.
        solve_memo_root = str(self.store.root) if isinstance(self.store, ResultStore) else None
        comparison_keys = [key for key in pending if isinstance(compiled.units[key], ComparisonJob)]
        if comparison_keys:
            from ..reporting.serialization import comparison_result_to_dict

            jobs = [compiled.units[key] for key in comparison_keys]
            results = iter_comparisons(jobs, n_jobs=n_jobs,
                                       solve_memo_root=solve_memo_root)
            for key, result in zip(comparison_keys, results):
                persist(key, comparison_result_to_dict(result))
        multicore_keys = [key for key in pending if isinstance(compiled.units[key], _MulticoreUnit)]
        run_unit = functools.partial(_run_multicore_unit, solve_memo_root=solve_memo_root)
        units = [compiled.units[key] for key in multicore_keys]
        for key, payload in zip(multicore_keys, map_counted(run_unit, units, n_jobs)):
            persist(key, payload)
        for key in pending:
            unit = compiled.units[key]
            if isinstance(unit, _MotivationUnit):
                persist(key, _run_motivation_unit(unit, solve_memo_root))
        return computed

    # ------------------------------------------------------------------ #
    # Aggregation (always from the serialised payload form)
    # ------------------------------------------------------------------ #
    def aggregate(
        self, compiled: CompiledScenario, payloads: Dict[str, Dict[str, Any]]
    ) -> List[Dict[str, Any]]:
        """Aggregate per-unit payloads into the scenario's point rows.

        ``payloads`` must cover every unit key of ``compiled``; because
        aggregation always reads the serialised payload form, it does not
        matter whether a payload was computed here or replayed from the
        store — the rows are bitwise-identical.
        """
        return [self._aggregate_point(compiled.spec, point, payloads) for point in compiled.points]

    def _aggregate_point(
        self,
        spec: ScenarioSpec,
        point: CompiledPoint,
        payloads: Dict[str, Dict[str, Any]],
    ) -> Dict[str, Any]:
        rows = [payloads[key] for key in point.unit_keys]
        if spec.kind == "comparison":
            methods: Dict[str, Dict[str, Any]] = {}
            for method in spec.offline.methods:
                energies = [row["methods"][method]["mean_energy_per_hyperperiod"] for row in rows]
                improvements = [row["methods"][method]["improvement_over_baseline_percent"] for row in rows]
                methods[method] = {
                    "mean_energy_per_hyperperiod": float(np.mean(energies)),
                    "mean_improvement_percent": float(np.mean(improvements)),
                    "std_improvement_percent": float(np.std(improvements)),
                    "deadline_misses": sum(row["methods"][method]["deadline_misses"] for row in rows),
                }
            return {
                "coords": dict(point.coords),
                "jobs": len(rows),
                "methods": methods,
                "deadline_misses": sum(entry["deadline_misses"] for entry in methods.values()),
            }
        if spec.kind == "multicore":
            (row,) = rows
            utilizations = list(row["core_utilizations"])
            return {
                "coords": dict(point.coords),
                "mean_energy_per_hyperperiod": row["mean_energy_per_hyperperiod"],
                "total_energy": row["total_energy"],
                "max_core_utilization": max(utilizations),
                "used_cores": sum(1 for value in utilizations if value > 0.0),
                "deadline_misses": row["deadline_misses"],
            }
        (row,) = rows
        return {"coords": dict(point.coords), **row}


# --------------------------------------------------------------------- #
# Results
# --------------------------------------------------------------------- #
@dataclass
class ScenarioResult:
    """Aggregated scenario outcome plus store bookkeeping.

    ``points`` holds plain dictionaries (the serialisable aggregate form);
    ``computed``/``skipped`` count work units executed versus replayed from
    the store.  Everything except ``elapsed_seconds`` is deterministic.
    """

    spec: ScenarioSpec
    points: List[Dict[str, Any]]
    computed: int
    skipped: int
    elapsed_seconds: float = 0.0

    def summary(self) -> str:
        return f"units: computed={self.computed} skipped={self.skipped}"

    def point(self, **coords: Any) -> Dict[str, Any]:
        """The point whose coords match every given ``field=value`` (last path segment)."""
        for candidate in self.points:
            short = {key.split(".")[-1]: value for key, value in candidate["coords"].items()}
            if all(short.get(name) == value for name, value in coords.items()):
                return candidate
        raise KeyError(coords)

    def to_markdown(self) -> str:
        if self.spec.kind == "comparison":
            return self._comparison_markdown()
        if self.spec.kind == "multicore":
            return self._multicore_markdown()
        return self._motivation_markdown()

    def _comparison_markdown(self) -> str:
        axis_keys = [key for key, _ in self.spec.matrix]
        methods = list(self.spec.offline.methods)
        improving = [method for method in methods if method != self.spec.offline.baseline]
        headers = (
            [key.split(".")[-1] for key in axis_keys]
            + [f"{method} energy" for method in methods]
            + [f"{method} improvement %" for method in improving]
            + ["misses"]
        )
        rows = []
        for point in self.points:
            row: List[Any] = [point["coords"][key] for key in axis_keys]
            row += [point["methods"][method]["mean_energy_per_hyperperiod"] for method in methods]
            row += [point["methods"][method]["mean_improvement_percent"] for method in improving]
            row.append(point["deadline_misses"])
            rows.append(row)
        return format_markdown_table(headers, rows)

    def _multicore_markdown(self) -> str:
        cores = list(self.spec.multicore.cores)
        baseline_cores = 1 if 1 in cores else min(cores)
        baseline_energy = {
            point["coords"]["multicore.partitioner"]: point["mean_energy_per_hyperperiod"]
            for point in self.points
            if point["coords"]["multicore.cores"] == baseline_cores
        }
        headers = [
            "cores",
            "partitioner",
            "energy / hyperperiod",
            f"improvement vs m={baseline_cores} %",
            "max core util",
            "used cores",
            "misses",
        ]
        rows = []
        for point in self.points:
            partitioner = point["coords"]["multicore.partitioner"]
            reference = baseline_energy[partitioner]
            energy = point["mean_energy_per_hyperperiod"]
            improvement = 100.0 * (reference - energy) / reference if reference > 0 else 0.0
            rows.append(
                [
                    point["coords"]["multicore.cores"],
                    partitioner,
                    energy,
                    improvement,
                    point["max_core_utilization"],
                    point["used_cores"],
                    point["deadline_misses"],
                ]
            )
        return format_markdown_table(headers, rows)

    def _motivation_markdown(self) -> str:
        (point,) = self.points
        improvement = point["improvement_average_case_percent"]
        penalty = point["penalty_worst_case_percent"]
        table = format_markdown_table(
            ["scenario", "end-times", "workload", "energy"],
            [
                ["static schedule", "WCS", "WCEC", point["wcs_worst_case_energy"]],
                ["runtime (greedy)", "WCS", "ACEC", point["wcs_average_case_energy"]],
                ["runtime (greedy)", "ACS", "ACEC", point["acs_average_case_energy"]],
                ["worst case under ACS", "ACS", "WCEC", point["acs_worst_case_energy"]],
            ],
        )
        return "\n".join(
            [
                table,
                "",
                f"average-case improvement of ACS end-times: {improvement:.1f}%",
                f"worst-case penalty of ACS end-times:       {penalty:.1f}%",
            ]
        )
