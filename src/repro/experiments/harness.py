"""Experiment harness: schedule task sets with several methods and simulate them.

This is the glue the paper's evaluation needs: for a given task set it

1. expands the hyperperiod once,
2. runs every requested offline scheduler on the same expansion,
3. simulates every resulting static schedule with the same random workload
   realisations (common random numbers, so the comparison is paired), and
4. reports per-method runtime energy plus the percentage improvement of every
   method over a chosen baseline (WCS in the paper).

On top of the single-taskset :func:`compare_schedulers`, the harness provides
a **batched, multiprocess runner**: a sweep is described as a list of
picklable :class:`ComparisonJob` work units and executed by
:func:`iter_comparisons`, serially or on a :class:`concurrent.futures`
process pool.  Every job carries its own explicitly derived RNG seeds (see
:mod:`repro.experiments.seeding`), so the results are bitwise-identical
regardless of worker count or completion order.  Both entry points share one
executor, which plans a chunk of comparisons through the solve memo (each
distinct problem once) and then simulates all of its units in one
:func:`~repro.runtime.batched.simulate_batch` call.
"""

from __future__ import annotations

import copy
import functools
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..analysis.preemption import expand_fully_preemptive
from ..core.errors import ExperimentError
from ..core.taskset import TaskSet
from ..offline.acs import ACSScheduler
from ..offline.base import VoltageScheduler
from ..offline.baselines import ConstantSpeedScheduler, MaxSpeedScheduler
from ..offline.batched_solver import SolveMemo, default_solve_memo, plan_expansions, plan_key
from ..offline.schedule import StaticSchedule
from ..offline.wcs import WCSScheduler
from ..power.processor import ProcessorModel
from ..runtime.batched import BatchUnit, simulate_batch
from ..runtime.policies import DVSPolicy, GreedySlackPolicy
from ..runtime.results import SimulationResult, improvement_percent
from ..runtime.simulator import SimulationConfig
from ..workloads.arrivals import ArrivalModel
from ..workloads.distributions import NormalWorkload, WorkloadModel
from ..telemetry.core import current as _telemetry
from ..telemetry.core import map_counted
from ..workloads.random_tasksets import RandomTaskSetConfig, generate_random_taskset
from .seeding import SIMULATION_STREAM, TASKSET_STREAM, derive_rng, derive_seed

__all__ = [
    "CHUNK_SLICE_THRESHOLD",
    "ComparisonConfig",
    "MethodOutcome",
    "ComparisonResult",
    "ComparisonJob",
    "compare_schedulers",
    "iter_comparisons",
    "random_comparison_job",
    "default_schedulers",
    "make_schedulers",
    "scheduler_names",
]


@dataclass(frozen=True)
class ComparisonConfig:
    """Settings shared by every method in one comparison.

    The ``seed`` is the *explicit* seed of this comparison's workload
    generator: every method replays exactly the same draws (paired
    comparison), and two runs with the same seed are bit-identical.  Sweeps
    must not draw these seeds from a shared generator — derive them from the
    work unit's coordinates with :meth:`with_derived_seed` so the value is
    independent of execution order (serial and parallel runs then agree).
    """

    n_hyperperiods: int = 50
    seed: Optional[int] = 12345
    baseline: str = "wcs"
    workload: WorkloadModel = field(default_factory=NormalWorkload)
    policy: DVSPolicy = field(default_factory=GreedySlackPolicy)
    simulation: SimulationConfig = None
    #: Run the fast simulation paths (identical results either way; ``False``
    #: pins the reference loop, e.g. for equivalence sweeps).  Only
    #: consulted when ``simulation`` is unset — an explicit
    #: :class:`SimulationConfig` carries its own ``fast_path`` and wins.
    fast_path: bool = True
    #: Record the typed event stream on every method's
    #: :class:`~repro.runtime.results.SimulationResult` (see
    #: :mod:`repro.runtime.trace`).  Traced units take the compiled loop.
    #: Only consulted when ``simulation`` is unset.
    trace: bool = False
    #: Optional arrival model perturbing the job releases (``None`` is the
    #: paper's strictly periodic model).  Only consulted when ``simulation``
    #: is unset.
    arrivals: Optional["ArrivalModel"] = None

    def simulation_config(self) -> SimulationConfig:
        if self.simulation is not None:
            return self.simulation
        return SimulationConfig(n_hyperperiods=self.n_hyperperiods, seed=self.seed,
                                fast_path=self.fast_path, trace=self.trace,
                                arrivals=self.arrivals)

    def with_derived_seed(self, *path: int) -> "ComparisonConfig":
        """A copy whose seed is derived from ``(self.seed, *path)``.

        ``path`` is the stable integer coordinate of the work unit,
        conventionally ending with a stream tag — e.g. ``(point_index,
        sample_index, seeding.SIMULATION_STREAM)`` — so simulation seeds can
        never collide with the task-set generation stream.  A ``None`` seed
        stays ``None``.  This is how the scenario engine seeds every work
        unit; see :mod:`repro.experiments.seeding`.
        """
        if self.seed is None:
            return self
        return replace(self, seed=derive_seed(self.seed, *path))


@dataclass
class MethodOutcome:
    """Static schedule plus simulated runtime energy of one method."""

    method: str
    schedule: StaticSchedule
    simulation: SimulationResult

    @property
    def mean_energy(self) -> float:
        return self.simulation.mean_energy_per_hyperperiod


@dataclass
class ComparisonResult:
    """Outcome of :func:`compare_schedulers` on one task set."""

    taskset_name: str
    outcomes: Dict[str, MethodOutcome]
    baseline: str

    def energy(self, method: str) -> float:
        return self.outcomes[method].mean_energy

    def improvement_over_baseline(self, method: str) -> float:
        """Percentage energy reduction of ``method`` relative to the baseline."""
        baseline_energy = self.energy(self.baseline)
        return improvement_percent(baseline_energy, self.energy(method))

    def methods(self) -> List[str]:
        return list(self.outcomes)

    def rows(self) -> List[List[object]]:
        """Table rows: method, mean energy, improvement over baseline, misses."""
        result = []
        for method, outcome in self.outcomes.items():
            result.append([
                method,
                outcome.mean_energy,
                self.improvement_over_baseline(method),
                outcome.simulation.miss_count,
            ])
        return result


# --------------------------------------------------------------------- #
# Scheduler registry
# --------------------------------------------------------------------- #
_SCHEDULER_FACTORIES = {
    "wcs": WCSScheduler,
    "acs": ACSScheduler,
    "max_speed": MaxSpeedScheduler,
    "constant_speed": ConstantSpeedScheduler,
}


def scheduler_names() -> Tuple[str, ...]:
    """Registry names accepted by :func:`make_schedulers` (and the CLI)."""
    return tuple(sorted(_SCHEDULER_FACTORIES))


def make_schedulers(names: Sequence[str], processor: ProcessorModel) -> Dict[str, VoltageScheduler]:
    """Instantiate schedulers from registry names (order preserved).

    Sweep work units ship scheduler *names* rather than instances so that the
    units stay small and trivially picklable for the process pool.
    """
    unknown = [name for name in names if name not in _SCHEDULER_FACTORIES]
    if unknown:
        raise ExperimentError(
            f"unknown schedulers {unknown}; known: {sorted(_SCHEDULER_FACTORIES)}"
        )
    return {name: _SCHEDULER_FACTORIES[name](processor) for name in names}


def default_schedulers(processor: ProcessorModel) -> Dict[str, VoltageScheduler]:
    """The pair the paper compares: ACS against the WCS baseline."""
    return {"wcs": WCSScheduler(processor), "acs": ACSScheduler(processor)}


# --------------------------------------------------------------------- #
# Comparison executor
# --------------------------------------------------------------------- #
def _resolve_solve_memo(solve_memo_root: Optional[str]) -> SolveMemo:
    """The solve memo for a worker: persistent when a store root is given.

    A root (the scenario result store's directory, as a picklable string)
    gives every worker process its own :class:`SolveMemo` view onto the same
    on-disk store — puts are atomic, so concurrent workers cooperate instead
    of clashing, and a resumed sweep finds its solves.  The memo lives in a
    ``solve-memo/`` subdirectory so the scenario store's own record listing
    and garbage collection keep seeing only scenario payloads.  Without a
    root the process-wide in-memory memo still deduplicates within the run.
    """
    if solve_memo_root is None:
        return default_solve_memo()
    from ..scenarios.store import ResultStore

    # The memo's backing store tallies its own telemetry family, so scenario
    # payload traffic and solve-memo traffic stay separable in a counter dump.
    return SolveMemo(
        ResultStore(Path(solve_memo_root) / "solve-memo", telemetry_prefix="solve_memo_store")
    )


#: Telemetry counter: comparisons that reused an identical comparison's plan.
_PLAN_SHARED = "plan.shared"

#: One comparison as the executor takes it: the task set, the processor, the
#: ``{name: scheduler}`` methods (baseline included) and the shared settings.
_Entry = Tuple[TaskSet, ProcessorModel, Mapping[str, VoltageScheduler], ComparisonConfig]


def _compare_chunk(entries: Sequence[_Entry], solve_memo: SolveMemo) -> List[ComparisonResult]:
    """Plan, then simulate, a chunk of comparisons; one result per entry, in order.

    Entries whose planning inputs are equal (same :func:`plan_key`: task set,
    processor, and every method's name and scheduler configuration) form one
    group.  Each group is expanded and planned once, by its first member, and
    every member receives the group's schedules — one read-only
    :class:`StaticSchedule` per method, shared.  Planning is a single
    :func:`plan_expansions` call over the distinct groups, so their NLP
    solves share the solve memo.

    Every ``(entry, method)`` pair becomes one :class:`BatchUnit` with its
    own deep-copied policy (a stateful policy must not leak one method's
    runtime history into the next method's simulation) and its own generator
    seeded with the entry's ``cfg.seed`` (paired comparison: every method
    sees the same workload realisations).  The units advance together
    through one :func:`simulate_batch` call, which runs each unit the
    vectorized core cannot reproduce on its own scalar loop.  Results are
    bitwise-identical to one ``DVSSimulator.run`` per unit, and for any
    chunking of the same entries.
    """
    for _, _, methods, cfg in entries:
        if cfg.baseline not in methods:
            raise ExperimentError(
                f"baseline {cfg.baseline!r} is not among the schedulers {sorted(methods)}"
            )
    group_of: List[int] = []
    leaders: List[int] = []
    groups: Dict[str, int] = {}
    for index, (taskset, processor, methods, _) in enumerate(entries):
        key = plan_key(taskset, processor, methods)
        group = len(leaders) if key is None else groups.setdefault(key, len(leaders))
        if group == len(leaders):
            leaders.append(index)
        group_of.append(group)
    if len(leaders) < len(entries):
        _telemetry().count(_PLAN_SHARED, len(entries) - len(leaders))
    planned = plan_expansions(
        [(expand_fully_preemptive(taskset), methods)
         for taskset, _, methods, _ in (entries[index] for index in leaders)],
        memo=solve_memo,
    )

    units: List[BatchUnit] = []
    for (_, processor, _, cfg), group in zip(entries, group_of):
        sim_config = cfg.simulation_config()
        units.extend(
            BatchUnit(schedule=schedule, processor=processor,
                      policy=copy.deepcopy(cfg.policy), config=sim_config,
                      workload=cfg.workload, rng=np.random.default_rng(cfg.seed))
            for schedule in planned[group].values())
    with _telemetry().span("sim.comparison"):
        simulations = simulate_batch(units)

    results: List[ComparisonResult] = []
    cursor = iter(simulations)
    for (taskset, _, _, cfg), group in zip(entries, group_of):
        outcomes = {
            name: MethodOutcome(method=name, schedule=schedule, simulation=next(cursor))
            for name, schedule in planned[group].items()
        }
        results.append(ComparisonResult(taskset_name=taskset.name, outcomes=outcomes,
                                        baseline=cfg.baseline))
    return results


def compare_schedulers(taskset: TaskSet, processor: ProcessorModel,
                       schedulers: Optional[Dict[str, VoltageScheduler]] = None,
                       config: Optional[ComparisonConfig] = None,
                       solve_memo: Optional[SolveMemo] = None) -> ComparisonResult:
    """Schedule ``taskset`` with every scheduler and simulate all of them with paired randomness."""
    entry = (taskset, processor, schedulers or default_schedulers(processor),
             config or ComparisonConfig())
    (result,) = _compare_chunk(
        [entry], solve_memo if solve_memo is not None else default_solve_memo())
    return result


# --------------------------------------------------------------------- #
# Batched, multiprocess execution
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class ComparisonJob:
    """One self-contained, picklable work unit of a sweep.

    Either an explicit ``taskset`` is given (case studies, fixed sets), or a
    ``taskset_config`` plus ``taskset_seed`` describe a random task set that
    the worker generates itself — the generation RNG is derived from the seed
    alone, so the same unit always produces the same task set no matter which
    process runs it, or when.
    """

    processor: ProcessorModel
    config: ComparisonConfig
    taskset: Optional[TaskSet] = None
    taskset_config: Optional[RandomTaskSetConfig] = None
    taskset_seed: Optional[int] = None
    taskset_index: int = 0
    schedulers: Tuple[str, ...] = ("wcs", "acs")

    def __post_init__(self) -> None:
        if (self.taskset is None) == (self.taskset_config is None):
            raise ExperimentError(
                "exactly one of taskset / taskset_config must be given"
            )
        if self.taskset_config is not None and self.taskset_seed is None:
            raise ExperimentError("a random-taskset job needs an explicit taskset_seed")

    def resolve_taskset(self) -> TaskSet:
        if self.taskset is not None:
            return self.taskset
        rng = derive_rng(self.taskset_seed)
        return generate_random_taskset(self.taskset_config, self.processor, rng,
                                       index=self.taskset_index)


def random_comparison_job(processor: ProcessorModel, taskset_config: RandomTaskSetConfig,
                          config: ComparisonConfig, *path: int, taskset_index: int = 0,
                          schedulers: Tuple[str, ...] = ("wcs", "acs")) -> ComparisonJob:
    """Build the work unit for one random task set at sweep coordinate ``path``.

    This is the one place that encodes the seed-pairing convention: the
    simulation seed is ``config.seed`` derived over ``(*path,
    SIMULATION_STREAM)`` and the task-set generation seed over ``(*path,
    TASKSET_STREAM)``.  Every random sweep (Figure 6a, ``repro sweep``) must
    construct its units through here so the serial/parallel determinism
    guarantee cannot diverge between callers.
    """
    if config.seed is None:
        raise ExperimentError("random_comparison_job needs a non-None config.seed to derive from")
    return ComparisonJob(
        processor=processor,
        config=config.with_derived_seed(*path, SIMULATION_STREAM),
        taskset_config=taskset_config,
        taskset_seed=derive_seed(config.seed, *path, TASKSET_STREAM),
        taskset_index=taskset_index,
        schedulers=tuple(schedulers),
    )


def _run_chunk(jobs: Sequence[ComparisonJob],
               solve_memo_root: Optional[str] = None) -> List[ComparisonResult]:
    """Worker entry point (module-level so the process pool can pickle it)."""
    entries = [(job.resolve_taskset(), job.processor,
                make_schedulers(job.schedulers, job.processor), job.config)
               for job in jobs]
    return _compare_chunk(entries, _resolve_solve_memo(solve_memo_root))


#: Chunking rule of :func:`iter_comparisons`, in simulation units (jobs x
#: scheduler methods).  A sweep of at least this many units runs as one
#: contiguous slice of jobs per worker (one chunk in-process), so each
#: ``simulate_batch`` call is wide; a smaller sweep runs one job per chunk,
#: so a cold run spreads its solves over the workers and stores each result
#: as soon as its job finishes.  Both sides win on a measured shape (see
#: docs/architecture.md).
CHUNK_SLICE_THRESHOLD = 200


def iter_comparisons(jobs: Sequence[ComparisonJob], n_jobs: int = 1,
                     solve_memo_root: Optional[str] = None) -> Iterator[ComparisonResult]:
    """Execute comparison jobs, yielding each result as soon as it is known.

    ``n_jobs=1`` runs in-process; ``n_jobs>1`` fans the chunks out over a
    :class:`ProcessPoolExecutor`.  Results arrive in submission order and
    are bitwise-identical for any ``n_jobs``, because every job derives its
    randomness from its own coordinates.  A ``solve_memo_root`` (the
    scenario store's directory) makes the offline solve memo persistent, so
    resumed or repeated sweeps skip solved NLPs.  Streaming is what lets
    incremental consumers (the scenario result store) persist every
    finished unit immediately, so a run killed mid-sweep loses at most the
    units still in flight.

    Jobs run in chunks, each simulated by one ``simulate_batch`` call.  At
    :data:`CHUNK_SLICE_THRESHOLD` simulation units or more, a chunk is all
    jobs in-process, or one contiguous slice per worker on the pool; the
    trade-off is coarser streaming (a chunk's results all arrive when the
    chunk completes).  Below it every job is its own chunk.  Only the jobs
    passed in count, so a resumed sweep is chunked by its pending units.
    """
    if n_jobs < 1:
        raise ExperimentError("n_jobs must be at least 1")
    jobs = list(jobs)
    if sum(len(job.schedulers) for job in jobs) >= CHUNK_SLICE_THRESHOLD:
        workers = min(n_jobs, len(jobs))
        # Slices, not strides: jobs[w::workers] would reorder the results.
        bounds = [index * len(jobs) // workers for index in range(workers + 1)]
        chunks = [jobs[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    else:
        chunks = [[job] for job in jobs]
    run_chunk = functools.partial(_run_chunk, solve_memo_root=solve_memo_root)
    if n_jobs == 1 or len(chunks) <= 1:
        for chunk in chunks:
            yield from run_chunk(chunk)
        return
    with ProcessPoolExecutor(max_workers=min(n_jobs, len(chunks))) as pool:
        for results in map_counted(pool, run_chunk, chunks):
            yield from results

