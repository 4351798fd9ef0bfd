"""Per-core offline planning on top of a task-to-core partition.

A :class:`MulticoreProblem` couples a task set, a processor model (one
identical DVS processor per core — the homogeneous-multicore assumption), a
core count and a partitioning heuristic.  :func:`plan_multicore` then runs the
existing single-core offline pipeline *independently per core* — the same
:class:`~repro.offline.nlp.ReducedNLP` (with its compiled evaluation and
vectorized Jacobian) that powers the single-core reproduction — and returns a
:class:`MulticorePlan`: one :class:`~repro.offline.schedule.StaticSchedule`
per populated core.

The per-core problems are independent once the partition is fixed, so every
populated core is planned in one
:func:`~repro.offline.batched_solver.plan_expansions` call, the path the
experiment harness plans comparisons on.  Given a solve memo, a core whose
task set was solved before (by another core count or partitioner of a sweep,
or by an earlier run on the same store) costs one lookup, and the plan is
bitwise the unmemoized one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..analysis.preemption import expand_fully_preemptive
from ..core.errors import AllocationError
from ..core.taskset import TaskSet
from ..offline.batched_solver import SolveMemo, plan_expansions
from ..offline.schedule import StaticSchedule
from ..power.processor import ProcessorModel
from ..telemetry.core import current as _telemetry
from .partitioners import Partition, get_partitioner

__all__ = ["MulticoreProblem", "MulticorePlan", "plan_multicore"]


@dataclass(frozen=True)
class MulticoreProblem:
    """One partitioned-multiprocessor planning problem.

    Attributes
    ----------
    taskset:
        The global task set to distribute.
    processor:
        The (identical) DVS processor model of every core.
    n_cores:
        Number of cores ``m``.
    partitioner:
        Registry name of the allocation heuristic
        (see :func:`~repro.allocation.partitioners.available_partitioners`).
    method:
        Registry name of the offline scheduler run on every core
        (see :func:`~repro.experiments.harness.scheduler_names`).
    """

    taskset: TaskSet
    processor: ProcessorModel
    n_cores: int
    partitioner: str = "wfd"
    method: str = "acs"

    def __post_init__(self) -> None:
        if self.n_cores < 1:
            raise AllocationError(f"n_cores must be at least 1, got {self.n_cores}")

    def partition(self) -> Partition:
        """Run the configured partitioning heuristic (validated output)."""
        heuristic = get_partitioner(self.partitioner, self.processor)
        return heuristic.partition(self.taskset, self.n_cores)


@dataclass
class MulticorePlan:
    """Per-core static schedules over a validated partition.

    ``schedules[k]`` is the offline schedule of core ``k`` (``None`` for idle
    cores).  ``hyperperiod`` is the *global* hyperperiod of the parent task
    set; every populated core's own hyperperiod divides it, which is what lets
    the runtime simulate all cores over a common wall-clock horizon.
    """

    partition: Partition
    schedules: List[Optional[StaticSchedule]]
    method: str
    processor: ProcessorModel

    def __post_init__(self) -> None:
        if len(self.schedules) != self.partition.n_cores:
            raise AllocationError(
                f"plan has {len(self.schedules)} schedules for "
                f"{self.partition.n_cores} cores"
            )
        for core, (core_set, schedule) in enumerate(
                zip(self.partition.core_tasksets, self.schedules)):
            if (core_set is None) != (schedule is None):
                raise AllocationError(
                    f"core {core}: populated cores need a schedule and idle cores must not have one"
                )

    @property
    def n_cores(self) -> int:
        return self.partition.n_cores

    @property
    def hyperperiod(self) -> float:
        """The global frame: LCM of all task periods (not per-core)."""
        return self.partition.taskset.hyperperiod

    def hyperperiods_per_frame(self, core: int) -> int:
        """How many of core ``core``'s own hyperperiods fit in one global frame."""
        schedule = self.schedules[core]
        if schedule is None:
            raise AllocationError(f"core {core} is idle and has no schedule")
        ratio = self.hyperperiod / schedule.expansion.horizon
        repeats = round(ratio)
        if abs(ratio - repeats) > 1e-9 * max(1.0, ratio) or repeats < 1:
            raise AllocationError(
                f"core {core}: hyperperiod {schedule.expansion.horizon:g} does not "
                f"divide the global hyperperiod {self.hyperperiod:g}"
            )
        return repeats

    def describe(self) -> str:
        """Human-readable summary: the partition plus per-core schedule sizes."""
        lines = [self.partition.describe(),
                 f"method={self.method} global hyperperiod={self.hyperperiod:g}"]
        for core, schedule in enumerate(self.schedules):
            if schedule is None:
                continue
            lines.append(
                f"  core {core}: {len(schedule)} sub-instances, "
                f"horizon={schedule.expansion.horizon:g}, "
                f"objective={schedule.objective_value}"
            )
        return "\n".join(lines)


def plan_multicore(problem: MulticoreProblem, *, partition: Optional[Partition] = None,
                   memo: Optional[SolveMemo] = None) -> MulticorePlan:
    """Partition (unless one is given) and solve the per-core offline NLPs.

    Every populated core is planned in one
    :func:`~repro.offline.batched_solver.plan_expansions` call through
    ``memo`` (``None`` solves every NLP).  Each solve depends only on its
    own core's task set, so the plan is bitwise the same with or without a
    memo.
    """
    # Imported lazily: the experiments package itself builds on this module.
    from ..experiments.harness import make_schedulers

    resolved = partition if partition is not None else problem.partition()
    if resolved.n_cores != problem.n_cores:
        raise AllocationError(
            f"partition has {resolved.n_cores} cores but the problem asks for {problem.n_cores}"
        )
    populated = resolved.used_cores()
    methods = make_schedulers([problem.method], problem.processor)
    telemetry = _telemetry()
    telemetry.count("plan.multicore_cores", len(populated))
    with telemetry.span("plan.multicore"):
        planned = plan_expansions(
            [(expand_fully_preemptive(resolved.core_tasksets[core]), methods)
             for core in populated],
            memo=memo,
        )
    schedules: List[Optional[StaticSchedule]] = [None] * resolved.n_cores
    for core, plans in zip(populated, planned):
        schedules[core] = plans[problem.method]
    return MulticorePlan(
        partition=resolved,
        schedules=schedules,
        method=problem.method,
        processor=problem.processor,
    )
