"""Common interface for offline voltage schedulers."""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Optional

from ..analysis.preemption import FullyPreemptiveSchedule, expand_fully_preemptive
from ..core.taskset import TaskSet
from ..power.processor import ProcessorModel
from .batched_solver import SolveMemo
from .schedule import StaticSchedule

__all__ = ["VoltageScheduler"]


@dataclass
class VoltageScheduler(ABC):
    """Base class for every offline voltage scheduler.

    A scheduler turns a task set (or a pre-computed fully preemptive
    expansion) into a :class:`StaticSchedule`.  Subclasses implement
    :meth:`schedule_expansion`; the convenience :meth:`schedule` expands the
    task set first.
    """

    processor: ProcessorModel

    @property
    def name(self) -> str:
        """Short identifier used in reports (e.g. ``"acs"``)."""
        return type(self).__name__.replace("Scheduler", "").lower()

    def schedule(self, taskset: TaskSet, horizon: Optional[float] = None) -> StaticSchedule:
        """Expand ``taskset`` over one hyperperiod (or ``horizon``) and schedule it."""
        expansion = expand_fully_preemptive(taskset, horizon)
        return self.schedule_expansion(expansion)

    @abstractmethod
    def schedule_expansion(self, expansion: FullyPreemptiveSchedule, *,
                           memo: Optional[SolveMemo] = None) -> StaticSchedule:
        """Compute the static schedule for an existing expansion.

        Schedulers built on :class:`~repro.offline.nlp.ReducedNLP` solve
        through :func:`~repro.offline.batched_solver.solve_nlp`, which
        answers each solve from ``memo`` when it holds it; the others ignore
        ``memo``.  Either way the schedule is bitwise the unmemoized one.
        """
