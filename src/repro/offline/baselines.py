"""Additional non-NLP baselines.

The paper compares ACS only against WCS, but two more reference points are
useful when interpreting the numbers (and are standard in the DVS literature):

* :class:`MaxSpeedScheduler` — "no DVS": the static schedule packs every job
  as early as possible at maximum speed.  With greedy reclamation on top, the
  runtime still runs everything at (almost) full speed because the planned
  end-times leave no stretch room.  This gives the energy ceiling.
* :class:`ConstantSpeedScheduler` — the classic static slowdown (e.g. the
  static part of Pillai & Shin's RT-DVS): run the worst case at the breakdown
  frequency, i.e. the slowest constant speed that keeps the task set
  schedulable, and derive end-times from that schedule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..analysis.preemption import FullyPreemptiveSchedule
from ..analysis.response_time import breakdown_frequency
from ..core.errors import InfeasibleTaskSetError
from .base import VoltageScheduler
from .batched_solver import SolveMemo
from .initialization import worst_case_simulation_vectors
from .schedule import StaticSchedule

__all__ = ["MaxSpeedScheduler", "ConstantSpeedScheduler"]


@dataclass
class MaxSpeedScheduler(VoltageScheduler):
    """Packs the worst case at maximum speed ("no DVS" reference point)."""

    @property
    def name(self) -> str:
        return "max_speed"

    def schedule_expansion(self, expansion: FullyPreemptiveSchedule, *,
                           memo: Optional[SolveMemo] = None) -> StaticSchedule:
        end_times, budgets = worst_case_simulation_vectors(expansion, self.processor)
        schedule = StaticSchedule.from_vectors(
            expansion, end_times, budgets, method=self.name,
            metadata={"frequency": self.processor.fmax},
        )
        schedule.validate(self.processor)
        return schedule


@dataclass
class ConstantSpeedScheduler(VoltageScheduler):
    """Runs the worst case at the breakdown (slowest feasible constant) frequency.

    Parameters
    ----------
    frequency:
        Optional explicit constant frequency.  When omitted, the breakdown
        frequency of the task set is used.
    """

    frequency: Optional[float] = None

    @property
    def name(self) -> str:
        return "constant_speed"

    def schedule_expansion(self, expansion: FullyPreemptiveSchedule, *,
                           memo: Optional[SolveMemo] = None) -> StaticSchedule:
        frequency = self.frequency
        if frequency is None:
            frequency = breakdown_frequency(expansion.taskset, self.processor)
            if frequency is None:
                raise InfeasibleTaskSetError(
                    f"task set {expansion.taskset.name!r} is not schedulable even at maximum speed"
                )
        end_times, budgets = worst_case_simulation_vectors(expansion, self.processor, frequency)
        schedule = StaticSchedule.from_vectors(
            expansion, end_times, budgets, method=self.name,
            metadata={"frequency": frequency},
        )
        schedule.validate(self.processor)
        return schedule
