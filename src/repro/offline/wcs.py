"""WCS — the worst-case-only static voltage scheduler (the paper's baseline).

WCS is "the static scheduling method that only considers WCEC in obtaining the
scheduling": end-times and budgets are chosen to minimise the energy consumed
when every job takes its worst-case execution cycles.  At runtime the same
greedy slack-reclamation DVS runs on top of it, so WCS still benefits from
dynamic slack — just not as much as ACS, because its end-times were never
placed with the average case in mind.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..analysis.preemption import FullyPreemptiveSchedule
from .base import VoltageScheduler
from .batched_solver import SolveMemo, solve_nlp
from .nlp import ReducedNLP, SolverOptions
from .schedule import StaticSchedule

__all__ = ["WCSScheduler"]


@dataclass
class WCSScheduler(VoltageScheduler):
    """Worst-case-only static voltage scheduler (baseline the paper compares against)."""

    options: SolverOptions = field(default_factory=SolverOptions)

    @property
    def name(self) -> str:
        return "wcs"

    def schedule_expansion(self, expansion: FullyPreemptiveSchedule, *,
                           memo: Optional[SolveMemo] = None) -> StaticSchedule:
        nlp = ReducedNLP(expansion, self.processor, workload_mode="wcec", options=self.options)
        return solve_nlp(nlp, memo=memo)
