"""ACS — the paper's average-case-aware offline voltage scheduler.

ACS ("Average-Case Scheduling" in the paper's experimental section) chooses,
for every sub-instance of the fully preemptive schedule, a planned end-time
and a worst-case cycle budget such that

* the schedule remains feasible when every job takes its worst-case execution
  cycles (WCEC), and
* the energy consumed when jobs take their *average-case* execution cycles
  (ACEC) — the common situation at runtime — is minimised under the greedy
  slack-reclamation DVS policy.

The optimisation is the reduced NLP of :mod:`repro.offline.nlp` (see that
module for the mapping to the paper's Section 3.2 formulation).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..analysis.preemption import FullyPreemptiveSchedule
from .base import VoltageScheduler
from .batched_solver import SolveMemo, solve_nlp
from .nlp import ReducedNLP, SolverOptions
from .schedule import StaticSchedule

__all__ = ["ACSScheduler"]


@dataclass
class ACSScheduler(VoltageScheduler):
    """Average-case-aware static voltage scheduler (the paper's contribution).

    Parameters
    ----------
    processor:
        The DVS processor model.
    options:
        Solver options forwarded to :class:`~repro.offline.nlp.ReducedNLP`.
    seed_with_wcs:
        When true (default) the solver is warm-started from the WCS solution,
        which makes the optimisation both faster and never worse than the
        baseline in terms of the average-case objective.
    """

    options: SolverOptions = field(default_factory=SolverOptions)
    seed_with_wcs: bool = True

    @property
    def name(self) -> str:
        return "acs"

    def schedule_expansion(self, expansion: FullyPreemptiveSchedule, *,
                           memo: Optional[SolveMemo] = None) -> StaticSchedule:
        """Solve the average-case NLP from several starting points and keep the best.

        SLSQP can stall on the piecewise-smooth objective depending on where it
        starts, so the solver is run from the default heuristic guess and — when
        ``seed_with_wcs`` is on — from the WCS solution.  The WCS schedule
        itself is also kept as a candidate (it is feasible for the ACS problem
        by construction), which guarantees that ACS is never worse than the
        baseline on the average-case objective.
        """
        nlp = ReducedNLP(expansion, self.processor, workload_mode="acec", options=self.options)
        plain = solve_nlp(nlp, memo=memo)
        if not self.seed_with_wcs:
            candidates = [plain]
        else:
            wcs_nlp = ReducedNLP(expansion, self.processor, workload_mode="wcec", options=self.options)
            wcs_schedule = solve_nlp(wcs_nlp, memo=memo)
            wcs_vectors = nlp.pack(wcs_schedule.end_times(), wcs_schedule.wc_budgets())
            seeded = solve_nlp(nlp, wcs_vectors, memo=memo)
            candidates = [plain, seeded, StaticSchedule.from_vectors(
                expansion, wcs_schedule.end_times(), wcs_schedule.wc_budgets(),
                method="acs",
                objective_value=float(nlp.objective(wcs_vectors)),
                metadata={**wcs_schedule.metadata, "seed": "wcs-as-is"},
            )]
        best = min(candidates, key=lambda schedule: schedule.objective_value)
        best.validate(self.processor)
        return best
