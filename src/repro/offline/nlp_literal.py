"""Literal transcription of the paper's NLP formulation (Section 3.2).

The decision variables are, for every sub-instance ``m`` of the fully
preemptive schedule (in total order):

========  =====================================================
``S_m``   average-case start time
``E_m``   end-time (shared between average and worst case)
``a_m``   average workload (cycles)
``w_m``   worst-case workload (cycles)
``Va_m``  supply voltage used for the average workload
``Vw_m``  supply voltage used for the worst-case workload
========  =====================================================

subject to the paper's constraints:

* (5)/(6)  release-time and deadline windows for ``S_m`` and ``E_m``;
* (7)      voltage range;
* (8)      worst-case chaining  ``E_m − E_{m−1} ≥ w_m · t_cycle(Vw_m)``;
* (9)      greedy-slack bound   ``S_m ≥ E_{m−1} − (w_{m−1}·t(Vw_{m−1}) − a_{m−1}·t(Va_{m−1}))``;
*          average-case fit     ``E_m − S_m ≥ a_m · t_cycle(Va_m)``;
* (10/11)  per-job workload conservation  ``Σ a = ACEC``, ``Σ w = WCEC``;
* (12)     ``0 ≤ a_m ≤ w_m``;
* (13/14)  the case-1/case-2 rule: when the cumulative worst-case budget up to
           ``m`` does not exceed the ACEC, the average workload must equal the
           worst-case workload (earlier sub-instances fill up first).

and the objective ``min Σ Ceff · a_m · Va_m²``.

This formulation has six variables per sub-instance and genuinely non-convex
constraints, so it only scales to small expansions; the reduced formulation in
:mod:`repro.offline.nlp` is the production path.  Both are cross-checked in
``tests/offline/test_nlp_literal.py``.

**When to use which:** use this module only as a correctness oracle — to
verify the reduced formulation reproduces the paper's optimum on a small
task set, or to inspect the paper's variables (voltages, average workloads)
directly.  Everything else — experiments, the CLI, the case studies — goes
through :mod:`repro.offline.nlp`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from ..analysis.preemption import FullyPreemptiveSchedule
from ..core.errors import SchedulingError
from ..core.workload import fill_average_workloads
from .base import VoltageScheduler
from .batched_solver import SolveMemo, solve_nlp
from .evaluation import evaluate_vectors
from .nlp import ReducedNLP, SolverOptions
from .schedule import StaticSchedule

__all__ = ["LiteralNLPScheduler"]

_BIG_M = 1e3


@dataclass
class LiteralNLPScheduler(VoltageScheduler):
    """Solve the paper's Section 3.2 formulation directly with SLSQP."""

    options: SolverOptions = field(default_factory=lambda: SolverOptions(maxiter=300))
    seed_with_reduced: bool = True

    @property
    def name(self) -> str:
        return "acs_literal"

    # ------------------------------------------------------------------ #
    # Variable layout: x = [S | E | a | w | Va | Vw], each block of length M.
    # ------------------------------------------------------------------ #
    def _blocks(self, x: np.ndarray, n: int) -> Tuple[np.ndarray, ...]:
        return tuple(x[i * n:(i + 1) * n] for i in range(6))

    def schedule_expansion(self, expansion: FullyPreemptiveSchedule, *,
                           memo: Optional[SolveMemo] = None) -> StaticSchedule:
        from scipy import optimize  # deferred like ReducedNLP.solve's

        subs = expansion.sub_instances
        n = len(subs)
        processor = self.processor

        ceff = np.array([sub.task.ceff for sub in subs])
        releases = np.array([sub.instance.release for sub in subs])
        slot_starts = np.array([sub.slot_start for sub in subs])
        slot_ends = np.array([sub.slot_end for sub in subs])
        wcecs = {inst.key: inst.wcec for inst in expansion.instances}
        acecs = {inst.key: inst.acec for inst in expansion.instances}

        def objective(x: np.ndarray) -> float:
            _, _, a, _, va, _ = self._blocks(x, n)
            return float(np.sum(ceff * a * va * va))

        def constraints_vector(x: np.ndarray) -> np.ndarray:
            s, e, a, w, va, vw = self._blocks(x, n)
            values: List[float] = []
            freq_a = np.array([processor.frequency(max(v, processor.vmin)) for v in va])
            freq_w = np.array([processor.frequency(max(v, processor.vmin)) for v in vw])
            # Average-case fit: (E − S)·f(Va) − a ≥ 0
            values.extend((e - s) * freq_a - a)
            # Worst-case chaining (8): release guard + chain over the total order.
            values.extend((e - slot_starts) * freq_w - w)
            values.extend((e[1:] - e[:-1]) * freq_w[1:] - w[1:])
            # Greedy-slack bound (9).
            wc_time = w / np.maximum(freq_w, 1e-12)
            avg_time = a / np.maximum(freq_a, 1e-12)
            values.extend(s[1:] - e[:-1] + wc_time[:-1] - avg_time[:-1])
            # a ≤ w (12).
            values.extend(w - a)
            # Case-1 rule (13/14): when the cumulative worst-case budget of the
            # job up to this sub-instance is below the ACEC, force a = w (from
            # below; a ≤ w caps it from above).
            for instance in expansion.instances:
                indices = [sub.order for sub in expansion.sub_instances_of(instance)]
                cumulative = 0.0
                for order in indices:
                    cumulative += w[order]
                    overshoot = max(0.0, cumulative - acecs[instance.key])
                    values.append(a[order] - w[order] + _BIG_M * overshoot)
            return np.asarray(values)

        def equality_vector(x: np.ndarray) -> np.ndarray:
            _, _, a, w, _, _ = self._blocks(x, n)
            values: List[float] = []
            for instance in expansion.instances:
                indices = [sub.order for sub in expansion.sub_instances_of(instance)]
                values.append(float(np.sum(a[indices])) - acecs[instance.key])
                values.append(float(np.sum(w[indices])) - wcecs[instance.key])
            return np.asarray(values)

        bounds: List[Tuple[float, float]] = []
        bounds.extend((releases[i], slot_ends[i]) for i in range(n))          # S
        bounds.extend((slot_starts[i], slot_ends[i]) for i in range(n))       # E
        for sub in subs:                                                       # a
            bounds.append((0.0, sub.instance.acec))
        for sub in subs:                                                       # w
            bounds.append((0.0, sub.instance.wcec))
        bounds.extend((processor.vmin, processor.vmax) for _ in range(n))      # Va
        bounds.extend((processor.vmin, processor.vmax) for _ in range(n))      # Vw

        x0 = self._initial_guess(expansion, memo)
        result = optimize.minimize(
            objective,
            x0,
            method="SLSQP",
            bounds=bounds,
            constraints=[
                {"type": "ineq", "fun": constraints_vector},
                {"type": "eq", "fun": equality_vector},
            ],
            options={"maxiter": self.options.maxiter, "ftol": self.options.ftol,
                     "disp": self.options.verbose},
        )

        _, e_opt, _, w_opt, _, _ = self._blocks(np.asarray(result.x, dtype=float), n)
        metadata = {
            "solver_status": int(result.status),
            "solver_message": str(result.message),
            "fallback": False,
            "formulation": "literal",
        }
        # Re-use the reduced solver's repair/fallback machinery for the output.
        reduced = ReducedNLP(expansion, processor, workload_mode="acec", options=self.options)
        repaired = reduced._repair(e_opt, w_opt)
        if repaired is not None:
            candidate = StaticSchedule.from_vectors(
                expansion, repaired[0], repaired[1], method=self.name,
                objective_value=float(result.fun), metadata=metadata,
            )
            try:
                candidate.validate(processor)
                return candidate
            except SchedulingError:
                pass
        metadata["fallback"] = True
        end_times, budgets = reduced.fallback_vectors()
        schedule = StaticSchedule.from_vectors(
            expansion, end_times, budgets, method=self.name, metadata=metadata,
        )
        schedule.validate(processor)
        return schedule

    # ------------------------------------------------------------------ #
    # Initial guess
    # ------------------------------------------------------------------ #
    def _initial_guess(self, expansion: FullyPreemptiveSchedule,
                       memo: Optional[SolveMemo]) -> np.ndarray:
        subs = expansion.sub_instances
        n = len(subs)
        processor = self.processor
        reduced = ReducedNLP(expansion, processor, workload_mode="acec", options=self.options)
        if self.seed_with_reduced:
            seed_schedule = solve_nlp(reduced, memo=memo)
        else:
            end_times, budgets = reduced.fallback_vectors()
            seed_schedule = StaticSchedule.from_vectors(expansion, end_times, budgets, method="seed")
        end_times = np.array(seed_schedule.end_times())
        budgets = np.array(seed_schedule.wc_budgets())

        averages = np.zeros(n)
        for instance in expansion.instances:
            indices = [sub.order for sub in expansion.sub_instances_of(instance)]
            fills = fill_average_workloads([budgets[i] for i in indices], instance.acec)
            for i, value in zip(indices, fills):
                averages[i] = value

        outcome = evaluate_vectors(expansion, end_times, budgets, processor)
        finishes = np.array(outcome.sub_finish_times)
        starts = np.empty(n)
        previous = 0.0
        for index, sub in enumerate(subs):
            starts[index] = max(sub.instance.release, previous)
            previous = max(previous, finishes[index])

        va = np.empty(n)
        vw = np.empty(n)
        for index, sub in enumerate(subs):
            available_wc = max(end_times[index] - max(starts[index], sub.slot_start), 1e-9)
            vw[index] = processor.voltage_for_frequency(budgets[index] / available_wc if budgets[index] > 0 else processor.fmin)
            available_avg = max(end_times[index] - starts[index], 1e-9)
            va[index] = processor.voltage_for_frequency(averages[index] / available_avg if averages[index] > 0 else processor.fmin)
        return np.concatenate([starts, end_times, averages, budgets, va, vw])
