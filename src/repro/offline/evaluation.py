"""Analytic (total-order) evaluation of a static schedule.

Given the end-times ``E`` and worst-case budgets ``w`` of every sub-instance,
this module predicts the runtime behaviour under the paper's greedy
slack-reclamation DVS for a *given* realisation of the actual execution cycles
of each job — without running the event-driven simulator.  It propagates
completion times along the total order of the fully preemptive schedule:

* a sub-instance starts at ``max(its slot start, previous finish)`` — its
  worst-case budget only becomes available once the higher-priority release
  that defines the slot has happened, which is what keeps the worst case
  feasible (constraint (9) of the paper bounds early starts by exactly the
  slack of the previous sub-instance in the total order);
* its speed is the one the online DVS would pick: worst-case budget over the
  time left until its planned end-time, clipped to the processor range;
* it executes the cycles the sequential-fill rule assigns to it and finishes
  accordingly; the saved time is automatically inherited by the next
  sub-instance in the order (greedy reclamation).

This evaluator is the objective function of the reduced ACS formulation (with
actual = ACEC) and of the WCS baseline (actual = WCEC); it is also a handy
cross-check against the discrete-event simulator (see
``tests/integration/test_simulator_vs_analytic.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..analysis.preemption import FullyPreemptiveSchedule
from ..core.errors import SchedulingError
from ..power.processor import ProcessorModel
from .schedule import StaticSchedule

__all__ = [
    "AnalyticOutcome",
    "CompiledEvaluation",
    "evaluate_vectors",
    "evaluate_schedule",
    "worst_case_energy",
    "average_case_energy",
]

_EPS = 1e-12


@dataclass
class AnalyticOutcome:
    """Result of an analytic evaluation of one hyperperiod."""

    energy: float
    finish_times: Dict[str, float]
    sub_finish_times: List[float]
    deadline_misses: List[str]

    @property
    def feasible(self) -> bool:
        return not self.deadline_misses


def evaluate_vectors(expansion: FullyPreemptiveSchedule, end_times: Sequence[float],
                     wc_budgets: Sequence[float], processor: ProcessorModel,
                     actual_cycles: Optional[Dict[str, float]] = None,
                     *, collect_details: bool = True) -> AnalyticOutcome:
    """Propagate one hyperperiod analytically.

    Parameters
    ----------
    expansion:
        The fully preemptive expansion (defines the total order and jobs).
    end_times / wc_budgets:
        Planned end-time and worst-case budget per sub-instance, in total order.
    processor:
        The DVS processor model.
    actual_cycles:
        Mapping from job key (``"T1[0]"``) to the cycles that job actually
        requires.  Defaults to every job taking its ACEC.
    collect_details:
        When ``False`` only the energy is computed (used inside the optimiser's
        inner loop to avoid building dictionaries).
    """
    subs = expansion.sub_instances
    if len(end_times) != len(subs) or len(wc_budgets) != len(subs):
        raise SchedulingError(
            f"expected {len(subs)} end-times and budgets, got {len(end_times)}/{len(wc_budgets)}"
        )

    remaining: Dict[str, float] = {}
    for instance in expansion.instances:
        if actual_cycles is None:
            remaining[instance.key] = instance.acec
        else:
            remaining[instance.key] = actual_cycles.get(instance.key, instance.acec)

    energy = 0.0
    previous_finish = 0.0
    finish_times: Dict[str, float] = {}
    sub_finishes: List[float] = []
    misses: List[str] = []

    for index, sub in enumerate(subs):
        instance = sub.instance
        budget = max(float(wc_budgets[index]), 0.0)
        end_time = float(end_times[index])
        executed = min(budget, max(remaining[instance.key], 0.0))
        start = max(sub.slot_start, previous_finish)
        if executed > _EPS:
            available = end_time - start
            if available <= _EPS:
                frequency = processor.fmax
            else:
                frequency = processor.clip_frequency(budget / available)
            voltage = processor.voltage_for_frequency(frequency)
            frequency = processor.frequency(voltage)
            duration = executed / frequency
            energy += processor.energy(executed, voltage, instance.task.ceff)
            finish = start + duration
            remaining[instance.key] -= executed
        else:
            finish = start
        previous_finish = max(previous_finish, finish)
        if collect_details:
            sub_finishes.append(finish)
            if remaining[instance.key] <= _EPS and instance.key not in finish_times:
                finish_times[instance.key] = finish

    if collect_details:
        for instance in expansion.instances:
            finish = finish_times.get(instance.key)
            if finish is None:
                # The job never completed within its budgets (should not happen
                # when budgets sum to the WCEC and actual <= WCEC).
                misses.append(instance.key)
            elif finish > instance.deadline + 1e-9 * max(1.0, instance.deadline):
                misses.append(instance.key)

    return AnalyticOutcome(
        energy=energy,
        finish_times=finish_times,
        sub_finish_times=sub_finishes,
        deadline_misses=misses,
    )


class CompiledEvaluation:
    """Pre-indexed form of the analytic greedy propagation.

    The reduced NLP evaluates the energy of :func:`evaluate_vectors` once
    per line-search point and, for its forward-difference gradient, once
    per variable at every iterate.  This class compiles the parts of the
    evaluation that do not depend on the decision variables (slot starts,
    per-sub-instance task constants, the per-job grouping, the processor's
    linear-law constants) and offers

    * :meth:`energy` / :meth:`energy_from_lists` — a drop-in scalar
      evaluation;
    * :meth:`changed_energies` — the energies of many one-entry changes of
      one pair of vectors, each re-walking only the sub-instances its change
      reaches (the gradient's columns);
    * :meth:`energies` — a batched evaluation of many end-time/budget
      columns at once.

    All are **bitwise-identical** to ``evaluate_vectors(...).energy``: every
    arithmetic operation is performed in the same order with the same
    associativity as the reference loop (the tests in
    ``tests/offline/test_evaluation.py`` assert exact equality).  Only
    ``law="linear"`` processors are supported — the CMOS delay law needs
    ``x ** alpha``, whose NumPy vectorization is not bitwise-equal to the
    scalar power — and :meth:`supported` reports whether a processor
    qualifies; callers fall back to :func:`evaluate_vectors` otherwise.
    """

    def __init__(self, expansion: FullyPreemptiveSchedule, processor: ProcessorModel,
                 actual_cycles: Optional[Dict[str, float]] = None) -> None:
        if not self.supported(processor):
            raise SchedulingError(
                f"CompiledEvaluation requires a linear-law processor, got law={processor.law!r}"
            )
        subs = expansion.sub_instances
        instances = expansion.instances
        self.expansion = expansion
        self.processor = processor
        self.n_subs = len(subs)

        instance_index = {instance.key: i for i, instance in enumerate(instances)}
        self._slot_starts = [sub.slot_start for sub in subs]
        self._ceffs = [sub.task.ceff for sub in subs]
        self._instance_of_sub = [instance_index[sub.instance.key] for sub in subs]
        remaining = []
        for instance in instances:
            if actual_cycles is None:
                remaining.append(instance.acec)
            else:
                remaining.append(actual_cycles.get(instance.key, instance.acec))
        self._initial_remaining = remaining

        # Per-job sequential fill grouped by position: subs of one job appear
        # in sub-index order along the total order, so the p-th subs of all
        # jobs can be filled together once positions 0..p-1 are done.
        position_of_sub = [0] * len(subs)
        seen: Dict[int, int] = {}
        # The next sub-instance of the same job (``n_subs`` after its last).
        self._next_sibling = [len(subs)] * len(subs)
        latest: Dict[int, int] = {}
        for order, sub in enumerate(subs):
            inst = self._instance_of_sub[order]
            position_of_sub[order] = seen.get(inst, 0)
            seen[inst] = position_of_sub[order] + 1
            if inst in latest:
                self._next_sibling[latest[inst]] = order
            latest[inst] = order
        max_position = max(position_of_sub, default=-1) + 1
        self._positions: List[tuple] = []
        for position in range(max_position):
            sub_rows = np.array(
                [order for order in range(len(subs)) if position_of_sub[order] == position],
                dtype=np.intp,
            )
            inst_rows = np.array([self._instance_of_sub[order] for order in sub_rows],
                                 dtype=np.intp)
            self._positions.append((sub_rows, inst_rows))

        self._fmax = processor.fmax
        self._fmin = processor.fmin
        self._vmin = processor.vmin
        self._vmax = processor.vmax
        self._k = processor._k
        self._fill_scratch: Dict[int, tuple] = {}
        self._column_scratch: Dict[int, tuple] = {}

    @staticmethod
    def supported(processor: ProcessorModel) -> bool:
        """Whether the batched evaluation is bitwise-exact for ``processor``."""
        return processor.law == "linear"

    # ------------------------------------------------------------------ #
    # Scalar fast path
    # ------------------------------------------------------------------ #
    def energy(self, end_times: Sequence[float], wc_budgets: Sequence[float]) -> float:
        """Energy of one hyperperiod; equals ``evaluate_vectors(...).energy`` bitwise."""
        ends = np.asarray(end_times, dtype=float).tolist()
        budgets = np.asarray(wc_budgets, dtype=float).tolist()
        return self.energy_from_lists(ends, budgets)

    def energy_from_lists(self, ends: List[float], budgets: List[float]) -> float:
        """:meth:`energy` on plain float lists (no array round-trip)."""
        remaining = list(self._initial_remaining)
        slot_starts = self._slot_starts
        ceffs = self._ceffs
        instance_of_sub = self._instance_of_sub
        fmax = self._fmax
        fmin = self._fmin
        vmin = self._vmin
        vmax = self._vmax
        k = self._k

        energy = 0.0
        previous_finish = 0.0
        # Branch-inlined max/min (ties keep the first operand, exactly like
        # the builtins): this loop runs once per finite-difference line-search
        # point, and the call overhead of max()/min() is its dominant cost.
        for index in range(self.n_subs):
            budget = budgets[index]
            if budget < 0.0:
                budget = 0.0
            instance = instance_of_sub[index]
            rem = remaining[instance]
            positive_rem = rem if rem >= 0.0 else 0.0
            executed = budget if budget <= positive_rem else positive_rem
            slot = slot_starts[index]
            start = slot if slot >= previous_finish else previous_finish
            if executed > _EPS:
                available = ends[index] - start
                if available <= _EPS:
                    frequency = fmax
                else:
                    frequency = budget / available
                    if frequency < fmin:
                        frequency = fmin
                    elif frequency > fmax:
                        frequency = fmax
                # voltage_for_frequency / frequency(voltage), linear law inlined.
                if frequency <= 0:
                    voltage = vmin
                elif frequency >= fmax:
                    voltage = vmax
                elif frequency <= fmin:
                    voltage = vmin
                else:
                    voltage = frequency * k
                    if voltage < vmin:
                        voltage = vmin
                    elif voltage > vmax:
                        voltage = vmax
                frequency = voltage / k
                energy += executed * ((ceffs[index] * voltage) * voltage)
                finish = start + executed / frequency
                remaining[instance] = rem - executed
                if finish > previous_finish:
                    previous_finish = finish
            elif start > previous_finish:
                previous_finish = start
        return energy

    # ------------------------------------------------------------------ #
    # Single-entry changes (forward differences)
    # ------------------------------------------------------------------ #
    def changed_energies(self, ends: List[float], budgets: List[float],
                         changes: Sequence[Tuple[int, bool, float]]) -> List[float]:
        """Energies of ``(ends, budgets)`` with one entry replaced, one per change.

        A change ``(sub_index, is_budget, value)`` sets the end-time of
        sub-instance ``sub_index`` — or its budget, when ``is_budget`` — to
        ``value``.  Each result is bitwise-equal to :meth:`energy_from_lists`
        of the changed lists, but a change re-walks only from its own
        sub-instance, starting from the state :meth:`_trace` recorded there,
        until the previous finish is back to the recorded one — and, for a
        budget, so are its job's remaining cycles, or the job has no
        sub-instance left.  The recorded segments that follow are then added
        one by one, in order, as the full walk adds them: a suffix sum would
        round differently.
        """
        finish_before, energy_before, remaining_before, segments = self._trace(ends, budgets)
        n_subs = self.n_subs
        slot_starts = self._slot_starts
        ceffs = self._ceffs
        next_sibling = self._next_sibling
        fmax = self._fmax
        fmin = self._fmin
        vmin = self._vmin
        vmax = self._vmax
        k = self._k

        results = []
        for index, is_budget, value in changes:
            previous_finish = finish_before[index]
            energy = energy_before[index]
            # ``own``: remaining cycles of the changed job, walked at each of
            # its sub-instances (``sibling``); the others keep the recorded ones.
            own = remaining_before[index]
            sibling = index if is_budget else n_subs
            budget = value if is_budget else budgets[index]
            end = ends[index] if is_budget else value
            position = index
            # The arithmetic of energy_from_lists, inlined for the same reason.
            while True:
                if budget < 0.0:
                    budget = 0.0
                rem = own if position == sibling else remaining_before[position]
                positive_rem = rem if rem >= 0.0 else 0.0
                executed = budget if budget <= positive_rem else positive_rem
                slot = slot_starts[position]
                start = slot if slot >= previous_finish else previous_finish
                if executed > _EPS:
                    available = end - start
                    if available <= _EPS:
                        frequency = fmax
                    else:
                        frequency = budget / available
                        if frequency < fmin:
                            frequency = fmin
                        elif frequency > fmax:
                            frequency = fmax
                    if frequency <= 0:
                        voltage = vmin
                    elif frequency >= fmax:
                        voltage = vmax
                    elif frequency <= fmin:
                        voltage = vmin
                    else:
                        voltage = frequency * k
                        if voltage < vmin:
                            voltage = vmin
                        elif voltage > vmax:
                            voltage = vmax
                    frequency = voltage / k
                    energy += executed * ((ceffs[position] * voltage) * voltage)
                    finish = start + executed / frequency
                    if position == sibling:
                        own = rem - executed
                    if finish > previous_finish:
                        previous_finish = finish
                elif start > previous_finish:
                    previous_finish = start
                if position == sibling:
                    sibling = next_sibling[position]
                position += 1
                if position == n_subs:
                    break
                if previous_finish == finish_before[position] and (
                        sibling == n_subs or own == remaining_before[sibling]):
                    for segment in segments[position:]:
                        energy += segment
                    break
                budget = budgets[position]
                end = ends[position]
            results.append(energy)
        return results

    def _trace(self, ends: List[float], budgets: List[float]) -> Tuple[List[float], ...]:
        """:meth:`energy_from_lists`, recording the state before every sub-instance.

        Returns the previous finish, the energy so far and the remaining
        cycles of its job before each sub-instance, and each sub-instance's
        segment energy (0.0 when it executes nothing).  A walk of its own:
        the recording makes it about 45% slower than :meth:`energy_from_lists`,
        which every line-search point calls.
        """
        n_subs = self.n_subs
        finish_before = [0.0] * n_subs
        energy_before = [0.0] * n_subs
        remaining_before = [0.0] * n_subs
        segments = [0.0] * n_subs
        remaining = list(self._initial_remaining)
        slot_starts = self._slot_starts
        ceffs = self._ceffs
        instance_of_sub = self._instance_of_sub
        fmax = self._fmax
        fmin = self._fmin
        vmin = self._vmin
        vmax = self._vmax
        k = self._k

        energy = 0.0
        previous_finish = 0.0
        for index in range(n_subs):
            finish_before[index] = previous_finish
            energy_before[index] = energy
            budget = budgets[index]
            if budget < 0.0:
                budget = 0.0
            instance = instance_of_sub[index]
            rem = remaining_before[index] = remaining[instance]
            positive_rem = rem if rem >= 0.0 else 0.0
            executed = budget if budget <= positive_rem else positive_rem
            slot = slot_starts[index]
            start = slot if slot >= previous_finish else previous_finish
            if executed > _EPS:
                available = ends[index] - start
                if available <= _EPS:
                    frequency = fmax
                else:
                    frequency = budget / available
                    if frequency < fmin:
                        frequency = fmin
                    elif frequency > fmax:
                        frequency = fmax
                if frequency <= 0:
                    voltage = vmin
                elif frequency >= fmax:
                    voltage = vmax
                elif frequency <= fmin:
                    voltage = vmin
                else:
                    voltage = frequency * k
                    if voltage < vmin:
                        voltage = vmin
                    elif voltage > vmax:
                        voltage = vmax
                frequency = voltage / k
                segment = segments[index] = executed * ((ceffs[index] * voltage) * voltage)
                energy += segment
                finish = start + executed / frequency
                remaining[instance] = rem - executed
                if finish > previous_finish:
                    previous_finish = finish
            elif start > previous_finish:
                previous_finish = start
        return finish_before, energy_before, remaining_before, segments

    # ------------------------------------------------------------------ #
    # Batched path
    # ------------------------------------------------------------------ #
    # Unused by the planner: kept only while the benchmark's layer tracer wraps it by name.
    def energies(self, end_times: np.ndarray, wc_budgets: np.ndarray) -> np.ndarray:
        """Energies of many candidate schedules at once.

        ``end_times`` and ``wc_budgets`` are ``(n_subs, K)`` matrices whose
        columns are independent candidate vectors in total order; returns the
        ``(K,)`` energy vector, each element bitwise-equal to the scalar
        evaluation of that column.
        """
        ends = np.asarray(end_times, dtype=float)
        raw_budgets = np.asarray(wc_budgets, dtype=float)
        if ends.ndim != 2 or ends.shape[0] != self.n_subs or raw_budgets.shape != ends.shape:
            raise SchedulingError(
                f"expected matching ({self.n_subs}, K) matrices, got {ends.shape} and {raw_budgets.shape}"
            )
        n_columns = ends.shape[1]
        if n_columns == 0:
            return np.zeros(0)
        budgets = np.maximum(raw_budgets, 0.0)

        # Phase 1 — per-job sequential fill of the actual cycles (depends on
        # budgets only): position p of every job is resolved in lockstep.
        fill = self._fill_scratch.get(n_columns)
        if fill is None:
            fill = (
                np.empty((len(self._initial_remaining), n_columns), dtype=float),
                np.empty((self.n_subs, n_columns), dtype=float),
                np.empty((self.n_subs, n_columns), dtype=bool),
            )
            self._fill_scratch[n_columns] = fill
        remaining, executed, executed_mask = fill
        remaining[:] = np.asarray(self._initial_remaining, dtype=float)[:, None]
        for sub_rows, inst_rows in self._positions:
            chunk = np.minimum(budgets[sub_rows], np.maximum(remaining[inst_rows], 0.0))
            mask = chunk > _EPS
            executed[sub_rows] = chunk
            executed_mask[sub_rows] = mask
            remaining[inst_rows] = remaining[inst_rows] - np.where(mask, chunk, 0.0)

        # Phase 2 — propagate finish times along the total order (inherently
        # sequential over sub-instances, vectorized across columns).  All
        # temporaries live in per-width scratch buffers: the loop body is
        # in-place ufunc calls, no allocations.  Every operation mirrors the
        # scalar chain bit for bit — boolean-mask assignment replaces
        # ``np.where`` (identical selection), and zeroing masked-out segments
        # before the running ``+=`` equals skipping them (the accumulator
        # never goes negative, so ``x + 0.0 == x`` holds bitwise).
        slot_starts = self._slot_starts
        ceffs = self._ceffs
        fmax = self._fmax
        fmin = self._fmin
        vmin = self._vmin
        vmax = self._vmax
        k = self._k
        scratch = self._column_scratch.get(n_columns)
        if scratch is None:
            scratch = tuple(np.empty(n_columns) for _ in range(5)) + (
                np.empty(n_columns, dtype=bool),
            )
            self._column_scratch[n_columns] = scratch
        start, available, frequency, voltage, segment, condition = scratch
        previous_finish = np.zeros(n_columns)
        energy = np.zeros(n_columns)
        with np.errstate(divide="ignore", invalid="ignore"):
            for index in range(self.n_subs):
                np.maximum(slot_starts[index], previous_finish, out=start)
                np.subtract(ends[index], start, out=available)
                np.divide(budgets[index], available, out=frequency)
                np.maximum(frequency, fmin, out=frequency)
                np.minimum(frequency, fmax, out=frequency)
                np.less_equal(available, _EPS, out=condition)
                frequency[condition] = fmax
                np.multiply(frequency, k, out=voltage)
                np.maximum(voltage, vmin, out=voltage)
                np.minimum(voltage, vmax, out=voltage)
                np.less_equal(frequency, fmin, out=condition)
                voltage[condition] = vmin
                np.greater_equal(frequency, fmax, out=condition)
                voltage[condition] = vmax
                np.divide(voltage, k, out=frequency)
                chunk = executed[index]
                np.multiply(ceffs[index], voltage, out=segment)
                np.multiply(segment, voltage, out=segment)
                np.multiply(chunk, segment, out=segment)
                np.logical_not(executed_mask[index], out=condition)
                segment[condition] = 0.0
                energy += segment
                # finish = start + executed / frequency where executed ran.
                np.divide(chunk, frequency, out=frequency)
                np.add(start, frequency, out=frequency)
                frequency[condition] = 0.0
                np.maximum(frequency, start, out=frequency)
                np.maximum(previous_finish, frequency, out=previous_finish)
        return energy


def evaluate_schedule(schedule: StaticSchedule, processor: ProcessorModel,
                      actual_cycles: Optional[Dict[str, float]] = None) -> AnalyticOutcome:
    """Evaluate a :class:`StaticSchedule` (convenience wrapper over :func:`evaluate_vectors`)."""
    return evaluate_vectors(
        schedule.expansion,
        schedule.end_times(),
        schedule.wc_budgets(),
        processor,
        actual_cycles,
    )


def average_case_energy(schedule: StaticSchedule, processor: ProcessorModel) -> float:
    """Predicted energy of one hyperperiod when every job takes its ACEC."""
    return evaluate_schedule(schedule, processor).energy


def worst_case_energy(schedule: StaticSchedule, processor: ProcessorModel) -> float:
    """Predicted energy of one hyperperiod when every job takes its WCEC."""
    actual = {inst.key: inst.wcec for inst in schedule.expansion.instances}
    return evaluate_schedule(schedule, processor, actual).energy
