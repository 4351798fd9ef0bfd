"""Tests for the analytic (total-order) schedule evaluation."""

import numpy as np
import pytest

from repro.analysis.preemption import expand_fully_preemptive
from repro.core.errors import SchedulingError
from repro.core.task import Task
from repro.core.taskset import TaskSet
from repro.offline.evaluation import (
    CompiledEvaluation,
    average_case_energy,
    evaluate_schedule,
    evaluate_vectors,
    worst_case_energy,
)
from repro.offline.nonpreemptive import frame_based_taskset
from repro.offline.schedule import StaticSchedule


@pytest.fixture
def frame(processor):
    """Two-task non-preemptive frame: hand-computable energies."""
    tasks = [
        Task("t1", period=10, wcec=4000, acec=2000, bcec=1000),
        Task("t2", period=10, wcec=4000, acec=2000, bcec=1000),
    ]
    return frame_based_taskset(tasks, 10.0)


class TestHandComputedFrame:
    def test_worst_case_energy(self, frame, processor):
        """End-times 5 and 10: each task runs 4000 cycles in 5 ms → 800 cyc/ms → 4 V."""
        expansion = expand_fully_preemptive(frame)
        schedule = StaticSchedule.from_vectors(expansion, [5.0, 10.0], [4000.0, 4000.0])
        energy = worst_case_energy(schedule, processor)
        assert energy == pytest.approx(2 * 4000 * 4.0 ** 2)

    def test_average_case_energy_with_greedy_slack(self, frame, processor):
        """Average case: t1 runs 2000 of its 4000-cycle budget at 4 V and finishes at 2.5 ms;
        t2 inherits the slack and runs its worst-case budget over 7.5 ms → 533.3 cyc/ms → 2.67 V."""
        expansion = expand_fully_preemptive(frame)
        schedule = StaticSchedule.from_vectors(expansion, [5.0, 10.0], [4000.0, 4000.0])
        outcome = evaluate_schedule(schedule, processor)
        v2 = processor.voltage_for_frequency(4000.0 / 7.5)
        expected = 2000 * 4.0 ** 2 + 2000 * v2 ** 2
        assert outcome.energy == pytest.approx(expected, rel=1e-9)
        assert outcome.feasible
        assert outcome.finish_times["t1[0]"] == pytest.approx(2.5)

    def test_speed_clipped_at_fmax_when_end_time_passed(self, frame, processor):
        """An end-time in the past forces maximum speed rather than a crash."""
        expansion = expand_fully_preemptive(frame)
        schedule = StaticSchedule.from_vectors(expansion, [0.0, 10.0], [4000.0, 4000.0])
        outcome = evaluate_schedule(schedule, processor)
        # t1 executes its 2000 average cycles at fmax (5 V).
        assert outcome.energy >= 2000 * 5.0 ** 2

    def test_custom_actual_cycles(self, frame, processor):
        expansion = expand_fully_preemptive(frame)
        schedule = StaticSchedule.from_vectors(expansion, [5.0, 10.0], [4000.0, 4000.0])
        outcome = evaluate_schedule(schedule, processor, {"t1[0]": 0.0, "t2[0]": 4000.0})
        # t1 does nothing; t2 runs its full worst case over [0, 10] at 400 cyc/ms → 2 V.
        assert outcome.energy == pytest.approx(4000 * 2.0 ** 2)


class TestVectorsInterface:
    def test_length_mismatch_rejected(self, two_task_set, processor):
        expansion = expand_fully_preemptive(two_task_set)
        with pytest.raises(SchedulingError):
            evaluate_vectors(expansion, [1.0], [1.0], processor)

    def test_collect_details_off_still_returns_energy(self, two_task_set, processor):
        from repro.offline.initialization import worst_case_simulation_vectors
        expansion = expand_fully_preemptive(two_task_set)
        end_times, budgets = worst_case_simulation_vectors(expansion, processor)
        detailed = evaluate_vectors(expansion, end_times, budgets, processor)
        bare = evaluate_vectors(expansion, end_times, budgets, processor, collect_details=False)
        assert bare.energy == pytest.approx(detailed.energy)
        assert bare.sub_finish_times == []

    def test_average_at_most_worst_case(self, three_task_set, processor):
        """For any schedule, executing ACEC never costs more than executing WCEC."""
        from repro.offline.initialization import worst_case_simulation_vectors
        expansion = expand_fully_preemptive(three_task_set)
        end_times, budgets = worst_case_simulation_vectors(expansion, processor)
        schedule = StaticSchedule.from_vectors(expansion, end_times, budgets)
        assert average_case_energy(schedule, processor) <= worst_case_energy(schedule, processor) + 1e-9


class TestCompiledEvaluation:
    """The compiled evaluator must equal evaluate_vectors bit for bit."""

    @staticmethod
    def _expansion(processor):
        taskset = TaskSet([
            Task("hi", period=10, wcec=1800, acec=1000, bcec=300),
            Task("mid", period=20, wcec=4200, acec=2400, bcec=900),
            Task("lo", period=40, wcec=9000, acec=5000, bcec=1500),
        ])
        return expand_fully_preemptive(taskset)

    @staticmethod
    def _random_vectors(expansion, rng):
        ends = np.array([
            sub.slot_start + rng.uniform(0.0, sub.slot_length)
            for sub in expansion.sub_instances
        ])
        budgets = np.array([
            rng.uniform(-10.0, 0.5 * sub.instance.wcec)
            for sub in expansion.sub_instances
        ])
        return ends, budgets

    def test_scalar_energy_bitwise(self, processor):
        expansion = self._expansion(processor)
        compiled = CompiledEvaluation(expansion, processor)
        rng = np.random.default_rng(42)
        for _ in range(25):
            ends, budgets = self._random_vectors(expansion, rng)
            reference = evaluate_vectors(
                expansion, ends, budgets, processor, collect_details=False).energy
            assert compiled.energy(ends, budgets) == reference

    def test_batched_energies_bitwise(self, processor):
        expansion = self._expansion(processor)
        compiled = CompiledEvaluation(expansion, processor)
        rng = np.random.default_rng(43)
        n_subs = len(expansion.sub_instances)
        columns = 17
        end_matrix = np.empty((n_subs, columns))
        budget_matrix = np.empty((n_subs, columns))
        for column in range(columns):
            ends, budgets = self._random_vectors(expansion, rng)
            end_matrix[:, column] = ends
            budget_matrix[:, column] = budgets
        # Degenerate columns: end-times at the slot start (no available time)
        # and all-zero budgets.
        end_matrix[:, 0] = [sub.slot_start for sub in expansion.sub_instances]
        budget_matrix[:, 1] = 0.0
        batch = compiled.energies(end_matrix, budget_matrix)
        for column in range(columns):
            reference = evaluate_vectors(
                expansion, end_matrix[:, column], budget_matrix[:, column],
                processor, collect_details=False).energy
            assert batch[column] == reference

    def test_actual_cycles_mapping_respected(self, processor):
        expansion = self._expansion(processor)
        actual = {inst.key: inst.wcec for inst in expansion.instances}
        compiled = CompiledEvaluation(expansion, processor, actual)
        rng = np.random.default_rng(44)
        ends, budgets = self._random_vectors(expansion, rng)
        reference = evaluate_vectors(
            expansion, ends, budgets, processor, actual, collect_details=False).energy
        assert compiled.energy(ends, budgets) == reference

    def test_cmos_law_rejected(self, cmos):
        expansion = self._expansion(cmos)
        assert not CompiledEvaluation.supported(cmos)
        with pytest.raises(SchedulingError):
            CompiledEvaluation(expansion, cmos)

    def test_shape_mismatch_rejected(self, processor):
        expansion = self._expansion(processor)
        compiled = CompiledEvaluation(expansion, processor)
        with pytest.raises(SchedulingError):
            compiled.energies(np.zeros((2, 3)), np.zeros((2, 3)))


class TestChangedEnergies:
    """One-entry changes re-walk only what they reach, yet equal the full walk bitwise."""

    @staticmethod
    def _bases(expansion, processor):
        """Realistic, random and degenerate ``(ends, budgets)`` lists."""
        from repro.offline.initialization import (
            proportional_budget_vectors,
            worst_case_simulation_vectors,
        )
        subs = expansion.sub_instances
        rng = np.random.default_rng(45)
        slot_starts = [sub.slot_start for sub in subs]
        proportional = proportional_budget_vectors(expansion, processor)
        random_ends = [sub.slot_start + rng.uniform(0.0, sub.slot_length) for sub in subs]
        random_budgets = [rng.uniform(0.0, 0.6 * sub.instance.wcec) for sub in subs]
        return [
            [list(map(float, vector)) for vector in proportional],
            [list(map(float, vector))
             for vector in worst_case_simulation_vectors(expansion, processor)],
            [random_ends, random_budgets],
            [slot_starts, list(map(float, proportional[1]))],   # no time available anywhere
            [list(map(float, proportional[0])), [0.0] * len(subs)],   # nothing executes
        ]

    @staticmethod
    def _changes(expansion, processor, ends, budgets):
        """Every sub-instance's end-time and budget, nudged and pushed across branches."""
        changes = []
        for index, sub in enumerate(expansion.sub_instances):
            end, budget = ends[index], budgets[index]
            for value in (
                end + 1e-6, end - 1e-6,
                sub.slot_start,                            # no time available: fmax
                sub.slot_start + 1e-9,                     # frequency clipped at fmax
                sub.slot_start + 1e9,                      # frequency clipped at fmin
            ):
                changes.append((index, False, value))
            for value in (
                budget + 1e-6, budget - 1e-6,
                2.0 * sub.instance.wcec,                   # above the job's remaining cycles
                0.0, -5.0,                                 # executes nothing
                1e-13,                                     # below the execution threshold
                processor.fmin * 1e-3,                     # slow enough to clip at fmin
            ):
                changes.append((index, True, value))
        return changes

    @pytest.mark.parametrize("actual", ["acec", "wcec"])
    def test_every_change_equals_the_full_walk(self, three_task_set, processor, actual):
        expansion = expand_fully_preemptive(three_task_set)
        lo_subs = [sub for sub in expansion.sub_instances if sub.task.name == "lo"]
        assert len(lo_subs) >= 3   # a budget change reaches later siblings
        cycles = None if actual == "acec" else {
            inst.key: inst.wcec for inst in expansion.instances}
        compiled = CompiledEvaluation(expansion, processor, cycles)
        for ends, budgets in self._bases(expansion, processor):
            changes = self._changes(expansion, processor, ends, budgets)
            results = compiled.changed_energies(ends, budgets, changes)
            assert len(results) == len(changes)
            for (index, is_budget, value), result in zip(changes, results):
                changed_ends, changed_budgets = list(ends), list(budgets)
                (changed_budgets if is_budget else changed_ends)[index] = value
                assert result == compiled.energy_from_lists(changed_ends, changed_budgets), (
                    index, is_budget, value)
