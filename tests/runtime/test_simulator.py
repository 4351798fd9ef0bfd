"""Tests for the discrete-event runtime simulator."""

import numpy as np
import pytest

from repro.core.errors import SimulationError
from repro.core.task import Task
from repro.offline.acs import ACSScheduler
from repro.offline.nonpreemptive import frame_based_taskset
from repro.offline.schedule import StaticSchedule
from repro.offline.wcs import WCSScheduler
from repro.analysis.preemption import expand_fully_preemptive
from repro.power.transition import TransitionModel
from repro.runtime.policies import GreedySlackPolicy, ProportionalSlackPolicy, StaticReplayPolicy
from repro.runtime.simulator import DVSSimulator, SimulationConfig
from repro.workloads.distributions import FixedWorkload, NormalWorkload


@pytest.fixture
def frame_schedule(processor):
    """Two-task frame with a hand-checkable schedule: end-times 5 and 10 ms."""
    tasks = [
        Task("t1", period=10, wcec=4000, acec=2000, bcec=1000),
        Task("t2", period=10, wcec=4000, acec=2000, bcec=1000),
    ]
    taskset = frame_based_taskset(tasks, 10.0)
    expansion = expand_fully_preemptive(taskset)
    return StaticSchedule.from_vectors(expansion, [5.0, 10.0], [4000.0, 4000.0], method="manual")


class TestConfig:
    def test_invalid_values_rejected(self):
        with pytest.raises(SimulationError):
            SimulationConfig(n_hyperperiods=0)


class TestDeterministicBehaviour:
    def test_worst_case_matches_analytic_energy(self, frame_schedule, processor):
        """All-WCEC run: both tasks run 4000 cycles at 4 V → 2 · 4000 · 16."""
        simulator = DVSSimulator(processor, config=SimulationConfig(n_hyperperiods=1))
        result = simulator.run(frame_schedule, FixedWorkload(mode="wcec"))
        assert result.total_energy == pytest.approx(2 * 4000 * 16.0, rel=1e-6)
        assert result.met_all_deadlines
        assert result.jobs_completed == 2

    def test_average_case_greedy_slack(self, frame_schedule, processor):
        """t1 finishes at 2.5 ms; t2 inherits the slack and runs at 4000/7.5 cycles/ms."""
        simulator = DVSSimulator(processor, config=SimulationConfig(n_hyperperiods=1))
        result = simulator.run(frame_schedule, FixedWorkload(mode="acec"))
        v2 = processor.voltage_for_frequency(4000.0 / 7.5)
        expected = 2000 * 16.0 + 2000 * v2 ** 2
        assert result.total_energy == pytest.approx(expected, rel=1e-6)

    def test_energy_accumulates_over_hyperperiods(self, frame_schedule, processor):
        simulator = DVSSimulator(processor, config=SimulationConfig(n_hyperperiods=5))
        result = simulator.run(frame_schedule, FixedWorkload(mode="wcec"))
        assert len(result.energy_per_hyperperiod) == 5
        assert result.total_energy == pytest.approx(5 * result.energy_per_hyperperiod[0])
        assert result.mean_energy_per_hyperperiod == pytest.approx(result.energy_per_hyperperiod[0])

    def test_energy_by_task_split(self, frame_schedule, processor):
        simulator = DVSSimulator(processor, config=SimulationConfig(n_hyperperiods=1))
        result = simulator.run(frame_schedule, FixedWorkload(mode="wcec"))
        assert set(result.energy_by_task) == {"t1", "t2"}
        assert sum(result.energy_by_task.values()) == pytest.approx(result.total_energy)


class TestPreemptiveBehaviour:
    def test_preemption_recorded_in_timeline(self, two_task_set, processor):
        schedule = WCSScheduler(processor).schedule(two_task_set)
        simulator = DVSSimulator(
            processor, config=SimulationConfig(n_hyperperiods=1, trace=True))
        result = simulator.run(schedule, FixedWorkload(mode="wcec"))
        timeline = result.trace.to_timeline()
        timeline.validate()
        # B (low priority, 8000 cycles) must be preempted by A's second job at t=10:
        # it appears in at least two separate segments.
        assert len(timeline.segments_for("B", 0)) >= 2
        # A's second job executes after its release at 10.
        a1 = timeline.segments_for("A", 1)
        assert a1 and min(s.start for s in a1) >= 10.0 - 1e-9

    def test_worst_case_no_deadline_miss_for_acs_and_wcs(self, three_task_set, processor):
        for scheduler in (ACSScheduler(processor), WCSScheduler(processor)):
            schedule = scheduler.schedule(three_task_set)
            simulator = DVSSimulator(processor, config=SimulationConfig(n_hyperperiods=3))
            result = simulator.run(schedule, FixedWorkload(mode="wcec"))
            assert result.met_all_deadlines, scheduler.name

    def test_random_workload_no_deadline_miss(self, three_task_set, processor):
        schedule = ACSScheduler(processor).schedule(three_task_set)
        simulator = DVSSimulator(processor, config=SimulationConfig(n_hyperperiods=50, seed=7))
        result = simulator.run(schedule, NormalWorkload())
        assert result.met_all_deadlines
        assert result.jobs_completed == 50 * len(schedule.expansion.instances)

    def test_deadline_miss_is_recorded(self, two_task_set, processor):
        """An intentionally broken schedule (absurdly early end-times are fine; absurdly *late*
        budgets in a short window are not) misses, and the miss is recorded."""
        expansion = expand_fully_preemptive(two_task_set)
        # Give B all its budget in the second slot but an end-time after the deadline is not
        # allowed by from_vectors, so instead starve A[1] by planning B's second chunk to end
        # exactly at 20 while forcing A's second job to wait: put A[1]'s end-time at 20 too and
        # its budget late.  Simpler: run the valid schedule but shrink the deadline via a faster
        # workload is impossible — so construct an infeasible schedule directly.
        end_times = []
        budgets = []
        for sub in expansion.sub_instances:
            end_times.append(sub.slot_end)
            budgets.append(sub.instance.wcec if sub.sub_index == len(
                [s for s in expansion.sub_instances if s.instance.key == sub.instance.key]) - 1 else 0.0)
        schedule = StaticSchedule.from_vectors(expansion, end_times, budgets, method="broken")
        simulator = DVSSimulator(processor, config=SimulationConfig(n_hyperperiods=1))
        result = simulator.run(schedule, FixedWorkload(mode="wcec"))
        assert result.miss_count >= 1
        for miss in result.deadline_misses:
            assert miss.hyperperiod_index == 0
            assert miss.lateness > 0


class TestPolicies:
    def test_greedy_no_worse_than_static(self, two_task_set, processor):
        """Greedy reclamation exploits dynamic slack, the static policy does not."""
        schedule = WCSScheduler(processor).schedule(two_task_set)
        config = SimulationConfig(n_hyperperiods=20, seed=5)
        greedy = DVSSimulator(processor, GreedySlackPolicy(), config).run(
            schedule, NormalWorkload(), np.random.default_rng(0))
        static = DVSSimulator(processor, StaticReplayPolicy(), config).run(
            schedule, NormalWorkload(), np.random.default_rng(0))
        assert greedy.mean_energy_per_hyperperiod <= static.mean_energy_per_hyperperiod + 1e-6

    def test_proportional_policy_runs(self, two_task_set, processor):
        schedule = WCSScheduler(processor).schedule(two_task_set)
        simulator = DVSSimulator(processor, ProportionalSlackPolicy(),
                                 SimulationConfig(n_hyperperiods=5, seed=5))
        result = simulator.run(schedule, NormalWorkload())
        assert result.total_energy > 0


class TestHardwareEffects:
    def test_transition_overhead_accounted(self, two_task_set, processor):
        schedule = ACSScheduler(processor).schedule(two_task_set)
        config = SimulationConfig(n_hyperperiods=5, seed=2,
                                  transition_model=TransitionModel.realistic())
        result = DVSSimulator(processor, config=config).run(
            schedule, NormalWorkload(), np.random.default_rng(3))
        assert result.transition_energy > 0.0

    def test_ideal_transitions_cost_nothing(self, two_task_set, processor):
        schedule = ACSScheduler(processor).schedule(two_task_set)
        result = DVSSimulator(processor, config=SimulationConfig(n_hyperperiods=2, seed=2)).run(
            schedule, NormalWorkload())
        assert result.transition_energy == 0.0


class TestReproducibility:
    def test_same_seed_same_energy(self, two_task_set, processor):
        schedule = WCSScheduler(processor).schedule(two_task_set)
        config = SimulationConfig(n_hyperperiods=10, seed=42)
        first = DVSSimulator(processor, config=config).run(schedule, NormalWorkload())
        second = DVSSimulator(processor, config=config).run(schedule, NormalWorkload())
        assert first.total_energy == pytest.approx(second.total_energy)

    def test_different_seed_different_energy(self, two_task_set, processor):
        schedule = WCSScheduler(processor).schedule(two_task_set)
        first = DVSSimulator(processor, config=SimulationConfig(n_hyperperiods=10, seed=1)).run(
            schedule, NormalWorkload())
        second = DVSSimulator(processor, config=SimulationConfig(n_hyperperiods=10, seed=2)).run(
            schedule, NormalWorkload())
        assert first.total_energy != pytest.approx(second.total_energy)
