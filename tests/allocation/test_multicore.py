"""Tests for the per-core offline planning layer (MulticoreProblem/MulticorePlan)."""

import pytest

from repro.allocation.multicore import MulticorePlan, MulticoreProblem, plan_multicore
from repro.core.errors import AllocationError
from repro.core.task import Task
from repro.core.taskset import TaskSet
from repro.offline.batched_solver import SolveMemo
from repro.power.presets import ideal_processor

PROCESSOR = ideal_processor(fmax=1000.0)


@pytest.fixture
def taskset():
    return TaskSet([
        Task("a", period=10, wcec=2000, acec=1000, bcec=400),
        Task("b", period=20, wcec=4000, acec=2000, bcec=800),
        Task("c", period=20, wcec=4000, acec=2000, bcec=800),
        Task("d", period=40, wcec=6000, acec=3000, bcec=1200),
    ], name="plan-tasks")


class TestProblem:
    def test_rejects_zero_cores(self, taskset):
        with pytest.raises(AllocationError):
            MulticoreProblem(taskset, PROCESSOR, 0)

    def test_partition_uses_configured_heuristic(self, taskset):
        partition = MulticoreProblem(taskset, PROCESSOR, 2, partitioner="wfd").partition()
        assert partition.partitioner == "wfd"
        assert partition.n_cores == 2


class TestPlan:
    def test_plan_structure(self, taskset):
        problem = MulticoreProblem(taskset, PROCESSOR, 2, partitioner="wfd", method="wcs")
        plan = plan_multicore(problem)
        assert plan.n_cores == 2
        assert plan.method == "wcs"
        assert plan.hyperperiod == taskset.hyperperiod
        for core in plan.partition.used_cores():
            schedule = plan.schedules[core]
            assert schedule is not None
            schedule.validate(PROCESSOR)
            core_names = {task.name for task in plan.partition.core_tasksets[core]}
            assert {inst.task.name for inst in schedule.expansion.instances} == core_names

    def test_idle_cores_have_no_schedule(self, taskset):
        problem = MulticoreProblem(taskset, PROCESSOR, 8, partitioner="ffd")
        plan = plan_multicore(problem)
        for core in range(plan.n_cores):
            populated = plan.partition.core_tasksets[core] is not None
            assert (plan.schedules[core] is not None) == populated
        with pytest.raises(AllocationError):
            idle = next(c for c in range(plan.n_cores)
                        if plan.partition.core_tasksets[c] is None)
            plan.hyperperiods_per_frame(idle)

    def test_core_hyperperiods_divide_the_global_frame(self, taskset):
        plan = plan_multicore(MulticoreProblem(taskset, PROCESSOR, 4, partitioner="wfd"))
        for core in plan.partition.used_cores():
            repeats = plan.hyperperiods_per_frame(core)
            assert repeats >= 1
            assert repeats * plan.schedules[core].expansion.horizon == pytest.approx(
                plan.hyperperiod)

    def test_memoized_planning_matches_unmemoized(self, taskset):
        problem = MulticoreProblem(taskset, PROCESSOR, 3, partitioner="wfd")
        memo = SolveMemo()
        plain = plan_multicore(problem)
        memoized = plan_multicore(problem, memo=memo)
        assert memo.computed > 0
        assert plain.partition.assignment == memoized.partition.assignment
        for left, right in zip(plain.schedules, memoized.schedules):
            if left is None:
                assert right is None
                continue
            assert left.end_times() == right.end_times()
            assert left.wc_budgets() == right.wc_budgets()
            assert left.objective_value == right.objective_value
        # A second plan on the same memo computes nothing.
        computed = memo.computed
        plan_multicore(problem, memo=memo)
        assert memo.computed == computed

    def test_explicit_partition_must_match_core_count(self, taskset):
        problem = MulticoreProblem(taskset, PROCESSOR, 3)
        other = MulticoreProblem(taskset, PROCESSOR, 2).partition()
        with pytest.raises(AllocationError):
            plan_multicore(problem, partition=other)

    def test_plan_validates_schedule_cover(self, taskset):
        problem = MulticoreProblem(taskset, PROCESSOR, 2, partitioner="wfd")
        partition = problem.partition()
        with pytest.raises(AllocationError):
            MulticorePlan(partition=partition, schedules=[None, None],
                          method="acs", processor=PROCESSOR)
