"""Tests for the multicore runtime: aggregation and the m=1 bitwise equivalence.

The headline contract: a one-core `MulticoreRunner` run is *bitwise identical*
to driving the single-core simulator directly with the same generator
state — the multicore layer adds aggregation, never divergence.
"""

import pytest

from repro.allocation.multicore import MulticoreProblem, plan_multicore
from repro.experiments.seeding import SIMULATION_STREAM, derive_rng
from repro.offline.acs import ACSScheduler
from repro.power.presets import ideal_processor
from repro.runtime.multicore import MulticoreRunner
from repro.runtime.policies import GreedySlackPolicy
from repro.runtime.simulator import DVSSimulator, SimulationConfig
from repro.workloads.cnc import cnc_taskset
from repro.workloads.distributions import NormalWorkload

PROCESSOR = ideal_processor(fmax=1000.0)


@pytest.fixture(scope="module")
def taskset():
    return cnc_taskset(PROCESSOR, bcec_wcec_ratio=0.5)


@pytest.fixture(scope="module")
def single_core_plan(taskset):
    problem = MulticoreProblem(taskset, PROCESSOR, 1, partitioner="wfd", method="acs")
    return plan_multicore(problem)


@pytest.fixture(scope="module")
def quad_core_plan(taskset):
    problem = MulticoreProblem(taskset, PROCESSOR, 4, partitioner="wfd", method="acs")
    return plan_multicore(problem)


class TestSingleCoreEquivalence:
    """m=1 must replay the single-core simulator bit for bit."""

    @pytest.mark.parametrize("policy", ["static", "greedy", "lookahead", "proportional"])
    def test_bitwise_identical_to_compiled_single_core(self, taskset, single_core_plan, policy):
        seed = 2005
        config = SimulationConfig(n_hyperperiods=10)
        multicore = MulticoreRunner(PROCESSOR, policy=policy, config=config).run(
            single_core_plan, NormalWorkload(), seed=seed)

        # The reference run: the same offline scheduler on the full task set,
        # simulated by the single-core fast path with the generator state the
        # runner derives for core 0.
        schedule = ACSScheduler(PROCESSOR).schedule(taskset)
        single = DVSSimulator(PROCESSOR, policy=policy, config=config).run(
            schedule, NormalWorkload(), derive_rng(seed, 0, SIMULATION_STREAM))

        core = multicore.core_results[0]
        assert core is not None
        # Bitwise equality — no pytest.approx anywhere.
        assert core.total_energy == single.total_energy
        assert core.energy_per_hyperperiod == single.energy_per_hyperperiod
        assert core.energy_by_task == single.energy_by_task
        assert core.transition_energy == single.transition_energy
        assert core.deadline_misses == single.deadline_misses
        assert core.jobs_completed == single.jobs_completed
        assert multicore.total_energy == single.total_energy
        assert multicore.mean_energy_per_hyperperiod == single.mean_energy_per_hyperperiod

    def test_one_core_plan_schedule_matches_single_core_schedule(self, taskset, single_core_plan):
        schedule = ACSScheduler(PROCESSOR).schedule(taskset)
        core_schedule = single_core_plan.schedules[0]
        assert core_schedule.end_times() == schedule.end_times()
        assert core_schedule.wc_budgets() == schedule.wc_budgets()


class TestAggregation:
    def test_totals_are_sums_over_cores(self, quad_core_plan):
        result = MulticoreRunner(
            PROCESSOR, policy="greedy",
            config=SimulationConfig(n_hyperperiods=5),
        ).run(quad_core_plan, seed=7)
        assert result.n_cores == 4
        assert result.total_energy == pytest.approx(sum(result.energy_by_core))
        assert result.miss_count == sum(
            core.miss_count for core in result.core_results if core is not None)
        assert result.jobs_completed == sum(
            core.jobs_completed for core in result.core_results if core is not None)
        assert result.met_all_deadlines
        assert len(result.core_utilizations) == 4
        for utilization, slack in zip(result.core_utilizations, result.core_slacks):
            assert slack == pytest.approx(1.0 - utilization)
        assert set(result.assignment.values()) <= {0, 1, 2, 3}
        assert "greedy" in result.summary() and "4 cores" in result.summary()

    def test_every_core_covers_the_same_wallclock_horizon(self, quad_core_plan):
        n_global = 3
        result = MulticoreRunner(
            PROCESSOR, policy="greedy",
            config=SimulationConfig(n_hyperperiods=n_global),
        ).run(quad_core_plan, seed=7)
        for core in quad_core_plan.partition.used_cores():
            repeats = quad_core_plan.hyperperiods_per_frame(core)
            assert result.core_results[core].n_hyperperiods == n_global * repeats

    def test_deterministic_for_a_seed(self, quad_core_plan):
        config = SimulationConfig(n_hyperperiods=4)
        first = MulticoreRunner(PROCESSOR, policy="greedy", config=config).run(
            quad_core_plan, seed=11)
        second = MulticoreRunner(PROCESSOR, policy="greedy", config=config).run(
            quad_core_plan, seed=11)
        assert first.total_energy == second.total_energy
        assert first.energy_by_core == second.energy_by_core

    def test_policy_instances_are_not_shared_across_cores(self, quad_core_plan):
        policy = GreedySlackPolicy()
        runner = MulticoreRunner(PROCESSOR, policy=policy,
                                 config=SimulationConfig(n_hyperperiods=2))
        result = runner.run(quad_core_plan, seed=3)
        assert result.policy == "greedy"

    def test_idle_cores_report_nothing(self, taskset):
        plan = plan_multicore(
            MulticoreProblem(taskset, PROCESSOR, 2, partitioner="ffd"))
        result = MulticoreRunner(
            PROCESSOR, policy="greedy",
            config=SimulationConfig(n_hyperperiods=2),
        ).run(plan, seed=5)
        assert result.core_results[1] is None
        assert result.energy_by_core[1] == 0.0
        assert result.core_utilizations[1] == 0.0

    def test_wcs_method_rides_through(self, taskset):
        plan = plan_multicore(
            MulticoreProblem(taskset, PROCESSOR, 2, partitioner="wfd", method="wcs"))
        result = MulticoreRunner(
            PROCESSOR, policy="static",
            config=SimulationConfig(n_hyperperiods=2),
        ).run(plan, seed=5)
        assert result.method == "wcs"
        assert result.met_all_deadlines
