"""Tests for the ACS scheduler (the paper's contribution)."""

import pytest

from repro.offline.acs import ACSScheduler
from repro.offline.evaluation import average_case_energy, evaluate_schedule, worst_case_energy
from repro.offline.nlp import SolverOptions
from repro.offline.wcs import WCSScheduler
from repro.runtime.simulator import DVSSimulator, SimulationConfig
from repro.workloads.distributions import FixedWorkload


class TestACS:
    def test_valid_and_not_fallback(self, two_task_set, processor):
        schedule = ACSScheduler(processor).schedule(two_task_set)
        schedule.validate(processor)
        assert not schedule.metadata["fallback"]
        assert schedule.method == "acs"

    def test_average_case_energy_beats_wcs(self, two_task_set, processor):
        """The whole point of the paper: ACS end-times cost less when jobs take the ACEC."""
        acs = ACSScheduler(processor).schedule(two_task_set)
        wcs = WCSScheduler(processor).schedule(two_task_set)
        acs_energy = average_case_energy(acs, processor)
        wcs_energy = average_case_energy(wcs, processor)
        assert acs_energy < wcs_energy * 0.95  # at least a 5 % improvement on this example

    def test_average_case_energy_beats_wcs_three_tasks(self, three_task_set, processor):
        acs = ACSScheduler(processor).schedule(three_task_set)
        wcs = WCSScheduler(processor).schedule(three_task_set)
        assert average_case_energy(acs, processor) <= average_case_energy(wcs, processor) + 1e-6

    def test_worst_case_still_meets_deadlines(self, two_task_set, three_task_set, processor):
        """Even if every job takes its WCEC, the ACS schedule misses no deadline at runtime."""
        for taskset in (two_task_set, three_task_set):
            schedule = ACSScheduler(processor).schedule(taskset)
            simulator = DVSSimulator(processor, config=SimulationConfig(n_hyperperiods=2))
            result = simulator.run(schedule, FixedWorkload(mode="wcec"))
            assert result.met_all_deadlines

    def test_analytic_worst_case_feasible(self, two_task_set, processor):
        schedule = ACSScheduler(processor).schedule(two_task_set)
        actual = {i.key: i.wcec for i in schedule.expansion.instances}
        outcome = evaluate_schedule(schedule, processor, actual)
        assert outcome.feasible

    def test_budgets_conserved(self, two_task_set, processor):
        schedule = ACSScheduler(processor).schedule(two_task_set)
        for instance in schedule.expansion.instances:
            entries = schedule.entries_for_instance(instance)
            assert sum(e.wc_budget for e in entries) == pytest.approx(instance.wcec, rel=1e-6)

    def test_solver_options_forwarded(self, two_task_set, processor):
        options = SolverOptions(maxiter=5)
        schedule = ACSScheduler(processor, options=options).schedule(two_task_set)
        schedule.validate(processor)
        assert schedule.metadata["solver_iterations"] <= 6

    def test_objective_value_recorded(self, two_task_set, processor):
        schedule = ACSScheduler(processor).schedule(two_task_set)
        assert schedule.objective_value == pytest.approx(average_case_energy(schedule, processor), rel=1e-6)

    def test_name(self, processor):
        assert ACSScheduler(processor).name == "acs"

    def test_acs_trades_worst_case_for_average_case(self, two_task_set, processor):
        """ACS may cost more than WCS in the worst case (the paper's 33 % observation) but
        never violates feasibility; check the trade-off direction explicitly."""
        acs = ACSScheduler(processor).schedule(two_task_set)
        wcs = WCSScheduler(processor).schedule(two_task_set)
        assert worst_case_energy(acs, processor) >= worst_case_energy(wcs, processor) - 1e-6
