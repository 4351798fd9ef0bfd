"""Tests for the DVSPolicy protocol, the look-ahead policy and the hooks."""

import math

import numpy as np
import pytest

from repro.offline.acs import ACSScheduler
from repro.offline.wcs import WCSScheduler
from repro.runtime.policies import (
    GreedySlackPolicy,
    LookaheadSlackPolicy,
    ProportionalSlackPolicy,
    SpeedRequest,
    StaticReplayPolicy,
    available_policies,
    get_policy,
)
from repro.runtime.simulator import DVSSimulator, SimulationConfig
from repro.workloads.distributions import FixedWorkload, UniformWorkload


def make_request(**overrides):
    defaults = dict(time_now=2.0, end_time=10.0, wc_remaining=4000.0,
                    planned_frequency=800.0, job_wc_remaining=6000.0,
                    job_deadline=20.0, job_final_end_time=17.0)
    defaults.update(overrides)
    return SpeedRequest(**defaults)


class TestProtocol:
    def test_registry_names(self):
        assert available_policies() == ("greedy", "lookahead", "proportional", "static")

    @pytest.mark.parametrize("name,cls", [
        ("greedy", GreedySlackPolicy),
        ("static", StaticReplayPolicy),
        ("lookahead", LookaheadSlackPolicy),
        ("proportional", ProportionalSlackPolicy),
    ])
    def test_lookup(self, name, cls):
        assert isinstance(get_policy(name), cls)

    def test_simulator_resolves_policy_names(self, processor):
        simulator = DVSSimulator(processor, policy="lookahead")
        assert isinstance(simulator.policy, LookaheadSlackPolicy)

    def test_default_speed_request_horizon_is_open(self):
        request = SpeedRequest(time_now=0.0, end_time=1.0, wc_remaining=1.0,
                               planned_frequency=1.0, job_wc_remaining=1.0,
                               job_deadline=2.0)
        assert math.isinf(request.job_final_end_time)


class TestLookahead:
    def test_stretches_to_final_end_time(self, processor):
        frequency = LookaheadSlackPolicy().frequency(processor, make_request())
        assert frequency == pytest.approx(6000.0 / 15.0)

    def test_falls_back_to_deadline_without_horizon(self, processor):
        frequency = LookaheadSlackPolicy().frequency(
            processor, make_request(job_final_end_time=math.inf))
        assert frequency == pytest.approx(6000.0 / 18.0)

    def test_past_horizon_runs_at_fmax(self, processor):
        frequency = LookaheadSlackPolicy().frequency(
            processor, make_request(time_now=17.5))
        assert frequency == processor.fmax

    def test_zero_remaining_runs_at_fmin(self, processor):
        frequency = LookaheadSlackPolicy().frequency(
            processor, make_request(job_wc_remaining=0.0))
        assert frequency == processor.fmin

    def test_never_faster_than_proportional_is_slower_than(self, processor):
        """lookahead horizon ≤ deadline horizon → lookahead speed ≥ proportional speed."""
        request = make_request()
        lookahead = LookaheadSlackPolicy().frequency(processor, request)
        proportional = ProportionalSlackPolicy().frequency(processor, request)
        assert lookahead >= proportional


class _RecordingPolicy(GreedySlackPolicy):
    """Greedy policy that records every lifecycle hook invocation."""

    def __init__(self):
        self.simulation_starts = 0
        self.hyperperiod_starts = []
        self.finished_jobs = []

    def on_simulation_start(self, schedule, processor):
        self.simulation_starts += 1

    def on_hyperperiod_start(self, hp_index, offset):
        self.hyperperiod_starts.append((hp_index, offset))

    def on_job_finish(self, task_name, job_index, finish_time, deadline):
        self.finished_jobs.append(task_name)
        assert finish_time <= deadline + 1e-6  # greedy is deadline-safe here


class TestLifecycleHooks:
    def test_hooks_fire(self, two_task_set, processor):
        schedule = WCSScheduler(processor).schedule(two_task_set)
        policy = _RecordingPolicy()
        simulator = DVSSimulator(processor, policy=policy,
                                 config=SimulationConfig(n_hyperperiods=3, seed=5))
        result = simulator.run(schedule)
        assert policy.simulation_starts == 1
        assert [hp for hp, _ in policy.hyperperiod_starts] == [0, 1, 2]
        assert len(policy.finished_jobs) == result.jobs_completed
        assert result.met_all_deadlines


@pytest.fixture(params=["wcs", "acs"])
def schedules(request, three_task_set, processor):
    scheduler = {"wcs": WCSScheduler, "acs": ACSScheduler}[request.param]
    return scheduler(processor).schedule(three_task_set)


class TestPolicyGuarantees:
    def test_slack_reclamation_never_misses_on_feasible_sets(self, schedules, processor):
        """Greedy reclamation keeps the static schedule's worst-case guarantee."""
        simulator = DVSSimulator(
            processor, policy="greedy",
            config=SimulationConfig(n_hyperperiods=20),
        )
        result = simulator.run(schedules, UniformWorkload(), np.random.default_rng(99))
        assert result.met_all_deadlines

    def test_static_replay_never_misses_on_feasible_sets(self, schedules, processor):
        simulator = DVSSimulator(
            processor, policy="static",
            config=SimulationConfig(n_hyperperiods=10),
        )
        result = simulator.run(schedules, UniformWorkload(), np.random.default_rng(99))
        assert result.met_all_deadlines

    def test_greedy_no_worse_than_static_at_worst_case(self, schedules, processor):
        """With actual = worst-case there is no slack: greedy must not cost more."""
        energies = {}
        for name in ("static", "greedy"):
            simulator = DVSSimulator(processor, policy=name,
                                     config=SimulationConfig(n_hyperperiods=5))
            result = simulator.run(schedules, FixedWorkload(mode="wcec"),
                                   np.random.default_rng(3))
            energies[name] = result.mean_energy_per_hyperperiod
        assert energies["greedy"] <= energies["static"] * (1 + 1e-9)

    def test_reclamation_beats_static_below_worst_case(self, schedules, processor):
        """The acceptance scenario: actual < WCET → reclamation saves energy."""
        energies = {}
        for name in ("static", "greedy"):
            simulator = DVSSimulator(processor, policy=name,
                                     config=SimulationConfig(n_hyperperiods=20))
            result = simulator.run(schedules, FixedWorkload(mode="bcec"),
                                   np.random.default_rng(3))
            energies[name] = result.mean_energy_per_hyperperiod
        assert energies["greedy"] < energies["static"]

    def test_lookahead_runs_and_records_any_misses(self, schedules, processor):
        """Aggressive look-ahead must finish the simulation (misses recorded, not raised)."""
        simulator = DVSSimulator(processor, policy="lookahead",
                                 config=SimulationConfig(n_hyperperiods=10))
        result = simulator.run(schedules, UniformWorkload(), np.random.default_rng(11))
        assert result.jobs_completed > 0
        assert result.policy == "lookahead"
        assert result.total_energy > 0
