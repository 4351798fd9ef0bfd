"""Harness-level equivalence: pooled planning never changes any result.

:func:`compare_schedulers` plans every comparison through
:func:`~repro.offline.batched_solver.plan_expansions` (one solver pool plus
the solve memo).  Its :class:`ComparisonResult` must be bitwise-identical to
the plain reference — every scheduler's own ``schedule_expansion`` followed
by one ``DVSSimulator.run`` per method — schedules *and* the simulations run
on top of them, across the full online matrix (all four DVS policies x all
four workload models), with the scenario-weighted stochastic scheduler in
the mix, and under a discrete-voltage simulation config.
"""

import copy

import numpy as np
import pytest

from repro.analysis.preemption import expand_fully_preemptive
from repro.experiments.harness import (
    ComparisonConfig,
    compare_schedulers,
    make_schedulers,
)
from repro.offline.batched_solver import SolveMemo
from repro.offline.stochastic import StochasticACSScheduler
from repro.power.voltage import VoltageLevels
from repro.runtime.policies import available_policies, get_policy
from repro.runtime.simulator import DVSSimulator, SimulationConfig
from repro.workloads.distributions import (
    BimodalWorkload,
    FixedWorkload,
    NormalWorkload,
    UniformWorkload,
)

WORKLOADS = [
    NormalWorkload(),
    UniformWorkload(),
    FixedWorkload(mode="acec"),
    BimodalWorkload(burst_probability=0.3),
]


def fingerprint(outcomes):
    """Every float of every ``{name: (schedule, simulation)}`` outcome."""
    return {
        name: (
            schedule.method,
            tuple(schedule.end_times()),
            tuple(schedule.wc_budgets()),
            schedule.objective_value,
            simulation.total_energy,
            tuple(simulation.energy_per_hyperperiod),
            tuple(sorted(simulation.energy_by_task.items())),
            len(simulation.deadline_misses),
        )
        for name, (schedule, simulation) in outcomes.items()
    }


def run_both_plans(taskset, processor, schedulers, **config_kwargs):
    """The harness result and the sequential reference, as fingerprints."""
    config = ComparisonConfig(n_hyperperiods=2, seed=424242, **config_kwargs)
    # A fresh memo: the pooled schedules must come from solves, not replays.
    pooled = compare_schedulers(taskset, processor, schedulers, config,
                                solve_memo=SolveMemo())
    expansion = expand_fully_preemptive(taskset)
    sequential = {}
    for name, scheduler in schedulers.items():
        schedule = scheduler.schedule_expansion(expansion)
        simulator = DVSSimulator(processor, policy=copy.deepcopy(config.policy),
                                 config=config.simulation_config())
        sequential[name] = (schedule, simulator.run(schedule, config.workload,
                                                    np.random.default_rng(config.seed)))
    return (fingerprint({name: (outcome.schedule, outcome.simulation)
                         for name, outcome in pooled.outcomes.items()}),
            fingerprint(sequential))


@pytest.mark.parametrize("policy", available_policies())
@pytest.mark.parametrize("workload", WORKLOADS, ids=lambda w: w.name)
def test_policy_workload_matrix(processor, two_task_set, policy, workload):
    pooled, sequential = run_both_plans(
        two_task_set, processor, make_schedulers(("wcs", "acs"), processor),
        policy=get_policy(policy), workload=workload)
    assert pooled == sequential


def test_scenario_weighted_scheduler(processor, three_task_set):
    schedulers = dict(make_schedulers(("wcs", "acs"), processor))
    schedulers["acs_stochastic"] = StochasticACSScheduler(processor, n_scenarios=4)
    pooled, sequential = run_both_plans(three_task_set, processor, schedulers)
    assert pooled == sequential


def test_discrete_voltage_simulation(processor, two_task_set):
    simulation = SimulationConfig(
        n_hyperperiods=2, seed=424242,
        voltage_levels=VoltageLevels([0.5, 1.0, 2.0, 3.0, 4.0, 5.0]))
    pooled, sequential = run_both_plans(
        two_task_set, processor, make_schedulers(("wcs", "acs"), processor),
        simulation=simulation)
    assert pooled == sequential
