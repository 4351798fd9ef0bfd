"""Harness-level equivalence: memoized planning never changes any result.

:func:`compare_schedulers` plans every comparison through
:func:`~repro.offline.batched_solver.plan_expansions` and the solve memo.
Its :class:`ComparisonResult` must be bitwise-identical to
the plain reference — every scheduler's own ``schedule_expansion`` followed
by one ``DVSSimulator.run`` per method — schedules *and* the simulations run
on top of them, across the full online matrix (all four DVS policies x all
four workload models), with the scenario-weighted stochastic scheduler in
the mix, and under a discrete-voltage simulation config.

A chunk of comparisons plans each distinct problem once and shares the
schedules among the comparisons that pose it; the payloads must equal
those of the same comparisons run one chunk each.
"""

import copy
import json
from dataclasses import replace

import numpy as np
import pytest

from repro.analysis.preemption import expand_fully_preemptive
from repro.experiments import harness
from repro.experiments.harness import (
    ComparisonConfig,
    compare_schedulers,
    make_schedulers,
)
from repro.offline.batched_solver import SolveMemo
from repro.offline.nlp import ReducedNLP
from repro.offline.stochastic import StochasticACSScheduler
from repro.power.voltage import VoltageLevels
from repro.reporting.serialization import comparison_result_to_dict
from repro.runtime.policies import available_policies, get_policy
from repro.runtime.simulator import DVSSimulator
from repro.telemetry import Telemetry, using
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


def run_both_plans(taskset, processor, schedulers, config_type=ComparisonConfig,
                   **config_kwargs):
    """The harness result and the sequential reference, as fingerprints."""
    config = config_type(n_hyperperiods=2, seed=424242, **config_kwargs)
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


class DiscreteVoltageConfig(ComparisonConfig):
    """A comparison simulated on a discrete voltage ladder, which no
    :class:`ComparisonConfig` field sets."""

    def simulation_config(self):
        return replace(super().simulation_config(),
                       voltage_levels=VoltageLevels([0.5, 1.0, 2.0, 3.0, 4.0, 5.0]))


def test_discrete_voltage_simulation(processor, two_task_set):
    pooled, sequential = run_both_plans(
        two_task_set, processor, make_schedulers(("wcs", "acs"), processor),
        config_type=DiscreteVoltageConfig)
    assert pooled == sequential


# --------------------------------------------------------------------- #
# Plan sharing within a chunk
# --------------------------------------------------------------------- #
def sharing_entries(processor, taskset, other_taskset):
    """One chunk: ``taskset`` under four seeds/policies/workloads, plus one
    comparison of ``other_taskset`` in the middle — two distinct problems."""
    settings = [(11, "greedy", NormalWorkload()), (12, "static", BimodalWorkload(0.3)),
                (13, "greedy", UniformWorkload()), (14, "proportional", NormalWorkload())]
    entries = [
        (taskset, processor, make_schedulers(("wcs", "acs"), processor),
         ComparisonConfig(n_hyperperiods=2, seed=seed, policy=get_policy(policy),
                          workload=workload))
        for seed, policy, workload in settings
    ]
    entries.insert(2, (other_taskset, processor, make_schedulers(("wcs", "acs"), processor),
                       ComparisonConfig(n_hyperperiods=2, seed=15)))
    return entries


def payload_bytes(results):
    return [json.dumps(comparison_result_to_dict(result), sort_keys=True) for result in results]


def test_shared_plans_leave_every_payload_unchanged(processor, cmos, two_task_set,
                                                   three_task_set):
    # cmos has no vectorized evaluation: its solves and its simulation units
    # take the reference paths, and must share plans just the same.
    for proc in (processor, cmos):
        entries = sharing_entries(proc, two_task_set, three_task_set)
        pooled = harness._compare_chunk(entries, SolveMemo())
        alone = [harness._compare_chunk([entry], SolveMemo())[0] for entry in entries]
        assert payload_bytes(pooled) == payload_bytes(alone)
        # The members of one problem hold the very same (read-only) schedules.
        assert pooled[0].outcomes["acs"].schedule is pooled[4].outcomes["acs"].schedule
        assert pooled[0].outcomes["acs"].schedule is not pooled[2].outcomes["acs"].schedule


def test_each_distinct_problem_is_planned_once(monkeypatch, processor, two_task_set,
                                               three_task_set):
    expanded, solved = [], []
    real_expand, real_solve = harness.expand_fully_preemptive, ReducedNLP.solve

    def counting_expand(taskset, *args, **kwargs):
        expanded.append(taskset.name)
        return real_expand(taskset, *args, **kwargs)

    def counting_solve(nlp, x0=None):
        solved.append(nlp.expansion.taskset.name)
        return real_solve(nlp, x0)

    monkeypatch.setattr(harness, "expand_fully_preemptive", counting_expand)
    monkeypatch.setattr(ReducedNLP, "solve", counting_solve)
    entries = sharing_entries(processor, two_task_set, three_task_set)
    memo = SolveMemo()
    with using(Telemetry()) as telemetry:
        harness._compare_chunk(entries, memo)
    assert expanded == ["two-tasks", "three-tasks"]
    # Per problem: WCS, ACS from the default guess, ACS from the WCS solution.
    assert sorted(solved) == ["three-tasks"] * 3 + ["two-tasks"] * 3
    assert telemetry.counters["plan.shared"] == len(entries) - 2
    assert telemetry.counters["solve_memo.computed"] == 6
    # ACS's WCS warm start is the WCS scheduler's own solve: one real hit per
    # problem, counted alike by the memo and by telemetry.
    assert telemetry.counters["solve_memo.hit"] == memo.hits == 2
    assert telemetry.counters["solve_memo.miss"] == 6
    statuses = {name: count for name, count in telemetry.counters.items()
                if name.startswith("solve.status.")}
    assert sum(statuses.values()) == 6
