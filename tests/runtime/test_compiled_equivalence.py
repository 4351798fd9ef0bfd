"""Bitwise equivalence of ``DVSSimulator.run``'s fast path and the reference loop.

``SimulationConfig(fast_path=True)``, the default, makes ``DVSSimulator.run``
a one-unit ``simulate_batch`` call, which runs a vectorizable unit on the
lane engine; ``fast_path=False`` runs the reference event loop.  The module
keeps its name from when the fast path was a compiled event loop.  The
switch must not show in the results: for the same schedule, workload model
and generator state, both runs agree bitwise, with no tolerances anywhere,
across all four built-in DVS policies x all four workload models and under a
non-free voltage-transition model.

Each case first checks that the fast run really takes the lane engine (its
unit has no fallback reason, and it never enters the reference loop), so
no case can compare the reference loop with itself.  Direct
``simulate_batch`` calls, mixed batches and the fallback routes are covered
by ``test_batched_equivalence.py``.
"""

import numpy as np
import pytest

from repro.analysis.preemption import expand_fully_preemptive
from repro.core.task import Task
from repro.core.taskset import TaskSet
from repro.offline.wcs import WCSScheduler
from repro.power.presets import ideal_processor
from repro.power.transition import TransitionModel
from repro.runtime.batched import BatchUnit, batch_fallback_reason
from repro.runtime.policies import available_policies
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


@pytest.fixture(scope="module")
def linear_processor():
    return ideal_processor(fmax=1000.0)


@pytest.fixture(scope="module")
def taskset():
    return TaskSet([
        Task("hi", period=10, wcec=1800, acec=1000, bcec=300),
        Task("mid", period=20, wcec=4200, acec=2400, bcec=900),
        Task("lo", period=40, wcec=9000, acec=5000, bcec=1500),
    ], name="equivalence")


@pytest.fixture(scope="module")
def wcs_schedule(linear_processor, taskset):
    return WCSScheduler(linear_processor).schedule_expansion(
        expand_fully_preemptive(taskset))


def run_both(processor, schedule, workload, policy, monkeypatch, seed=20250729,
             **config_kwargs):
    """Run ``fast_path=True`` and ``fast_path=False`` from identical generator states."""
    reference_runs = []
    reference_loop = DVSSimulator._run_reference

    def spy(simulator, *args):
        reference_runs.append(simulator.config.fast_path)
        return reference_loop(simulator, *args)

    monkeypatch.setattr(DVSSimulator, "_run_reference", spy)
    results = []
    for fast_path in (True, False):
        config = SimulationConfig(
            n_hyperperiods=11, seed=seed, fast_path=fast_path, **config_kwargs,
        )
        simulator = DVSSimulator(processor, policy=policy, config=config)
        rng = np.random.default_rng(seed)
        if fast_path:
            unit = BatchUnit(schedule=schedule, processor=simulator.processor,
                             policy=simulator.policy, config=config,
                             workload=workload, rng=rng)
            assert batch_fallback_reason(unit) is None
        results.append(simulator.run(schedule, workload, rng))
    assert reference_runs == [False]
    return results


def assert_identical(fast, reference):
    """Exact (bitwise) equality of every reported quantity."""
    assert fast.method == reference.method
    assert fast.policy == reference.policy
    assert fast.n_hyperperiods == reference.n_hyperperiods
    assert fast.total_energy == reference.total_energy
    assert fast.energy_per_hyperperiod == reference.energy_per_hyperperiod
    assert fast.transition_energy == reference.transition_energy
    assert fast.energy_by_task == reference.energy_by_task
    assert list(fast.energy_by_task) == list(reference.energy_by_task)
    assert fast.deadline_misses == reference.deadline_misses
    assert fast.jobs_completed == reference.jobs_completed


@pytest.mark.parametrize("policy", available_policies())
@pytest.mark.parametrize("workload", WORKLOADS, ids=lambda w: w.name)
def test_policies_and_workloads(linear_processor, wcs_schedule, policy, workload,
                                monkeypatch):
    fast, reference = run_both(linear_processor, wcs_schedule, workload, policy,
                               monkeypatch)
    assert_identical(fast, reference)


@pytest.mark.parametrize("workload", WORKLOADS, ids=lambda w: w.name)
def test_transition_overhead(linear_processor, wcs_schedule, workload, monkeypatch):
    fast, reference = run_both(
        linear_processor, wcs_schedule, workload, "greedy", monkeypatch,
        transition_model=TransitionModel(cdd=0.2, efficiency_loss=0.8),
    )
    assert fast.transition_energy > 0.0
    assert_identical(fast, reference)
