"""Transition-energy accounting on zero-budget dispatches (regression).

A job whose worst-case budgets underestimate its drawn cycles ends up
dispatched with no usable budget left: both engines finish it at
``fmax``/``vmax`` (the "numerical fringe").  The accounting bug fixed here
charged the voltage transition *before* that override — at the voltage the
policy proposed for a dispatch that never executes at it — and also charged
transitions for zero-cycle requeue dispatches that switch nothing.  The fix
moves transition accounting after the zero-budget handling in the reference
loop and the lane engine alike; this file constructs the
zero-budget-dispatch case explicitly and pins the corrected numbers.
"""

import numpy as np
import pytest

from repro.analysis.preemption import expand_fully_preemptive
from repro.core.task import Task
from repro.core.taskset import TaskSet
from repro.offline.schedule import ScheduledSubInstance, StaticSchedule
from repro.power.presets import ideal_processor
from repro.power.transition import TransitionModel
from repro.runtime.batched import BatchUnit, batch_fallback_reason, simulate_batch
from repro.runtime.simulator import DVSSimulator, SimulationConfig
from repro.workloads.distributions import FixedWorkload

N_HYPERPERIODS = 2
TRANSITION = TransitionModel(cdd=0.2, efficiency_loss=0.8)


@pytest.fixture(scope="module")
def processor():
    return ideal_processor(fmax=1000.0)  # vmax=5.0, so k = 0.005


@pytest.fixture(scope="module")
def underbudgeted_schedule(processor):
    """A single job whose only entry budgets 3600 of its 6000 WCEC cycles.

    With a fixed WCEC workload the job exhausts the budget mid-flight and is
    re-dispatched with ``budget <= eps`` at its last entry — exactly the
    fringe both engines finish at fmax/vmax.
    """
    taskset = TaskSet([Task("solo", period=10, wcec=6000, acec=6000, bcec=6000)],
                      name="underbudgeted")
    expansion = expand_fully_preemptive(taskset)
    entries = [
        ScheduledSubInstance(sub=sub, end_time=10.0, wc_budget=3600.0)
        for sub in expansion.sub_instances
    ]
    return StaticSchedule(expansion=expansion, entries=entries, method="handmade")


def run_engine(processor, schedule, **config_kwargs):
    config = SimulationConfig(n_hyperperiods=N_HYPERPERIODS,
                              transition_model=TRANSITION, **config_kwargs)
    simulator = DVSSimulator(processor, policy="greedy", config=config)
    return simulator.run(schedule, FixedWorkload(mode="wcec"),
                         np.random.default_rng(7))


def test_fringe_dispatch_charges_transition_at_vmax(processor, underbudgeted_schedule):
    """The zero-budget dispatch transitions to vmax, not to the policy's voltage.

    Per hyperperiod: the first dispatch runs at the greedy speed
    (3600 cycles / 10 time units -> 360 Hz -> 1.8 V, no transition yet);
    the second dispatch has no usable budget, so the loop overrides it to
    vmax and must charge the 1.8 V -> 5.0 V transition.  The pre-fix code
    charged the transition at the *pre-override* policy voltage instead
    (greedy proposes fmin -> vmin for an exhausted budget).
    """
    result = run_engine(processor, underbudgeted_schedule)
    policy_voltage = processor.voltage_for_frequency(3600.0 / 10.0)
    assert policy_voltage == pytest.approx(1.8)
    expected = N_HYPERPERIODS * TRANSITION.transition_energy(policy_voltage,
                                                             processor.vmax)
    buggy = N_HYPERPERIODS * TRANSITION.transition_energy(policy_voltage,
                                                          processor.vmin)
    assert result.transition_energy == expected
    assert result.transition_energy != buggy
    # The fringe actually finished the job (and recorded the resulting miss).
    assert result.jobs_completed == N_HYPERPERIODS
    assert len(result.deadline_misses) == N_HYPERPERIODS


def test_lane_engine_and_reference_loop_agree_bitwise(processor, underbudgeted_schedule):
    reference = run_engine(processor, underbudgeted_schedule, fast_path=False)
    unit = BatchUnit(
        schedule=underbudgeted_schedule, processor=processor, policy="greedy",
        config=SimulationConfig(n_hyperperiods=N_HYPERPERIODS, transition_model=TRANSITION),
        workload=FixedWorkload(mode="wcec"), rng=np.random.default_rng(7))
    assert batch_fallback_reason(unit) is None
    (batched,) = simulate_batch([unit])
    assert batched.total_energy == reference.total_energy
    assert batched.energy_per_hyperperiod == reference.energy_per_hyperperiod
    assert batched.transition_energy == reference.transition_energy
    assert batched.energy_by_task == reference.energy_by_task
    assert batched.deadline_misses == reference.deadline_misses
