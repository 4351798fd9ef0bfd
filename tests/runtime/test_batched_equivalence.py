"""Bitwise equivalence of the lane engine and the reference event loop.

The lane engine (:func:`simulate_batch`) promises *bitwise-identical*
:class:`SimulationResult` aggregates to the reference loop
(``SimulationConfig(fast_path=False)``) for the same schedule, workload
model and generator state.  These tests hold it to that promise with no
tolerances anywhere; every lane-vs-reference case first asserts that the
lane engine really takes the unit (``batch_fallback_reason`` is ``None``),
so no case can silently compare the reference loop with itself.  They cover

* all four built-in DVS policies x all four workload models,
* non-free voltage-transition models,
* a constant-speed schedule, a schedule that misses deadlines, and the
  generator state a run leaves behind,
* heterogeneous multi-unit batches (different schedules, policies, horizon
  lengths in one lock-step advance),
* block boundaries: one hyperperiod per block, ragged blocks (a horizon that
  is not a multiple of the block length) and the default lane budget, and
* every fallback configuration (CMOS law, discrete voltages, timelines,
  subclassed policies, ``fast_path=False``), which must route per unit to
  the reference loop and still return the right result.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.analysis.preemption import expand_fully_preemptive
from repro.core.task import Task
from repro.core.taskset import TaskSet
from repro.offline.baselines import ConstantSpeedScheduler
from repro.offline.schedule import StaticSchedule
from repro.offline.wcs import WCSScheduler
from repro.power.presets import cmos_processor, ideal_processor
from repro.power.transition import TransitionModel
from repro.power.voltage import VoltageLevels
from repro.runtime import batched as batched_engine
from repro.runtime.batched import BatchUnit, batch_fallback_reason, simulate_batch
from repro.runtime.policies import GreedySlackPolicy, available_policies
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


def lane_budgets(n_units):
    """Lane budgets that put the block boundaries of ``n_units`` units apart.

    ``one-hp-blocks`` advances one hyperperiod per block; ``ragged-blocks``
    advances four hyperperiods of every live unit per block (more as units
    retire), so a horizon that is not a multiple of the block length ends
    on a short block; ``default`` keeps the module's budget.  The tests run
    every budget in turn, so each keeps its one test id.
    """
    return {"one-hp-blocks": 1, "ragged-blocks": 4 * n_units,
            "default": batched_engine.LANE_BUDGET}


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


def run_reference(schedule, processor, policy, config, workload, rng):
    """The oracle of every case here: the reference event loop."""
    simulator = DVSSimulator(processor, policy=policy, config=replace(config, fast_path=False))
    return simulator.run(schedule, workload, rng)


def run_both(processor, schedule, workload, policy, seed=20250729, **config_kwargs):
    """Run the lane engine and the reference loop from identical generator states."""
    config = SimulationConfig(n_hyperperiods=11, seed=seed, **config_kwargs)
    unit = BatchUnit(schedule=schedule, processor=processor, policy=policy, config=config,
                     workload=workload, rng=np.random.default_rng(seed))
    assert batch_fallback_reason(unit) is None
    (batched,) = simulate_batch([unit])
    reference = run_reference(schedule, processor, policy, config, workload,
                              np.random.default_rng(seed))
    return batched, reference


def assert_identical(batched, reference, where=""):
    """Exact (bitwise) equality of every reported aggregate."""
    assert batched.method == reference.method, where
    assert batched.policy == reference.policy, where
    assert batched.n_hyperperiods == reference.n_hyperperiods, where
    assert batched.total_energy == reference.total_energy, where
    assert batched.energy_per_hyperperiod == reference.energy_per_hyperperiod, where
    assert batched.transition_energy == reference.transition_energy, where
    assert batched.energy_by_task == reference.energy_by_task, where
    assert list(batched.energy_by_task) == list(reference.energy_by_task), where
    assert batched.deadline_misses == reference.deadline_misses, where
    assert batched.jobs_completed == reference.jobs_completed, where


@pytest.mark.parametrize("policy", available_policies())
@pytest.mark.parametrize("workload", WORKLOADS, ids=lambda w: w.name)
def test_policies_and_workloads(linear_processor, wcs_schedule, policy, workload):
    batched, reference = run_both(linear_processor, wcs_schedule, workload, policy)
    assert_identical(batched, reference)


@pytest.mark.parametrize("policy", available_policies())
def test_transition_overhead(linear_processor, wcs_schedule, policy, monkeypatch):
    for blocks, budget in lane_budgets(1).items():
        monkeypatch.setattr(batched_engine, "LANE_BUDGET", budget)
        for workload in WORKLOADS:
            batched, reference = run_both(
                linear_processor, wcs_schedule, workload, policy,
                transition_model=TransitionModel(cdd=0.2, efficiency_loss=0.8),
            )
            assert reference.transition_energy > 0.0
            assert_identical(batched, reference, f"{blocks}, {workload.name}")


def test_first_touch_task_order_is_preserved(linear_processor, wcs_schedule):
    """energy_by_task iterates in first-execution order, like the reference loop."""
    batched, reference = run_both(
        linear_processor, wcs_schedule, NormalWorkload(), "greedy")
    assert list(batched.energy_by_task) == list(reference.energy_by_task)


def test_constant_speed_schedule(linear_processor, taskset):
    schedule = ConstantSpeedScheduler(linear_processor).schedule_expansion(
        expand_fully_preemptive(taskset))
    batched, reference = run_both(linear_processor, schedule, UniformWorkload(), "static")
    assert_identical(batched, reference)


def test_deadline_misses_identical(linear_processor, taskset):
    """An aggressive policy on a tight manual schedule misses identically."""
    expansion = expand_fully_preemptive(taskset)
    # Push every end-time to its slot end: proportional reclamation then runs
    # so slowly that low-priority jobs miss; both engines must agree on it.
    schedule = StaticSchedule.from_vectors(
        expansion,
        [sub.slot_end for sub in expansion.sub_instances],
        WCSScheduler(linear_processor).schedule_expansion(expansion).wc_budgets(),
        method="stretched",
    )
    batched, reference = run_both(
        linear_processor, schedule, FixedWorkload(mode="wcec"), "proportional")
    assert reference.deadline_misses
    assert_identical(batched, reference)


def test_generator_state_identical_after_run(linear_processor, wcs_schedule):
    """Both engines leave the shared generator in the same state (paired sweeps)."""
    config = SimulationConfig(n_hyperperiods=7)
    unit = BatchUnit(schedule=wcs_schedule, processor=linear_processor, policy="greedy",
                     config=config, workload=NormalWorkload(), rng=np.random.default_rng(99))
    assert batch_fallback_reason(unit) is None
    simulate_batch([unit])
    rng = np.random.default_rng(99)
    run_reference(wcs_schedule, linear_processor, "greedy", config, NormalWorkload(), rng)
    assert unit.rng.bit_generator.state == rng.bit_generator.state


def test_mixed_batch_matches_individual_runs(linear_processor, taskset, monkeypatch):
    """One lock-step advance over heterogeneous units == each unit run alone."""
    other = TaskSet([
        Task("a", period=8, wcec=1200, acec=700, bcec=200),
        Task("b", period=16, wcec=3000, acec=1500, bcec=500),
    ], name="other")
    wcs = WCSScheduler(linear_processor).schedule_expansion(
        expand_fully_preemptive(taskset))
    constant = ConstantSpeedScheduler(linear_processor).schedule_expansion(
        expand_fully_preemptive(other))
    specs = [
        (wcs, "greedy", NormalWorkload(), 7),
        (constant, "static", UniformWorkload(), 11),
        (wcs, "lookahead", BimodalWorkload(burst_probability=0.3), 5),
        (constant, "proportional", FixedWorkload(mode="acec"), 3),
        (wcs, "greedy", NormalWorkload(), 9),
    ]
    alone = [
        run_reference(schedule, linear_processor, policy,
                      SimulationConfig(n_hyperperiods=n_hp),
                      workload, np.random.default_rng(1000 + index))
        for index, (schedule, policy, workload, n_hp) in enumerate(specs)
    ]
    # The lookahead unit misses deadlines in several hyperperiods, so the
    # order of deadline_misses across block boundaries is really checked.
    assert len({miss.hyperperiod_index for miss in alone[2].deadline_misses}) > 1
    for blocks, budget in lane_budgets(len(specs)).items():
        units = [
            BatchUnit(schedule=schedule, processor=linear_processor, policy=policy,
                      config=SimulationConfig(n_hyperperiods=n_hp),
                      workload=workload, rng=np.random.default_rng(1000 + index))
            for index, (schedule, policy, workload, n_hp) in enumerate(specs)
        ]
        assert all(batch_fallback_reason(unit) is None for unit in units)
        monkeypatch.setattr(batched_engine, "LANE_BUDGET", budget)
        for result, reference in zip(simulate_batch(units), alone, strict=True):
            assert_identical(result, reference, blocks)


def test_mixed_batch_with_arrivals_and_compaction(linear_processor, taskset, monkeypatch):
    """Jittered and periodic lanes advance together through row compaction.

    Nine units with staggered horizons make blocks wide enough for the
    engine to compact finished lanes inside them (compaction triggers only
    at >= 8 lanes); half the units carry a sporadic arrival model, so block
    starts derive per-lane ranks from the jitter table and compaction must
    slice those ranks and the packed job state without disturbing either.
    """
    from repro.workloads.arrivals import SporadicArrivals

    other = TaskSet([
        Task("a", period=8, wcec=1200, acec=700, bcec=200),
        Task("b", period=16, wcec=3000, acec=1500, bcec=500),
    ], name="other")
    wcs = WCSScheduler(linear_processor).schedule_expansion(
        expand_fully_preemptive(taskset))
    constant = ConstantSpeedScheduler(linear_processor).schedule_expansion(
        expand_fully_preemptive(other))
    policies = ["greedy", "static", "lookahead", "proportional"]
    specs = []
    for index in range(9):
        arrivals = SporadicArrivals(max_jitter=1.5) if index % 2 else None
        specs.append((
            wcs if index % 3 else constant,
            policies[index % 4],
            SimulationConfig(n_hyperperiods=2 + index, arrivals=arrivals),
        ))
    alone = [
        run_reference(schedule, linear_processor, policy,
                      config, NormalWorkload(), np.random.default_rng(500 + index))
        for index, (schedule, policy, config) in enumerate(specs)
    ]
    # The jittered proportional unit misses deadlines in several hyperperiods.
    assert len({miss.hyperperiod_index for miss in alone[7].deadline_misses}) > 1
    for blocks, budget in lane_budgets(len(specs)).items():
        units = [
            BatchUnit(schedule=schedule, processor=linear_processor, policy=policy,
                      config=config, workload=NormalWorkload(),
                      rng=np.random.default_rng(500 + index))
            for index, (schedule, policy, config) in enumerate(specs)
        ]
        assert all(batch_fallback_reason(unit) is None for unit in units)
        monkeypatch.setattr(batched_engine, "LANE_BUDGET", budget)
        for result, reference in zip(simulate_batch(units), alone, strict=True):
            assert_identical(result, reference, blocks)


def test_reference_loop_unit_in_a_mixed_batch(linear_processor, wcs_schedule, monkeypatch):
    """A ``fast_path=False`` unit runs the reference loop; its neighbours stay vectorized."""
    configs = [SimulationConfig(n_hyperperiods=6),
               SimulationConfig(n_hyperperiods=6, fast_path=False),
               SimulationConfig(n_hyperperiods=4)]
    alone = [
        run_reference(wcs_schedule, linear_processor, "greedy", config,
                      NormalWorkload(), np.random.default_rng(70 + index))
        for index, config in enumerate(configs)
    ]
    reference_runs = []
    reference_loop = DVSSimulator._run_reference

    def spy(simulator, *args):
        reference_runs.append(simulator.config)
        return reference_loop(simulator, *args)

    monkeypatch.setattr(DVSSimulator, "_run_reference", spy)
    units = [
        BatchUnit(schedule=wcs_schedule, processor=linear_processor, policy="greedy",
                  config=config, workload=NormalWorkload(),
                  rng=np.random.default_rng(70 + index))
        for index, config in enumerate(configs)
    ]
    assert [batch_fallback_reason(unit) for unit in units] == [None, "fast_path=False", None]
    results = simulate_batch(units)
    assert len(reference_runs) == 1 and reference_runs[0] is configs[1]
    for result, reference in zip(results, alone, strict=True):
        assert_identical(result, reference)


class _RecordingPolicy(GreedySlackPolicy):
    """A subclass (hooks may matter) — must be gated to the reference loop."""

    def __init__(self):
        self.calls = []

    def on_job_finish(self, task_name, job_index, finish_time, deadline):
        self.calls.append((task_name, job_index))


class TestFallback:
    """Configurations the vectorized core does not cover route to the reference loop."""

    def _check(self, unit, expected_fragment):
        reason = batch_fallback_reason(unit)
        assert reason is not None and expected_fragment in reason
        (batched,) = simulate_batch([unit])
        alone = run_reference(unit.schedule, unit.processor, unit.policy,
                              unit.config, unit.workload, np.random.default_rng(99))
        assert_identical(batched, alone)

    def test_cmos_processor(self, taskset):
        processor = cmos_processor(fmax=1000.0)
        schedule = WCSScheduler(processor).schedule_expansion(
            expand_fully_preemptive(taskset))
        unit = BatchUnit(schedule=schedule, processor=processor, policy="greedy",
                         config=SimulationConfig(n_hyperperiods=5),
                         workload=NormalWorkload(), rng=np.random.default_rng(99))
        self._check(unit, "cmos")

    def test_discrete_voltage_levels(self, linear_processor, wcs_schedule):
        config = SimulationConfig(
            n_hyperperiods=5, voltage_levels=VoltageLevels([0.5, 1.0, 2.0, 5.0]))
        unit = BatchUnit(schedule=wcs_schedule, processor=linear_processor,
                         policy="greedy", config=config,
                         workload=NormalWorkload(), rng=np.random.default_rng(99))
        self._check(unit, "voltage levels")

    def test_recorded_timeline(self, linear_processor, wcs_schedule):
        config = SimulationConfig(n_hyperperiods=5, record_timeline=True)
        unit = BatchUnit(schedule=wcs_schedule, processor=linear_processor,
                         policy="greedy", config=config,
                         workload=NormalWorkload(), rng=np.random.default_rng(99))
        reason = batch_fallback_reason(unit)
        assert reason == "record_timeline"
        (batched,) = simulate_batch([unit])
        alone = run_reference(wcs_schedule, linear_processor, "greedy",
                              config, NormalWorkload(), np.random.default_rng(99))
        assert_identical(batched, alone)
        assert batched.timeline.segments == alone.timeline.segments

    def test_subclassed_policy(self, linear_processor, wcs_schedule):
        unit = BatchUnit(schedule=wcs_schedule, processor=linear_processor,
                         policy=_RecordingPolicy(),
                         config=SimulationConfig(n_hyperperiods=5),
                         workload=NormalWorkload(), rng=np.random.default_rng(99))
        reason = batch_fallback_reason(unit)
        assert reason is not None and "_RecordingPolicy" in reason
        (batched,) = simulate_batch([unit])
        # The subclass's hooks observed the full scalar call sequence.
        assert unit.policy.calls
        reference = _RecordingPolicy()
        alone = run_reference(wcs_schedule, linear_processor, reference,
                              SimulationConfig(n_hyperperiods=5),
                              NormalWorkload(), np.random.default_rng(99))
        assert_identical(batched, alone)
        assert unit.policy.calls == reference.calls

    def test_builtin_default_config_is_vectorized(self, linear_processor, wcs_schedule):
        for policy in available_policies():
            unit = BatchUnit(schedule=wcs_schedule, processor=linear_processor,
                             policy=policy, config=SimulationConfig(n_hyperperiods=5))
            assert batch_fallback_reason(unit) is None
