"""Event-level differential oracle: compiled vs reference trace conformance.

Aggregate equivalence (energy, misses, timelines) cannot see a dispatcher
that schedules *differently* but conserves energy.  These tests compare the
two scalar engines at the finest observable grain — the full typed event
stream (``SimulationConfig(trace=True)``) — with exact dataclass equality:
every release, resume, frequency change, segment, preemption and deadline
miss must match in order and in every field, across

* all four built-in DVS policies × all four workload models (the 4×4 matrix),
* sporadic arrivals with bounded release jitter,
* discrete-voltage quantisation and transition-overhead configurations, and
* the batched engine (which must fall back per-unit when tracing is on).
"""

import numpy as np
import pytest

from repro.analysis.preemption import expand_fully_preemptive
from repro.core.task import Task
from repro.core.taskset import TaskSet
from repro.offline.schedule import StaticSchedule
from repro.offline.wcs import WCSScheduler
from repro.power.presets import ideal_processor
from repro.power.transition import TransitionModel
from repro.power.voltage import VoltageLevels
from repro.runtime.policies import available_policies
from repro.runtime.simulator import DVSSimulator, SimulationConfig
from repro.runtime.trace import EventTrace
from repro.workloads.arrivals import SporadicArrivals
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
def processor():
    return ideal_processor(fmax=1000.0)


@pytest.fixture(scope="module")
def taskset():
    return TaskSet([
        Task("hi", period=10, wcec=1800, acec=1000, bcec=300),
        Task("mid", period=20, wcec=4200, acec=2400, bcec=900),
        Task("lo", period=40, wcec=9000, acec=5000, bcec=1500),
    ], name="trace-conformance")


@pytest.fixture(scope="module")
def wcs_schedule(processor, taskset):
    return WCSScheduler(processor).schedule_expansion(
        expand_fully_preemptive(taskset))


def run_both_traced(processor, schedule, workload, policy, seed=20250807,
                    **config_kwargs):
    """Run compiled and reference engines traced, from identical RNG states."""
    results = []
    for fast_path in (True, False):
        config = SimulationConfig(
            n_hyperperiods=7, seed=seed, trace=True, record_timeline=True,
            fast_path=fast_path, **config_kwargs,
        )
        simulator = DVSSimulator(processor, policy=policy, config=config)
        rng = np.random.default_rng(seed)
        results.append(simulator.run(schedule, workload, rng))
    return results


def assert_traces_identical(fast, reference):
    """Exact event-sequence equality plus the aggregate quantities."""
    assert isinstance(fast.trace, EventTrace)
    assert isinstance(reference.trace, EventTrace)
    assert len(fast.trace) == len(reference.trace)
    for index, (left, right) in enumerate(zip(fast.trace, reference.trace)):
        assert left == right, (
            f"traces diverge at event {index}: compiled={left!r} reference={right!r}")
    assert fast.trace == reference.trace
    assert fast.total_energy == reference.total_energy
    assert fast.energy_by_task == reference.energy_by_task
    assert fast.deadline_misses == reference.deadline_misses
    assert fast.timeline.segments == reference.timeline.segments


@pytest.mark.parametrize("policy", available_policies())
@pytest.mark.parametrize("workload", WORKLOADS, ids=lambda w: w.name)
def test_policy_workload_matrix(processor, wcs_schedule, policy, workload):
    """The full 4 policies × 4 workloads oracle matrix."""
    fast, reference = run_both_traced(processor, wcs_schedule, workload, policy)
    assert_traces_identical(fast, reference)
    assert len(fast.trace) > 0


@pytest.mark.parametrize("policy", available_policies())
def test_sporadic_arrivals(processor, wcs_schedule, policy):
    """Jittered releases re-rank the dispatcher; both engines must agree."""
    fast, reference = run_both_traced(
        processor, wcs_schedule, NormalWorkload(), policy,
        arrivals=SporadicArrivals(max_jitter=1.5),
    )
    assert_traces_identical(fast, reference)
    # Jitter of this magnitude actually provokes preemptions; without them
    # the sporadic oracle would silently test the periodic path again.
    assert len(fast.trace.of_kind("Preempt")) > 0


def test_sporadic_jitter_changes_the_trace(processor, wcs_schedule):
    """Sanity: the sporadic trace differs from the periodic one."""
    periodic, _ = run_both_traced(processor, wcs_schedule, NormalWorkload(), "greedy")
    sporadic, _ = run_both_traced(
        processor, wcs_schedule, NormalWorkload(), "greedy",
        arrivals=SporadicArrivals(max_jitter=1.5),
    )
    assert periodic.trace != sporadic.trace


def test_discrete_voltage_levels(processor, wcs_schedule):
    fast, reference = run_both_traced(
        processor, wcs_schedule, NormalWorkload(), "lookahead",
        voltage_levels=VoltageLevels([0.5, 1.0, 2.0, 3.0, 4.0, 5.0]),
    )
    assert_traces_identical(fast, reference)


def test_transition_overhead(processor, wcs_schedule):
    fast, reference = run_both_traced(
        processor, wcs_schedule, BimodalWorkload(), "greedy",
        transition_model=TransitionModel(cdd=0.2, efficiency_loss=0.8),
    )
    assert fast.transition_energy > 0.0
    assert_traces_identical(fast, reference)


def test_deadline_miss_events_identical(processor, taskset):
    """A stretched schedule that actually misses produces matching events."""
    expansion = expand_fully_preemptive(taskset)
    schedule = StaticSchedule.from_vectors(
        expansion,
        [sub.slot_end for sub in expansion.sub_instances],
        WCSScheduler(processor).schedule_expansion(expansion).wc_budgets(),
        method="stretched",
    )
    fast, reference = run_both_traced(
        processor, schedule, FixedWorkload(mode="wcec"), "proportional")
    assert_traces_identical(fast, reference)
    misses = fast.trace.of_kind("DeadlineMiss")
    assert len(misses) == len(fast.deadline_misses) > 0


def test_trace_off_is_bitwise_unchanged(processor, wcs_schedule):
    """Tracing must be a pure observer: trace=True changes no results."""
    for fast_path in (True, False):
        outcomes = []
        for trace in (False, True):
            config = SimulationConfig(
                n_hyperperiods=7, seed=1, trace=trace, record_timeline=True,
                fast_path=fast_path)
            simulator = DVSSimulator(processor, policy="greedy", config=config)
            rng = np.random.default_rng(1)
            outcomes.append(simulator.run(wcs_schedule, NormalWorkload(), rng))
        off, on = outcomes
        assert off.trace is None
        assert isinstance(on.trace, EventTrace)
        assert off.total_energy == on.total_energy
        assert off.energy_by_task == on.energy_by_task
        assert off.timeline.segments == on.timeline.segments


def test_timeline_is_a_projection_of_the_trace(processor, wcs_schedule):
    """record_timeline is implemented on top of the stream — verify losslessly."""
    fast, reference = run_both_traced(processor, wcs_schedule, NormalWorkload(), "greedy")
    for result in (fast, reference):
        assert result.trace.to_timeline().segments == result.timeline.segments


def test_batched_engine_falls_back_when_traced(processor, wcs_schedule):
    """A traced unit in simulate_batch must take the per-unit compiled path
    and still produce the identical event stream."""
    from repro.runtime.batched import BatchUnit, batch_fallback_reason, simulate_batch

    config = SimulationConfig(n_hyperperiods=7, seed=3, trace=True)
    unit = BatchUnit(schedule=wcs_schedule, processor=processor,
                     policy="greedy", config=config, workload=NormalWorkload(),
                     rng=np.random.default_rng(3))
    assert batch_fallback_reason(unit) == "trace"

    (batched_result,) = simulate_batch([unit])
    reference = DVSSimulator(processor, policy="greedy", config=config).run(
        wcs_schedule, NormalWorkload(), np.random.default_rng(3))
    assert batched_result.trace == reference.trace
    assert batched_result.total_energy == reference.total_energy


@pytest.mark.parametrize("policy", available_policies())
def test_batched_engine_matches_traced_oracle_for_arrivals(
        processor, wcs_schedule, policy):
    """Sporadic arrivals run in the vectorized core, bitwise-conformant.

    The regression guarded here: jittered releases used to force the
    per-unit compiled fallback.  Now the batched engine draws per-job
    offsets and re-ranks its dispatch order per hyperperiod, so the
    (untraced) batched aggregates must equal the traced compiled run —
    which in turn is event-equal to the reference loop.
    """
    from repro.runtime.batched import BatchUnit, batch_fallback_reason, simulate_batch

    arrivals = SporadicArrivals(max_jitter=1.5)
    config = SimulationConfig(n_hyperperiods=7, seed=11, arrivals=arrivals)
    unit = BatchUnit(schedule=wcs_schedule, processor=processor,
                     policy=policy, config=config, workload=NormalWorkload(),
                     rng=np.random.default_rng(11))
    assert batch_fallback_reason(unit) is None  # no longer a fallback

    (batched,) = simulate_batch([unit])
    # Traced compiled run: the event-level oracle (itself checked against
    # the reference engine by test_sporadic_arrivals).
    traced_config = SimulationConfig(n_hyperperiods=7, seed=11, trace=True,
                                     arrivals=arrivals)
    traced = DVSSimulator(processor, policy=policy, config=traced_config).run(
        wcs_schedule, NormalWorkload(), np.random.default_rng(11))
    assert len(traced.trace) > 0
    assert batched.total_energy == traced.total_energy
    assert batched.energy_per_hyperperiod == traced.energy_per_hyperperiod
    assert batched.energy_by_task == traced.energy_by_task
    assert batched.deadline_misses == traced.deadline_misses
