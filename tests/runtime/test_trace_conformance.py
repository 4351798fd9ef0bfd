"""Trace conformance: the traced reference loop against the lane engine.

Only the reference event loop emits the typed event stream
(``SimulationConfig(trace=True)``); the lane engine cannot trace, so
``simulate_batch`` runs a traced unit on the reference loop.  The stream's
own laws are checked by ``test_trace_invariants.py`` and frozen by the
golden traces; these tests check that

* tracing is a pure observer (``trace=True`` changes no result) and the
  timeline is a projection of the stream,
* release jitter really changes the stream, and
* the lane engine, untraced, reproduces the traced reference loop's
  aggregates bitwise under sporadic arrivals (jitter re-ranks the
  dispatcher, and the traced runs are checked to preempt), and a traced
  unit in ``simulate_batch`` takes the reference loop.
"""

import numpy as np
import pytest

from repro.analysis.preemption import expand_fully_preemptive
from repro.core.task import Task
from repro.core.taskset import TaskSet
from repro.offline.wcs import WCSScheduler
from repro.power.presets import ideal_processor
from repro.runtime.batched import BatchUnit, batch_fallback_reason, simulate_batch
from repro.runtime.policies import available_policies
from repro.runtime.simulator import DVSSimulator, SimulationConfig
from repro.runtime.trace import EventTrace
from repro.workloads.arrivals import SporadicArrivals
from repro.workloads.distributions import NormalWorkload


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


def run_traced(processor, schedule, policy, seed, **config_kwargs):
    """One traced run on the reference loop, timeline recorded too."""
    config = SimulationConfig(n_hyperperiods=7, seed=seed, trace=True, record_timeline=True,
                              fast_path=False, **config_kwargs)
    simulator = DVSSimulator(processor, policy=policy, config=config)
    return simulator.run(schedule, NormalWorkload(), np.random.default_rng(seed))


def test_sporadic_jitter_changes_the_trace(processor, wcs_schedule):
    """Sanity: the sporadic trace differs from the periodic one."""
    periodic = run_traced(processor, wcs_schedule, "greedy", seed=20250807)
    sporadic = run_traced(processor, wcs_schedule, "greedy", seed=20250807,
                          arrivals=SporadicArrivals(max_jitter=1.5))
    assert periodic.trace != sporadic.trace


def test_trace_off_is_bitwise_unchanged(processor, wcs_schedule):
    """Tracing must be a pure observer: trace=True changes no results."""
    outcomes = []
    for trace in (False, True):
        config = SimulationConfig(
            n_hyperperiods=7, seed=1, trace=trace, record_timeline=True, fast_path=False)
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
    result = run_traced(processor, wcs_schedule, "greedy", seed=20250807)
    assert result.trace.to_timeline().segments == result.timeline.segments


def test_batched_engine_falls_back_when_traced(processor, wcs_schedule):
    """A traced unit in simulate_batch takes the reference loop and produces
    its event stream."""
    config = SimulationConfig(n_hyperperiods=7, seed=3, trace=True)
    unit = BatchUnit(schedule=wcs_schedule, processor=processor,
                     policy="greedy", config=config, workload=NormalWorkload(),
                     rng=np.random.default_rng(3))
    assert batch_fallback_reason(unit) == "trace"

    (batched_result,) = simulate_batch([unit])
    reference = DVSSimulator(processor, policy="greedy",
                             config=SimulationConfig(n_hyperperiods=7, seed=3, trace=True,
                                                     fast_path=False)).run(
        wcs_schedule, NormalWorkload(), np.random.default_rng(3))
    assert len(reference.trace) > 0
    assert batched_result.trace == reference.trace
    assert batched_result.total_energy == reference.total_energy


@pytest.mark.parametrize("policy", available_policies())
def test_batched_engine_matches_traced_oracle_for_arrivals(
        processor, wcs_schedule, policy):
    """Sporadic arrivals run in the vectorized core, bitwise-conformant.

    The batched engine draws per-job offsets and re-ranks its dispatch order
    per hyperperiod, so its (untraced) aggregates must equal those of the
    traced reference loop, the event-level oracle.
    """
    arrivals = SporadicArrivals(max_jitter=1.5)
    config = SimulationConfig(n_hyperperiods=7, seed=11, arrivals=arrivals)
    unit = BatchUnit(schedule=wcs_schedule, processor=processor,
                     policy=policy, config=config, workload=NormalWorkload(),
                     rng=np.random.default_rng(11))
    assert batch_fallback_reason(unit) is None

    (batched,) = simulate_batch([unit])
    traced = run_traced(processor, wcs_schedule, policy, seed=11, arrivals=arrivals)
    # Jitter of this magnitude actually provokes preemptions; without them
    # this oracle would silently test the periodic path again.
    assert len(traced.trace.of_kind("Preempt")) > 0
    assert batched.total_energy == traced.total_energy
    assert batched.energy_per_hyperperiod == traced.energy_per_hyperperiod
    assert batched.energy_by_task == traced.energy_by_task
    assert batched.deadline_misses == traced.deadline_misses
