"""Property-based invariants of the typed event stream.

Hypothesis drives the simulator across random seeds, policies and arrival
jitter; for every generated run the trace (emitted by the reference loop,
the only engine that traces) must satisfy the structural laws that hold for
*any* valid schedule:

* timestamps are non-decreasing along the stream;
* every ``Preempt`` of a job is matched by a later ``Resume`` of that job
  (preempted work is never dropped), strictly alternating per job;
* summing ``SegmentEnd.energy`` in stream order reproduces the aggregate
  energies **bitwise** — per task, per hyperperiod and in total (the events
  are the ground truth the aggregates are folded from, in the same order);
* ``DeadlineMiss`` events agree one-to-one with ``result.deadline_misses``,
  and the per-result counts roll up consistently into the comparison and
  multicore harnesses.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.preemption import expand_fully_preemptive
from repro.core.task import Task
from repro.core.taskset import TaskSet
from repro.offline.schedule import StaticSchedule
from repro.offline.wcs import WCSScheduler
from repro.power.presets import ideal_processor
from repro.runtime.policies import available_policies
from repro.runtime.simulator import DVSSimulator, SimulationConfig
from repro.workloads.arrivals import SporadicArrivals
from repro.workloads.distributions import FixedWorkload, NormalWorkload

#: Timestamps may repeat (zero-latency dispatch chains) but never go back by
#: more than float noise.
_TIME_SLACK = 1e-9

PROCESSOR = ideal_processor(fmax=1000.0)
TASKSET = TaskSet([
    Task("hi", period=10, wcec=1800, acec=1000, bcec=300),
    Task("mid", period=20, wcec=4200, acec=2400, bcec=900),
    Task("lo", period=40, wcec=9000, acec=5000, bcec=1500),
], name="trace-invariants")
SCHEDULE = WCSScheduler(PROCESSOR).schedule_expansion(
    expand_fully_preemptive(TASKSET))


def run_traced(seed, policy="greedy", jitter=0.0,
               n_hyperperiods=3, schedule=SCHEDULE, workload=None):
    arrivals = SporadicArrivals(max_jitter=jitter) if jitter > 0.0 else None
    config = SimulationConfig(n_hyperperiods=n_hyperperiods, seed=seed,
                              trace=True, arrivals=arrivals)
    simulator = DVSSimulator(PROCESSOR, policy=policy, config=config)
    return simulator.run(schedule, workload or NormalWorkload(),
                         np.random.default_rng(seed))


traced_runs = st.builds(
    run_traced,
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    policy=st.sampled_from(available_policies()),
    jitter=st.sampled_from([0.0, 0.5, 1.5]),
)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(result=traced_runs)
def test_timestamps_non_decreasing(result):
    """Monotone within each hyperperiod; resets strictly increase.

    The boundary itself is exempt: an overrunning job (a deadline miss) may
    finish *after* the next hyperperiod's nominal offset, and the following
    ``HyperperiodReset`` is stamped at that nominal offset, not at the
    overrun's finish time — each hyperperiod is simulated independently.
    """
    previous = None
    last_reset = None
    for event in result.trace:
        if event.kind == "HyperperiodReset":
            if last_reset is not None:
                assert event.time > last_reset.time
                assert event.hyperperiod == last_reset.hyperperiod + 1
            last_reset = event
            previous = event
            continue
        assert previous is not None, "events before the first HyperperiodReset"
        assert event.time >= previous.time - _TIME_SLACK, (
            f"time went backwards: {previous!r} then {event!r}")
        previous = event


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(result=traced_runs)
def test_every_preempt_is_matched_by_a_resume(result):
    """Per job (within a hyperperiod) Preempt/Resume strictly alternate,
    starting with a Preempt and ending with a Resume — preempted work is
    always picked up again."""
    per_job = {}
    for event in result.trace:
        if event.kind == "HyperperiodReset":
            # Job indices restart each hyperperiod; flush and check the old one.
            for key, kinds in per_job.items():
                assert _alternates(kinds), f"unbalanced preempt/resume for {key}: {kinds}"
            per_job = {}
        elif event.kind in ("Preempt", "Resume"):
            per_job.setdefault((event.task, event.job_index), []).append(event.kind)
    for key, kinds in per_job.items():
        assert _alternates(kinds), f"unbalanced preempt/resume for {key}: {kinds}"


def _alternates(kinds):
    expected = "Preempt"
    for kind in kinds:
        if kind != expected:
            return False
        expected = "Resume" if expected == "Preempt" else "Preempt"
    return expected == "Preempt"  # even length: every Preempt was resumed


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(result=traced_runs)
def test_segment_energies_fold_to_aggregates_bitwise(result):
    """SegmentEnd energies, summed in stream order, ARE the aggregates."""
    by_task = {}
    per_hp = []
    hp_energy = 0.0
    for event in result.trace:
        if event.kind == "HyperperiodReset":
            if event.hyperperiod > 0:
                per_hp.append(hp_energy)
            hp_energy = 0.0
        elif event.kind == "SegmentEnd":
            by_task[event.task] = by_task.get(event.task, 0.0) + event.energy
            hp_energy += event.energy
    per_hp.append(hp_energy)

    assert by_task == result.energy_by_task  # dict equality is exact on floats
    assert per_hp == result.energy_per_hyperperiod
    assert float(sum(per_hp)) == result.total_energy


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(result=traced_runs)
def test_deadline_miss_events_match_records(result):
    events = result.trace.of_kind("DeadlineMiss")
    assert len(events) == len(result.deadline_misses) == result.miss_count
    for event, record in zip(events, result.deadline_misses):
        assert event.task == record.task_name
        assert event.job_index == record.job_index
        assert event.time == record.finish_time
        assert event.deadline == record.deadline


def test_deadline_miss_events_roll_up_into_comparison_result():
    """A lossy stretched schedule: trace misses == ComparisonResult misses."""
    from repro.experiments.harness import ComparisonConfig, compare_schedulers

    expansion = expand_fully_preemptive(TASKSET)
    stretched = StaticSchedule.from_vectors(
        expansion,
        [sub.slot_end for sub in expansion.sub_instances],
        WCSScheduler(PROCESSOR).schedule_expansion(expansion).wc_budgets(),
        method="stretched",
    )
    result = run_traced(seed=11, policy="proportional", schedule=stretched,
                        workload=FixedWorkload(mode="wcec"))
    assert result.miss_count == len(result.trace.of_kind("DeadlineMiss")) > 0

    comparison = compare_schedulers(
        TASKSET, PROCESSOR,
        config=ComparisonConfig(n_hyperperiods=3, seed=11, trace=True))
    for outcome in comparison.outcomes.values():
        simulation = outcome.simulation
        assert simulation.trace is not None
        assert len(simulation.trace.of_kind("DeadlineMiss")) == simulation.miss_count


def test_deadline_miss_events_roll_up_into_multicore_result():
    from repro.allocation.multicore import MulticoreProblem, plan_multicore
    from repro.runtime.multicore import MulticoreRunner

    problem = MulticoreProblem(taskset=TASKSET, processor=PROCESSOR,
                               n_cores=2, partitioner="wfd", method="wcs")
    plan = plan_multicore(problem)
    runner = MulticoreRunner(
        PROCESSOR, policy="greedy",
        config=SimulationConfig(n_hyperperiods=2, trace=True))
    result = runner.run(plan, seed=5)
    total_events = 0
    for core_result in result.core_results:
        if core_result is None:
            continue
        assert core_result.trace is not None
        events = core_result.trace.of_kind("DeadlineMiss")
        assert len(events) == core_result.miss_count
        total_events += len(events)
    assert total_events == result.miss_count
