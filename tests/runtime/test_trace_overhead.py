"""Tracing must cost nothing when it is off.

The reference loop, the only engine that traces, promises that
``trace=False`` (the default) allocates no event objects at all — the
dispatch loop may not even *touch* the event constructors.  We enforce that
directly: every event class the simulator module references is replaced
with a constructor that raises, and a trace-off run must still complete
(while a trace-on run must trip it).  The lane engine references no event
class at all.
"""

import numpy as np
import pytest

from repro.analysis.preemption import expand_fully_preemptive
from repro.core.task import Task
from repro.core.taskset import TaskSet
from repro.offline.wcs import WCSScheduler
from repro.power.presets import ideal_processor
from repro.runtime import simulator as simulator_module
from repro.runtime.simulator import DVSSimulator, SimulationConfig
from repro.workloads.distributions import NormalWorkload

EVENT_NAMES = (
    "HyperperiodReset",
    "JobRelease",
    "SegmentStart",
    "SegmentEnd",
    "Preempt",
    "Resume",
    "FrequencyChange",
    "DeadlineMissEvent",  # aliased import: trace.DeadlineMiss
    "EventTrace",
)


class _Tripwire:
    def __init__(self, name):
        self.name = name

    def __call__(self, *args, **kwargs):
        raise AssertionError(
            f"{self.name} was constructed although tracing is disabled")


@pytest.fixture()
def schedule_and_processor():
    processor = ideal_processor(fmax=1000.0)
    taskset = TaskSet([
        Task("hi", period=10, wcec=1800, acec=1000, bcec=300),
        Task("mid", period=20, wcec=4200, acec=2400, bcec=900),
    ], name="overhead")
    schedule = WCSScheduler(processor).schedule_expansion(
        expand_fully_preemptive(taskset))
    return schedule, processor


def _arm_tripwires(monkeypatch):
    """Replace every event constructor the reference loop references with a raiser."""
    for name in EVENT_NAMES:
        if hasattr(simulator_module, name):
            monkeypatch.setattr(simulator_module, name,
                                _Tripwire(f"{simulator_module.__name__}.{name}"))


def _run(schedule, processor, *, trace):
    config = SimulationConfig(n_hyperperiods=3, seed=7, trace=trace, fast_path=False)
    simulator = DVSSimulator(processor, policy="greedy", config=config)
    return simulator.run(schedule, NormalWorkload(), np.random.default_rng(7))


def test_trace_off_allocates_no_event_objects(monkeypatch, schedule_and_processor):
    schedule, processor = schedule_and_processor
    baseline = _run(schedule, processor, trace=False)
    _arm_tripwires(monkeypatch)
    guarded = _run(schedule, processor, trace=False)
    assert guarded.total_energy == baseline.total_energy
    assert guarded.trace is None and guarded.timeline is None


def test_tripwires_actually_cover_the_traced_path(monkeypatch, schedule_and_processor):
    """Sanity check on the guard itself: with tracing ON the raisers fire."""
    schedule, processor = schedule_and_processor
    _arm_tripwires(monkeypatch)
    with pytest.raises(AssertionError, match="constructed although"):
        _run(schedule, processor, trace=True)


def test_tripwire_names_are_exhaustive():
    """Every event class the simulator module imports is on the tripwire
    list, so a new event type cannot silently dodge the allocation guard."""
    from repro.runtime.trace import EVENT_TYPES, TraceEvent

    referenced = [
        name for name in dir(simulator_module)
        if isinstance(getattr(simulator_module, name), type)
        and issubclass(getattr(simulator_module, name), TraceEvent)
        and getattr(simulator_module, name) is not TraceEvent
    ]
    missing = [name for name in referenced if name not in EVENT_NAMES]
    assert not missing, f"the simulator references untripped events: {missing}"
    # All eight event kinds are emitted by the reference loop.
    classes = {getattr(simulator_module, name) for name in referenced}
    assert classes == set(EVENT_TYPES.values())
