"""Typed event stream of the runtime simulator.

Aggregate results (total energy, miss counts) cannot distinguish two runs
that schedule *differently* but happen to conserve energy — a dispatcher bug
that reorders preemptions would sail through every energy-equivalence suite.
This module makes the simulator's behaviour itself a first-class artifact: an
ordered sequence of small frozen dataclasses describing every release,
dispatch, speed change, preemption and deadline miss.

Tracing is opt-in (``SimulationConfig(trace=True)``), and only the reference
event loop of :mod:`repro.runtime.simulator` emits events: the lane engine of
:mod:`repro.runtime.batched` cannot, so it runs a traced unit on the
reference loop (see :func:`repro.runtime.batched.batch_fallback_reason`).
When tracing is off no event object is allocated at all.  The golden traces
(``tests/integration/test_golden_traces.py``) freeze known-good streams,
``tests/runtime/test_trace_invariants.py`` checks the stream's structural
laws, and ``tests/runtime/test_trace_conformance.py`` holds the traced
reference loop to the lane engine's aggregates.

Event vocabulary (one hyperperiod's life cycle):

* :class:`HyperperiodReset` — a new hyperperiod begins.
* :class:`JobRelease` — a job's (possibly jittered) release time is reached.
* :class:`Resume` — a previously preempted job gets the processor back.
* :class:`FrequencyChange` — the executed voltage differs from the previous
  dispatch's (the first dispatch of a run always changes frequency).
* :class:`SegmentStart` / :class:`SegmentEnd` — one contiguous execution
  segment; ``SegmentEnd`` carries everything a
  :class:`~repro.core.timeline.ExecutionSegment` needs, so a full
  :class:`~repro.core.timeline.Timeline` is a *projection* of the trace
  (:meth:`EventTrace.to_timeline`).
* :class:`Preempt` — the segment was truncated by an arrival (``by_task``).
* :class:`DeadlineMiss` — a job finished after its absolute deadline.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import ClassVar, Dict, Iterable, Iterator, List, Mapping, Optional, Type, Union

from ..core.errors import ReproError
from ..core.timeline import ExecutionSegment, Timeline

__all__ = [
    "TraceEvent",
    "HyperperiodReset",
    "JobRelease",
    "SegmentStart",
    "SegmentEnd",
    "Preempt",
    "Resume",
    "FrequencyChange",
    "DeadlineMiss",
    "EventTrace",
    "EVENT_TYPES",
]


@dataclass(frozen=True)
class TraceEvent:
    """Base of every trace event: an absolute timestamp plus a ``kind`` tag."""

    time: float

    #: Stable serialisation tag (also the ``kind`` filter key of
    #: :meth:`EventTrace.of_kind`); class-level, never a field.
    kind: ClassVar[str] = "TraceEvent"


@dataclass(frozen=True)
class HyperperiodReset(TraceEvent):
    """A new hyperperiod starts at ``time`` (its absolute offset)."""

    hyperperiod: int

    kind: ClassVar[str] = "HyperperiodReset"


@dataclass(frozen=True)
class JobRelease(TraceEvent):
    """A job becomes available to the dispatcher (``time`` = jittered release)."""

    task: str
    job_index: int

    kind: ClassVar[str] = "JobRelease"


@dataclass(frozen=True)
class SegmentStart(TraceEvent):
    """A job is dispatched at ``frequency``/``voltage`` for one segment."""

    task: str
    job_index: int
    sub_index: int
    frequency: float
    voltage: float

    kind: ClassVar[str] = "SegmentStart"


@dataclass(frozen=True)
class SegmentEnd(TraceEvent):
    """One contiguous execution segment ended at ``time``.

    Carries the full segment record (start, speed, cycles, energy), so a
    timeline can be reconstructed from ``SegmentEnd`` events alone;
    ``finished`` tells whether the job completed with this segment.
    """

    task: str
    job_index: int
    sub_index: int
    start: float
    frequency: float
    voltage: float
    cycles: float
    energy: float
    finished: bool

    kind: ClassVar[str] = "SegmentEnd"


@dataclass(frozen=True)
class Preempt(TraceEvent):
    """The running job's segment was cut short by the arrival of ``by_task``."""

    task: str
    job_index: int
    sub_index: int
    by_task: str
    by_job_index: int

    kind: ClassVar[str] = "Preempt"


@dataclass(frozen=True)
class Resume(TraceEvent):
    """A previously preempted job gets the processor back."""

    task: str
    job_index: int
    sub_index: int

    kind: ClassVar[str] = "Resume"


@dataclass(frozen=True)
class FrequencyChange(TraceEvent):
    """The executed voltage differs from the previous dispatch's."""

    frequency: float
    voltage: float

    kind: ClassVar[str] = "FrequencyChange"


@dataclass(frozen=True)
class DeadlineMiss(TraceEvent):
    """A job finished (at ``time``) after its absolute ``deadline``."""

    task: str
    job_index: int
    deadline: float

    kind: ClassVar[str] = "DeadlineMiss"


#: Serialisation registry: ``kind`` tag → event class.
EVENT_TYPES: Dict[str, Type[TraceEvent]] = {
    cls.kind: cls
    for cls in (
        HyperperiodReset,
        JobRelease,
        SegmentStart,
        SegmentEnd,
        Preempt,
        Resume,
        FrequencyChange,
        DeadlineMiss,
    )
}


class EventTrace:
    """An ordered, append-only sequence of :class:`TraceEvent` records.

    Equality is element-wise dataclass equality, which is what the
    engine-conformance oracle compares; :meth:`to_dicts`/:meth:`from_dicts`
    round-trip the trace through plain JSON-compatible rows (used by the
    golden-trace fixtures and the result-store payloads).
    """

    __slots__ = ("events",)

    def __init__(self, events: Optional[Iterable[TraceEvent]] = None) -> None:
        self.events: List[TraceEvent] = list(events) if events is not None else []

    def append(self, event: TraceEvent) -> None:
        self.events.append(event)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events)

    def __getitem__(self, index):
        return self.events[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EventTrace):
            return NotImplemented
        return self.events == other.events

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"EventTrace({len(self.events)} events)"

    def of_kind(self, kind: Union[str, Type[TraceEvent]]) -> List[TraceEvent]:
        """Every event whose ``kind`` matches (accepts the tag or the class)."""
        tag = kind if isinstance(kind, str) else kind.kind
        return [event for event in self.events if event.kind == tag]

    def counts(self) -> Dict[str, int]:
        """Number of events per kind, in first-occurrence order."""
        result: Dict[str, int] = {}
        for event in self.events:
            result[event.kind] = result.get(event.kind, 0) + 1
        return result

    def to_timeline(self) -> Timeline:
        """Project the trace onto a :class:`~repro.core.timeline.Timeline`.

        Every executed segment is one :class:`SegmentEnd` event carrying the
        full segment record, so the projection is lossless: it is how a
        simulation's timeline is obtained (run with ``trace=True``).
        """
        timeline = Timeline()
        for event in self.events:
            if event.kind == "SegmentEnd":
                timeline.append(ExecutionSegment(
                    task_name=event.task,
                    job_index=event.job_index,
                    sub_index=event.sub_index,
                    start=event.start,
                    end=event.time,
                    frequency=event.frequency,
                    voltage=event.voltage,
                    cycles=event.cycles,
                    energy=event.energy,
                ))
        return timeline

    # ------------------------------------------------------------------ #
    # Serialisation
    # ------------------------------------------------------------------ #
    def to_dicts(self) -> List[Dict[str, object]]:
        """Plain rows (``{"kind": ..., **fields}``) for JSON serialisation."""
        rows: List[Dict[str, object]] = []
        for event in self.events:
            row: Dict[str, object] = {"kind": event.kind}
            for spec in fields(event):
                row[spec.name] = getattr(event, spec.name)
            rows.append(row)
        return rows

    @classmethod
    def from_dicts(cls, rows: Iterable[Mapping[str, object]]) -> "EventTrace":
        """Rebuild a trace serialised by :meth:`to_dicts` (strict kinds/fields)."""
        events: List[TraceEvent] = []
        for row in rows:
            data = dict(row)
            tag = data.pop("kind", None)
            event_type = EVENT_TYPES.get(tag)
            if event_type is None:
                raise ReproError(f"unknown trace event kind {tag!r}; known: {sorted(EVENT_TYPES)}")
            try:
                events.append(event_type(**data))
            except TypeError as error:
                raise ReproError(f"malformed {tag} trace event: {error}") from None
        return cls(events)
