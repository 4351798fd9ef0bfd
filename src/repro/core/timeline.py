"""Execution-trace data structures.

A simulation's event trace projects onto a :class:`Timeline`
(:meth:`~repro.runtime.trace.EventTrace.to_timeline`): an ordered list of
:class:`ExecutionSegment` records, each describing a contiguous stretch of
processor time spent executing one sub-instance at one voltage/frequency
operating point.  The timeline can validate basic physical invariants (no
overlap, cycles = frequency × duration) and aggregate energy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence

from .errors import SimulationError

__all__ = ["ExecutionSegment", "Timeline"]


@dataclass(frozen=True)
class ExecutionSegment:
    """A contiguous execution interval at a fixed operating point.

    Attributes
    ----------
    task_name / job_index / sub_index:
        Which sub-instance executed.
    start / end:
        Absolute times delimiting the segment.
    frequency:
        Clock frequency (cycles per time unit) used during the segment.
    voltage:
        Supply voltage used during the segment.
    cycles:
        Number of execution cycles completed (≈ frequency × (end − start)).
    energy:
        Energy consumed by the segment (Ceff × cycles × V²).
    """

    task_name: str
    job_index: int
    sub_index: int
    start: float
    end: float
    frequency: float
    voltage: float
    cycles: float
    energy: float

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise SimulationError(
                f"segment for {self.task_name}[{self.job_index}] ends ({self.end}) before it starts ({self.start})"
            )
        if self.frequency < 0 or self.voltage < 0 or self.cycles < 0 or self.energy < 0:
            raise SimulationError(
                f"segment for {self.task_name}[{self.job_index}] has negative physical quantities"
            )

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def key(self) -> str:
        return f"{self.task_name}[{self.job_index}].{self.sub_index}"


@dataclass
class Timeline:
    """An ordered collection of :class:`ExecutionSegment` records."""

    segments: List[ExecutionSegment] = field(default_factory=list)

    def append(self, segment: ExecutionSegment) -> None:
        self.segments.append(segment)

    def extend(self, segments: Sequence[ExecutionSegment]) -> None:
        self.segments.extend(segments)

    def __len__(self) -> int:
        return len(self.segments)

    def __iter__(self) -> Iterator[ExecutionSegment]:
        return iter(self.segments)

    def __getitem__(self, index: int) -> ExecutionSegment:
        return self.segments[index]

    # ------------------------------------------------------------------ #
    # Aggregates
    # ------------------------------------------------------------------ #
    @property
    def total_energy(self) -> float:
        """Sum of segment energies."""
        return sum(s.energy for s in self.segments)

    @property
    def total_busy_time(self) -> float:
        """Total processor busy time."""
        return sum(s.duration for s in self.segments)

    @property
    def total_cycles(self) -> float:
        """Total executed cycles."""
        return sum(s.cycles for s in self.segments)

    @property
    def makespan(self) -> float:
        """Latest segment end time (0 for an empty timeline)."""
        return max((s.end for s in self.segments), default=0.0)

    def energy_by_task(self) -> Dict[str, float]:
        """Energy aggregated per task name."""
        result: Dict[str, float] = {}
        for segment in self.segments:
            result[segment.task_name] = result.get(segment.task_name, 0.0) + segment.energy
        return result

    def busy_time_by_task(self) -> Dict[str, float]:
        """Busy time aggregated per task name."""
        result: Dict[str, float] = {}
        for segment in self.segments:
            result[segment.task_name] = result.get(segment.task_name, 0.0) + segment.duration
        return result

    def segments_for(self, task_name: str, job_index: Optional[int] = None) -> List[ExecutionSegment]:
        """Segments belonging to a task (optionally a specific job)."""
        return [
            s for s in self.segments
            if s.task_name == task_name and (job_index is None or s.job_index == job_index)
        ]

    def finish_time_of(self, task_name: str, job_index: int) -> Optional[float]:
        """Completion time of a job, or ``None`` if it never executed."""
        segments = self.segments_for(task_name, job_index)
        if not segments:
            return None
        return max(s.end for s in segments)

    # ------------------------------------------------------------------ #
    # Validation
    # ------------------------------------------------------------------ #
    def validate(self, *, tol: float = 1e-6) -> None:
        """Raise :class:`SimulationError` when physical invariants are violated.

        Checks that segments are chronologically sorted, never overlap, and
        that each segment's cycle count is consistent with its frequency and
        duration.
        """
        previous_end = -float("inf")
        for segment in self.segments:
            if segment.start < previous_end - tol:
                raise SimulationError(
                    f"segments overlap: {segment.key} starts at {segment.start} "
                    f"before the previous segment ends at {previous_end}"
                )
            expected_cycles = segment.frequency * segment.duration
            scale = max(1.0, abs(expected_cycles))
            if abs(expected_cycles - segment.cycles) > tol * scale:
                raise SimulationError(
                    f"segment {segment.key}: cycles ({segment.cycles}) inconsistent with "
                    f"frequency × duration ({expected_cycles})"
                )
            previous_end = max(previous_end, segment.end)

    def sorted_by_time(self) -> "Timeline":
        """Return a copy with segments sorted by start time."""
        return Timeline(sorted(self.segments, key=lambda s: (s.start, s.end)))
