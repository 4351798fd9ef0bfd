"""Core task and system model for the DATE 2005 ACS reproduction.

This package defines the vocabulary every other subsystem speaks: periodic
tasks, their jobs (instances), the preemption-induced sub-instances the
paper's NLP reasons about, execution timelines, workload bookkeeping and the
exception hierarchy.
"""

from .errors import (
    AllocationError,
    AnalysisError,
    ExperimentError,
    InfeasibleTaskSetError,
    InvalidProcessorError,
    InvalidTaskError,
    InvalidTaskSetError,
    ModelError,
    OptimizationError,
    ReproError,
    SchedulingError,
    SimulationError,
    WorkloadError,
)
from .priorities import (
    available_policies,
    deadline_monotonic_priorities,
    explicit_priorities,
    get_priority_policy,
    rate_monotonic_priorities,
)
from .task import SubInstance, Task, TaskInstance
from .taskset import TaskSet
from .timeline import ExecutionSegment, Timeline
from .workload import case_labels, fill_average_workloads, proportional_split, split_evenly

__all__ = [
    # errors
    "ReproError",
    "ModelError",
    "InvalidTaskError",
    "InvalidTaskSetError",
    "InvalidProcessorError",
    "AnalysisError",
    "AllocationError",
    "InfeasibleTaskSetError",
    "SchedulingError",
    "OptimizationError",
    "SimulationError",
    "WorkloadError",
    "ExperimentError",
    # tasks
    "Task",
    "TaskInstance",
    "SubInstance",
    "TaskSet",
    # priorities
    "rate_monotonic_priorities",
    "deadline_monotonic_priorities",
    "explicit_priorities",
    "get_priority_policy",
    "available_policies",
    # timeline
    "ExecutionSegment",
    "Timeline",
    # workload helpers
    "fill_average_workloads",
    "case_labels",
    "split_evenly",
    "proportional_split",
]
