"""Exception hierarchy used across the :mod:`repro` package.

Every error raised by the library derives from :class:`ReproError`, so callers
can catch a single base class.  More specific subclasses communicate *which*
stage of the pipeline failed (model construction, schedulability analysis,
offline optimisation, or runtime simulation).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every exception raised by the :mod:`repro` library."""


class ModelError(ReproError):
    """Invalid model construction (task, task set or processor parameters)."""


class InvalidTaskError(ModelError):
    """A single task was constructed with inconsistent parameters."""


class InvalidTaskSetError(ModelError):
    """A task set is inconsistent (duplicate names, empty set, ...)."""


class InvalidProcessorError(ModelError):
    """A processor model was constructed with inconsistent parameters."""


class AnalysisError(ReproError):
    """A schedulability/feasibility analysis could not be carried out."""


class InfeasibleTaskSetError(AnalysisError):
    """The task set cannot be scheduled even at the maximum frequency."""


class AllocationError(ReproError):
    """Multiprocessor task-to-core allocation failed or was misconfigured."""


class SchedulingError(ReproError):
    """Offline voltage scheduling failed."""


class OptimizationError(SchedulingError):
    """The NLP solver failed to produce a feasible static schedule."""


class SimulationError(ReproError):
    """The runtime simulator detected an internal inconsistency."""


class WorkloadError(ReproError):
    """A workload generator was asked for an impossible configuration."""


class ExperimentError(ReproError):
    """An experiment harness was configured inconsistently."""
