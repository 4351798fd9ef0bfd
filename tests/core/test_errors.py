"""The exception hierarchy is part of the public API; pin its structure."""

from repro.core import errors


def test_all_errors_derive_from_repro_error():
    exception_types = [
        errors.ModelError, errors.InvalidTaskError, errors.InvalidTaskSetError,
        errors.InvalidProcessorError, errors.AnalysisError, errors.InfeasibleTaskSetError,
        errors.SchedulingError, errors.OptimizationError, errors.SimulationError,
        errors.WorkloadError, errors.ExperimentError,
    ]
    for exc in exception_types:
        assert issubclass(exc, errors.ReproError)


def test_specialisation_relationships():
    assert issubclass(errors.InvalidTaskError, errors.ModelError)
    assert issubclass(errors.InvalidTaskSetError, errors.ModelError)
    assert issubclass(errors.InvalidProcessorError, errors.ModelError)
    assert issubclass(errors.InfeasibleTaskSetError, errors.AnalysisError)
    assert issubclass(errors.OptimizationError, errors.SchedulingError)
