"""Experiment harnesses behind the paper's tables and figures.

The Figure-6 sweeps and the multicore scalability grid are scenario
documents run by :mod:`repro.scenarios`; this package holds the comparison
harness they compile to and the motivation table.
"""

from .harness import (
    ComparisonConfig,
    ComparisonJob,
    ComparisonResult,
    MethodOutcome,
    compare_schedulers,
    default_schedulers,
    make_schedulers,
    random_comparison_job,
    scheduler_names,
)
from .motivation import MotivationConfig, MotivationResult, motivation_taskset, run_motivation
from .seeding import derive_rng, derive_seed, seed_sequence

__all__ = [
    "ComparisonConfig",
    "ComparisonJob",
    "ComparisonResult",
    "MethodOutcome",
    "compare_schedulers",
    "default_schedulers",
    "make_schedulers",
    "random_comparison_job",
    "scheduler_names",
    "derive_seed",
    "derive_rng",
    "seed_sequence",
    "MotivationConfig",
    "MotivationResult",
    "motivation_taskset",
    "run_motivation",
]
