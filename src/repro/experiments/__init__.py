"""Experiment harnesses behind the paper's tables and figures.

The Figure-6 sweeps and the multicore scalability grid are scenario
documents run by :mod:`repro.scenarios`; this package holds the comparison
harness they compile to, the motivation table and the per-task-set sweep.
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
    run_comparisons,
    scheduler_names,
)
from .motivation import MotivationConfig, MotivationResult, motivation_taskset, run_motivation
from .seeding import derive_rng, derive_seed, seed_sequence
from .sweep import SweepConfig, SweepResult, run_sweep

__all__ = [
    "ComparisonConfig",
    "ComparisonJob",
    "ComparisonResult",
    "MethodOutcome",
    "compare_schedulers",
    "default_schedulers",
    "make_schedulers",
    "random_comparison_job",
    "run_comparisons",
    "scheduler_names",
    "SweepConfig",
    "SweepResult",
    "run_sweep",
    "derive_seed",
    "derive_rng",
    "seed_sequence",
    "MotivationConfig",
    "MotivationResult",
    "motivation_taskset",
    "run_motivation",
]
