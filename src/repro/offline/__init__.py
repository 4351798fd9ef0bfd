"""Offline (static) voltage scheduling: ACS, WCS, literal NLP and baselines."""

from .acs import ACSScheduler
from .base import VoltageScheduler
from .baselines import ConstantSpeedScheduler, MaxSpeedScheduler
from .batched_solver import SolveMemo, default_solve_memo, plan_expansions, solve_nlp
from .evaluation import (
    AnalyticOutcome,
    CompiledEvaluation,
    average_case_energy,
    evaluate_schedule,
    evaluate_vectors,
    worst_case_energy,
)
from .initialization import proportional_budget_vectors, worst_case_simulation_vectors
from .nlp import ReducedNLP, SolverOptions
from .nlp_literal import LiteralNLPScheduler
from .nonpreemptive import explicit_order_policy, frame_based_taskset
from .schedule import ScheduledSubInstance, StaticSchedule
from .stochastic import StochasticACSScheduler, sample_scenarios
from .wcs import WCSScheduler

__all__ = [
    "VoltageScheduler",
    "ACSScheduler",
    "WCSScheduler",
    "StochasticACSScheduler",
    "sample_scenarios",
    "SolveMemo",
    "default_solve_memo",
    "plan_expansions",
    "solve_nlp",
    "LiteralNLPScheduler",
    "MaxSpeedScheduler",
    "ConstantSpeedScheduler",
    "ReducedNLP",
    "SolverOptions",
    "StaticSchedule",
    "ScheduledSubInstance",
    "AnalyticOutcome",
    "CompiledEvaluation",
    "evaluate_schedule",
    "evaluate_vectors",
    "average_case_energy",
    "worst_case_energy",
    "worst_case_simulation_vectors",
    "proportional_budget_vectors",
    "frame_based_taskset",
    "explicit_order_policy",
]
