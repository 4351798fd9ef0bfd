"""Online DVS runtime: discrete-event simulator, pluggable policies, result records."""

from .policies import (
    DVSPolicy,
    GreedySlackPolicy,
    LookaheadSlackPolicy,
    NoReclamationPolicy,
    ProportionalSlackPolicy,
    SlackPolicy,
    SpeedRequest,
    StaticReplayPolicy,
    available_policies,
    get_policy,
    get_slack_policy,
)
from .results import DeadlineMiss, SimulationResult, improvement_percent
from .simulator import DVSSimulator, SimulationConfig, planned_frequency_array
from .multicore import MulticoreResult, MulticoreRunner
from .trace import EVENT_TYPES, EventTrace, TraceEvent

__all__ = [
    "planned_frequency_array",
    "DVSSimulator",
    "SimulationConfig",
    "SimulationResult",
    "MulticoreRunner",
    "MulticoreResult",
    "DeadlineMiss",
    "improvement_percent",
    "TraceEvent",
    "EventTrace",
    "EVENT_TYPES",
    "DVSPolicy",
    "SlackPolicy",
    "SpeedRequest",
    "StaticReplayPolicy",
    "NoReclamationPolicy",
    "GreedySlackPolicy",
    "LookaheadSlackPolicy",
    "ProportionalSlackPolicy",
    "available_policies",
    "get_policy",
    "get_slack_policy",
]
