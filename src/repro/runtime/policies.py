"""Online DVS policies: the pluggable speed-selection layer of the runtime.

The static schedule fixes, for every sub-instance, a planned end-time and a
worst-case budget.  At runtime the dispatcher repeatedly asks the active
:class:`DVSPolicy` which clock frequency to use for the job that is about to
(re)start executing; the policy sees a :class:`SpeedRequest` snapshot and may
additionally keep state across calls through the lifecycle hooks
(:meth:`DVSPolicy.on_simulation_start`, :meth:`DVSPolicy.on_hyperperiod_start`,
:meth:`DVSPolicy.on_job_finish`).  The simulator's event loop never special-cases
a policy — everything a policy needs flows through this interface.

Four policies are provided:

* :class:`StaticReplayPolicy` (``"static"``) — replay the offline schedule:
  always run at the speed the static schedule planned for the worst case,
  ignoring dynamic slack.  This isolates the benefit of the *static* schedule
  from the benefit of reclamation.
* :class:`GreedySlackPolicy` (``"greedy"``) — the paper's slack reclamation:
  run just fast enough for the *remaining worst-case budget of the current
  sub-instance* to finish by its planned end-time.  Slack inherited from early
  completions automatically lowers the speed because the start time moved
  earlier.  Deadline-safe on feasible schedules.
* :class:`LookaheadSlackPolicy` (``"lookahead"``) — aggressive look-ahead:
  stretch the *whole job's* remaining worst-case work until the job's **last
  planned sub-instance end-time**.  Intermediate end-times may be overrun, so
  the worst-case guarantee for lower-priority jobs is no longer formal; in
  exchange the speed profile is flatter (convex energy favours constant
  speeds) and typically cheaper when actual workloads run below worst case.
* :class:`ProportionalSlackPolicy` (``"proportional"``) — the most aggressive
  ablation point: stretch the job's remaining worst-case work until the *job
  deadline*, ignoring the static plan entirely.  May miss deadlines for
  lower-priority jobs.

``static``/``greedy`` preserve the worst-case guarantee of the static schedule;
``lookahead``/``proportional`` trade it for energy and are included for the
actual-vs-worst-case scenario axis (the simulator records any misses).
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Dict, Tuple, Type, TYPE_CHECKING

from ..power.processor import ProcessorModel

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..offline.schedule import StaticSchedule

__all__ = [
    "SpeedRequest",
    "DVSPolicy",
    "SlackPolicy",
    "StaticReplayPolicy",
    "NoReclamationPolicy",
    "GreedySlackPolicy",
    "LookaheadSlackPolicy",
    "ProportionalSlackPolicy",
    "available_policies",
    "get_policy",
    "get_slack_policy",
]


@dataclass(frozen=True)
class SpeedRequest:
    """Everything a policy may look at when choosing a frequency.

    Attributes
    ----------
    time_now:
        Current simulation time (absolute).
    end_time:
        Planned end-time of the current sub-instance (absolute).
    wc_remaining:
        Worst-case cycles still budgeted to the current sub-instance.
    planned_frequency:
        Frequency the static schedule planned for this sub-instance assuming
        the worst case and no dynamic slack.
    job_wc_remaining:
        Worst-case cycles remaining over the *whole job* (current plus future
        sub-instances).
    job_deadline:
        Absolute deadline of the job.
    job_final_end_time:
        Absolute planned end-time of the job's *last* sub-instance (the
        look-ahead horizon).  Defaults to ``inf`` for callers that do not
        track the full schedule; policies fall back to ``job_deadline``.
    """

    time_now: float
    end_time: float
    wc_remaining: float
    planned_frequency: float
    job_wc_remaining: float
    job_deadline: float
    job_final_end_time: float = math.inf


class DVSPolicy(ABC):
    """Base class / protocol for online speed-selection policies.

    Subclasses implement :meth:`frequency`; the lifecycle hooks are optional
    no-ops so that stateless policies stay one-liners while stateful ones
    (e.g. slack accountants) can observe the simulation without the event
    loop knowing about them.
    """

    #: short name used in experiment reports and the CLI registry
    name: str = "abstract"

    # ------------------------------------------------------------------ #
    # Lifecycle hooks (optional)
    # ------------------------------------------------------------------ #
    def on_simulation_start(self, schedule: "StaticSchedule",
                            processor: ProcessorModel) -> None:
        """Called once before the first hyperperiod of a simulation run."""

    def on_hyperperiod_start(self, hp_index: int, offset: float) -> None:
        """Called at the start of every hyperperiod (``offset`` is absolute)."""

    def on_job_finish(self, task_name: str, job_index: int,
                      finish_time: float, deadline: float) -> None:
        """Called whenever a job completes (before deadline checking)."""

    # ------------------------------------------------------------------ #
    # Speed selection (required)
    # ------------------------------------------------------------------ #
    @abstractmethod
    def frequency(self, processor: ProcessorModel, request: SpeedRequest) -> float:
        """Return the clock frequency to use, already clipped to the processor range."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


#: Backwards-compatible alias (the seed called the protocol ``SlackPolicy``).
SlackPolicy = DVSPolicy


class StaticReplayPolicy(DVSPolicy):
    """Replay the offline schedule: always run at the planned worst-case speed."""

    name = "static"

    def frequency(self, processor: ProcessorModel, request: SpeedRequest) -> float:
        return processor.clip_frequency(request.planned_frequency)


#: Backwards-compatible alias (the seed's name for static replay).
NoReclamationPolicy = StaticReplayPolicy


class GreedySlackPolicy(DVSPolicy):
    """The paper's greedy slack reclamation (stretch to the sub-instance end-time)."""

    name = "greedy"

    def frequency(self, processor: ProcessorModel, request: SpeedRequest) -> float:
        if request.wc_remaining <= 0:
            return processor.fmin
        available = request.end_time - request.time_now
        if available <= 0:
            return processor.fmax
        return processor.clip_frequency(request.wc_remaining / available)


class LookaheadSlackPolicy(DVSPolicy):
    """Stretch the job's remaining worst-case work to its last planned end-time.

    Where greedy reclamation re-plans one sub-instance at a time, this policy
    looks ahead over the job's whole remaining static plan and picks the single
    constant speed that would finish all of it exactly at the last planned
    end-time.  Because energy is convex in speed, one flat speed is never more
    expensive than the greedy speed staircase for the same work and horizon —
    but intermediate planned end-times may be overrun, so lower-priority jobs
    lose the formal worst-case guarantee (misses are recorded, not prevented).
    """

    name = "lookahead"

    def frequency(self, processor: ProcessorModel, request: SpeedRequest) -> float:
        if request.job_wc_remaining <= 0:
            return processor.fmin
        horizon = request.job_final_end_time
        if not math.isfinite(horizon):
            horizon = request.job_deadline
        available = horizon - request.time_now
        if available <= 0:
            return processor.fmax
        return processor.clip_frequency(request.job_wc_remaining / available)


class ProportionalSlackPolicy(DVSPolicy):
    """Stretch the job's remaining worst-case work until the job deadline.

    The most aggressive ablation point: it ignores the static plan entirely,
    so it does not inherit the worst-case guarantee — a job slowed down this
    far may push later (lower-priority) work past its deadline.  Deadline
    misses are recorded by the simulator rather than prevented.
    """

    name = "proportional"

    def frequency(self, processor: ProcessorModel, request: SpeedRequest) -> float:
        if request.job_wc_remaining <= 0:
            return processor.fmin
        available = request.job_deadline - request.time_now
        if available <= 0:
            return processor.fmax
        return processor.clip_frequency(request.job_wc_remaining / available)


_POLICIES: Dict[str, Type[DVSPolicy]] = {
    StaticReplayPolicy.name: StaticReplayPolicy,
    GreedySlackPolicy.name: GreedySlackPolicy,
    LookaheadSlackPolicy.name: LookaheadSlackPolicy,
    ProportionalSlackPolicy.name: ProportionalSlackPolicy,
}


def available_policies() -> Tuple[str, ...]:
    """Names of all registered policies, sorted (for CLI help and validation)."""
    return tuple(sorted(_POLICIES))


def get_policy(name: str) -> DVSPolicy:
    """Instantiate a policy by registry name (``"static"``, ``"greedy"``, ...)."""
    try:
        return _POLICIES[name.lower()]()
    except KeyError:
        raise ValueError(
            f"unknown DVS policy {name!r}; known: {sorted(_POLICIES)}"
        ) from None


#: Backwards-compatible alias (the seed's registry accessor).
get_slack_policy = get_policy
