"""Arrival models: when a hyperperiod's jobs are actually released.

The paper's system model is strictly periodic — job ``j`` of a task is
released exactly at ``j · period``.  This module generalises the release
*instant* behind a small :class:`ArrivalModel` interface so the simulator can
open workloads the paper never measured, starting with **sporadic arrivals
with bounded release jitter**: each job is released ``release + U(0, J)``
where ``J = min(max_jitter, window)`` is clamped to the job's own execution
window.

Semantics (deliberately conservative, so the static schedule stays the
authority):

* only the *release* shifts — absolute deadlines and the static schedule's
  slots and end-times stay nominal, so jitter eats into the job's own slack
  (a heavily jittered job can miss its deadline, which the simulator records
  as usual);
* the dispatcher still runs fixed-priority preemptive over the jittered
  releases, so release order — and therefore the preemption structure — can
  genuinely change from hyperperiod to hyperperiod.

**Determinism contract:** :meth:`ArrivalModel.sample_offsets` draws *all* of
a run's jitter in one vectorized call, consumed from the generator *before*
any workload-cycle draws.  The reference loop and the lane engine make the
identical single call, so their RNG streams — and hence their results —
stay bitwise-identical (the same scheme the workload models use,
see :meth:`repro.workloads.distributions.WorkloadModel.sample_batch`).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..core.errors import WorkloadError
from ..core.task import TaskInstance

__all__ = [
    "ArrivalModel",
    "PeriodicArrivals",
    "SporadicArrivals",
    "get_arrival_model",
    "available_arrival_models",
]


class ArrivalModel(ABC):
    """Draws per-job release offsets (added to the nominal releases)."""

    #: short name used in scenario specs and experiment reports
    name: str = "abstract"

    @abstractmethod
    def sample_offsets(self, rng: np.random.Generator,
                       instances: Sequence[TaskInstance], n: int = 1) -> np.ndarray:
        """Release offsets of ``n`` consecutive hyperperiods in one call.

        Returns an ``(n, len(instances))`` array whose row ``i`` holds
        hyperperiod ``i``'s non-negative offsets, one per job instance (in the
        expansion's job order).  Implementations must consume the generator in
        a single vectorized draw (or not at all) so every engine advances the
        stream identically.
        """


@dataclass(frozen=True)
class PeriodicArrivals(ArrivalModel):
    """The paper's model: zero jitter, and no randomness consumed."""

    name: str = "periodic"

    def sample_offsets(self, rng: np.random.Generator,
                       instances: Sequence[TaskInstance], n: int = 1) -> np.ndarray:
        return np.zeros((n, len(instances)), dtype=float)


@dataclass(frozen=True)
class SporadicArrivals(ArrivalModel):
    """Bounded uniform release jitter: job ``j`` arrives at ``release_j + U(0, J_j)``.

    ``J_j = min(max_jitter, window_j)`` clamps the jitter to each job's own
    execution window so a release can never be pushed past its deadline.
    """

    max_jitter: float = 1.0
    name: str = "sporadic"

    def __post_init__(self) -> None:
        if self.max_jitter < 0:
            raise WorkloadError(f"max_jitter must be non-negative, got {self.max_jitter}")

    def sample_offsets(self, rng: np.random.Generator,
                       instances: Sequence[TaskInstance], n: int = 1) -> np.ndarray:
        bounds = np.array([min(self.max_jitter, instance.window) for instance in instances],
                          dtype=float)
        return rng.uniform(0.0, bounds, size=(n, len(instances)))


_MODELS = {
    "periodic": PeriodicArrivals,
    "sporadic": SporadicArrivals,
}


def available_arrival_models() -> tuple:
    """Registry names accepted by :func:`get_arrival_model` (and scenario specs)."""
    return tuple(sorted(_MODELS))


def get_arrival_model(name: str, **kwargs) -> ArrivalModel:
    """Instantiate an arrival model by name (``"periodic"``, ``"sporadic"``)."""
    try:
        factory = _MODELS[name.lower()]
    except KeyError:
        raise WorkloadError(
            f"unknown arrival model {name!r}; known: {sorted(_MODELS)}") from None
    return factory(**kwargs)
