"""Result records produced by the runtime simulator."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .trace import EventTrace

__all__ = ["DeadlineMiss", "SimulationResult", "improvement_percent"]


@dataclass(frozen=True)
class DeadlineMiss:
    """One job that finished after its absolute deadline."""

    task_name: str
    job_index: int
    hyperperiod_index: int
    deadline: float
    finish_time: float

    @property
    def lateness(self) -> float:
        return self.finish_time - self.deadline


@dataclass
class SimulationResult:
    """Aggregate outcome of simulating a static schedule for several hyperperiods."""

    method: str
    policy: str
    n_hyperperiods: int
    total_energy: float
    energy_per_hyperperiod: List[float]
    transition_energy: float = 0.0
    energy_by_task: Dict[str, float] = field(default_factory=dict)
    deadline_misses: List[DeadlineMiss] = field(default_factory=list)
    jobs_completed: int = 0
    #: Typed event stream of the run (``SimulationConfig(trace=True)`` only).
    trace: Optional["EventTrace"] = None

    @property
    def mean_energy_per_hyperperiod(self) -> float:
        """Average energy per hyperperiod (the quantity compared in the paper)."""
        if not self.energy_per_hyperperiod:
            return 0.0
        return sum(self.energy_per_hyperperiod) / len(self.energy_per_hyperperiod)

    @property
    def miss_count(self) -> int:
        return len(self.deadline_misses)

    @property
    def met_all_deadlines(self) -> bool:
        return not self.deadline_misses

    def summary(self) -> str:
        """One-line human-readable summary."""
        return (
            f"{self.method}/{self.policy}: {self.n_hyperperiods} hyperperiods, "
            f"mean energy {self.mean_energy_per_hyperperiod:.4g}, "
            f"misses {self.miss_count}, jobs {self.jobs_completed}"
        )


def improvement_percent(baseline_energy: float, improved_energy: float) -> float:
    """Percentage energy reduction of ``improved`` relative to ``baseline``.

    Matches the paper's Y-axis: ``100 · (E_baseline − E_improved) / E_baseline``.
    """
    if baseline_energy <= 0:
        raise ValueError("baseline energy must be positive")
    return 100.0 * (baseline_energy - improved_energy) / baseline_energy
