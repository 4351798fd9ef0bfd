"""The motivational example (Table 1, Figures 1 and 2 of the paper).

The paper opens with a three-task non-preemptive frame to show why end-times
chosen for the worst case waste energy when jobs usually finish early:

* Figure 1(a): the energy-optimal static schedule when every task takes its
  WCEC — each task is stretched over an equal share of the 20 ms frame.
* Figure 1(b): the same end-times at runtime with greedy slack reclamation
  when the tasks actually take their ACEC.
* Figure 2: end-times chosen with the average case in mind (the ACS idea)
  reduce the runtime energy by roughly a quarter, while remaining feasible —
  unlike naively using each task's deadline as its end-time, which would need
  more than the maximum supply voltage in the worst case.
* The price: if the worst case does occur, the ACS end-times cost roughly a
  third more energy than the WCS end-times.

The exact task parameters in the published table are not fully legible in the
available scan, so this module uses a faithful reconstruction (three equal
tasks whose WCS schedule matches the end-times 6.7/13.3/20 ms visible in
Figure 1) and verifies the same qualitative statements; EXPERIMENTS.md records
the measured percentages next to the paper's 24 % / 33 %.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..analysis.preemption import expand_fully_preemptive
from ..core.task import Task
from ..core.taskset import TaskSet
from ..offline.acs import ACSScheduler
from ..offline.batched_solver import SolveMemo
from ..offline.evaluation import average_case_energy, worst_case_energy
from ..offline.nonpreemptive import frame_based_taskset
from ..offline.wcs import WCSScheduler
from ..power.presets import ideal_processor
from ..power.processor import ProcessorModel
from ..runtime.results import improvement_percent
from ..utils.tables import format_markdown_table

__all__ = ["MotivationConfig", "MotivationResult", "motivation_taskset", "run_motivation"]

#: Frame length of the motivational example (ms).
FRAME_LENGTH = 20.0


@dataclass(frozen=True)
class MotivationConfig:
    """Parameters of the reconstructed motivational example."""

    frame_length: float = FRAME_LENGTH
    #: Defaults reconstruct the paper's figures closely: the WCS-optimal schedule
    #: ends at 6.7 / 13.3 / 20 ms (Figure 1) and the ACS-optimal end-times land on
    #: 10 / 15 / 20 ms (Figure 2) with a ≈33 % worst-case penalty, matching the text.
    wcec: float = 5000.0
    acec: float = 1500.0
    bcec: float = 500.0
    processor: Optional[ProcessorModel] = None

    def resolved_processor(self) -> ProcessorModel:
        if self.processor is not None:
            return self.processor
        # 1000 cycles/ms at 5 V, frequency proportional to voltage: the
        # simplified model the paper's example assumes.
        return ideal_processor(vmax=5.0, vmin=0.5, fmax=1000.0)


def motivation_taskset(config: Optional[MotivationConfig] = None) -> TaskSet:
    """The three-task non-preemptive frame of Table 1 (reconstructed)."""
    cfg = config or MotivationConfig()
    tasks = [
        Task(name=f"T{i + 1}", period=cfg.frame_length, wcec=cfg.wcec,
             acec=cfg.acec, bcec=cfg.bcec)
        for i in range(3)
    ]
    return frame_based_taskset(tasks, cfg.frame_length, name="motivation")


@dataclass
class MotivationResult:
    """Energies of the four scenarios discussed in Section 2.2."""

    wcs_end_times: List[float]
    acs_end_times: List[float]
    wcs_worst_case_energy: float
    wcs_average_case_energy: float
    acs_average_case_energy: float
    acs_worst_case_energy: float

    @property
    def improvement_average_case_percent(self) -> float:
        """Energy reduction of the ACS end-times in the average case (paper: ≈24 %)."""
        return improvement_percent(self.wcs_average_case_energy, self.acs_average_case_energy)

    @property
    def penalty_worst_case_percent(self) -> float:
        """Energy increase of the ACS end-times when the worst case occurs (paper: ≈33 %)."""
        return 100.0 * (self.acs_worst_case_energy - self.wcs_worst_case_energy) / self.wcs_worst_case_energy

    def to_markdown(self) -> str:
        headers = ["scenario", "end-times", "workload", "energy"]
        rows = [
            ["Fig. 1(a) static schedule", "WCS", "WCEC", self.wcs_worst_case_energy],
            ["Fig. 1(b) runtime (greedy)", "WCS", "ACEC", self.wcs_average_case_energy],
            ["Fig. 2   runtime (greedy)", "ACS", "ACEC", self.acs_average_case_energy],
            ["worst case under ACS", "ACS", "WCEC", self.acs_worst_case_energy],
        ]
        return format_markdown_table(headers, rows, float_format=".4g")


def run_motivation(config: Optional[MotivationConfig] = None,
                   memo: Optional[SolveMemo] = None) -> MotivationResult:
    """Reproduce the motivational example end to end.

    WCS and ACS plan one expansion through one solve memo (``memo``, or a
    fresh one), so ACS's WCS warm start replays the WCS solve.
    """
    cfg = config or MotivationConfig()
    processor = cfg.resolved_processor()
    expansion = expand_fully_preemptive(motivation_taskset(cfg))
    memo = SolveMemo() if memo is None else memo

    wcs_schedule = WCSScheduler(processor).schedule_expansion(expansion, memo=memo)
    acs_schedule = ACSScheduler(processor).schedule_expansion(expansion, memo=memo)

    return MotivationResult(
        wcs_end_times=wcs_schedule.end_times(),
        acs_end_times=acs_schedule.end_times(),
        wcs_worst_case_energy=worst_case_energy(wcs_schedule, processor),
        wcs_average_case_energy=average_case_energy(wcs_schedule, processor),
        acs_average_case_energy=average_case_energy(acs_schedule, processor),
        acs_worst_case_energy=worst_case_energy(acs_schedule, processor),
    )
