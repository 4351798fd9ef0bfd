"""Figure 6(a): ACS vs WCS on randomly generated task sets.

The paper sweeps the number of tasks (2, 4, 6, 8, 10) and the BCEC/WCEC ratio
(0.1, 0.5, 0.9), generates one hundred random task sets per point, simulates
each for one thousand hyperperiods and reports the mean percentage energy
improvement of ACS over WCS.  The improvement grows with the task count and
shrinks as the ratio approaches 1, peaking around 60 %.

:func:`run_figure6a` reproduces the sweep with configurable sample sizes (the
defaults are scaled down so the whole figure regenerates in minutes on a
laptop; pass the paper's numbers for a full run).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..power.presets import ideal_processor
from ..power.processor import ProcessorModel
from ..utils.tables import format_markdown_table
from ..workloads.random_tasksets import RandomTaskSetConfig
from .harness import ComparisonConfig, ComparisonJob, random_comparison_job, run_comparisons

__all__ = ["Figure6aConfig", "Figure6aPoint", "Figure6aResult", "run_figure6a"]


@dataclass(frozen=True)
class Figure6aConfig:
    """Sweep parameters (paper values: 100 task sets, 1000 hyperperiods)."""

    task_counts: Sequence[int] = (2, 4, 6, 8, 10)
    bcec_wcec_ratios: Sequence[float] = (0.1, 0.5, 0.9)
    tasksets_per_point: int = 5
    hyperperiods_per_taskset: int = 20
    target_utilization: float = 0.7
    seed: int = 2005
    processor: Optional[ProcessorModel] = None
    #: Optional period pool forwarded to the random generator.  Restricting the
    #: pool to mutually divisible values keeps the hyperperiod — and with it the
    #: NLP size — small, which is how the quick/benchmark configurations stay fast.
    periods: Optional[Sequence[float]] = None
    #: Worker processes used to execute the sweep (1 = in-process/serial).
    #: Any value produces bitwise-identical results; see
    #: :func:`repro.experiments.harness.run_comparisons`.
    jobs: int = 1

    def resolved_processor(self) -> ProcessorModel:
        return self.processor if self.processor is not None else ideal_processor()


@dataclass(frozen=True)
class Figure6aPoint:
    """One data point of the figure."""

    n_tasks: int
    bcec_wcec_ratio: float
    mean_improvement_percent: float
    std_improvement_percent: float
    mean_wcs_energy: float
    mean_acs_energy: float
    deadline_misses: int


@dataclass
class Figure6aResult:
    """All points of the figure plus rendering helpers."""

    config: Figure6aConfig
    points: List[Figure6aPoint]

    def point(self, n_tasks: int, ratio: float) -> Figure6aPoint:
        for candidate in self.points:
            if candidate.n_tasks == n_tasks and abs(candidate.bcec_wcec_ratio - ratio) < 1e-12:
                return candidate
        raise KeyError((n_tasks, ratio))

    def series(self, ratio: float) -> List[Tuple[int, float]]:
        """The figure's series for one ratio: (number of tasks, improvement %)."""
        return [
            (p.n_tasks, p.mean_improvement_percent)
            for p in sorted(self.points, key=lambda p: p.n_tasks)
            if abs(p.bcec_wcec_ratio - ratio) < 1e-12
        ]

    def to_markdown(self) -> str:
        """Render the figure as the table of improvement percentages."""
        headers = ["tasks"] + [f"ratio {r:g}" for r in self.config.bcec_wcec_ratios]
        rows = []
        for n_tasks in self.config.task_counts:
            row: List[object] = [n_tasks]
            for ratio in self.config.bcec_wcec_ratios:
                row.append(self.point(n_tasks, ratio).mean_improvement_percent)
            rows.append(row)
        return format_markdown_table(headers, rows)


def _build_jobs(cfg: Figure6aConfig, processor: ProcessorModel) -> List[ComparisonJob]:
    """One picklable work unit per (point, sample), with explicitly derived seeds."""
    units: List[ComparisonJob] = []
    for task_index, n_tasks in enumerate(cfg.task_counts):
        for ratio_index, ratio in enumerate(cfg.bcec_wcec_ratios):
            generator_kwargs = dict(
                n_tasks=n_tasks,
                target_utilization=cfg.target_utilization,
                bcec_wcec_ratio=ratio,
            )
            if cfg.periods is not None:
                generator_kwargs["periods"] = tuple(cfg.periods)
            taskset_config = RandomTaskSetConfig(**generator_kwargs)
            for sample_index in range(cfg.tasksets_per_point):
                units.append(random_comparison_job(
                    processor, taskset_config,
                    ComparisonConfig(n_hyperperiods=cfg.hyperperiods_per_taskset,
                                     seed=cfg.seed),
                    task_index, ratio_index, sample_index,
                    taskset_index=sample_index,
                ))
    return units


def run_figure6a(config: Optional[Figure6aConfig] = None, *, verbose: bool = False) -> Figure6aResult:
    """Regenerate Figure 6(a) (``cfg.jobs`` worker processes, same result for any count)."""
    cfg = config or Figure6aConfig()
    processor = cfg.resolved_processor()
    results = run_comparisons(_build_jobs(cfg, processor), n_jobs=cfg.jobs)

    points: List[Figure6aPoint] = []
    cursor = iter(results)
    for n_tasks in cfg.task_counts:
        for ratio in cfg.bcec_wcec_ratios:
            improvements: List[float] = []
            wcs_energies: List[float] = []
            acs_energies: List[float] = []
            misses = 0
            for _ in range(cfg.tasksets_per_point):
                result = next(cursor)
                improvements.append(result.improvement_over_baseline("acs"))
                wcs_energies.append(result.energy("wcs"))
                acs_energies.append(result.energy("acs"))
                misses += sum(o.simulation.miss_count for o in result.outcomes.values())
            point = Figure6aPoint(
                n_tasks=n_tasks,
                bcec_wcec_ratio=ratio,
                mean_improvement_percent=float(np.mean(improvements)),
                std_improvement_percent=float(np.std(improvements)),
                mean_wcs_energy=float(np.mean(wcs_energies)),
                mean_acs_energy=float(np.mean(acs_energies)),
                deadline_misses=misses,
            )
            points.append(point)
            if verbose:
                print(
                    f"figure6a: n_tasks={n_tasks} ratio={ratio:g} "
                    f"improvement={point.mean_improvement_percent:.1f}% misses={misses}"
                )
    return Figure6aResult(config=cfg, points=points)
