"""Free-form random-taskset sweep driven by the batched, multiprocess harness.

Unlike the fixed Figure 6 grids, :func:`run_sweep` runs **one** configurable
scenario — task count, BCEC/WCEC ratio, utilisation, online DVS policy — over
many random task sets and aggregates the per-taskset
:class:`~repro.experiments.harness.ComparisonResult` records.  It is the
workhorse behind the ``repro sweep`` CLI subcommand and the canonical
demonstration of the parallel harness: ``jobs=N`` distributes the task sets
over ``N`` worker processes and, because every work unit derives its RNG
seeds from its own coordinates, the aggregated output is bitwise-identical
for any ``N``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..power.presets import ideal_processor
from ..power.processor import ProcessorModel
from ..runtime.policies import get_policy
from ..telemetry.core import current as _telemetry
from ..utils.tables import format_markdown_table
from ..workloads.random_tasksets import RandomTaskSetConfig
from .harness import (
    ComparisonConfig,
    ComparisonJob,
    ComparisonResult,
    aggregate_fallback_reasons,
    random_comparison_job,
    run_comparisons,
)

__all__ = ["SweepConfig", "SweepResult", "run_sweep"]


@dataclass(frozen=True)
class SweepConfig:
    """One sweep scenario (defaults sized for a laptop smoke run)."""

    n_tasksets: int = 8
    n_tasks: int = 4
    bcec_wcec_ratio: float = 0.5
    target_utilization: float = 0.7
    n_hyperperiods: int = 20
    seed: int = 2005
    #: Online DVS policy name (``"static"``, ``"greedy"``, ``"lookahead"``,
    #: ``"proportional"``) used to simulate every schedule.
    policy: str = "greedy"
    #: Offline schedulers to compare (registry names, first-listed order kept).
    schedulers: Tuple[str, ...] = ("wcs", "acs")
    baseline: str = "wcs"
    #: Worker processes (1 = serial); results are identical for any value.
    jobs: int = 1
    processor: Optional[ProcessorModel] = None
    periods: Optional[Sequence[float]] = None

    def resolved_processor(self) -> ProcessorModel:
        return self.processor if self.processor is not None else ideal_processor()


@dataclass
class SweepResult:
    """Per-taskset comparison results plus cross-taskset aggregates."""

    config: SweepConfig
    results: List[ComparisonResult]
    elapsed_seconds: float = 0.0

    def methods(self) -> List[str]:
        return list(self.config.schedulers)

    def mean_energy(self, method: str) -> float:
        return float(np.mean([r.energy(method) for r in self.results]))

    def mean_improvement(self, method: str) -> float:
        return float(np.mean([r.improvement_over_baseline(method) for r in self.results]))

    def total_misses(self) -> int:
        return sum(
            outcome.simulation.miss_count
            for result in self.results
            for outcome in result.outcomes.values()
        )

    def summary_rows(self) -> List[List[object]]:
        return [
            [method, self.mean_energy(method), self.mean_improvement(method)]
            for method in self.methods()
        ]

    def fallback_summary(self) -> Dict[str, int]:
        """Merged ``{reason: count}`` fallback tally across every comparison.

        Keys are prefixed ``"batch:"`` (see
        :class:`~repro.experiments.harness.ComparisonResult`); empty when no
        simulation unit fell back.
        """
        return aggregate_fallback_reasons(result.fallback_reasons for result in self.results)

    def total_units(self) -> int:
        """Number of simulation work units (one per method per task set)."""
        return sum(len(result.outcomes) for result in self.results)

    def to_markdown(self) -> str:
        """Deterministic report: per-taskset table plus the aggregate table.

        Wall-clock time is deliberately excluded so that serial and parallel
        runs of the same configuration render byte-identical reports.
        """
        per_taskset: List[List[object]] = []
        for index, result in enumerate(self.results):
            row: List[object] = [index]
            for method in self.methods():
                row.append(result.energy(method))
            row.append(result.improvement_over_baseline(
                self._best_non_baseline_method()))
            per_taskset.append(row)
        headers = (["taskset"]
                   + [f"{m} energy" for m in self.methods()]
                   + [f"{self._best_non_baseline_method()} improvement %"])
        lines = [
            format_markdown_table(headers, per_taskset),
            "",
            format_markdown_table(
                ["method", "mean energy / hyperperiod", "improvement over baseline %"],
                self.summary_rows()),
            "",
            f"policy: {self.config.policy} | tasksets: {self.config.n_tasksets} | "
            f"deadline misses: {self.total_misses()}",
        ]
        return "\n".join(lines)

    def _best_non_baseline_method(self) -> str:
        for method in self.methods():
            if method != self.config.baseline:
                return method
        return self.config.baseline


def _build_jobs(cfg: SweepConfig, processor: ProcessorModel) -> List[ComparisonJob]:
    generator_kwargs = dict(
        n_tasks=cfg.n_tasks,
        target_utilization=cfg.target_utilization,
        bcec_wcec_ratio=cfg.bcec_wcec_ratio,
    )
    if cfg.periods is not None:
        generator_kwargs["periods"] = tuple(cfg.periods)
    taskset_config = RandomTaskSetConfig(**generator_kwargs)
    units: List[ComparisonJob] = []
    for sample_index in range(cfg.n_tasksets):
        units.append(random_comparison_job(
            processor, taskset_config,
            ComparisonConfig(n_hyperperiods=cfg.n_hyperperiods, seed=cfg.seed,
                             baseline=cfg.baseline, policy=get_policy(cfg.policy)),
            sample_index,
            taskset_index=sample_index,
            schedulers=cfg.schedulers,
        ))
    return units


def run_sweep(config: Optional[SweepConfig] = None, *, verbose: bool = False) -> SweepResult:
    """Run the sweep (``config.jobs`` worker processes, same result for any count)."""
    cfg = config or SweepConfig()
    processor = cfg.resolved_processor()
    units = _build_jobs(cfg, processor)
    # The stage timer replaces the old inline perf_counter pair: with
    # telemetry enabled the same ns interval is recorded as a "sweep.run"
    # span, so elapsed_seconds stays bitwise-derivable from the span row.
    with _telemetry().stage("sweep.run") as timer:
        results = run_comparisons(units, n_jobs=cfg.jobs)
    elapsed = timer.elapsed_seconds
    sweep_result = SweepResult(config=cfg, results=results, elapsed_seconds=elapsed)
    if verbose:
        for index, result in enumerate(results):
            best = [m for m in cfg.schedulers if m != cfg.baseline]
            shown = best[0] if best else cfg.baseline
            print(f"sweep: taskset {index} {shown} improvement "
                  f"{result.improvement_over_baseline(shown):.1f}%")
    return sweep_result
