"""Multicore runtime: simulate a partitioned plan, one batch unit per core.

Partitioned scheduling keeps cores independent at runtime — no migration, no
shared ready queue — so the multicore simulation is ``m`` single-core
simulations over a common wall-clock horizon plus aggregation.
:class:`MulticoreRunner` simulates every populated core in one
:func:`~repro.runtime.batched.simulate_batch` call, one unit per core (the
lane engine runs them side by side; ``SimulationConfig(fast_path=False)`` and
the configurations it does not cover put every core on the reference loop),
and collects the per-core :class:`~repro.runtime.results.SimulationResult`
records into a :class:`MulticoreResult`.

Two aggregation subtleties:

* **Common horizon.**  A core's own hyperperiod is the LCM of *its* task
  periods, which divides — but may be shorter than — the global hyperperiod.
  Each core therefore simulates ``n_hyperperiods × (H_global / H_core)``
  of its own hyperperiods, so every core covers exactly
  ``n_hyperperiods × H_global`` of wall-clock time and the per-core energies
  are directly summable.
* **Determinism.**  Each core draws its workload from its own generator,
  derived from ``(seed, core_index, SIMULATION_STREAM)`` with the experiment
  harness's explicit seed derivation — results are independent of the order
  cores are simulated in, and a one-core run consumes exactly the stream a
  single-core :class:`~repro.runtime.simulator.DVSSimulator` run with ``derive_rng(seed, 0,
  SIMULATION_STREAM)`` would, which is what makes the ``m=1`` equivalence
  test bitwise (see ``tests/runtime/test_multicore_runner.py``).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, TYPE_CHECKING, Union

import numpy as np

from ..core.errors import SimulationError
from ..power.processor import ProcessorModel
from ..workloads.distributions import NormalWorkload, WorkloadModel
from .batched import BatchUnit, simulate_batch
from .policies import DVSPolicy, get_policy
from .results import DeadlineMiss, SimulationResult
from .simulator import SimulationConfig

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from ..allocation.multicore import MulticorePlan

__all__ = ["MulticoreResult", "MulticoreRunner"]


@dataclass
class MulticoreResult:
    """Aggregate outcome of simulating a partitioned plan on ``m`` cores.

    ``core_results[k]`` is core ``k``'s :class:`SimulationResult` (``None``
    for idle cores).  Energies are directly summable because every core was
    simulated over the same wall-clock horizon
    (``n_hyperperiods`` global hyperperiods).
    """

    method: str
    policy: str
    partitioner: str
    n_cores: int
    n_hyperperiods: int
    hyperperiod: float
    core_results: List[Optional[SimulationResult]]
    #: Worst-case utilisation of every core at maximum frequency.
    core_utilizations: List[float] = field(default_factory=list)
    #: Average-case (ACEC) utilisation of every core at maximum frequency.
    core_average_utilizations: List[float] = field(default_factory=list)
    #: Task name → core index.
    assignment: Dict[str, int] = field(default_factory=dict)

    # ------------------------------------------------------------------ #
    # Aggregates
    # ------------------------------------------------------------------ #
    @property
    def total_energy(self) -> float:
        return float(sum(result.total_energy
                         for result in self.core_results if result is not None))

    @property
    def mean_energy_per_hyperperiod(self) -> float:
        """Mean total (all-cores) energy per *global* hyperperiod."""
        if self.n_hyperperiods <= 0:
            return 0.0
        return self.total_energy / self.n_hyperperiods

    @property
    def transition_energy(self) -> float:
        return float(sum(result.transition_energy
                         for result in self.core_results if result is not None))

    @property
    def energy_by_core(self) -> List[float]:
        return [0.0 if result is None else result.total_energy
                for result in self.core_results]

    @property
    def core_slacks(self) -> List[float]:
        """Static slack of every core: ``1 − worst-case utilisation``."""
        return [1.0 - utilization for utilization in self.core_utilizations]

    @property
    def deadline_misses(self) -> List[DeadlineMiss]:
        misses: List[DeadlineMiss] = []
        for result in self.core_results:
            if result is not None:
                misses.extend(result.deadline_misses)
        return misses

    @property
    def miss_count(self) -> int:
        return sum(result.miss_count
                   for result in self.core_results if result is not None)

    @property
    def met_all_deadlines(self) -> bool:
        return self.miss_count == 0

    @property
    def jobs_completed(self) -> int:
        return sum(result.jobs_completed
                   for result in self.core_results if result is not None)

    def summary(self) -> str:
        """One-line human-readable summary."""
        return (
            f"{self.method}/{self.policy} on {self.n_cores} cores ({self.partitioner}): "
            f"{self.n_hyperperiods} hyperperiods, "
            f"mean energy {self.mean_energy_per_hyperperiod:.4g}, "
            f"misses {self.miss_count}, jobs {self.jobs_completed}"
        )


@dataclass
class MulticoreRunner:
    """Simulate a :class:`~repro.allocation.multicore.MulticorePlan`.

    The ``policy`` may be a registry name or a :class:`DVSPolicy` instance;
    every core receives its own (deep-copied) policy object so stateful
    policies cannot leak runtime history across cores.
    ``config.n_hyperperiods`` counts *global* hyperperiods; the per-core
    repeat factor is derived from the plan.
    """

    processor: ProcessorModel
    policy: Union[DVSPolicy, str] = "greedy"
    config: SimulationConfig = field(default_factory=SimulationConfig)

    def run(self, plan: "MulticorePlan", workload: Optional[WorkloadModel] = None,
            seed: Optional[int] = None) -> MulticoreResult:
        """Simulate every populated core of ``plan`` and aggregate the results.

        ``seed`` is the root of the per-core generator derivation; ``None``
        falls back to ``config.seed`` (and to fresh OS entropy if that is
        ``None`` too, like the single-core simulator).
        """
        from ..experiments.seeding import SIMULATION_STREAM, derive_rng

        workload_model = workload if workload is not None else NormalWorkload()
        root_seed = seed if seed is not None else self.config.seed
        cores = plan.partition.used_cores()
        units = [
            BatchUnit(
                schedule=plan.schedules[core],
                processor=self.processor,
                policy=self._core_policy(),
                config=replace(
                    self.config,
                    n_hyperperiods=self.config.n_hyperperiods * plan.hyperperiods_per_frame(core),
                    seed=None,
                ),
                workload=workload_model,
                rng=(np.random.default_rng() if root_seed is None
                     else derive_rng(root_seed, core, SIMULATION_STREAM)),
            )
            for core in cores
        ]
        core_results: List[Optional[SimulationResult]] = [None] * plan.n_cores
        for core, result in zip(cores, simulate_batch(units)):
            core_results[core] = result
        return MulticoreResult(
            method=plan.method,
            policy=self._policy_name(),
            partitioner=plan.partition.partitioner,
            n_cores=plan.n_cores,
            n_hyperperiods=self.config.n_hyperperiods,
            hyperperiod=plan.hyperperiod,
            core_results=core_results,
            core_utilizations=plan.partition.utilizations(self.processor),
            core_average_utilizations=plan.partition.average_utilizations(self.processor),
            assignment=plan.partition.assignment,
        )

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _core_policy(self) -> DVSPolicy:
        if isinstance(self.policy, str):
            return get_policy(self.policy)
        if not isinstance(self.policy, DVSPolicy):
            raise SimulationError(f"policy must be a DVSPolicy or a name, got {self.policy!r}")
        return copy.deepcopy(self.policy)

    def _policy_name(self) -> str:
        if isinstance(self.policy, str):
            return self.policy
        return self.policy.name
