"""Partitioned-multiprocessor allocation: task-to-core heuristics and per-core planning.

The subsystem decomposes a multiprocessor DVS problem the standard
partitioned way — allocate tasks to cores, then solve each core with the
existing single-core pipeline:

* :mod:`repro.allocation.partitioners` — first/best/worst-fit-decreasing and
  energy-aware allocation heuristics behind the :class:`Partitioner`
  interface, producing validated :class:`Partition` objects;
* :mod:`repro.allocation.multicore` — :class:`MulticoreProblem` /
  :class:`MulticorePlan` and :func:`plan_multicore`, which runs the offline
  NLP independently per core, optionally through a solve memo.

The runtime counterpart — simulating a plan on ``m`` cores — lives in
:mod:`repro.runtime.multicore`.
"""

from .multicore import MulticorePlan, MulticoreProblem, plan_multicore
from .partitioners import (
    BestFitDecreasingPartitioner,
    EnergyAwarePartitioner,
    FirstFitDecreasingPartitioner,
    Partition,
    Partitioner,
    WorstFitDecreasingPartitioner,
    available_partitioners,
    get_partitioner,
    predicted_energy_rate,
)

__all__ = [
    "Partition",
    "Partitioner",
    "FirstFitDecreasingPartitioner",
    "BestFitDecreasingPartitioner",
    "WorstFitDecreasingPartitioner",
    "EnergyAwarePartitioner",
    "available_partitioners",
    "get_partitioner",
    "predicted_energy_rate",
    "MulticoreProblem",
    "MulticorePlan",
    "plan_multicore",
]
