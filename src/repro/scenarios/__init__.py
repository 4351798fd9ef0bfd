"""Declarative scenario runner: specs, loader, engine and the result store.

The paper's evaluation is a family of parameterised scenarios; this package
makes them *data*.  A TOML/JSON file describes the task-set source, offline
method(s), online policy, workload and power models, seeds, repetitions and a
sweep matrix; :class:`ScenarioLoader` validates it, :class:`ScenarioEngine`
compiles it onto the existing comparison/multicore harnesses, and
:class:`ResultStore` content-addresses every work unit so interrupted or
repeated sweeps resume without recomputation — bitwise-identically.

See ``docs/scenarios.md`` for the spec schema and ``examples/scenarios/`` for
the committed scenario files (the Figure 6 sweeps, the motivation table and
the multicore scalability grid).
"""

from .engine import CompiledPoint, CompiledScenario, ScenarioEngine, ScenarioResult
from .loader import ScenarioLoader, load_scenario
from .spec import (
    ArrivalsSpec,
    MotivationSpec,
    MulticoreSpec,
    OfflineSpec,
    OnlineSpec,
    PowerSpec,
    ScenarioError,
    ScenarioSpec,
    SimulationSpec,
    TasksetSpec,
    WorkloadSpec,
)
from .store import STORE_FORMAT, MemoryStore, ResultStore, StoreEntry, signature_key

__all__ = [
    "ScenarioEngine",
    "ScenarioResult",
    "CompiledPoint",
    "CompiledScenario",
    "ScenarioLoader",
    "load_scenario",
    "ScenarioError",
    "ScenarioSpec",
    "TasksetSpec",
    "OfflineSpec",
    "OnlineSpec",
    "WorkloadSpec",
    "ArrivalsSpec",
    "PowerSpec",
    "SimulationSpec",
    "MulticoreSpec",
    "MotivationSpec",
    "ResultStore",
    "MemoryStore",
    "StoreEntry",
    "STORE_FORMAT",
    "signature_key",
]
