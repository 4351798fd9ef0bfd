"""repro — reproduction of "Exploiting Dynamic Workload Variation in Low Energy
Preemptive Task Scheduling" (Leung, Hu, Quan — DATE 2005).

The package implements the paper's ACS offline voltage scheduler together with
every substrate it needs:

* :mod:`repro.core` — periodic task / job / sub-instance model;
* :mod:`repro.power` — DVS processor model (delay law, energy law,
  transition overheads);
* :mod:`repro.analysis` — schedulability analysis and the fully preemptive
  schedule expansion;
* :mod:`repro.offline` — the ACS NLP, the WCS baseline, the literal NLP
  formulation and simpler baselines;
* :mod:`repro.runtime` — the discrete-event runtime simulator with online DVS
  and slack reclamation;
* :mod:`repro.workloads` — workload distributions, random task sets and the
  CNC / GAP case studies;
* :mod:`repro.experiments` — the comparison harness and the motivation table;
* :mod:`repro.scenarios` — the declarative scenario runner (and the runner of
  the Figure-6 sweeps and ``repro sweep``): TOML/JSON specs, the compiling
  engine and the content-addressed, resumable result store.

Quickstart::

    from repro import (Task, TaskSet, ideal_processor, ACSScheduler,
                       WCSScheduler, DVSSimulator, SimulationConfig,
                       NormalWorkload, improvement_percent)

    tasks = [Task("control", period=10, wcec=3000, acec=1500, bcec=600),
             Task("sensing", period=20, wcec=8000, acec=4400, bcec=800),
             Task("logging", period=40, wcec=9000, acec=5000, bcec=1000)]
    taskset = TaskSet(tasks)
    processor = ideal_processor()

    acs = ACSScheduler(processor).schedule(taskset)
    wcs = WCSScheduler(processor).schedule(taskset)

    simulator = DVSSimulator(processor, config=SimulationConfig(n_hyperperiods=100, seed=1))
    acs_energy = simulator.run(acs, NormalWorkload()).mean_energy_per_hyperperiod
    wcs_energy = simulator.run(wcs, NormalWorkload()).mean_energy_per_hyperperiod
    print(improvement_percent(wcs_energy, acs_energy))
"""

import importlib
from typing import Any, List

__version__ = "1.1.0"

#: Every public name, grouped by the subpackage that defines it.  A name is
#: imported on first access (PEP 562), so ``import repro`` loads no
#: subpackage and no numpy.  That lets the ``repro`` CLI choose OpenBLAS's
#: thread count before numpy starts it (see ``repro.cli``), while library
#: importers keep their own.
_EXPORTS = {
    name: subpackage
    for subpackage, names in (
        ("core", ("Task", "TaskInstance", "SubInstance", "TaskSet", "Timeline",
                  "ExecutionSegment", "ReproError", "fill_average_workloads")),
        ("analysis", ("FullyPreemptiveSchedule", "expand_fully_preemptive", "check_feasibility",
                      "response_times", "is_schedulable", "breakdown_frequency")),
        ("allocation", ("Partition", "Partitioner", "available_partitioners", "get_partitioner",
                        "MulticoreProblem", "MulticorePlan", "plan_multicore")),
        ("power", ("ProcessorModel", "TransitionModel", "ideal_processor", "cmos_processor",
                   "normalized_processor")),
        ("offline", ("ACSScheduler", "WCSScheduler", "LiteralNLPScheduler", "MaxSpeedScheduler",
                     "ConstantSpeedScheduler", "StaticSchedule", "SolverOptions",
                     "average_case_energy", "worst_case_energy", "frame_based_taskset")),
        ("runtime", ("DVSSimulator", "SimulationConfig", "SimulationResult", "MulticoreRunner",
                     "MulticoreResult", "DVSPolicy", "StaticReplayPolicy", "GreedySlackPolicy",
                     "LookaheadSlackPolicy", "ProportionalSlackPolicy", "available_policies",
                     "get_policy", "improvement_percent")),
        ("scenarios", ("ScenarioSpec", "ScenarioLoader", "ScenarioEngine", "ScenarioResult",
                       "ResultStore", "load_scenario")),
        ("workloads", ("NormalWorkload", "UniformWorkload", "FixedWorkload", "BimodalWorkload",
                       "RandomTaskSetConfig", "generate_random_taskset",
                       "generate_random_tasksets", "cnc_taskset", "gap_taskset")),
    )
    for name in names
}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name: str) -> Any:
    subpackage = _EXPORTS.get(name)
    if subpackage is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{subpackage}"), name)
    globals()[name] = value
    return value


def __dir__() -> List[str]:
    return sorted({*globals(), *_EXPORTS})
