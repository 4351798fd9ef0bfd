"""repro — reproduction of "Exploiting Dynamic Workload Variation in Low Energy
Preemptive Task Scheduling" (Leung, Hu, Quan — DATE 2005).

The package implements the paper's ACS offline voltage scheduler together with
every substrate it needs:

* :mod:`repro.core` — periodic task / job / sub-instance model;
* :mod:`repro.power` — DVS processor model (delay law, energy law, discrete
  levels, transition overheads);
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

from .allocation import (
    MulticorePlan,
    MulticoreProblem,
    Partition,
    Partitioner,
    available_partitioners,
    get_partitioner,
    plan_multicore,
)
from .analysis import (
    FullyPreemptiveSchedule,
    breakdown_frequency,
    check_feasibility,
    expand_fully_preemptive,
    is_schedulable,
    response_times,
)
from .core import (
    ExecutionSegment,
    ReproError,
    SubInstance,
    Task,
    TaskInstance,
    TaskSet,
    Timeline,
    fill_average_workloads,
)
from .offline import (
    ACSScheduler,
    ConstantSpeedScheduler,
    LiteralNLPScheduler,
    MaxSpeedScheduler,
    SolverOptions,
    StaticSchedule,
    WCSScheduler,
    average_case_energy,
    frame_based_taskset,
    worst_case_energy,
)
from .power import (
    ProcessorModel,
    TransitionModel,
    VoltageLevels,
    cmos_processor,
    ideal_processor,
    normalized_processor,
)
from .runtime import (
    DVSPolicy,
    DVSSimulator,
    GreedySlackPolicy,
    LookaheadSlackPolicy,
    MulticoreResult,
    MulticoreRunner,
    NoReclamationPolicy,
    ProportionalSlackPolicy,
    SimulationConfig,
    SimulationResult,
    StaticReplayPolicy,
    available_policies,
    get_policy,
    improvement_percent,
)
from .scenarios import (
    ResultStore,
    ScenarioEngine,
    ScenarioLoader,
    ScenarioResult,
    ScenarioSpec,
    load_scenario,
)
from .workloads import (
    BimodalWorkload,
    FixedWorkload,
    NormalWorkload,
    RandomTaskSetConfig,
    UniformWorkload,
    cnc_taskset,
    gap_taskset,
    generate_random_taskset,
    generate_random_tasksets,
)

__version__ = "1.1.0"

__all__ = [
    "__version__",
    # core
    "Task",
    "TaskInstance",
    "SubInstance",
    "TaskSet",
    "Timeline",
    "ExecutionSegment",
    "ReproError",
    "fill_average_workloads",
    # analysis
    "FullyPreemptiveSchedule",
    "expand_fully_preemptive",
    "check_feasibility",
    "response_times",
    "is_schedulable",
    "breakdown_frequency",
    # allocation
    "Partition",
    "Partitioner",
    "available_partitioners",
    "get_partitioner",
    "MulticoreProblem",
    "MulticorePlan",
    "plan_multicore",
    # power
    "ProcessorModel",
    "VoltageLevels",
    "TransitionModel",
    "ideal_processor",
    "cmos_processor",
    "normalized_processor",
    # offline
    "ACSScheduler",
    "WCSScheduler",
    "LiteralNLPScheduler",
    "MaxSpeedScheduler",
    "ConstantSpeedScheduler",
    "StaticSchedule",
    "SolverOptions",
    "average_case_energy",
    "worst_case_energy",
    "frame_based_taskset",
    # runtime
    "DVSSimulator",
    "SimulationConfig",
    "SimulationResult",
    "MulticoreRunner",
    "MulticoreResult",
    "DVSPolicy",
    "StaticReplayPolicy",
    "GreedySlackPolicy",
    "LookaheadSlackPolicy",
    "NoReclamationPolicy",
    "ProportionalSlackPolicy",
    "available_policies",
    "get_policy",
    "improvement_percent",
    # scenarios
    "ScenarioSpec",
    "ScenarioLoader",
    "ScenarioEngine",
    "ScenarioResult",
    "ResultStore",
    "load_scenario",
    # workloads
    "NormalWorkload",
    "UniformWorkload",
    "FixedWorkload",
    "BimodalWorkload",
    "RandomTaskSetConfig",
    "generate_random_taskset",
    "generate_random_tasksets",
    "cnc_taskset",
    "gap_taskset",
]
