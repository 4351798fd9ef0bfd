"""Benchmark: Figure 6(a) — ACS vs WCS on random task sets.

The paper sweeps 2–10 tasks and BCEC/WCEC ∈ {0.1, 0.5, 0.9} with 100 task sets
× 1000 hyperperiods per point.  The benchmark runs a scaled-down scenario
document through the scenario engine (the full setting is available through
``repro-experiments figure6a --full``) and checks the figure's two trends:

* the improvement of ACS over WCS grows with the number of tasks, and
* it shrinks as the BCEC/WCEC ratio approaches 1.

The end-to-end regeneration above is dominated by the NLP solves, so engine
speedups barely move it.  The ``*_sim_*`` benchmarks therefore time the
*simulation stage in isolation* — the schedules are solved once, untimed, and
the timed region replays a widened sweep's simulations (50 task sets per
point, 25 hyperperiods each -> 900 units) through ``simulate_batch``:
untraced on the lane engine, which must agree bitwise with the reference
event loop, and traced (a fixed tenth of the units), which runs every unit
on the reference loop.  Width
matters: per step the lane engine pays a fixed toll of NumPy calls spread
over however many (unit, hyperperiod) lanes are live.  With 900 units each
of its blocks is one hyperperiod of every unit (900 lanes); narrower sweeps
get several hyperperiods per unit in a block.

The ``*_plan_*`` benchmarks isolate the other stage: the offline NLP solves.
``plan_sequential`` times the per-scheduler loop with no memo (every round
re-solves the whole sweep), and ``plan_memo_warm`` the resume path — a
pre-warmed solve memo replays every schedule with **zero** optimizer calls,
which is where the real-world speedup lives (resumed, repeated and reseeded
sweeps).  A cold memoized plan differs from the sequential one only by the
memo bookkeeping and the solves it dedups, so it has no pair of its own.
The warm replay must agree bitwise with the sequential reference.
"""

import copy
from dataclasses import replace

import numpy as np
import pytest

from repro.analysis.preemption import expand_fully_preemptive
from repro.experiments.harness import make_schedulers
from repro.offline.batched_solver import SolveMemo, plan_expansions
from repro.runtime.batched import BatchUnit, simulate_batch
from repro.runtime.simulator import DVSSimulator
from repro.scenarios import ScenarioEngine, ScenarioSpec

TASK_COUNTS = (2, 4, 6)

#: Scaled-down sweep: divisor-friendly periods keep the NLP small.
BENCH_DOCUMENT = {
    "kind": "comparison",
    "name": "bench-figure6a",
    "taskset": {"source": "random", "utilization": 0.7, "periods": [10.0, 20.0, 40.0, 80.0]},
    "simulation": {"hyperperiods": 10, "seed": 2005, "repetitions": 2},
    "matrix": {"taskset.n_tasks": list(TASK_COUNTS), "taskset.ratio": [0.1, 0.5, 0.9]},
}

#: Simulation-stage sweep: same points as BENCH_DOCUMENT but wide enough
#: (9 points x 50 task sets x 2 methods = 900 units) for lock-stepping to
#: amortise the batched engine's fixed per-step cost.
SIM_TASKSETS_PER_POINT = 50
SIM_HYPERPERIODS = 25
#: Traced units run on the reference loop, several times slower than the
#: lane engine, so the traced replay takes every tenth unit of the sweep (a
#: fixed subset of 90 units that spans all nine points).
TRACED_SUBSET = slice(None, None, 10)


def _bench_jobs(**simulation):
    """The sweep's comparison jobs, compiled (not run) by the scenario engine."""
    document = {**BENCH_DOCUMENT, "simulation": {**BENCH_DOCUMENT["simulation"], **simulation}}
    return list(ScenarioEngine().compile(ScenarioSpec.from_dict(document)).units.values())


@pytest.fixture(scope="module")
def sim_units():
    """Every (task set, method) simulation unit of the sweep, schedules pre-solved.

    All NLP work happens here, outside any timed region.  The units keep
    ``rng=None`` placeholders; each timed replay seeds fresh generators so
    every round simulates the identical workload realisations.
    """
    units = []
    for job in _bench_jobs(repetitions=SIM_TASKSETS_PER_POINT, hyperperiods=SIM_HYPERPERIODS):
        expansion = expand_fully_preemptive(job.resolve_taskset())
        for scheduler in make_schedulers(job.schedulers, job.processor).values():
            units.append(BatchUnit(schedule=scheduler.schedule_expansion(expansion),
                                   processor=job.processor, policy=copy.deepcopy(job.config.policy),
                                   config=job.config.simulation_config(),
                                   workload=job.config.workload))
    return units


def _reseeded(units):
    return [replace(unit, rng=np.random.default_rng(unit.config.seed))
            for unit in units]


def _simulate_reference(units):
    """One reference-loop run per unit: the lane engine's bitwise oracle."""
    return [
        DVSSimulator(unit.processor, policy=unit.policy,
                     config=replace(unit.config, fast_path=False)).run(
            unit.schedule, unit.workload, unit.rng)
        for unit in _reseeded(units)
    ]


def _simulate_batched(units):
    return simulate_batch(_reseeded(units))


def test_figure6a_random_tasksets(benchmark, run_once):
    result = run_once(benchmark, ScenarioEngine().run, ScenarioSpec.from_dict(BENCH_DOCUMENT))

    print()
    print("Figure 6(a): improvement of ACS over WCS (%) by task count and BCEC/WCEC ratio")
    print(result.to_markdown())

    def improvement(n_tasks, ratio):
        return result.point(n_tasks=n_tasks, ratio=ratio)["methods"]["acs"]["mean_improvement_percent"]

    # No deadline may ever be missed.
    assert all(point["deadline_misses"] == 0 for point in result.points)

    # Trend 1: at high workload variation (ratio 0.1) the improvement is substantial.
    assert improvement(max(TASK_COUNTS), 0.1) > 15.0

    # Trend 2: for every task count, ratio 0.1 beats ratio 0.9 (small noise allowance).
    for n_tasks in TASK_COUNTS:
        assert improvement(n_tasks, 0.1) >= improvement(n_tasks, 0.9) - 3.0

    # Trend 3: more tasks give ACS at least as much room at ratio 0.1 (loose check).
    assert improvement(TASK_COUNTS[-1], 0.1) >= improvement(TASK_COUNTS[0], 0.1) - 5.0


def test_figure6a_sim_batched(benchmark, sim_units):
    """Simulation stage only, lane engine — must match the reference loop bitwise."""
    results = benchmark.pedantic(_simulate_batched, args=(sim_units,),
                                 rounds=3, iterations=1)
    assert len(results) == len(sim_units)
    assert all(result.n_hyperperiods == SIM_HYPERPERIODS for result in results)
    for batched, reference in zip(results, _simulate_reference(sim_units), strict=True):
        assert batched.total_energy == reference.total_energy
        assert batched.energy_per_hyperperiod == reference.energy_per_hyperperiod
        assert batched.transition_energy == reference.transition_energy
        assert batched.energy_by_task == reference.energy_by_task
        assert batched.deadline_misses == reference.deadline_misses
        assert batched.jobs_completed == reference.jobs_completed


def _traced(units):
    return [replace(unit, config=replace(unit.config, trace=True))
            for unit in units]


def test_figure6a_sim_traced(benchmark, sim_units):
    """The replay of a fixed subset with the typed event stream on.

    What ``trace=True`` costs a sweep: every traced unit runs on the
    reference loop (the lane engine cannot trace) and allocates its events.
    The energies must be bitwise those of the untraced lane engine — tracing
    is a pure observer and the two engines agree.
    """
    subset = sim_units[TRACED_SUBSET]
    results = benchmark.pedantic(_simulate_batched, args=(_traced(subset),),
                                 rounds=3, iterations=1)
    for traced, untraced in zip(results, _simulate_batched(subset), strict=True):
        assert traced.trace is not None and len(traced.trace) > 0
        assert untraced.trace is None
        assert traced.total_energy == untraced.total_energy
        assert traced.energy_by_task == untraced.energy_by_task


@pytest.fixture(scope="module")
def plan_items():
    """Every (expansion, methods) planning group of the sweep, built untimed.

    18 jobs x 2 methods = 36 schedulers; WCS is one NLP solve, ACS three
    (its own problem from the default guess, the WCS problem, and its own
    again from the WCS solution).
    """
    return [
        (expand_fully_preemptive(job.resolve_taskset()),
         make_schedulers(job.schedulers, job.processor))
        for job in _bench_jobs()
    ]


def _plan_sequential(items):
    return [{name: scheduler.schedule_expansion(expansion)
             for name, scheduler in methods.items()}
            for expansion, methods in items]


def _plan_memoized(items, memo):
    return plan_expansions(items, memo=memo)


def _assert_plans_identical(results, reference):
    assert len(results) == len(reference)
    for group, expected in zip(results, reference):
        assert group.keys() == expected.keys()
        for name in expected:
            ours, theirs = group[name], expected[name]
            assert ours.method == theirs.method
            assert tuple(ours.end_times()) == tuple(theirs.end_times())
            assert tuple(ours.wc_budgets()) == tuple(theirs.wc_budgets())
            assert ours.objective_value == theirs.objective_value


def test_figure6a_plan_sequential(benchmark, plan_items):
    """Offline planning stage only, per-scheduler sequential solves (baseline)."""
    results = benchmark.pedantic(_plan_sequential, args=(plan_items,),
                                 rounds=3, iterations=1)
    assert len(results) == len(plan_items)


def test_figure6a_plan_memo_warm(benchmark, plan_items):
    """Replanning from a warm solve memo — the resume path, zero optimizer calls."""
    memo = SolveMemo()
    plan_expansions(plan_items, memo=memo)  # warm it, untimed
    computed_cold = memo.computed
    results = benchmark.pedantic(_plan_memoized, args=(plan_items, memo),
                                 rounds=3, iterations=1)
    assert memo.computed == computed_cold  # no timed round ran a solver
    _assert_plans_identical(results, _plan_sequential(plan_items))
