"""Harness equivalence: every chunking reproduces one simulation per unit bitwise.

The harness simulates each chunk of comparisons with one ``simulate_batch``
call, and :func:`iter_comparisons` cuts a sweep into one job per chunk, or,
at :data:`~repro.experiments.harness.CHUNK_SLICE_THRESHOLD` simulation units
and more, into one contiguous slice per worker.  Because every unit gets a
fresh ``default_rng(config.seed)`` (one per method, the paired comparison),
the results must be *bitwise* identical to the oracle — one
``DVSSimulator.run`` per ``(job, method)`` — for any seed, sweep size,
chunking and worker count.  The property test drives that with
hypothesis-chosen seeds and shapes; the schedulers are the NLP-free
baselines so examples stay fast.
"""

import copy
from unittest import mock

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.preemption import expand_fully_preemptive
from repro.experiments import harness
from repro.experiments.harness import (
    ComparisonConfig,
    compare_schedulers,
    iter_comparisons,
    make_schedulers,
    random_comparison_job,
)
from repro.power.presets import ideal_processor
from repro.runtime.simulator import DVSSimulator
from repro.workloads.random_tasksets import RandomTaskSetConfig

PROCESSOR = ideal_processor(fmax=1000.0)
#: NLP-free offline methods: the tests exercise seed derivation, chunking and
#: the simulation route, not the optimiser.
SCHEDULERS = ("max_speed",)


def simulation_fingerprint(simulation):
    """Every float-bearing field of one simulation result, exactly."""
    return (
        simulation.total_energy,
        tuple(simulation.energy_per_hyperperiod),
        simulation.transition_energy,
        tuple(simulation.energy_by_task.items()),
        tuple(simulation.deadline_misses),
        simulation.jobs_completed,
    )


def result_fingerprint(result):
    return {method: simulation_fingerprint(outcome.simulation)
            for method, outcome in result.outcomes.items()}


def oracle_fingerprint(job):
    """One ``DVSSimulator.run`` per method of ``job``, each on a fresh generator."""
    expansion = expand_fully_preemptive(job.resolve_taskset())
    config = job.config
    fingerprint = {}
    for name, scheduler in make_schedulers(job.schedulers, job.processor).items():
        simulator = DVSSimulator(job.processor, policy=copy.deepcopy(config.policy),
                                 config=config.simulation_config())
        simulation = simulator.run(scheduler.schedule_expansion(expansion), config.workload,
                                   np.random.default_rng(config.seed))
        fingerprint[name] = simulation_fingerprint(simulation)
    return fingerprint


def build_jobs(seed, n_tasksets, n_tasks, n_hyperperiods):
    config = ComparisonConfig(n_hyperperiods=n_hyperperiods, seed=seed,
                              baseline="max_speed")
    taskset_config = RandomTaskSetConfig(n_tasks=n_tasks,
                                         periods=(10.0, 20.0, 40.0))
    return [
        random_comparison_job(PROCESSOR, taskset_config, config, index,
                              taskset_index=index, schedulers=SCHEDULERS)
        for index in range(n_tasksets)
    ]


def sweep_fingerprints(jobs, n_jobs=1):
    return [result_fingerprint(result) for result in iter_comparisons(jobs, n_jobs=n_jobs)]


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n_tasksets=st.integers(min_value=1, max_value=4),
    n_tasks=st.integers(min_value=1, max_value=3),
    n_hyperperiods=st.integers(min_value=1, max_value=4),
)
def test_batched_sweep_reproduces_serial_harness_bitwise(
        seed, n_tasksets, n_tasks, n_hyperperiods):
    jobs = build_jobs(seed, n_tasksets, n_tasks, n_hyperperiods)
    oracle = [oracle_fingerprint(job) for job in jobs]
    # Below the threshold every job is its own chunk; at a threshold of one
    # unit the whole sweep is one chunk.
    assert sweep_fingerprints(jobs) == oracle
    with mock.patch.object(harness, "CHUNK_SLICE_THRESHOLD", 1):
        assert sweep_fingerprints(jobs) == oracle


def test_batched_sweep_is_pool_invariant(monkeypatch):
    """Per-job chunks and per-worker slices, in-process and on a pool, all equal the oracle."""
    jobs = build_jobs(2005, 5, 3, 3)
    oracle = [oracle_fingerprint(job) for job in jobs]
    units = len(jobs) * len(SCHEDULERS)
    # One unit short of the threshold: one job per chunk; at it: slices.
    for threshold in (units + 1, units):
        monkeypatch.setattr(harness, "CHUNK_SLICE_THRESHOLD", threshold)
        for n_jobs in (1, 2):
            assert sweep_fingerprints(jobs, n_jobs=n_jobs) == oracle, (threshold, n_jobs)


def test_single_comparison_matches_the_oracle():
    """compare_schedulers takes the same route as a sweep."""
    (job,) = build_jobs(11, 1, 3, 4)
    methods = make_schedulers(SCHEDULERS, PROCESSOR)
    result = compare_schedulers(job.resolve_taskset(), PROCESSOR, methods, job.config)
    assert result_fingerprint(result) == oracle_fingerprint(job)
