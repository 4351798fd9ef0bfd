"""Batched-harness equivalence: per-unit seeds reproduce the serial harness bitwise.

``ComparisonConfig(batched=True)`` routes every simulation of a sweep through
the structure-of-arrays engine — all ``(job, method)`` units advance in
lock-step, and with ``n_jobs > 1`` the lock-step batches are split across a
process pool.  Because every unit derives its generator from the same
SeedSequence coordinates the serial harness uses (one fresh
``default_rng(config.seed)`` per method), the results must be *bitwise*
identical to the plain one-at-a-time harness for any seed, sweep size and
worker count.  The property test drives that with hypothesis-chosen seeds
and shapes; the schedulers are the NLP-free baselines so examples stay fast.
"""

from dataclasses import replace

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.experiments.harness import (
    ComparisonConfig,
    compare_schedulers,
    iter_comparisons,
    make_schedulers,
    random_comparison_job,
)
from repro.power.presets import ideal_processor
from repro.workloads.random_tasksets import RandomTaskSetConfig

PROCESSOR = ideal_processor(fmax=1000.0)
#: NLP-free offline methods: the property test exercises seed derivation and
#: the batched engine, not the optimiser.
SCHEDULERS = ("max_speed",)


def result_fingerprint(result):
    """Every float-bearing field of every method outcome, exactly."""
    return {
        method: (
            outcome.simulation.total_energy,
            tuple(outcome.simulation.energy_per_hyperperiod),
            outcome.simulation.transition_energy,
            tuple(outcome.simulation.energy_by_task.items()),
            tuple(outcome.simulation.deadline_misses),
            outcome.simulation.jobs_completed,
        )
        for method, outcome in result.outcomes.items()
    }


def build_jobs(seed, n_tasksets, n_tasks, n_hyperperiods, batched):
    config = ComparisonConfig(n_hyperperiods=n_hyperperiods, seed=seed,
                              baseline="max_speed", batched=batched)
    taskset_config = RandomTaskSetConfig(n_tasks=n_tasks,
                                         periods=(10.0, 20.0, 40.0))
    return [
        random_comparison_job(PROCESSOR, taskset_config, config, index,
                              taskset_index=index, schedulers=SCHEDULERS)
        for index in range(n_tasksets)
    ]


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
    serial = list(iter_comparisons(
        build_jobs(seed, n_tasksets, n_tasks, n_hyperperiods, batched=False)))
    batched = list(iter_comparisons(
        build_jobs(seed, n_tasksets, n_tasks, n_hyperperiods, batched=True)))
    assert [result_fingerprint(r) for r in serial] == \
        [result_fingerprint(r) for r in batched]


def test_batched_sweep_is_pool_invariant():
    """The lock-step chunks a pool executes agree with the in-process batch."""
    serial = list(iter_comparisons(build_jobs(2005, 5, 3, 3, batched=False), n_jobs=1))
    pooled = list(iter_comparisons(build_jobs(2005, 5, 3, 3, batched=True), n_jobs=2))
    assert [result_fingerprint(r) for r in serial] == \
        [result_fingerprint(r) for r in pooled]


def test_single_comparison_batched_flag():
    """compare_schedulers honours ComparisonConfig.batched directly."""
    config = ComparisonConfig(n_hyperperiods=4, seed=11, baseline="max_speed")
    job = random_comparison_job(PROCESSOR, RandomTaskSetConfig(n_tasks=3),
                                config, 0, schedulers=SCHEDULERS)
    taskset = job.resolve_taskset()
    methods = make_schedulers(SCHEDULERS, PROCESSOR)
    plain = compare_schedulers(taskset, PROCESSOR, methods, job.config)
    batched = compare_schedulers(taskset, PROCESSOR, methods,
                                 replace(job.config, batched=True))
    assert result_fingerprint(plain) == result_fingerprint(batched)
