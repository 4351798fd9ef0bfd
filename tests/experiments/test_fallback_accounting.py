"""Fallback-reason accounting: per-unit tallies and the excessive-fallback warning.

A batched comparison that cannot vectorize a unit silently took the compiled
fallback before this accounting existed; now every fallback surfaces as a
``"batch:<reason>"`` tally on the :class:`ComparisonResult`, sweeps merge
them, and a sweep that falls back for more than half its units warns once.
Other keys (such as the ``"solve:<reason>"`` tallies of records stored by
earlier releases) merge alike but never count towards the warning.
"""

import warnings
from dataclasses import replace

import pytest

from repro.core.task import Task
from repro.core.taskset import TaskSet
from repro.experiments.harness import (
    ComparisonConfig,
    aggregate_fallback_reasons,
    compare_schedulers,
    make_schedulers,
    run_comparisons,
    warn_if_excessive_fallback,
)
from repro.experiments.sweep import SweepConfig, SweepResult, _build_jobs, run_sweep
from repro.power.presets import ideal_processor

PROCESSOR = ideal_processor(fmax=1000.0)
SCHEDULERS = ("max_speed", "wcs")
TASKSET = TaskSet([
    Task("a", period=10, wcec=1800, acec=1000, bcec=300),
    Task("b", period=20, wcec=4200, acec=2400, bcec=900),
], name="fallback")


def run_comparison(config):
    return compare_schedulers(TASKSET, PROCESSOR,
                              schedulers=make_schedulers(SCHEDULERS, PROCESSOR),
                              config=config)


class TestAggregate:
    def test_merges_and_skips_empties(self):
        merged = aggregate_fallback_reasons([
            {"batch:trace": 2}, None, {}, {"batch:trace": 1, "solve:size": 3},
        ])
        assert merged == {"batch:trace": 3, "solve:size": 3}

    def test_empty_input(self):
        assert aggregate_fallback_reasons([]) == {}


class TestComparisonTallies:
    def test_vectorizable_batched_run_reports_no_fallbacks(self):
        config = ComparisonConfig(n_hyperperiods=2, seed=7, baseline="max_speed",
                                  batched=True)
        result = run_comparison(config)
        assert result.fallback_reasons == {}

    def test_traced_batched_units_tally_batch_trace(self):
        config = ComparisonConfig(n_hyperperiods=2, seed=7, baseline="max_speed",
                                  batched=True, trace=True)
        result = run_comparison(config)
        # Every method's unit falls back: tracing needs the event stream.
        assert result.fallback_reasons == {"batch:trace": len(SCHEDULERS)}

    def test_non_batched_run_reports_no_fallbacks(self):
        config = ComparisonConfig(n_hyperperiods=2, seed=7, baseline="max_speed",
                                  trace=True)
        result = run_comparison(config)
        assert result.fallback_reasons == {}


class TestSweepSummary:
    CFG = SweepConfig(n_tasksets=2, n_tasks=2, n_hyperperiods=2,
                      periods=(10.0, 20.0), schedulers=("max_speed", "wcs"),
                      baseline="max_speed")

    def batched_sweep(self, **config_changes):
        """The sweep's jobs as one batched chunk, summarised like ``run_sweep``."""
        jobs = [replace(job, config=replace(job.config, batched=True, **config_changes))
                for job in _build_jobs(self.CFG, self.CFG.resolved_processor())]
        result = SweepResult(config=self.CFG, results=run_comparisons(jobs))
        warn_if_excessive_fallback(result.fallback_summary(), result.total_units(),
                                   context="sweep")
        return result

    def test_sweep_merges_tallies_and_warns_when_excessive(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a fully vectorized sweep stays silent
            clean = self.batched_sweep()
        assert clean.fallback_summary() == {}
        assert clean.total_units() == 4
        with pytest.warns(RuntimeWarning, match="fell back for 4/4"):
            traced = self.batched_sweep(trace=True)
        assert traced.fallback_summary() == {"batch:trace": 4}

    def test_serialized_sweep_carries_the_summary(self):
        from repro.reporting.serialization import sweep_result_to_dict

        cfg = SweepConfig(n_tasksets=1, n_tasks=2, n_hyperperiods=2,
                          periods=(10.0, 20.0), schedulers=("max_speed",),
                          baseline="max_speed")
        data = sweep_result_to_dict(run_sweep(cfg))
        # Non-default-only keys: a clean, non-batched sweep serializes exactly
        # as it did before fallback accounting existed.
        assert "fallback_reasons" not in data
        assert "batched" not in data["config"]


class TestWarning:
    def test_warns_above_half(self):
        with pytest.warns(RuntimeWarning, match="fell back for 3/4"):
            warn_if_excessive_fallback({"batch:trace": 3}, 4, context="sweep")

    def test_silent_at_or_below_half(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            warn_if_excessive_fallback({"batch:trace": 2}, 4, context="sweep")

    def test_solve_reasons_do_not_trigger_the_batch_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            warn_if_excessive_fallback({"solve:no-batch": 100}, 4, context="sweep")

    def test_zero_units_is_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            warn_if_excessive_fallback({}, 0, context="sweep")
