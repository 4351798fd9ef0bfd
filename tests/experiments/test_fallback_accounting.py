"""Fallback-reason accounting: per-unit tallies and the excessive-fallback warning.

A batched comparison that cannot vectorize a unit silently took the compiled
fallback before this accounting existed; now every fallback surfaces as a
``"batch:<reason>"`` tally on the :class:`ComparisonResult`, a scenario run
merges them into ``ScenarioResult.fallback_reasons``, and a run that falls
back for more than half its units warns once.
Other keys (such as the ``"solve:<reason>"`` tallies of records stored by
earlier releases) merge alike but never count towards the warning.
"""

import warnings
import pytest

from repro.core.task import Task
from repro.core.taskset import TaskSet
from repro.experiments.harness import (
    ComparisonConfig,
    aggregate_fallback_reasons,
    compare_schedulers,
    make_schedulers,
    warn_if_excessive_fallback,
)
from repro.power.presets import ideal_processor
from repro.reporting.serialization import scenario_result_to_dict
from repro.scenarios import ScenarioEngine, ScenarioSpec

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
    #: Two random task sets x two NLP-free methods = 4 simulation units.
    SWEEP = {
        "kind": "comparison",
        "name": "fallback-sweep",
        "taskset": {"source": "random", "n_tasks": 2, "periods": [10.0, 20.0]},
        "offline": {"methods": ["max_speed", "wcs"], "baseline": "max_speed"},
        "simulation": {"hyperperiods": 2, "repetitions": 2, "engine": "batched"},
    }

    def batched_sweep(self, **simulation_changes):
        document = {**self.SWEEP,
                    "simulation": {**self.SWEEP["simulation"], **simulation_changes}}
        return ScenarioEngine().run(ScenarioSpec.from_dict(document))

    def test_sweep_merges_tallies_and_warns_when_excessive(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a fully vectorized sweep stays silent
            clean = self.batched_sweep()
        assert clean.fallback_reasons == {}
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            traced = self.batched_sweep(trace=True)
        assert traced.fallback_reasons == {"batch:trace": 4}
        fell_back = [str(warning.message) for warning in caught
                     if issubclass(warning.category, RuntimeWarning)]
        assert len(fell_back) == 1 and "fell back for 4/4" in fell_back[0]

    def test_serialized_sweep_carries_the_summary(self):
        # Non-default-only key: a clean run serializes exactly as it did
        # before fallback accounting existed.
        assert "fallback_reasons" not in scenario_result_to_dict(self.batched_sweep())
        with pytest.warns(RuntimeWarning, match="fell back for 4/4"):
            traced = scenario_result_to_dict(self.batched_sweep(trace=True))
        assert traced["fallback_reasons"] == {"batch:trace": 4}


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
