"""Serial/parallel equivalence of the batched harness and the seed derivation."""

import json

import numpy as np
import pytest

from repro.cli import main
from repro.core.errors import ExperimentError
from repro.experiments.harness import (
    ComparisonConfig,
    ComparisonJob,
    iter_comparisons,
    make_schedulers,
    scheduler_names,
)
from repro.experiments.seeding import derive_rng, derive_seed

#: Divisor-friendly pool: hyperperiod ≤ 20, so the NLPs stay tiny and fast.
_FAST_PERIODS = (10.0, 20.0)


def _quick_sweep(capsys, tmp_path, jobs: int):
    """``repro sweep --quick --jobs N``: the printed table and the ``--output`` JSON."""
    target = tmp_path / f"sweep-{jobs}.json"
    assert main(["sweep", "--quick", "--jobs", str(jobs), "--output", str(target)]) == 0
    report, wall_clock = capsys.readouterr().out.rstrip("\n").rsplit("\n", 1)
    assert wall_clock.startswith("wall-clock:") and wall_clock.endswith(f"(jobs={jobs})")
    return report, json.loads(target.read_text())


class TestSeedDerivation:
    def test_deterministic(self):
        assert derive_seed(7, 1, 2, 3) == derive_seed(7, 1, 2, 3)

    def test_path_sensitive(self):
        seeds = {derive_seed(7), derive_seed(7, 0), derive_seed(7, 1),
                 derive_seed(7, 0, 0), derive_seed(7, 0, 1), derive_seed(8, 0, 0)}
        assert len(seeds) == 6

    def test_order_sensitive(self):
        assert derive_seed(7, 1, 2) != derive_seed(7, 2, 1)

    def test_fits_in_31_bits(self):
        for path in [(0,), (1, 2), (3, 4, 5)]:
            assert 0 <= derive_seed(1234, *path) < 2**31

    def test_derive_rng_reproducible(self):
        a = derive_rng(9, 1).integers(0, 1 << 30, size=4)
        b = derive_rng(9, 1).integers(0, 1 << 30, size=4)
        assert np.array_equal(a, b)

    def test_config_with_derived_seed(self):
        config = ComparisonConfig(seed=99)
        derived = config.with_derived_seed(0, 3)
        assert derived.seed == derive_seed(99, 0, 3)
        assert config.seed == 99  # original untouched
        assert ComparisonConfig(seed=None).with_derived_seed(1).seed is None


class TestSchedulerRegistry:
    def test_known_names(self):
        assert {"wcs", "acs"}.issubset(scheduler_names())

    def test_make_schedulers(self, processor):
        schedulers = make_schedulers(["wcs", "acs"], processor)
        assert list(schedulers) == ["wcs", "acs"]

    def test_unknown_rejected(self, processor):
        with pytest.raises(ExperimentError):
            make_schedulers(["wcs", "oracle"], processor)


class TestComparisonJob:
    def test_needs_exactly_one_taskset_source(self, two_task_set, processor):
        with pytest.raises(ExperimentError):
            ComparisonJob(processor=processor, config=ComparisonConfig())
        with pytest.raises(ExperimentError):
            ComparisonJob(processor=processor, config=ComparisonConfig(),
                          taskset=two_task_set,
                          taskset_config=object())  # both given

    def test_explicit_taskset_job(self, two_task_set, processor):
        job = ComparisonJob(processor=processor,
                            config=ComparisonConfig(n_hyperperiods=3, seed=1),
                            taskset=two_task_set)
        (result,) = list(iter_comparisons([job]))
        assert set(result.methods()) == {"wcs", "acs"}

    def test_random_job_requires_seed(self, processor):
        from repro.workloads.random_tasksets import RandomTaskSetConfig
        with pytest.raises(ExperimentError):
            ComparisonJob(processor=processor, config=ComparisonConfig(),
                          taskset_config=RandomTaskSetConfig())

    def test_rejects_nonpositive_jobs(self, two_task_set, processor):
        job = ComparisonJob(processor=processor, config=ComparisonConfig(),
                            taskset=two_task_set)
        with pytest.raises(ExperimentError):
            list(iter_comparisons([job], n_jobs=0))


class TestSerialParallelEquivalence:
    def test_sweep_results_bitwise_identical(self, capsys, tmp_path):
        serial, serial_data = _quick_sweep(capsys, tmp_path, jobs=1)
        parallel, parallel_data = _quick_sweep(capsys, tmp_path, jobs=2)
        assert "| wcs energy | acs energy |" in serial
        assert serial == parallel
        # Bitwise: JSON floats round-trip exactly, so this is float equality.
        assert serial_data["points"] == parallel_data["points"]

    def test_sweep_json_identical_up_to_wall_clock(self, capsys, tmp_path):
        _, serial = _quick_sweep(capsys, tmp_path, jobs=1)
        _, parallel = _quick_sweep(capsys, tmp_path, jobs=2)
        serial.pop("elapsed_seconds")
        parallel.pop("elapsed_seconds")
        assert serial == parallel

    def test_rerun_is_reproducible(self, capsys, tmp_path):
        first, _ = _quick_sweep(capsys, tmp_path, jobs=1)
        second, _ = _quick_sweep(capsys, tmp_path, jobs=1)
        assert first == second


class TestFigureParallelEquivalence:
    def test_figure6a_jobs_equivalent(self):
        from repro.scenarios import ScenarioEngine, ScenarioSpec

        spec = ScenarioSpec.from_dict({
            "kind": "comparison",
            "name": "figure6a-jobs",
            "taskset": {"source": "random", "periods": list(_FAST_PERIODS)},
            "simulation": {"hyperperiods": 3, "seed": 11, "repetitions": 2},
            "matrix": {"taskset.n_tasks": [2], "taskset.ratio": [0.1, 0.5]},
        })
        serial = ScenarioEngine().run(spec, n_jobs=1)
        parallel = ScenarioEngine().run(spec, n_jobs=2)
        assert serial.points == parallel.points
