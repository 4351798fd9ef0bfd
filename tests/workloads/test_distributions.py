"""Tests for the execution-cycle distributions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import WorkloadError
from repro.core.task import Task
from repro.workloads.distributions import (
    BimodalWorkload,
    FixedWorkload,
    NormalWorkload,
    UniformWorkload,
    get_workload_model,
)


@pytest.fixture
def task():
    return Task("t", period=10, wcec=1000, acec=550, bcec=100)


class TestNormalWorkload:
    def test_samples_within_bounds(self, task, rng):
        model = NormalWorkload()
        samples = [model.sample(rng, task) for _ in range(500)]
        assert all(task.bcec - 1e-9 <= s <= task.wcec + 1e-9 for s in samples)

    def test_mean_close_to_acec(self, task):
        model = NormalWorkload()
        rng = np.random.default_rng(0)
        samples = [model.sample(rng, task) for _ in range(4000)]
        assert np.mean(samples) == pytest.approx(task.acec, rel=0.05)

    def test_degenerate_range_returns_wcec(self, rng):
        fixed_task = Task("f", period=10, wcec=100, acec=100, bcec=100)
        assert NormalWorkload().sample(rng, fixed_task) == 100

    def test_invalid_sigma_rejected(self):
        with pytest.raises(WorkloadError):
            NormalWorkload(sigma_fraction=0.0)

    def test_expected_is_acec(self, task):
        assert NormalWorkload().expected(task) == task.acec


class TestUniformWorkload:
    def test_samples_within_bounds(self, task, rng):
        model = UniformWorkload()
        samples = [model.sample(rng, task) for _ in range(500)]
        assert all(task.bcec <= s <= task.wcec for s in samples)

    def test_expected_midpoint(self, task):
        assert UniformWorkload().expected(task) == pytest.approx(550.0)


class TestFixedWorkload:
    @pytest.mark.parametrize("mode,expected", [("acec", 550), ("bcec", 100), ("wcec", 1000)])
    def test_modes(self, task, rng, mode, expected):
        model = FixedWorkload(mode=mode)
        assert model.sample(rng, task) == expected
        assert model.expected(task) == expected

    def test_invalid_mode_rejected(self):
        with pytest.raises(WorkloadError):
            FixedWorkload(mode="median")


class TestBimodalWorkload:
    def test_samples_within_bounds(self, task, rng):
        model = BimodalWorkload(burst_probability=0.3)
        samples = [model.sample(rng, task) for _ in range(500)]
        assert all(task.bcec - 1e-9 <= s <= task.wcec + 1e-9 for s in samples)

    def test_burst_fraction_roughly_matches(self, task):
        model = BimodalWorkload(burst_probability=0.2, jitter_fraction=0.0)
        rng = np.random.default_rng(0)
        samples = [model.sample(rng, task) for _ in range(3000)]
        burst_fraction = np.mean([s == task.wcec for s in samples])
        assert burst_fraction == pytest.approx(0.2, abs=0.03)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(WorkloadError):
            BimodalWorkload(burst_probability=1.5)
        with pytest.raises(WorkloadError):
            BimodalWorkload(jitter_fraction=-0.1)

    def test_expected_between_bounds(self, task):
        expected = BimodalWorkload(burst_probability=0.1).expected(task)
        assert task.bcec <= expected <= task.wcec


class TestRegistry:
    @pytest.mark.parametrize("name,cls", [
        ("normal", NormalWorkload), ("uniform", UniformWorkload),
        ("fixed", FixedWorkload), ("bimodal", BimodalWorkload),
    ])
    def test_lookup(self, name, cls):
        assert isinstance(get_workload_model(name), cls)

    def test_kwargs_forwarded(self):
        model = get_workload_model("fixed", mode="wcec")
        assert model.mode == "wcec"

    def test_unknown_rejected(self):
        with pytest.raises(WorkloadError):
            get_workload_model("pareto")


class TestPropertyBased:
    @given(ratio=st.floats(min_value=0.05, max_value=1.0),
           wcec=st.floats(min_value=10.0, max_value=1e6),
           seed=st.integers(min_value=0, max_value=2**31 - 1),
           model_name=st.sampled_from(["normal", "uniform", "bimodal"]))
    @settings(max_examples=150, deadline=None)
    def test_property_every_sample_within_bcec_wcec(self, ratio, wcec, seed, model_name):
        task = Task("t", period=10, wcec=wcec).scaled(bcec_ratio=ratio)
        model = get_workload_model(model_name)
        rng = np.random.default_rng(seed)
        for _ in range(10):
            sample = model.sample(rng, task)
            assert task.bcec - 1e-6 <= sample <= task.wcec + 1e-6


def same_state(left, right):
    """Bit-generator states compare equal (MT19937/Philox states hold arrays)."""
    if isinstance(left, dict):
        return left.keys() == right.keys() and all(same_state(left[k], right[k]) for k in left)
    return np.array_equal(left, right)


class TestSampleBatch:
    """The batched sampling API must be bitwise stream-compatible with the
    scalar per-job draws (the compiled simulator relies on it)."""

    MODELS = [
        NormalWorkload(),
        UniformWorkload(),
        FixedWorkload(mode="wcec"),
        BimodalWorkload(burst_probability=0.4),
        # The block draw's edge cases: never a burst, always a burst, and a
        # zero jitter range (the jitter draw is still consumed).
        BimodalWorkload(burst_probability=0.0),
        BimodalWorkload(burst_probability=1.0),
        BimodalWorkload(burst_probability=0.4, jitter_fraction=0.0),
    ]
    IDS = ["normal", "uniform", "fixed", "bimodal",
           "bimodal-never-bursts", "bimodal-always-bursts", "bimodal-no-jitter"]

    @staticmethod
    def job_tasks():
        return [
            Task("a", period=10, wcec=100, acec=60, bcec=20),
            Task("b", period=20, wcec=50, acec=50, bcec=50),  # degenerate span
            Task("c", period=40, wcec=500, acec=300, bcec=100),
            Task("a", period=10, wcec=100, acec=60, bcec=20),
        ]

    @pytest.mark.parametrize("model", MODELS, ids=IDS)
    def test_bitwise_equals_scalar_loop(self, model):
        tasks = self.job_tasks()
        batch_rng = np.random.default_rng(321)
        scalar_rng = np.random.default_rng(321)
        batch = model.sample_batch(batch_rng, tasks, n=9)
        scalar = np.array([[model.sample(scalar_rng, task) for task in tasks]
                           for _ in range(9)])
        assert batch.shape == (9, len(tasks))
        assert np.array_equal(batch, scalar)

    @pytest.mark.parametrize("model", MODELS, ids=IDS)
    def test_generator_state_matches_scalar_loop(self, model):
        tasks = self.job_tasks()
        batch_rng = np.random.default_rng(7)
        scalar_rng = np.random.default_rng(7)
        model.sample_batch(batch_rng, tasks, n=5)
        for _ in range(5):
            for task in tasks:
                model.sample(scalar_rng, task)
        assert batch_rng.bit_generator.state == scalar_rng.bit_generator.state

    @pytest.mark.parametrize("bit_generator", [np.random.MT19937, np.random.Philox],
                             ids=lambda kind: kind.__name__)
    @pytest.mark.parametrize("model", MODELS, ids=IDS)
    def test_other_bit_generators(self, model, bit_generator):
        """Values and final state match the scalar loop on any bit generator
        (the bimodal block draw rewinds the state and advances it again)."""
        tasks = self.job_tasks()
        batch_rng = np.random.Generator(bit_generator(99))
        scalar_rng = np.random.Generator(bit_generator(99))
        batch = model.sample_batch(batch_rng, tasks, n=7)
        scalar = np.array([[model.sample(scalar_rng, task) for task in tasks]
                           for _ in range(7)])
        assert np.array_equal(batch, scalar)
        assert same_state(batch_rng.bit_generator.state, scalar_rng.bit_generator.state)
        assert batch_rng.random() == scalar_rng.random()

    def test_degenerate_tasks_consume_no_randomness(self):
        fixed_span = [Task("b", period=20, wcec=50, acec=50, bcec=50)]
        for model in (NormalWorkload(), UniformWorkload()):
            rng = np.random.default_rng(1)
            before = rng.bit_generator.state
            batch = model.sample_batch(rng, fixed_span, n=4)
            assert rng.bit_generator.state == before
            assert np.all(batch == 50.0)

    def test_empty_task_list(self):
        rng = np.random.default_rng(0)
        batch = NormalWorkload().sample_batch(rng, [], n=3)
        assert batch.shape == (3, 0)

    def test_bimodal_interleaves_burst_and_jitter_draws(self):
        """A burst job consumes one draw, a jittered job two — in job order."""
        task = Task("t", period=10, wcec=100, acec=60, bcec=20)
        model = BimodalWorkload(burst_probability=0.5)
        rng = np.random.default_rng(12345)
        probe = np.random.default_rng(12345)
        batch = model.sample_batch(rng, [task, task, task], n=2)
        for value in batch.ravel():
            if probe.random() < 0.5:
                assert value == task.wcec
            else:
                jitter = probe.uniform(0.0, model.jitter_fraction * (task.wcec - task.bcec))
                assert value == min(task.bcec + jitter, task.wcec)
