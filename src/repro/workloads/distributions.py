"""Execution-cycle (workload) distributions.

The paper's experiments draw the actual number of execution cycles of every
job from a normal distribution truncated to ``[BCEC, WCEC]`` whose mean is the
ACEC; the ratio ``BCEC/WCEC`` is swept from 0.1 (highly variable workload) to
0.9 (nearly fixed workload).  Additional distributions are provided for
ablations and for the property-based tests: uniform, fixed (always ACEC or
always WCEC) and bimodal (mostly short with occasional worst-case bursts — the
"small number of cycles but occasionally a large number" scenario the paper's
abstract motivates).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..core.errors import WorkloadError
from ..core.task import Task

__all__ = [
    "WorkloadModel",
    "NormalWorkload",
    "UniformWorkload",
    "FixedWorkload",
    "BimodalWorkload",
    "get_workload_model",
]


class WorkloadModel(ABC):
    """Draws the actual execution cycles of a job of a given task."""

    #: short name used in experiment reports
    name: str = "abstract"

    @abstractmethod
    def sample(self, rng: np.random.Generator, task: Task) -> float:
        """Return the cycles the next job of ``task`` actually requires (within [BCEC, WCEC])."""

    def sample_batch(self, rng: np.random.Generator, tasks: Sequence[Task],
                     n: int = 1) -> np.ndarray:
        """Draw the actual cycles of ``n`` consecutive hyperperiods in one call.

        Returns an ``(n, len(tasks))`` array whose row ``i`` holds the draws of
        hyperperiod ``i``, one per task in ``tasks`` (one entry per *job*: the
        caller passes the per-job task list of the hyperperiod, in job order).

        **Determinism contract:** the draws consume the generator stream in
        exactly the order of the nested scalar loops ``for i in range(n): for
        task in tasks: sample(rng, task)`` and produce bitwise-identical
        values, so a batched caller and a per-job caller starting from the
        same generator state obtain the same realisations and leave the
        generator in the same state.  Vectorized overrides must preserve this
        (see the tests in ``tests/workloads/test_distributions.py``).

        The base implementation is the scalar loop itself, which satisfies the
        contract by construction; subclasses override it with vectorized draws
        when the distribution allows.
        """
        out = np.empty((n, len(tasks)), dtype=float)
        for row in range(n):
            for column, task in enumerate(tasks):
                out[row, column] = self.sample(rng, task)
        return out

    def expected(self, task: Task) -> float:
        """Expected cycles per job (defaults to the task's ACEC)."""
        return task.acec


@dataclass
class NormalWorkload(WorkloadModel):
    """Truncated normal distribution between BCEC and WCEC (the paper's model).

    Parameters
    ----------
    sigma_fraction:
        Standard deviation as a fraction of the ``WCEC − BCEC`` range.  The
        default of 1/6 puts ±3σ at the interval ends, the usual convention for
        "normal between best and worst case".
    """

    sigma_fraction: float = 1.0 / 6.0
    name: str = "normal"

    def __post_init__(self) -> None:
        if self.sigma_fraction <= 0:
            raise WorkloadError("sigma_fraction must be positive")

    def sample(self, rng: np.random.Generator, task: Task) -> float:
        span = task.wcec - task.bcec
        if span <= 0:
            return task.wcec
        mean = task.acec
        sigma = self.sigma_fraction * span
        value = rng.normal(mean, sigma)
        return float(np.clip(value, task.bcec, task.wcec))

    def sample_batch(self, rng: np.random.Generator, tasks: Sequence[Task],
                     n: int = 1) -> np.ndarray:
        wcec = np.array([task.wcec for task in tasks], dtype=float)
        bcec = np.array([task.bcec for task in tasks], dtype=float)
        acec = np.array([task.acec for task in tasks], dtype=float)
        span = wcec - bcec
        drawn = span > 0
        out = np.empty((n, len(tasks)), dtype=float)
        # Degenerate tasks consume no randomness, exactly like the scalar path.
        out[:, ~drawn] = wcec[~drawn]
        if drawn.any():
            draws = rng.normal(acec[drawn], self.sigma_fraction * span[drawn],
                               size=(n, int(drawn.sum())))
            out[:, drawn] = np.clip(draws, bcec[drawn], wcec[drawn])
        return out


@dataclass
class UniformWorkload(WorkloadModel):
    """Uniform distribution between BCEC and WCEC."""

    name: str = "uniform"

    def sample(self, rng: np.random.Generator, task: Task) -> float:
        if task.wcec <= task.bcec:
            return task.wcec
        return float(rng.uniform(task.bcec, task.wcec))

    def sample_batch(self, rng: np.random.Generator, tasks: Sequence[Task],
                     n: int = 1) -> np.ndarray:
        wcec = np.array([task.wcec for task in tasks], dtype=float)
        bcec = np.array([task.bcec for task in tasks], dtype=float)
        drawn = wcec > bcec
        out = np.empty((n, len(tasks)), dtype=float)
        out[:, ~drawn] = wcec[~drawn]
        if drawn.any():
            out[:, drawn] = rng.uniform(bcec[drawn], wcec[drawn],
                                        size=(n, int(drawn.sum())))
        return out

    def expected(self, task: Task) -> float:
        return 0.5 * (task.bcec + task.wcec)


@dataclass
class FixedWorkload(WorkloadModel):
    """Deterministic workload: always the ACEC, BCEC or WCEC.

    ``mode`` is one of ``"acec"`` (default), ``"bcec"`` or ``"wcec"``.  The
    WCEC mode is what the worst-case feasibility tests simulate.
    """

    mode: str = "acec"
    name: str = "fixed"

    def __post_init__(self) -> None:
        if self.mode not in ("acec", "bcec", "wcec"):
            raise WorkloadError(f"mode must be 'acec', 'bcec' or 'wcec', got {self.mode!r}")

    def sample(self, rng: np.random.Generator, task: Task) -> float:
        return {"acec": task.acec, "bcec": task.bcec, "wcec": task.wcec}[self.mode]

    def sample_batch(self, rng: np.random.Generator, tasks: Sequence[Task],
                     n: int = 1) -> np.ndarray:
        values = np.array([self.sample(rng, task) for task in tasks], dtype=float)
        return np.tile(values, (n, 1))

    def expected(self, task: Task) -> float:
        return {"acec": task.acec, "bcec": task.bcec, "wcec": task.wcec}[self.mode]


@dataclass
class BimodalWorkload(WorkloadModel):
    """Mostly-short jobs with occasional worst-case bursts.

    With probability ``burst_probability`` a job takes its WCEC; otherwise it
    takes the BCEC (plus small jitter).  This is the "small number of cycles
    but occasionally a large number" pattern from the paper's abstract, where
    ACS has the most room to win.
    """

    burst_probability: float = 0.1
    jitter_fraction: float = 0.05
    name: str = "bimodal"

    def __post_init__(self) -> None:
        if not 0.0 <= self.burst_probability <= 1.0:
            raise WorkloadError("burst_probability must lie in [0, 1]")
        if self.jitter_fraction < 0:
            raise WorkloadError("jitter_fraction must be non-negative")

    def sample(self, rng: np.random.Generator, task: Task) -> float:
        if rng.random() < self.burst_probability:
            return task.wcec
        span = task.wcec - task.bcec
        jitter = rng.uniform(0.0, self.jitter_fraction * span) if span > 0 else 0.0
        return float(min(task.bcec + jitter, task.wcec))

    def sample_batch(self, rng: np.random.Generator, tasks: Sequence[Task],
                     n: int = 1) -> np.ndarray:
        """Batched draws from one block of uniforms, in the scalar stream order.

        Whether a job consumes a jitter draw depends on its own burst draw,
        so the scalar stream interleaves them job by job: a burst draw for
        every job, then a jitter draw only for a non-burst job whose span is
        above zero.  The override draws the most that loop can consume in one
        ``rng.random`` call, walks the block in that order, then rewinds the
        generator and advances it by exactly the draws it used.  Both
        ``random()`` and ``uniform(0, h)`` (which is ``0 + h * u``) read one
        double per draw, so values and final state equal the scalar loop's
        for any bit generator.
        """
        wcec = np.array([task.wcec for task in tasks], dtype=float)
        bcec = np.array([task.bcec for task in tasks], dtype=float)
        span = wcec - bcec
        jittered = span > 0
        bit_generator = rng.bit_generator
        state = bit_generator.state
        block = rng.random(n * (len(tasks) + int(jittered.sum())))
        is_burst = block < self.burst_probability
        bursts = is_burst.tolist()
        starts = [0] * (n * len(tasks))
        cursor = 0
        for job, spans in enumerate(jittered.tolist() * n):
            starts[job] = cursor
            cursor += 1 if bursts[cursor] or not spans else 2
        bit_generator.state = state
        rng.random(cursor)

        first = np.array(starts, dtype=np.intp).reshape(n, len(tasks))
        burst = is_burst[first]
        drawn = jittered & ~burst
        jitter = np.zeros((n, len(tasks)))
        high = np.broadcast_to(self.jitter_fraction * span, jitter.shape)
        jitter[drawn] = high[drawn] * block[first[drawn] + 1]
        return np.where(burst, wcec, np.minimum(bcec + jitter, wcec))

    def expected(self, task: Task) -> float:
        span = task.wcec - task.bcec
        base = task.bcec + 0.5 * self.jitter_fraction * span
        return self.burst_probability * task.wcec + (1.0 - self.burst_probability) * base


_MODELS = {
    "normal": NormalWorkload,
    "uniform": UniformWorkload,
    "fixed": FixedWorkload,
    "bimodal": BimodalWorkload,
}


def get_workload_model(name: str, **kwargs) -> WorkloadModel:
    """Instantiate a workload model by name (``"normal"``, ``"uniform"``, ``"fixed"``, ``"bimodal"``)."""
    try:
        factory = _MODELS[name.lower()]
    except KeyError:
        raise WorkloadError(f"unknown workload model {name!r}; known: {sorted(_MODELS)}") from None
    return factory(**kwargs)
