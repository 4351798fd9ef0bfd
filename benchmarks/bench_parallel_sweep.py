"""Benchmark: the scenario engine's comparison sweep, serial vs process pool.

Runs the same random-taskset sweep once in-process and once on a worker
pool, asserts the two reports are byte-identical (the engine's determinism
contract) and prints both wall-clock times.  Each half runs cold on its own
fresh result store, and with it its own solve memo: otherwise the forked
workers would inherit the serial half's in-process memo and solve nothing.
The speedup depends on core count and on how evenly the NLP sizes are
distributed over the workers, so only determinism — not a minimum speedup —
is asserted.
"""

import multiprocessing
import time

from repro.scenarios import ResultStore, ScenarioEngine, ScenarioSpec
from repro.utils.tables import format_markdown_table

N_TASKSETS = 8
#: One point, ``N_TASKSETS`` random task sets: what ``repro sweep --tasks 3``
#: runs.  The divisor-friendly period pool keeps every NLP small so the
#: benchmark finishes in seconds while still giving the pool real work.
SWEEP = ScenarioSpec.from_dict({
    "kind": "comparison",
    "name": "parallel-sweep",
    "taskset": {"source": "random", "n_tasks": 3, "periods": [10.0, 20.0, 40.0]},
    "simulation": {"hyperperiods": 20, "seed": 2005, "repetitions": N_TASKSETS},
})


def _sweep(jobs: int, store_root):
    started = time.perf_counter()
    result = ScenarioEngine(ResultStore(store_root)).run(SWEEP, n_jobs=jobs)
    return result, time.perf_counter() - started


def _run_benchmark(tmp_path):
    serial, serial_seconds = _sweep(1, tmp_path / "serial")
    workers = max(2, min(4, multiprocessing.cpu_count()))
    parallel, parallel_seconds = _sweep(workers, tmp_path / "parallel")
    return serial, parallel, serial_seconds, parallel_seconds, workers


def test_parallel_sweep(benchmark, run_once, tmp_path):
    serial, parallel, serial_seconds, parallel_seconds, workers = run_once(
        benchmark, _run_benchmark, tmp_path)

    def improvement(result):
        (point,) = result.points
        return point["methods"]["acs"]["mean_improvement_percent"]

    print()
    print(f"Batched sweep: {N_TASKSETS} random task sets, serial vs {workers} workers")
    print(format_markdown_table(
        ["mode", "wall-clock s", "mean acs improvement %"],
        [["serial (jobs=1)", serial_seconds, improvement(serial)],
         [f"parallel (jobs={workers})", parallel_seconds, improvement(parallel)]]))

    # Both halves computed every unit from a cold store.
    assert serial.computed == parallel.computed == N_TASKSETS
    # The determinism contract: identical reports regardless of worker count.
    assert serial.to_markdown() == parallel.to_markdown()
    assert serial.points == parallel.points
