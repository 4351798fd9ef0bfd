"""Tests of the benchmark itself: its declaration, its statistics and its plumbing.

Run from the repository root with ``python -m pytest perfbench/tests -q``.
The end-to-end cases drive ``repro run`` on the committed, sub-second
``sporadic`` scenario.
"""

from __future__ import annotations

import json
import re
import shutil
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import measure  # noqa: E402
import run  # noqa: E402
from tracer import LayerTracer  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
DECLARED = json.loads((measure.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SPORADIC = run.Workload("examples/scenarios/sporadic.toml", None, seeded=True, warm_memo=False)


@pytest.fixture
def work():
    """A scratch directory inside the checkout's (git-ignored) work area."""
    path = run.WORK / "tests" / f"case-{time.time_ns()}"
    path.parent.mkdir(parents=True, exist_ok=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _bench(work: Path, seed: int, workload: run.Workload = SPORADIC, name: str = "sporadic") -> run.Bench:
    bench = run.Bench(name=name, workload=workload, seed=seed, work=work,
                      deadline=time.perf_counter() + 120.0)
    bench.prepare()
    return bench


# --------------------------------------------------------------------- #
# BENCHMARK.json
# --------------------------------------------------------------------- #
def test_declaration_shape_and_limits():
    assert set(DECLARED) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 1 <= DECLARED["run_seconds"] <= 60 and isinstance(DECLARED["run_seconds"], int)
    assert 2 <= len(DECLARED["workloads"]) <= 8
    assert 1 <= len(DECLARED["end_to_end"]) <= 16
    assert 1 <= len(DECLARED["per_layer"]) <= 128
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer") for entry in DECLARED[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for entry in DECLARED["workloads"]:
        assert set(entry) == {"name", "why"} and "\n" not in entry["why"] and len(entry["why"]) <= 200
        assert entry["name"] in run.WORKLOADS
    for entry in DECLARED["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert UNIT.match(entry["unit"]) and entry["better"] in ("lower", "higher")
        assert 0 < entry["bound"] <= 0.25
    for entry in DECLARED["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}
        assert UNIT.match(entry["unit"]) and entry["better"] in ("lower", "higher")
    setup = next(entry for entry in DECLARED["end_to_end"] if entry["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(entry["bound"] for entry in DECLARED["end_to_end"])


def test_every_declared_metric_is_produced(work):
    sample = run.Sample(wall_s=2.0, cpu_s=1.5, peak_rss_mb=90.0, invol_ctx_switches=3, elapsed_s=1.5,
                        points=[{"methods": {"acs": {"mean_improvement_percent": 10.0}},
                                 "deadline_misses": 0}],
                        missing_units=0, error_units=0)
    e2e = run.end_to_end([sample], work, units=1)
    trace = {"seconds": {}, "counts": {}, "solves": []}
    layers = run.per_layer(trace, sample, [sample])
    for entry in DECLARED["end_to_end"]:
        assert e2e[entry["name"]]["unit"] == entry["unit"]
    for entry in DECLARED["per_layer"]:
        assert layers[entry["name"]]["unit"] == entry["unit"]
    assert e2e["setup_s"]["value"] == pytest.approx(0.5)
    assert e2e["wall_min_s"]["value"] == 2.0 and e2e["wall_min_s"]["n"] == 1


def test_summarize_reports_only_percentiles_with_ten_samples_beyond():
    assert measure.summarize([3.0, 1.0, 2.0]) == {"median": 2.0, "n": 3, "tail_pct": None, "tail": None}
    assert measure.summarize(range(20))["tail_pct"] is None
    assert measure.summarize(range(21))["tail_pct"] == 50.0
    assert measure.summarize(range(100))["tail_pct"] == 90.0
    assert measure.summarize(range(1000))["tail_pct"] == 99.0


# --------------------------------------------------------------------- #
# Process accounting
# --------------------------------------------------------------------- #
def test_rusage_covers_descendants(work):
    grandchild = ("import time; t = time.process_time(); x = bytearray(80 * 2**20)\n"
                  "while time.process_time() - t < 0.3: pass")
    child = f"import subprocess, sys; subprocess.run([sys.executable, '-c', {grandchild!r}], check=True)"
    result = measure.run_child([sys.executable, "-c", child], work / "log.txt", timeout_s=60)
    assert result.returncode == 0
    assert result.cpu_s >= 0.3
    assert result.peak_rss_mb >= 80
    assert result.wall_s >= result.cpu_s


def test_child_environment_drops_thread_pins(monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setenv("OMP_NUM_THREADS", "3")
    env = measure.child_env()
    assert not set(measure.THREAD_VARIABLES) & set(env)
    assert env["PYTHONPATH"].split(":")[0] == str(measure.ROOT / "src")
    assert measure.environment()["thread_variables"]["OMP_NUM_THREADS"] == "3"


# --------------------------------------------------------------------- #
# End to end on a committed sub-second scenario
# --------------------------------------------------------------------- #
def test_seed_reaches_the_program(work):
    first, second = _bench(work / "a", seed=7), _bench(work / "b", seed=8)
    assert json.loads(first.spec_path.read_text())["simulation"]["seed"] == 7
    a = first.repro_run(first.work / "store")
    b = second.repro_run(second.work / "store")
    assert a.points != b.points
    unseeded = _bench(work / "c", seed=7, workload=run.WORKLOADS["fig6a-smoke"], name="fig6a-smoke")
    assert json.loads(unseeded.spec_path.read_text())["simulation"]["seed"] == 2005


def test_manifest_memo_and_rusage_of_a_repro_run(work):
    bench = _bench(work, seed=run.DEFAULT_SEED)
    store = work / "store"
    sample = bench.repro_run(store)
    manifest = measure.read_manifest(store, bench.scenario)
    assert manifest["computed"] == len(bench.unit_keys) and manifest["skipped"] == 0
    assert sample.elapsed_s == manifest["elapsed_seconds"] > 0
    assert 0 < sample.setup_s < sample.wall_s
    assert sample.cpu_s > 0 and sample.peak_rss_mb > 10
    assert sample.missing_units == sample.error_units == 0
    statuses = measure.solve_statuses(store)
    assert statuses and all(isinstance(code, int) for code in statuses)
    replay = bench.repro_run(store)
    assert replay.points == sample.points
    assert measure.read_manifest(store, bench.scenario)["skipped"] == len(bench.unit_keys)


def test_traced_run_only_observes(work):
    bench = _bench(work, seed=run.DEFAULT_SEED)
    plain = bench.repro_run(work / "plain")
    trace_out = work / "trace.json"
    traced = bench.repro_run(work / "traced", trace_out=trace_out)
    assert traced.points == plain.points
    trace = json.loads(trace_out.read_text())
    assert trace["seconds"]["offline.plan"] > 0
    assert trace["counts"]["scenarios.units"] == len(bench.unit_keys)
    assert trace["solves"] and all(row["status"] is not None for row in trace["solves"])
    layers = run.per_layer(trace, traced, [plain])
    assert layers["offline.solves"]["value"] == len(trace["solves"])
    assert layers["runtime.units"]["value"] > 0


def test_tracer_credits_nested_calls_once():
    tracer = LayerTracer()

    class Owner:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            time.sleep(0.01)
            return 1

    tracer.span(Owner, "outer", "layer.t", "layer")
    tracer.span(Owner, "inner", "layer.t", "layer",
                lambda *_a, **_k: tracer.add("layer.inner_outermost", count=1))
    assert Owner().outer() == 2
    assert 0.01 <= tracer.seconds["layer.t"] < 0.5
    assert "layer.inner_outermost" not in tracer.counts


def test_tracer_splits_a_coordinator_wave_by_request_kind():
    tracer = LayerTracer()
    owner = SimpleNamespace(drain=lambda batch: time.sleep(0.02))
    tracer.drain_split(owner, "drain")
    wave = [SimpleNamespace(kind=kind) for kind in ("batch", "scalar", "scalar", "batch")]
    owner.drain(wave)
    assert tracer.seconds["offline.jacobian"] == pytest.approx(tracer.seconds["offline.objective"])
    assert tracer.seconds["offline.jacobian"] >= 0.01
    owner.drain([SimpleNamespace(kind="scalar")])
    assert tracer.seconds["offline.objective"] >= 2 * tracer.seconds["offline.jacobian"]
