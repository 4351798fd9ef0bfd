"""End-to-end, layer-by-layer benchmark of ``repro run`` on scenario specs.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fig6b-subset --seed 2005 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all          # every workload in BENCHMARK.json

Each workload runs ``repro run`` as a child process, untraced, until
``--seconds`` have passed (at least once); every metric is taken from those
timed runs.  Timings are reported as median, tail and sample count; the
declared ``wall_min_s``/``cpu_min_s`` are the fastest timed run, the figure
that stays steady on a host whose speed drifts.  ``--trace 1`` adds one traced run
(``perfbench/tracer.py``) that times each layer's entry points from outside
the program.  The seed overrides ``simulation.seed`` of the spec handed to
the program, except on ``fig6a-smoke``: there it would redraw the random task
sets and with them the NLP sizes, i.e. measure different work per seed.

The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}`` carrying the end-to-end
metrics declared in ``BENCHMARK.json`` (``--trace 0``) or the per-layer
metrics (``--trace 1``).  The full result — environment, every metric with
its sample count, the checks and the per-solve table — is written to
``.perfbench-work/results/``.  The exit code is 1 when a correctness check
fails and 2 when the benchmark cannot run at all.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from measure import ROOT, environment, nproc, read_manifest, run_child, solve_statuses, summarize

WORK = ROOT / ".perfbench-work"
DEFAULT_SEED = 2005
#: Every invocation must end well inside 180 s; children share this budget.
BUDGET_S = 170.0
#: Relative tolerance of the reference ``acs_improvement_pct`` check: solver
#: builds differ, so the check is a tolerance, never bitwise.
REFERENCE_RTOL = 0.02


@dataclass(frozen=True)
class Workload:
    """A scenario spec (and profile) run with ``--jobs 1``.

    ``seeded`` workloads get the benchmark seed as ``simulation.seed``;
    ``warm_memo`` ones fill the solve memo in an untimed run and then time
    ``--force`` reruns on that store, the others time cold stores.
    """

    spec: str
    profile: Optional[str]
    seeded: bool
    warm_memo: bool


WORKLOADS: Dict[str, Workload] = {
    "fig6b-subset": Workload("perfbench/specs/fig6b-subset.toml", None, seeded=True, warm_memo=False),
    "policy-sweep": Workload("perfbench/specs/policy-sweep.toml", None, seeded=True, warm_memo=True),
    # Runnable, but not in BENCHMARK.json: one cold run takes about 20 s
    # (fig6b-smoke) or 42-53 s (fig6a-smoke), so a run holds one or two
    # samples and its spread across runs is the host's.
    "fig6b-smoke": Workload("examples/scenarios/figure6b.toml", "smoke", seeded=True, warm_memo=False),
    "fig6a-smoke": Workload("examples/scenarios/figure6a.toml", "smoke", seeded=False, warm_memo=False),
}


class BenchError(Exception):
    """The benchmark could not run (as opposed to a failed correctness check)."""


@dataclass
class Sample:
    """One finished ``repro run``: resources, manifest and aggregate rows."""

    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    invol_ctx_switches: int
    elapsed_s: float
    points: List[Dict[str, Any]]
    missing_units: int
    error_units: int

    @property
    def setup_s(self) -> float:
        return self.wall_s - self.elapsed_s


@dataclass
class Bench:
    """One workload run: its spec, work directory and time budget."""

    name: str
    workload: Workload
    seed: int
    work: Path
    deadline: float
    spec_path: Path = field(init=False)
    scenario: str = field(init=False)
    unit_keys: List[str] = field(init=False)
    runs: int = 0

    def prepare(self) -> None:
        """Resolve the profile, apply the seed and write the spec to hand over."""
        from repro.scenarios import ScenarioEngine, ScenarioLoader
        from repro.scenarios.spec import ScenarioSpec

        spec = ScenarioLoader().load(ROOT / self.workload.spec, profile=self.workload.profile)
        if self.workload.seeded:
            document = spec.to_dict()
            document["simulation"]["seed"] = self.seed
            spec = ScenarioSpec.from_dict(document)
        self.work.mkdir(parents=True)
        self.spec_path = self.work / f"{spec.name}.json"
        self.spec_path.write_text(ScenarioLoader.dumps(spec), encoding="utf-8")
        self.scenario = spec.name
        self.unit_keys = list(ScenarioEngine().compile(spec).units)

    def repro_run(self, store: Path, *, force: bool = False,
                  trace_out: Optional[Path] = None) -> Sample:
        """Run ``repro run`` once on ``store`` and read back what it wrote."""
        self.runs += 1
        output = self.work / f"output-{self.runs}"
        args = ["run", str(self.spec_path), "--store", str(store), "--jobs", "1",
                "--output", str(output)] + (["--force"] if force else [])
        if trace_out is None:
            argv = [sys.executable, "-m", "repro", *args]
        else:
            argv = [sys.executable, str(ROOT / "perfbench" / "tracer.py"), str(trace_out), *args]
        remaining = self.deadline - time.perf_counter()
        if remaining <= 0:
            raise BenchError(f"time budget of {BUDGET_S:.0f}s exhausted")
        child = run_child(argv, self.work / f"log-{self.runs}.txt", timeout_s=remaining)
        if child.returncode != 0:
            tail = "\n".join(child.output.splitlines()[-15:])
            raise BenchError(f"repro run exited with {child.returncode}:\n{tail}")
        manifest = read_manifest(store, self.scenario)
        result = json.loads((output / f"{self.scenario}.json").read_text(encoding="utf-8"))
        shutil.rmtree(output)
        missing, errors = self._unit_health(store)
        return Sample(wall_s=child.wall_s, cpu_s=child.cpu_s, peak_rss_mb=child.peak_rss_mb,
                      invol_ctx_switches=child.invol_ctx_switches,
                      elapsed_s=float(manifest["elapsed_seconds"]), points=result["points"],
                      missing_units=missing, error_units=errors)

    def _unit_health(self, store: Path):
        from repro.scenarios.store import ResultStore

        results = ResultStore(store)
        missing = errors = 0
        for key in self.unit_keys:
            payload = results.get(key)
            if payload is None:
                missing += 1
            elif "error" in payload:
                errors += 1
        return missing, errors


# --------------------------------------------------------------------- #
# Metrics
# --------------------------------------------------------------------- #
def acs_improvement(points: Sequence[Dict[str, Any]]) -> float:
    """Mean over points of ACS's improvement over WCS, in percent."""
    return statistics.fmean(point["methods"]["acs"]["mean_improvement_percent"] for point in points)


def end_to_end(timed: Sequence[Sample], store: Path, units: int) -> Dict[str, Dict[str, Any]]:
    statuses = solve_statuses(store)
    failed = sum(sample.missing_units + sample.error_units for sample in timed)

    def timing(values: Sequence[float], unit: str) -> Dict[str, Any]:
        summary = summarize(values)
        return {"value": summary["median"], **summary, "unit": unit, "samples": list(values)}

    def fastest(values: Sequence[float], unit: str) -> Dict[str, Any]:
        return {"value": min(values), "n": len(values), "tail_pct": None, "tail": None, "unit": unit}

    def exact(value: float, unit: str, base: Optional[int] = None) -> Dict[str, Any]:
        row: Dict[str, Any] = {"value": value, "n": 1, "tail_pct": None, "tail": None, "unit": unit}
        if base is not None:
            row["base"] = base
        return row

    walls, cpus = [s.wall_s for s in timed], [s.cpu_s for s in timed]
    return {
        "wall_s": timing(walls, "s"),
        # The host's speed swings by up to 1.7x over tens of seconds, which
        # moves a run's median by as much; its fastest sample is what stays
        # put from run to run, so the declared timings are these minima.
        "wall_min_s": fastest(walls, "s"),
        "setup_s": timing([s.setup_s for s in timed], "s"),
        "cpu_s": timing(cpus, "s"),
        "cpu_min_s": fastest(cpus, "s"),
        "peak_rss_mb": timing([s.peak_rss_mb for s in timed], "MB"),
        "acs_improvement_pct": exact(acs_improvement(timed[0].points), "%"),
        "deadline_misses": exact(sum(p["deadline_misses"] for s in timed for p in s.points), "count"),
        "abnormal_solve_frac": exact(sum(1 for code in statuses if code != 0) / max(1, len(statuses)),
                                     "ratio", base=len(statuses)),
        "failed_unit_frac": exact(failed / (units * len(timed)), "ratio", base=units * len(timed)),
    }


def per_layer(trace: Dict[str, Any], traced: Sample,
              timed: Sequence[Sample]) -> Dict[str, Dict[str, Any]]:
    seconds, counts, solves = trace["seconds"], trace["counts"], trace["solves"]
    untraced_wall = statistics.median(s.wall_s for s in timed)
    n_vars = [row["n_vars"] for row in solves]
    objective_s = seconds.get("offline.objective", 0.0)
    jacobian_s = seconds.get("offline.jacobian", 0.0)
    plan_s = seconds.get("offline.plan", 0.0)
    sim_s = seconds.get("runtime.sim", 0.0)
    hyperperiods = counts.get("runtime.unit_hyperperiods", 0)
    fallbacks = counts.get("runtime.batch_fallbacks", 0)
    lookups = counts.get("memo.lookups", 0)
    rows = {
        "scenarios.compile_s": (seconds.get("scenarios.compile", 0.0), "s"),
        "scenarios.aggregate_s": (seconds.get("scenarios.aggregate", 0.0), "s"),
        "scenarios.units": (counts.get("scenarios.units", 0), "count"),
        "store.get_s": (seconds.get("store.get", 0.0), "s"),
        "store.gets": (counts.get("store.gets", 0), "count"),
        "store.put_s": (seconds.get("store.put", 0.0), "s"),
        "store.puts": (counts.get("store.puts", 0), "count"),
        "store.bytes_written": (counts.get("store.bytes_written", 0), "bytes"),
        "memo.lookups": (lookups, "count"),
        "memo.hit_ratio": (counts.get("memo.hits", 0) / lookups if lookups else 0.0, "ratio"),
        "analysis.expand_s": (seconds.get("analysis.expand", 0.0), "s"),
        "analysis.sub_instances": (counts.get("analysis.sub_instances", 0), "count"),
        "offline.plan_s": (plan_s, "s"),
        "offline.solves": (len(solves), "count"),
        "offline.n_vars_p50": (statistics.median(n_vars) if n_vars else 0, "count"),
        "offline.n_vars_max": (max(n_vars, default=0), "count"),
        "offline.iterations": (sum(max(0, row["iterations"] or 0) for row in solves), "count"),
        "offline.objective_calls": (counts.get("offline.objective_calls", 0), "count"),
        "offline.objective_s": (objective_s, "s"),
        "offline.jacobian_calls": (counts.get("offline.jacobian_calls", 0), "count"),
        "offline.jacobian_s": (jacobian_s, "s"),
        "offline.other_s": (plan_s - objective_s - jacobian_s, "s"),
        "offline.status_8": (sum(1 for row in solves if row["status"] == 8), "count"),
        "offline.status_9": (sum(1 for row in solves if row["status"] == 9), "count"),
        "offline.fallbacks": (sum(1 for row in solves if row["fallback"]), "count"),
        "runtime.sim_s": (sim_s, "s"),
        "runtime.units": (counts.get("runtime.units", 0), "count"),
        "runtime.unit_hyperperiods": (hyperperiods, "count"),
        "runtime.unit_hp_per_s": (hyperperiods / sim_s if sim_s else 0.0, "1/s"),
        "runtime.batched_units": (counts.get("runtime.batched_units", 0) - fallbacks, "count"),
        "runtime.batch_fallbacks": (fallbacks, "count"),
        "experiments.cpu_util": (statistics.median(s.cpu_s for s in timed)
                                 / (untraced_wall * nproc()), "ratio"),
        "experiments.invol_ctx_switches": (statistics.median(s.invol_ctx_switches for s in timed),
                                           "count"),
        "reporting.serialize_s": (seconds.get("reporting.serialize", 0.0), "s"),
        "trace.overhead_s": (traced.wall_s - untraced_wall, "s"),
    }
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in rows.items()}
    metrics["memo.hit_ratio"]["base"] = lookups
    return metrics


# --------------------------------------------------------------------- #
# One workload
# --------------------------------------------------------------------- #
def run_workload(name: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    workload = WORKLOADS[name]
    started = time.perf_counter()
    bench = Bench(name=name, workload=workload, seed=seed,
                  work=WORK / f"{name}-{seed}-{int(time.time() * 1e6)}",
                  deadline=started + BUDGET_S)
    try:
        return _run(bench, seconds, trace)
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)


def _fresh_store(bench: Bench) -> Path:
    store = bench.work / f"store-{bench.runs + 1}"
    shutil.rmtree(store, ignore_errors=True)
    return store


def _memo_records(store: Path) -> List[str]:
    return sorted(str(path.relative_to(store)) + f"@{path.stat().st_mtime_ns}"
                  for path in (store / "solve-memo").glob("objects/*/*.json"))


def _run(bench: Bench, seconds: float, trace: bool) -> Dict[str, Any]:
    workload = bench.workload
    bench.prepare()
    checks: List[Dict[str, Any]] = []

    def check(label: str, ok: bool, detail: str = "") -> None:
        checks.append({"check": label, "ok": bool(ok), "detail": detail})

    warm_store = None
    memo_before: List[str] = []
    if workload.warm_memo:
        # Untimed: fills the solve memo, so every timed run plans nothing.
        warm_store = _fresh_store(bench)
        bench.repro_run(warm_store)
        memo_before = _memo_records(warm_store)

    timed: List[Sample] = []
    loop_start = time.perf_counter()
    while not timed or time.perf_counter() - loop_start < seconds:
        store = warm_store if warm_store is not None else _fresh_store(bench)
        timed.append(bench.repro_run(store, force=warm_store is not None))

    units = len(bench.unit_keys)
    metrics = end_to_end(timed, store, units)
    check("every unit has a payload", metrics["failed_unit_frac"]["value"] == 0.0,
          f"{metrics['failed_unit_frac']['base']} unit runs")
    check("deadline_misses = 0", metrics["deadline_misses"]["value"] == 0,
          f"{metrics['deadline_misses']['value']} misses")
    check("aggregates identical across timed runs",
          all(s.points == timed[0].points for s in timed))
    if warm_store is not None:
        check("timed runs computed zero solves (solve memo unchanged)",
              _memo_records(warm_store) == memo_before, f"{len(memo_before)} memo records")
    if not workload.seeded or bench.seed == DEFAULT_SEED:
        reference = json.loads((ROOT / "perfbench" / "reference.json").read_text()).get(bench.name)
        measured = metrics["acs_improvement_pct"]["value"]
        check(f"acs_improvement_pct matches the seed-{DEFAULT_SEED} reference",
              reference is not None and abs(measured - reference) <= REFERENCE_RTOL * abs(reference),
              f"{measured!r} vs {reference!r} (rtol {REFERENCE_RTOL})")

    result: Dict[str, Any] = {"workload": bench.name, "seed": bench.seed, "seconds": seconds,
                              "environment": environment(), "end_to_end": metrics,
                              "timed_runs": len(timed), "units": units}
    if trace:
        trace_out = bench.work / "trace.json"
        store = warm_store if warm_store is not None else _fresh_store(bench)
        traced = bench.repro_run(store, force=warm_store is not None, trace_out=trace_out)
        trace_data = json.loads(trace_out.read_text(encoding="utf-8"))
        layers = per_layer(trace_data, traced, timed)
        check("traced aggregates equal untraced aggregates bitwise", traced.points == timed[0].points)
        if warm_store is not None:
            ratio = layers["memo.hit_ratio"]
            check("traced run: memo.hit_ratio = 1", ratio["value"] == 1.0 and ratio["base"] > 0,
                  f"base {ratio['base']} lookups")
        result["per_layer"] = layers
        result["solves"] = trace_data["solves"]
        result["traced_wall_s"] = traced.wall_s
    result["checks"] = checks
    result["correct"] = all(row["ok"] for row in checks)
    result["attempted"] = units * len(timed)
    result["failed"] = sum(s.missing_units + s.error_units for s in timed)
    return result


# --------------------------------------------------------------------- #
# Reporting
# --------------------------------------------------------------------- #
def _fmt(value: Any) -> str:
    if value is None:
        return "not measured"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def print_report(result: Dict[str, Any]) -> None:
    print(f"== {result['workload']} (seed {result['seed']}, {result['timed_runs']} timed run(s), "
          f"{result['units']} units)")
    print("environment: " + json.dumps(result["environment"], sort_keys=True))
    print(f"{'end-to-end metric':<22} {'value':>12} {'tail':>18} {'n':>4}  unit")
    for name, row in result["end_to_end"].items():
        tail = "n/a" if row["tail"] is None else f"p{row['tail_pct']:g}={row['tail']:.6g}"
        base = f" (base {row['base']})" if "base" in row else ""
        print(f"{name:<22} {_fmt(row['value']):>12} {tail:>18} {row['n']:>4}  {row['unit']}{base}")
    if "per_layer" in result:
        wall = result["traced_wall_s"]
        print(f"{'per-layer metric':<32} {'value':>14}  unit   (traced wall {wall:.3f} s)")
        for name, row in result["per_layer"].items():
            share = ""
            if row["unit"] == "s" and row["value"] is not None and not name.startswith("trace."):
                share = f"  {100.0 * row['value'] / wall:5.1f}% of wall"
            base = f" (base {row['base']})" if "base" in row else ""
            print(f"{name:<32} {_fmt(row['value']):>14}  {row['unit']}{base}{share}")
    if result.get("solves"):
        print("per-solve table (traced run):")
        print(f"{'#':>3} {'method':<6} {'warm':<5} {'n_vars':>6} {'iter':>5} {'status':>6} "
              f"{'obj_calls':>9} {'obj_s':>9} {'jac_calls':>9} {'jac_s':>9} {'solve_s':>9} objective")
        for index, row in enumerate(result["solves"]):
            print(f"{index:>3} {row['method']:<6} {str(row['warm_start']):<5} {row['n_vars']:>6} "
                  f"{row['iterations']:>5} {row['status']:>6} {row['objective_calls']:>9} "
                  f"{_fmt(row['objective_s']):>9} {row['jacobian_calls']:>9} "
                  f"{_fmt(row['jacobian_s']):>9} {row['solve_s']:>9.4f} {row['objective_value']:.10g}")
    for row in result["checks"]:
        print(f"check {'ok  ' if row['ok'] else 'FAIL'} {row['check']}"
              + (f" — {row['detail']}" if row["detail"] else ""))


def result_line(result: Dict[str, Any], trace: bool) -> Dict[str, Any]:
    """The machine-readable last line: the metrics ``BENCHMARK.json`` declares."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {}
    for entry in declared["per_layer" if trace else "end_to_end"]:
        row = (result["per_layer"] if trace else result["end_to_end"])[entry["name"]]
        metrics[entry["name"]] = {"value": row["value"], "unit": entry["unit"]}
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"],
                        help="workload name, or 'all' for every workload in BENCHMARK.json")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=50.0,
                        help="keep starting timed runs until this many seconds have passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        names = [entry["name"] for entry in declared["workloads"]]
    else:
        names = [args.workload]
    lines = []
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except BenchError as error:
            print(f"error: {name}: {error}", file=sys.stderr)
            return 2
        print_report(result)
        results = WORK / "results"
        results.mkdir(parents=True, exist_ok=True)
        (results / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(result, indent=2, sort_keys=True), encoding="utf-8")
        lines.append(result_line(result, bool(args.trace)))
    if len(lines) == 1:
        line = lines[0]
    else:
        line = {"correct": all(row["correct"] for row in lines),
                "attempted": sum(row["attempted"] for row in lines),
                "failed": sum(row["failed"] for row in lines),
                "metrics": {f"{name}.{metric}": value for name, row in zip(names, lines)
                            for metric, value in row["metrics"].items()}}
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
