"""Layer tracer: times calls into each layer of ``repro`` from outside it.

Run as ``python perfbench/tracer.py OUT.json <repro CLI arguments>``: it
wraps the public entry points of every layer *at the name the caller looks
up* (a module attribute or a class attribute), runs the ``repro`` CLI
in-process, and writes the collected spans, counts and per-solve rows to
``OUT.json`` when the CLI returns.  Nothing under ``src/`` is edited; the
wrappers only observe, so the program's results are unchanged.

Accounting rules:

* a layer's time is credited at its outermost call on a thread, so nested
  calls (a batch fallback to ``run_compiled`` inside ``simulate_batch``) are
  not counted twice;
* objective/Jacobian time is credited to the outermost evaluation call on a
  thread.  In a lock-stepped solver wave the solver threads only park their
  requests (``ReducedNLP.objective`` parks one scalar request,
  ``ReducedNLP.jacobian`` one column-batch request), so the parked calls are
  counted but not timed.  The work runs on the coordinator thread, one
  drained wave at a time; each wave is timed there and split between
  objective and Jacobian time by the kind of its requests, one equal share
  per request (each request is one lane of the stacked evaluation).

The benchmark always runs ``--jobs 1``: wrappers inherited by forked pool
workers would count into copies that never report back.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional


class LayerTracer:
    """Collects per-layer seconds, counts and per-solve rows for one process."""

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)
        self.solves: List[Dict[str, Any]] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    # ------------------------------------------------------------------ #
    # Bookkeeping
    # ------------------------------------------------------------------ #
    def add(self, name: str, *, seconds: float = 0.0, count: int = 0) -> None:
        with self._lock:
            if seconds:
                self.seconds[name] += seconds
            if count:
                self.counts[name] += count

    def _depths(self) -> Dict[str, int]:
        depths = getattr(self._local, "depths", None)
        if depths is None:
            depths = self._local.depths = defaultdict(int)
        return depths

    def _timed(self, layer: str, fn: Callable, *args: Any, **kwargs: Any):
        """Call ``fn``; returns ``(result, seconds or None if nested in layer)``."""
        depths = self._depths()
        depths[layer] += 1
        outermost = depths[layer] == 1
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            depths[layer] -= 1
        return result, (time.perf_counter() - start) if outermost else None

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            return {"seconds": dict(self.seconds), "counts": dict(self.counts),
                    "solves": list(self.solves)}

    # ------------------------------------------------------------------ #
    # Installation
    # ------------------------------------------------------------------ #
    @staticmethod
    def _patch(owner: Any, name: str, make: Callable[[Callable], Callable]) -> None:
        original = getattr(owner, name)
        setattr(owner, name, functools.wraps(original)(make(original)))

    def span(self, owner: Any, name: str, metric: str, layer: str,
             on_result: Optional[Callable[..., None]] = None) -> None:
        """Time ``owner.name`` as ``<metric>`` (outermost call per ``layer``)."""
        def make(original: Callable) -> Callable:
            def wrapper(*args: Any, **kwargs: Any):
                result, seconds = self._timed(layer, original, *args, **kwargs)
                if seconds is not None:
                    self.add(metric, seconds=seconds)
                    if on_result is not None:
                        on_result(result, *args, **kwargs)
                return result
            return wrapper
        self._patch(owner, name, make)

    def install(self) -> None:
        """Wrap every layer's entry points (call once, before the CLI runs)."""
        from repro.experiments import harness
        from repro.offline import batched_solver
        from repro.offline.batched_solver import SolveMemo
        from repro.offline.evaluation import CompiledEvaluation
        from repro.offline.nlp import ReducedNLP
        from repro.reporting import serialization
        from repro.runtime import batched
        from repro.runtime.simulator import DVSSimulator
        from repro.scenarios.engine import ScenarioEngine
        from repro.scenarios.store import ResultStore

        # scenarios
        self.span(ScenarioEngine, "compile", "scenarios.compile", "scenarios.compile",
                  lambda compiled, *_a, **_k: self.add("scenarios.units", count=len(compiled.units)))
        self.span(ScenarioEngine, "aggregate", "scenarios.aggregate", "scenarios.aggregate")

        # scenarios.store
        self.span(ResultStore, "get", "store.get", "store.get",
                  lambda *_a, **_k: self.add("store.gets", count=1))

        def on_put(path, *_a, **_k):
            self.add("store.puts", count=1)
            self.add("store.bytes_written", count=path.stat().st_size)
        self.span(ResultStore, "put", "store.put", "store.put", on_put)

        def on_lookup(payload, *_a, **_k):
            self.add("memo.lookups", count=1)
            self.add("memo.hits", count=int(payload is not None))
        self.span(SolveMemo, "lookup", "memo.lookup", "memo.lookup", on_lookup)

        # analysis
        self.span(harness, "expand_fully_preemptive", "analysis.expand", "analysis",
                  lambda expansion, *_a, **_k: self.add("analysis.sub_instances", count=len(expansion)))

        # offline
        self.span(harness, "plan_expansions", "offline.plan", "offline.plan")
        self._install_solver(ReducedNLP, CompiledEvaluation, batched_solver)

        # runtime
        def on_batch(results, units, *_a, **_k):
            self.add("runtime.units", count=len(units))
            self.add("runtime.batched_units", count=len(units))
            self.add("runtime.unit_hyperperiods",
                     count=sum(unit.config.n_hyperperiods for unit in units))
        self.span(harness, "simulate_batch", "runtime.sim", "runtime", on_batch)

        def on_run(result, sim, *_a, **_k):
            self.add("runtime.units", count=1)
            self.add("runtime.unit_hyperperiods", count=sim.config.n_hyperperiods)
        self.span(DVSSimulator, "run", "runtime.sim", "runtime", on_run)

        def count_fallback(original: Callable) -> Callable:
            def wrapper(*args: Any, **kwargs: Any):
                self.add("runtime.batch_fallbacks", count=1)
                return original(*args, **kwargs)
            return wrapper
        self._patch(batched, "run_compiled", count_fallback)

        # reporting
        self.span(serialization, "comparison_result_to_dict", "reporting.serialize", "reporting")

    def _install_solver(self, nlp_cls: Any, evaluation_cls: Any, batched_solver: Any) -> None:
        local = self._local

        def evaluation(kind: str, counted: bool) -> Callable[[Callable], Callable]:
            def make(original: Callable) -> Callable:
                def wrapper(*args: Any, **kwargs: Any):
                    owner = args[0] if args else None
                    # Parked on the lock-step coordinator: the work is timed
                    # where it runs (coordinator thread), not here.
                    parked = getattr(owner, "_backend", None) is not None
                    outer = self._depths()["evaluation"] == 0
                    result, seconds = self._timed("evaluation", original, *args, **kwargs)
                    if outer:
                        row = getattr(local, "solve", None)
                        if counted:
                            self.add(f"offline.{kind}_calls", count=1)
                            if row is not None:
                                row[f"{kind}_calls"] += 1
                        if not parked:
                            self.add(f"offline.{kind}", seconds=seconds)
                            if row is not None and row[f"{kind}_s"] is not None:
                                row[f"{kind}_s"] += seconds
                    return result
                return wrapper
            return make

        self._patch(nlp_cls, "objective", evaluation("objective", True))
        self._patch(nlp_cls, "objective_batch", evaluation("objective", True))
        self._patch(nlp_cls, "jacobian", evaluation("jacobian", True))
        self._patch(evaluation_cls, "energies", evaluation("objective", False))
        self._patch(evaluation_cls, "energy_from_lists", evaluation("objective", False))
        self._patch(batched_solver, "stacked_energies", evaluation("objective", False))
        self.drain_split(batched_solver, "_evaluate_drain")

        def solve(original: Callable) -> Callable:
            def wrapper(nlp: Any, x0: Any = None):
                parked = getattr(nlp, "_backend", None) is not None
                row: Dict[str, Any] = {
                    "method": "acs" if nlp.workload_mode == "acec" else "wcs",
                    "n_vars": nlp.n_variables,
                    "warm_start": x0 is not None,
                    "lockstep": parked,
                    "objective_calls": 0, "jacobian_calls": 0,
                    "objective_s": None if parked else 0.0,
                    "jacobian_s": None if parked else 0.0,
                }
                local.solve = row
                start = time.perf_counter()
                try:
                    schedule = original(nlp, x0)
                finally:
                    local.solve = None
                row["solve_s"] = time.perf_counter() - start
                metadata = schedule.metadata
                row["iterations"] = metadata.get("solver_iterations")
                row["status"] = metadata.get("solver_status")
                row["fallback"] = bool(metadata.get("fallback"))
                row["objective_value"] = schedule.objective_value
                with self._lock:
                    self.solves.append(row)
                return schedule
            return wrapper
        self._patch(nlp_cls, "solve", solve)

    def drain_split(self, owner: Any, name: str) -> None:
        """Time the coordinator's ``owner.name(batch)`` and split it by request kind.

        A ``"batch"`` request comes from a parked ``ReducedNLP.jacobian``
        (its finite-difference columns), a ``"scalar"`` one from a parked
        ``ReducedNLP.objective``.
        """
        def make(original: Callable) -> Callable:
            def wrapper(batch: Any, *args: Any, **kwargs: Any):
                result, seconds = self._timed("evaluation", original, batch, *args, **kwargs)
                if seconds is not None and batch:
                    gradients = sum(1 for request in batch if request.kind == "batch")
                    share = gradients / len(batch)
                    self.add("offline.jacobian", seconds=seconds * share)
                    self.add("offline.objective", seconds=seconds * (1.0 - share))
                return result
            return wrapper
        self._patch(owner, name, make)


def main(argv: List[str]) -> int:
    out = Path(argv[0])
    tracer = LayerTracer()
    tracer.install()
    from repro.cli import main as repro_main

    try:
        return repro_main(argv[1:])
    finally:
        out.write_text(json.dumps(tracer.snapshot()), encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
