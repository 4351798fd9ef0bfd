"""Offline planning: one NLP solve at a time, each memoized where it is made.

A Figure-6 sweep runs hundreds of :class:`~repro.offline.nlp.ReducedNLP`
solves — one WCS and two ACS solves per task set — and many of them
repeat: the WCS problem ACS warm-starts from is the WCS scheduler's own,
and sweeps replan the same task sets across policies, seeds and resumed
runs.  This module makes every repeat cost one lookup:

* :func:`solve_nlp` is where every NLP-backed scheduler solves: it looks
  the problem up in a :class:`SolveMemo` and otherwise runs
  :meth:`ReducedNLP.solve <repro.offline.nlp.ReducedNLP.solve>` once and
  records the result.
* **The solve memo** (:class:`SolveMemo`) is a content-addressed cache keyed —
  with the result store's hashing discipline (:func:`~repro.scenarios.store.signature_key`)
  — by everything solve-relevant (:func:`solve_signature`): the task set,
  the horizon, the processor, the workload mode, the solver options, the
  warm-start vector and the solver build (numpy/scipy versions and the BLAS
  thread mode).  The task set leaves out the cycle counts the NLP never
  reads (BCEC, and ACEC in a WCS solve), so task sets that differ only in
  those share one solve.  Backed by a
  :class:`~repro.scenarios.store.ResultStore` the memo survives a killed
  sweep: :func:`resolve_solve_memo` is the one place that knows
  where a scenario store keeps its solves.
* :func:`plan_key` keys a whole comparison's planning inputs, so the harness
  plans each distinct problem of a chunk once, and :func:`plan_expansions`
  is the harness's planning entry point.

A memo hit rebuilds the schedule from its stored vectors against the asking
NLP's expansion, bitwise the schedule its own solve would return, so
memoized planning is bitwise-identical to unmemoized ``schedule_expansion``
calls (``tests/offline/test_batched_solver.py``).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import asdict, is_dataclass
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.errors import ReproError
from ..power.processor import ProcessorModel
from ..telemetry.core import current as _telemetry
from .evaluation import _EPS, CompiledEvaluation
from .nlp import ReducedNLP
from .schedule import StaticSchedule

__all__ = [
    "SolveMemo",
    "default_solve_memo",
    "plan_expansions",
    "plan_key",
    "resolve_solve_memo",
    "solve_nlp",
    "solve_signature",
]

#: Telemetry counter names, precomputed so the disabled path allocates nothing.
_MEMO_HIT = "solve_memo.hit"
_MEMO_MISS = "solve_memo.miss"
_MEMO_COMPUTED = "solve_memo.computed"

#: Solves a memo keeps in process memory, oldest out first.
_LOCAL_ENTRIES = 512


# --------------------------------------------------------------------- #
# Solve memo (content-addressed, ResultStore hashing discipline)
# --------------------------------------------------------------------- #
def solve_signature(nlp: ReducedNLP, x0: Optional[np.ndarray] = None, *,
                    blas_threads: Union[int, str] = 1) -> Dict[str, Any]:
    """Everything that determines the outcome of ``nlp.solve(x0)``, as a canonical dictionary.

    Every solver option, the task set, the horizon, the processor physics,
    the workload mode and the warm start shape the trajectory and are
    therefore part of the key.  So does the solver build
    (:func:`~repro.scenarios.store.solver_build`): SLSQP's trajectory
    depends on the numpy and scipy versions and on the BLAS thread mode
    ``blas_threads``, and a memo written under one build must never be
    replayed as the answer under another.

    The NLP never reads a task's BCEC, and reads its ACEC only in an ACS
    objective, so the task set is keyed without them where they are not
    read: a WCS solve answers every task set that differs only in ACEC and
    BCEC, and Figure 6(b) solves each WCS problem once across its BCEC/WCEC
    ratios.  A hit is rebuilt against the asking NLP's expansion, so its
    average-case budgets still come from the asking task set's ACEC.
    """
    # Lazy imports: pulling the reporting/scenario packages in at module load
    # would close an import cycle (scenarios.engine itself plans schedules).
    from ..reporting.serialization import taskset_to_dict
    from ..scenarios.store import STORE_FORMAT, processor_signature, solver_build

    taskset = taskset_to_dict(nlp.expansion.taskset)
    for task in taskset["tasks"]:
        del task["bcec"]
        if nlp.workload_mode != "acec":
            del task["acec"]
    # Format 5's key shape: the next STORE_FORMAT bump drops "scenarios" and options["method"].
    options = {**asdict(nlp.options), "method": "SLSQP"}
    return {
        "store_format": STORE_FORMAT,
        "kind": "nlp-solve",
        "taskset": taskset,
        "horizon": nlp.expansion.horizon,
        "processor": processor_signature(nlp.processor),
        "workload_mode": nlp.workload_mode,
        "options": options,
        "scenarios": None,
        "x0": None if x0 is None else [float(v) for v in np.asarray(x0, dtype=float)],
        "build": solver_build(blas_threads),
    }


class _Unkeyable(Exception):
    """A scheduler setting with no canonical form (its plans are never shared)."""


def _configuration(value: Any) -> Any:
    """Canonical JSON form of a scheduler setting: primitives, containers, dataclasses.

    A dataclass contributes its type and every instance attribute, not only
    its declared fields, so state a subclass sets in ``__init__`` still
    keys.  Anything else (arrays, callables, ...) raises :class:`_Unkeyable`.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, ProcessorModel):
        from ..scenarios.store import processor_signature

        return processor_signature(value)
    if isinstance(value, (list, tuple)):
        return [_configuration(item) for item in value]
    if isinstance(value, dict):
        return {str(key): _configuration(item) for key, item in value.items()}
    if is_dataclass(value) and hasattr(value, "__dict__"):
        kind = type(value)
        return [f"{kind.__module__}.{kind.__qualname__}",
                {name: _configuration(item) for name, item in vars(value).items()}]
    raise _Unkeyable(type(value).__name__)


def plan_key(taskset: Any, processor: ProcessorModel,
             methods: Mapping[str, Any]) -> Optional[str]:
    """Content key of one comparison's planning inputs, or ``None`` if unkeyable.

    Two comparisons with the same key plan bitwise-identical schedules: the
    task set (with its resolved priorities) fixes the expansion, and each
    method's name, scheduler type and configuration fix its solve sequence.
    The processor is part of the key too.  The harness plans each distinct
    key of a chunk once; ``None`` (a setting with no canonical form) plans
    the comparison on its own.
    """
    from ..reporting.serialization import taskset_to_dict
    from ..scenarios.store import processor_signature, signature_key

    try:
        return signature_key({
            "kind": "plan",
            "taskset": taskset_to_dict(taskset),
            "processor": processor_signature(processor),
            "methods": [[name, _configuration(scheduler)] for name, scheduler in methods.items()],
        })
    except (_Unkeyable, ReproError):
        return None


def _schedule_payload(schedule: StaticSchedule) -> Dict[str, Any]:
    """The JSON-safe memo record a schedule round-trips through."""
    return {
        "method": schedule.method,
        "objective_value": schedule.objective_value,
        "end_times": [float(v) for v in schedule.end_times()],
        "wc_budgets": [float(v) for v in schedule.wc_budgets()],
        "metadata": dict(schedule.metadata),
    }


def _schedule_from_payload(nlp: ReducedNLP, payload: Mapping[str, Any]) -> StaticSchedule:
    """Rebuild a memoized schedule against the requesting NLP's expansion.

    ``from_vectors`` re-derives the average-case budgets deterministically,
    and JSON floats round-trip exactly, so the reconstruction is
    bitwise-identical to the schedule a fresh solve would return.
    """
    return StaticSchedule.from_vectors(
        nlp.expansion,
        payload["end_times"],
        payload["wc_budgets"],
        method=payload["method"],
        objective_value=payload["objective_value"],
        metadata=dict(payload["metadata"]),
    )


class SolveMemo:
    """Content-addressed cache of NLP solves.

    Backed either by an in-process dictionary (the default — bounded FIFO, so
    a long-lived process cannot grow without limit) or by any store with the
    :class:`~repro.scenarios.store.ResultStore` ``get``/``put`` interface,
    which makes solves resumable across killed sweeps and worker processes.

    ``hits`` counts lookups answered from the memo; ``computed`` counts
    solver invocations that actually ran.
    """

    def __init__(self, store: Optional[Any] = None):
        self._store = store
        self._local: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.computed = 0

    def lookup(self, key: str) -> Optional[Dict[str, Any]]:
        with self._lock:
            payload = self._local.get(key)
        if payload is None and self._store is not None:
            payload = self._store.get(key)
        if payload is not None:
            self.hits += 1
            _telemetry().count(_MEMO_HIT)
        else:
            _telemetry().count(_MEMO_MISS)
        return payload

    def record(self, key: str, payload: Mapping[str, Any], *, label: str = "") -> None:
        self.computed += 1
        _telemetry().count(_MEMO_COMPUTED)
        with self._lock:
            self._local[key] = dict(payload)
            while len(self._local) > _LOCAL_ENTRIES:
                self._local.popitem(last=False)
        if self._store is not None:
            self._store.put(key, payload, scenario="nlp-solve", label=label)


_DEFAULT_MEMO = SolveMemo()


def default_solve_memo() -> SolveMemo:
    """The process-wide in-memory memo used when no explicit memo is given."""
    return _DEFAULT_MEMO


def resolve_solve_memo(store_root: Optional[str]) -> SolveMemo:
    """The solve memo for a worker: persistent when a store root is given.

    A root (the scenario result store's directory, as a picklable string)
    gives every worker process its own :class:`SolveMemo` view onto the same
    on-disk store — puts are atomic, so concurrent workers cooperate instead
    of clashing, and a resumed sweep finds its solves.  The memo lives in a
    ``solve-memo/`` subdirectory so the scenario store's own record listing
    and garbage collection keep seeing only scenario payloads.  Without a
    root the process-wide in-memory memo still deduplicates within the run.
    """
    if store_root is None:
        return default_solve_memo()
    from ..scenarios.store import ResultStore

    # The memo's backing store tallies its own telemetry family, so scenario
    # payload traffic and solve-memo traffic stay separable in a counter dump.
    return SolveMemo(
        ResultStore(Path(store_root) / "solve-memo", telemetry_prefix="solve_memo_store")
    )


# --------------------------------------------------------------------- #
# Stacked cross-problem evaluation
# --------------------------------------------------------------------- #
# Unused by the planner: kept only while the benchmark's layer tracer wraps these two by name.
def stacked_energies(
    lanes: Sequence[Tuple[CompiledEvaluation, np.ndarray, np.ndarray]],
) -> List[np.ndarray]:
    """Evaluate many ``CompiledEvaluation.energies`` requests as one stack.

    Every lane is ``(evaluator, end_times, wc_budgets)`` with matrices of
    shape ``(evaluator.n_subs, K_lane)``; the return value is one ``(K_lane,)``
    energy vector per lane, each **bitwise-equal** to
    ``evaluator.energies(end_times, wc_budgets)``.

    The lanes are stacked side by side into ``(M, W)`` matrices (``M`` the
    largest total-order length, ``W`` the summed column count) and the
    propagation loop of :meth:`CompiledEvaluation.energies` runs *once* over
    ``M`` rows instead of once per problem — the per-row NumPy dispatch cost
    is paid once for the whole drain.  Two properties keep the stack exact:

    * every phase-2 operation is an elementwise float64 ufunc, so evaluating
      a column inside a wider matrix cannot change its value (the per-problem
      scalar constants become per-column vectors holding the same values);
    * padding rows (lanes shorter than ``M``) carry zero slot starts, ends,
      budgets and ceffs with an all-false executed mask, which leaves each
      column's running state untouched through the exact operation order —
      the ``0/0`` division the padding can produce is overwritten by the
      ``available <= eps → fmax`` override before anything reads it, and the
      masked-out segment contributes an exact ``+ 0.0`` to the (non-negative)
      energy accumulator.
    """
    if not lanes:
        return []
    if len(lanes) == 1:
        evaluator, ends, budgets = lanes[0]
        return [evaluator.energies(ends, budgets)]

    n_rows = max(evaluator.n_subs for evaluator, _, _ in lanes)
    widths = [np.asarray(ends, dtype=float).shape[1] for _, ends, _ in lanes]
    total = int(sum(widths))
    bounds = np.concatenate(([0], np.cumsum(widths))).astype(int)

    ends_stack = np.zeros((n_rows, total))
    raw_budgets = np.zeros((n_rows, total))
    slot_stack = np.zeros((n_rows, total))
    ceff_stack = np.zeros((n_rows, total))
    fmax_vec = np.empty(total)
    fmin_vec = np.empty(total)
    vmin_vec = np.empty(total)
    vmax_vec = np.empty(total)
    k_vec = np.empty(total)
    n_instances = max(len(evaluator._initial_remaining) for evaluator, _, _ in lanes)
    remaining = np.zeros((n_instances, total))

    for lane, (evaluator, lane_ends, lane_budgets) in enumerate(lanes):
        lo, hi = bounds[lane], bounds[lane + 1]
        rows = evaluator.n_subs
        ends_stack[:rows, lo:hi] = lane_ends
        raw_budgets[:rows, lo:hi] = lane_budgets
        slot_stack[:rows, lo:hi] = np.asarray(evaluator._slot_starts, dtype=float)[:, None]
        ceff_stack[:rows, lo:hi] = np.asarray(evaluator._ceffs, dtype=float)[:, None]
        fmax_vec[lo:hi] = evaluator._fmax
        fmin_vec[lo:hi] = evaluator._fmin
        vmin_vec[lo:hi] = evaluator._vmin
        vmax_vec[lo:hi] = evaluator._vmax
        k_vec[lo:hi] = evaluator._k
        initial = np.asarray(evaluator._initial_remaining, dtype=float)
        remaining[: initial.shape[0], lo:hi] = initial[:, None]

    budgets = np.maximum(raw_budgets, 0.0)

    # Phase 1 — per-job sequential fill, per lane (the position grouping is
    # lane-specific), with the exact operation order of the per-problem path.
    executed = np.zeros((n_rows, total))
    executed_mask = np.zeros((n_rows, total), dtype=bool)
    for lane, (evaluator, _, _) in enumerate(lanes):
        lo, hi = bounds[lane], bounds[lane + 1]
        for sub_rows, inst_rows in evaluator._positions:
            chunk = np.minimum(budgets[sub_rows, lo:hi],
                               np.maximum(remaining[inst_rows, lo:hi], 0.0))
            mask = chunk > _EPS
            executed[sub_rows, lo:hi] = chunk
            executed_mask[sub_rows, lo:hi] = mask
            remaining[inst_rows, lo:hi] = remaining[inst_rows, lo:hi] - np.where(mask, chunk, 0.0)

    # Phase 2 — the exact in-place ufunc sequence of
    # ``CompiledEvaluation.energies``, with the per-problem scalar constants
    # widened to per-column vectors (masked vector copy replaces masked
    # scalar assignment — identical selection, identical values).
    start = np.empty(total)
    available = np.empty(total)
    frequency = np.empty(total)
    voltage = np.empty(total)
    segment = np.empty(total)
    condition = np.empty(total, dtype=bool)
    previous_finish = np.zeros(total)
    energy = np.zeros(total)
    with np.errstate(divide="ignore", invalid="ignore"):
        for index in range(n_rows):
            np.maximum(slot_stack[index], previous_finish, out=start)
            np.subtract(ends_stack[index], start, out=available)
            np.divide(budgets[index], available, out=frequency)
            np.maximum(frequency, fmin_vec, out=frequency)
            np.minimum(frequency, fmax_vec, out=frequency)
            np.less_equal(available, _EPS, out=condition)
            np.copyto(frequency, fmax_vec, where=condition)
            np.multiply(frequency, k_vec, out=voltage)
            np.maximum(voltage, vmin_vec, out=voltage)
            np.minimum(voltage, vmax_vec, out=voltage)
            np.less_equal(frequency, fmin_vec, out=condition)
            np.copyto(voltage, vmin_vec, where=condition)
            np.greater_equal(frequency, fmax_vec, out=condition)
            np.copyto(voltage, vmax_vec, where=condition)
            np.divide(voltage, k_vec, out=frequency)
            chunk = executed[index]
            np.multiply(ceff_stack[index], voltage, out=segment)
            np.multiply(segment, voltage, out=segment)
            np.multiply(chunk, segment, out=segment)
            np.logical_not(executed_mask[index], out=condition)
            segment[condition] = 0.0
            energy += segment
            np.divide(chunk, frequency, out=frequency)
            np.add(start, frequency, out=frequency)
            frequency[condition] = 0.0
            np.maximum(frequency, start, out=frequency)
            np.maximum(previous_finish, frequency, out=previous_finish)

    return [energy[bounds[lane]:bounds[lane + 1]].copy() for lane in range(len(lanes))]


def _evaluate_drain(batch: Sequence[Any]) -> None:
    """Answer one drained wave of requests with per-problem-exact values.

    An all-scalar drain (every solver is in a line search) keeps the scalar
    fast path — its pure-Python loop beats a width-1 vectorized pass.  As
    soon as any request is a gradient batch, everything is stacked into one
    cross-problem :func:`stacked_energies` call; the scalar and batched
    evaluations are pinned bitwise-equal per column, so both routes hand a
    solver the same numbers.
    """
    if all(request.kind == "scalar" for request in batch):
        for request in batch:
            request.value = request.nlp._scalar_energy(request.payload)
        return
    lanes: List[Tuple[CompiledEvaluation, np.ndarray, np.ndarray]] = []
    for request in batch:
        if request.kind == "scalar":
            columns = np.asarray(request.payload, dtype=float)[:, None]
        else:
            columns = np.asarray(request.payload, dtype=float)
        ends, budgets = request.nlp._unpack_batch(columns)
        lanes.append((request.nlp._compiled, ends, budgets))
    for request, energy in zip(batch, stacked_energies(lanes)):
        request.value = float(energy[0]) if request.kind == "scalar" else energy


# --------------------------------------------------------------------- #
# Solving and planning
# --------------------------------------------------------------------- #
def solve_nlp(nlp: ReducedNLP, x0: Optional[np.ndarray] = None,
              memo: Optional[SolveMemo] = None) -> StaticSchedule:
    """``nlp.solve(x0)``, answered from ``memo`` when it already holds the solve.

    A hit rebuilds a fresh schedule from the stored vectors (schedules are
    mutable, so no two callers share one object); a miss runs the solver
    under one ``solve`` span and records the result.  Lookups ask for a
    solve on one BLAS thread, so a warm lookup never probes the BLAS
    library; a solve that ran unpinned is recorded under its own key.
    """
    from ..scenarios.store import signature_key

    key = None
    if memo is not None:
        key = signature_key(solve_signature(nlp, x0))
        payload = memo.lookup(key)
        if payload is not None:
            return _schedule_from_payload(nlp, payload)
    with _telemetry().span("solve"):
        schedule = nlp.solve(x0)
    if memo is not None:
        blas_threads = schedule.metadata["blas_threads"]
        if blas_threads != 1:
            key = signature_key(solve_signature(nlp, x0, blas_threads=blas_threads))
        label = f"{nlp.expansion.taskset.name}/{nlp.workload_mode}"
        memo.record(key, _schedule_payload(schedule), label=label)
    return schedule


def plan_expansions(
    items: Sequence[Tuple[Any, Mapping[str, Any]]],
    memo: Optional[SolveMemo] = None,
) -> List[Dict[str, StaticSchedule]]:
    """Plan many ``(expansion, {name: scheduler})`` groups through one solve memo.

    This is the harness entry point: one ``{name: schedule}`` dictionary per
    group, bitwise what unmemoized ``schedule_expansion`` calls produce.
    """
    with _telemetry().span("plan"):
        return [{name: scheduler.schedule_expansion(expansion, memo=memo)
                 for name, scheduler in methods.items()}
                for expansion, methods in items]
