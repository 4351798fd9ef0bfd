"""Batched offline planning: cross-problem vectorized NLP solves plus a solve memo.

A Figure-6 sweep solves hundreds of *independent* :class:`~repro.offline.nlp.ReducedNLP`
instances — one ACS and one WCS problem per task set — and each solve spends
most of its wall-clock in :class:`~repro.offline.evaluation.CompiledEvaluation`
calls whose per-row NumPy dispatch overhead dwarfs the arithmetic.  This module
amortises that overhead *across problems* without changing a single bit of any
solver trajectory:

* **Scheduler programs** (:meth:`~repro.offline.base.VoltageScheduler.schedule_program`)
  describe a scheduler's solve sequence as waves of :class:`NLPSolveTask`
  requests.  :func:`run_programs` drives many programs in lock-step, so the
  independent solves of a whole sweep become one concurrent pool.
* **The evaluation coordinator** (:class:`_EvaluationCoordinator`) runs each
  SLSQP instance on its own thread, blocked on an evaluation-request queue.
  Whenever every live solver is waiting, the coordinator drains the pending
  objective/jacobian requests into one *stacked* cross-problem evaluation
  (:func:`stacked_energies`) and hands each solver exactly the numbers the
  per-problem evaluation would have produced — bitwise — so every trajectory,
  and therefore every :class:`~repro.offline.schedule.StaticSchedule`, is
  unchanged.  Problems the vectorized evaluation cannot reproduce (non-linear
  delay laws, non-SLSQP methods) fall back to plain sequential solves, per
  problem, mirroring the runtime engine's ``batch_fallback_reason`` discipline
  (:func:`solve_fallback_reason`).
* **The solve memo** (:class:`SolveMemo`) is a content-addressed cache keyed —
  with the result store's hashing discipline (:func:`~repro.scenarios.store.signature_key`)
  — by everything solve-relevant: the task set, the horizon, the processor,
  the workload mode, the solver options, the scenario set, the warm-start
  vector and the numpy/scipy versions.  ACS/WCS re-solves of identical task
  sets across policies, seeds and resumed sweeps then cost one solve; backed
  by a
  :class:`~repro.scenarios.store.ResultStore` the memo survives a killed sweep.

The determinism contract matches the runtime engines: for the same inputs, the
batched planner returns schedules bitwise-identical to sequential
``schedule_expansion`` calls (``tests/offline/test_batched_solver.py``).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import asdict, dataclass, is_dataclass
from typing import Any, Dict, Generator, List, Mapping, Optional, Sequence, Tuple

import numpy as np
import scipy

from ..core.errors import ReproError, SchedulingError
from ..power.processor import ProcessorModel
from ..telemetry.core import current as _telemetry
from .evaluation import _EPS, CompiledEvaluation
from .nlp import ReducedNLP
from .schedule import StaticSchedule

__all__ = [
    "NLPSolveTask",
    "SolveMemo",
    "SchedulerProgram",
    "default_solve_memo",
    "plan_expansions",
    "plan_key",
    "run_program",
    "run_programs",
    "solve_fallback_reason",
    "solve_signature",
    "solve_tasks",
    "stacked_energies",
]

#: A scheduler program: yields waves of solve tasks, receives the matching
#: wave of schedules, and returns the final schedule via ``StopIteration``.
SchedulerProgram = Generator[Tuple["NLPSolveTask", ...], Tuple[StaticSchedule, ...], StaticSchedule]

#: Telemetry counter names, precomputed so the disabled path allocates nothing.
_MEMO_HIT = "solve_memo.hit"
_MEMO_MISS = "solve_memo.miss"
_MEMO_COMPUTED = "solve_memo.computed"
_OBJECTIVE_EVALS = "nlp.objective_evaluations"
_JACOBIAN_EVALS = "nlp.jacobian_evaluations"


@dataclass(frozen=True)
class NLPSolveTask:
    """One solver invocation: a reduced NLP plus an optional warm-start vector."""

    nlp: ReducedNLP
    x0: Optional[np.ndarray] = None


def solve_fallback_reason(task: NLPSolveTask) -> Optional[str]:
    """Why ``task`` cannot join a stacked solve, or ``None`` if it can.

    Mirrors the runtime engine's ``batch_fallback_reason``: a non-``None``
    reason routes the task to a plain per-problem sequential solve, so the
    batched planner never has to *approximate* — it only batches what it can
    reproduce bitwise.
    """
    nlp = task.nlp
    if nlp._compiled is None:
        return f"processor law {nlp.processor.law!r} has no vectorized evaluation"
    if nlp.options.method != "SLSQP":
        return f"solver method {nlp.options.method!r}"
    return None


# --------------------------------------------------------------------- #
# Solve memo (content-addressed, ResultStore hashing discipline)
# --------------------------------------------------------------------- #
def solve_signature(task: NLPSolveTask) -> Dict[str, Any]:
    """Everything that determines a solve's outcome, as a canonical dictionary.

    ``verbose`` is excluded (it only toggles solver chatter); every other
    option, the task set, the horizon, the processor physics, the workload
    mode, the scenario set and the warm start all shape the trajectory and
    are therefore part of the key.  So does the solver build: SLSQP's
    trajectory depends on the numpy and scipy versions, and a memo written
    under one build must never be replayed as the answer under another.
    """
    # Lazy imports: pulling the reporting/scenario packages in at module load
    # would close an import cycle (scenarios.engine itself plans schedules).
    from ..reporting.serialization import taskset_to_dict
    from ..scenarios.store import STORE_FORMAT, processor_signature

    nlp = task.nlp
    options = asdict(nlp.options)
    options.pop("verbose", None)
    scenarios = None
    if nlp.scenarios is not None:
        scenarios = [[weight, dict(actual)] for weight, actual in nlp.scenarios]
    return {
        "store_format": STORE_FORMAT,
        "kind": "nlp-solve",
        "taskset": taskset_to_dict(nlp.expansion.taskset),
        "horizon": nlp.expansion.horizon,
        "processor": processor_signature(nlp.processor),
        "workload_mode": nlp.workload_mode,
        "options": options,
        "scenarios": scenarios,
        "x0": None if task.x0 is None else [float(v) for v in np.asarray(task.x0, dtype=float)],
        "build": {"numpy": np.__version__, "scipy": scipy.__version__},
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
    """Rebuild a memoized schedule against the requesting task's expansion.

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

    ``hits`` counts solves answered from the memo (including in-flight
    duplicates deduplicated within one wave); ``computed`` counts solver
    invocations that actually ran.
    """

    def __init__(self, store: Optional[Any] = None, *, max_entries: int = 512):
        self._store = store
        self._local: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()
        self._max_entries = max_entries
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
            while len(self._local) > self._max_entries:
                self._local.popitem(last=False)
        if self._store is not None:
            self._store.put(key, payload, scenario="nlp-solve", label=label)


_DEFAULT_MEMO = SolveMemo()


def default_solve_memo() -> SolveMemo:
    """The process-wide in-memory memo used when no explicit memo is given."""
    return _DEFAULT_MEMO


# --------------------------------------------------------------------- #
# Stacked cross-problem evaluation
# --------------------------------------------------------------------- #
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


# --------------------------------------------------------------------- #
# Evaluation coordinator (lock-step solver threads)
# --------------------------------------------------------------------- #
class _Request:
    """One evaluation request parked on the coordinator's queue."""

    __slots__ = ("nlp", "kind", "payload", "event", "value", "error")

    def __init__(self, nlp: ReducedNLP, kind: str, payload: Any):
        self.nlp = nlp
        self.kind = kind  # "scalar" (float list) or "batch" ((n_vars, K) columns)
        self.payload = payload
        self.event = threading.Event()
        self.value: Any = None
        self.error: Optional[BaseException] = None


def _evaluate_drain(batch: Sequence[_Request]) -> None:
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
    plan: List[Tuple[_Request, int, int]] = []
    for request in batch:
        nlp = request.nlp
        if request.kind == "scalar":
            columns = np.asarray(request.payload, dtype=float)[:, None]
        else:
            columns = np.asarray(request.payload, dtype=float)
        ends, budgets = nlp._unpack_batch(columns)
        first_lane = len(lanes)
        for _, evaluator in nlp._compiled:
            lanes.append((evaluator, ends, budgets))
        plan.append((request, first_lane, len(lanes)))
    results = stacked_energies(lanes)
    for request, first_lane, last_lane in plan:
        nlp = request.nlp
        if nlp.scenarios is not None:
            total_weight = sum(weight for weight, _ in nlp.scenarios)
            energy = np.zeros(results[first_lane].shape[0])
            for (weight, _), lane_energy in zip(nlp._compiled, results[first_lane:last_lane]):
                energy += weight * lane_energy
            energy = energy / total_weight
        else:
            energy = results[first_lane]
        request.value = float(energy[0]) if request.kind == "scalar" else energy


class _EvaluationCoordinator:
    """Runs many SLSQP instances on threads and batch-evaluates their requests.

    Every solver thread blocks after submitting an objective/jacobian request;
    once *all* live solvers are blocked, the coordinator drains the queue in
    one stacked evaluation and releases them.  Progress is guaranteed because
    a live solver thread is always either computing (and will submit or
    finish) or already parked on the queue.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._pending: List[_Request] = []
        self._live = 0
        self._failure: Optional[BaseException] = None

    # ---- solver-thread side ------------------------------------------- #
    def _submit(self, request: _Request) -> Any:
        _telemetry().count(_OBJECTIVE_EVALS if request.kind == "scalar" else _JACOBIAN_EVALS)
        with self._cond:
            if self._failure is not None:
                raise self._failure
            self._pending.append(request)
            self._cond.notify_all()
        request.event.wait()
        if request.error is not None:
            raise request.error
        return request.value

    def evaluate_scalar(self, nlp: ReducedNLP, values: List[float]) -> float:
        return self._submit(_Request(nlp, "scalar", values))

    def evaluate_batch(self, nlp: ReducedNLP, columns: np.ndarray) -> np.ndarray:
        return self._submit(_Request(nlp, "batch", columns))

    # ---- coordinator side --------------------------------------------- #
    def run(self, tasks: Sequence[NLPSolveTask]) -> List[StaticSchedule]:
        count = len(tasks)
        schedules: List[Optional[StaticSchedule]] = [None] * count
        errors: List[Optional[BaseException]] = [None] * count

        def solver_main(index: int, task: NLPSolveTask) -> None:
            try:
                schedules[index] = task.nlp.solve(task.x0)
            except BaseException as error:  # noqa: BLE001 - reported to the caller
                errors[index] = error
            finally:
                task.nlp._backend = None
                with self._cond:
                    self._live -= 1
                    self._cond.notify_all()

        threads = []
        self._live = count
        for index, task in enumerate(tasks):
            task.nlp._backend = self
            threads.append(threading.Thread(
                target=solver_main, args=(index, task),
                name=f"nlp-solver-{index}", daemon=True,
            ))
        for thread in threads:
            thread.start()
        while True:
            with self._cond:
                self._cond.wait_for(
                    lambda: self._live == 0
                    or (self._pending and len(self._pending) >= self._live)
                )
                if self._live == 0 and not self._pending:
                    break
                batch, self._pending = self._pending, []
            _telemetry().observe("solve.drain_width", float(len(batch)))
            try:
                _evaluate_drain(batch)
            except BaseException as error:  # noqa: BLE001 - poison every waiter
                with self._cond:
                    self._failure = error
                for request in batch:
                    request.error = error
            finally:
                for request in batch:
                    request.event.set()
        for thread in threads:
            thread.join()
        for error in errors:
            if error is not None:
                raise error
        return [schedule for schedule in schedules]  # all non-None: no error raised


# --------------------------------------------------------------------- #
# Wave solving and program driving
# --------------------------------------------------------------------- #
def solve_tasks(
    tasks: Sequence[NLPSolveTask],
    memo: Optional[SolveMemo] = None,
    *,
    fallback_out: Optional[List[Optional[str]]] = None,
) -> List[StaticSchedule]:
    """Solve one wave of tasks: memoized, deduplicated, stacked where possible.

    Order of resolution per task: a memo hit replays the stored vectors; an
    in-flight duplicate (identical signature within this wave) is solved once
    and every requester receives its own reconstructed schedule (schedules
    are mutable — sharing one object across requesters would leak one
    caller's mutations into another's); the rest are solved — concurrently
    through the evaluation coordinator when vectorizable, sequentially
    otherwise — and recorded in the memo.

    ``fallback_out``, when given, is rewritten to one entry per task: the
    ``solve_fallback_reason`` string for tasks that took the sequential
    fallback, ``None`` for everything else (memo hits and in-wave
    duplicates never reach a solver, so they carry no reason).
    """
    from ..scenarios.store import signature_key

    tasks = list(tasks)
    schedules: List[Optional[StaticSchedule]] = [None] * len(tasks)
    keys = [signature_key(solve_signature(task)) for task in tasks]
    if fallback_out is not None:
        fallback_out[:] = [None] * len(tasks)

    unresolved: List[int] = []
    for index, key in enumerate(keys):
        payload = memo.lookup(key) if memo is not None else None
        if payload is not None:
            schedules[index] = _schedule_from_payload(tasks[index].nlp, payload)
        else:
            unresolved.append(index)

    first_of: Dict[str, int] = {}
    duplicates: Dict[int, int] = {}
    unique: List[int] = []
    for index in unresolved:
        key = keys[index]
        if key in first_of:
            duplicates[index] = first_of[key]
        else:
            first_of[key] = index
            unique.append(index)

    concurrent: List[int] = []
    for index in unique:
        task = tasks[index]
        reason = solve_fallback_reason(task)
        if reason is not None:
            _telemetry().count("solve.fallback." + reason)
            if fallback_out is not None:
                fallback_out[index] = reason
            with _telemetry().span("solve.sequential"):
                schedules[index] = task.nlp.solve(task.x0)
        else:
            concurrent.append(index)
    if len(concurrent) == 1:
        index = concurrent[0]
        with _telemetry().span("solve.wave"):
            schedules[index] = tasks[index].nlp.solve(tasks[index].x0)
    elif concurrent:
        _telemetry().observe("solve.wave_width", float(len(concurrent)))
        with _telemetry().span("solve.wave"):
            solved = _EvaluationCoordinator().run([tasks[index] for index in concurrent])
        for index, schedule in zip(concurrent, solved):
            schedules[index] = schedule

    if memo is not None:
        for index in unique:
            label = f"{tasks[index].nlp.expansion.taskset.name}/{tasks[index].nlp.workload_mode}"
            memo.record(keys[index], _schedule_payload(schedules[index]), label=label)
    for index, source in duplicates.items():
        if memo is not None:
            memo.hits += 1
        schedules[index] = _schedule_from_payload(
            tasks[index].nlp, _schedule_payload(schedules[source])
        )
    return [schedule for schedule in schedules]


def run_program(program: SchedulerProgram) -> StaticSchedule:
    """Drive one scheduler program sequentially (the reference path).

    Tasks are solved one by one in yield order — exactly the call sequence
    the pre-program ``schedule_expansion`` implementations performed.
    """
    try:
        tasks = next(program)
        while True:
            tasks = program.send(tuple(task.nlp.solve(task.x0) for task in tasks))
    except StopIteration as stop:
        if stop.value is None:
            raise SchedulingError("scheduler program finished without a schedule") from None
        return stop.value


def run_programs(programs: Sequence[SchedulerProgram],
                 memo: Optional[SolveMemo] = None,
                 *,
                 fallback_out: Optional[List[Dict[str, int]]] = None) -> List[StaticSchedule]:
    """Drive many scheduler programs in lock-step waves.

    Each round advances every active program by one wave and solves the union
    of their yielded tasks through :func:`solve_tasks` — the wider the wave,
    the more problems one stacked evaluation amortises.

    ``fallback_out``, when given, is rewritten to one ``{reason: count}``
    tally per program, attributing each sequential-fallback solve to the
    program that requested it.
    """
    programs = list(programs)
    if fallback_out is not None:
        fallback_out[:] = [{} for _ in programs]
    results: List[Optional[StaticSchedule]] = [None] * len(programs)
    inbox: List[Tuple[StaticSchedule, ...]] = [()] * len(programs)
    started = [False] * len(programs)
    active = list(range(len(programs)))
    while active:
        wave: List[Tuple[int, Tuple[NLPSolveTask, ...]]] = []
        still_active: List[int] = []
        for index in active:
            try:
                if started[index]:
                    tasks = programs[index].send(inbox[index])
                else:
                    started[index] = True
                    tasks = next(programs[index])
            except StopIteration as stop:
                if stop.value is None:
                    raise SchedulingError("scheduler program finished without a schedule") from None
                results[index] = stop.value
                continue
            wave.append((index, tuple(tasks)))
            still_active.append(index)
        active = still_active
        if not wave:
            break
        wave_reasons: Optional[List[Optional[str]]] = [] if fallback_out is not None else None
        solved = solve_tasks(
            [task for _, tasks in wave for task in tasks], memo=memo, fallback_out=wave_reasons
        )
        cursor = 0
        for index, tasks in wave:
            inbox[index] = tuple(solved[cursor:cursor + len(tasks)])
            if fallback_out is not None and wave_reasons is not None:
                for reason in wave_reasons[cursor:cursor + len(tasks)]:
                    if reason is not None:
                        tally = fallback_out[index]
                        tally[reason] = tally.get(reason, 0) + 1
            cursor += len(tasks)
    return [result for result in results]


def plan_expansions(
    items: Sequence[Tuple[Any, Mapping[str, Any]]],
    memo: Optional[SolveMemo] = None,
    *,
    fallback_out: Optional[List[Dict[str, int]]] = None,
) -> List[Dict[str, StaticSchedule]]:
    """Plan many ``(expansion, {name: scheduler})`` groups as one solver pool.

    This is the harness entry point: every scheduler of every group
    contributes its program, all programs advance in lock-step, and the
    result is one ``{name: schedule}`` dictionary per group — bitwise what
    per-group sequential ``schedule_expansion`` calls produce.

    ``fallback_out``, when given, is rewritten to one ``{reason: count}``
    tally per *group*, merging the tallies of every scheduler program the
    group contributed (see :func:`run_programs`).
    """
    programs: List[SchedulerProgram] = []
    placements: List[Tuple[int, str]] = []
    for group, (expansion, methods) in enumerate(items):
        for name, scheduler in methods.items():
            programs.append(scheduler.schedule_program(expansion))
            placements.append((group, name))
    program_reasons: Optional[List[Dict[str, int]]] = [] if fallback_out is not None else None
    with _telemetry().span("plan.batched"):
        schedules = run_programs(programs, memo=memo, fallback_out=program_reasons)
    out: List[Dict[str, StaticSchedule]] = [{} for _ in items]
    for (group, name), schedule in zip(placements, schedules):
        out[group][name] = schedule
    if fallback_out is not None and program_reasons is not None:
        fallback_out[:] = [{} for _ in items]
        for (group, _), tally in zip(placements, program_reasons):
            merged = fallback_out[group]
            for reason, count in tally.items():
                merged[reason] = merged.get(reason, 0) + count
    return out
