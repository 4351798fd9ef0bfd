"""Reduced NLP formulation of the offline voltage-scheduling problem.

The paper formulates the search for the static schedule as a Non-Linear
Program over, for every sub-instance, its end-time, its worst-case and average
workloads and the two corresponding supply voltages (Section 3.2).  Observing
that — under the paper's own runtime model — the average workloads and both
voltages are *determined* by the end-times and worst-case budgets (the
sequential-fill rule and the online speed formula), this module solves the
equivalent *reduced* problem:

    variables     E_m (end-time), w_m (worst-case budget) for every sub-instance
    objective     average-case energy of one hyperperiod, evaluated by the
                  analytic greedy propagation of :mod:`repro.offline.evaluation`
                  with every job at its ACEC
    constraints   (all linear)
                  * slot containment:            slot_start_m ≤ E_m ≤ slot_end_m
                  * worst-case chain (paper (8)): E_m − E_{m−1} ≥ w_m / fmax
                  * release guard:                E_m − slot_start_m ≥ w_m / fmax
                  * per-job budget (paper (11)):  Σ_k w_{i,j,k} = WCEC_i
                  * 0 ≤ w_m ≤ WCEC

SLSQP works on a dense least-squares subproblem with one row per constraint
and per finite bound, so it is given only the rows nothing else implies:
every chain row, every budget sum, ``E_m ≤ slot_end_m``, ``w_m ≥ 0``, and the
release guards not named below.  Chain and guard rows carry a margin
(``SolverOptions.chain_margin_fraction``).  Three kinds of row are left out:

* ``E_m ≥ slot_start_m``: m's release guard gives ``E_m ≥ slot_start_m +
  margin + w_m / fmax`` with ``w_m ≥ 0``; where that guard is left out, m's
  chain row and m−1's guard give it.
* ``w ≤ WCEC``: the job's budget sum ``Σ w = WCEC`` with its siblings'
  ``w ≥ 0``.
* the release guard of sub-instance m ≥ 1 whose slot starts where m−1's
  does: ``E_m ≥ E_{m−1} + w_m / fmax + margin ≥ slot_start_{m−1} +
  2·margin + (w_{m−1} + w_m) / fmax``.

Every chain row stays.  m's guard and ``E_{m−1} ≤ slot_end_{m−1}`` imply m's
chain row when m−1's slot ends where m's starts or earlier, but solves without
those chain rows stopped at the iteration cap.

The objective is one walk of the total order at one workload per job.
Setting that workload to the WCEC instead of the ACEC turns the same solver
into the WCS baseline (the classical static schedule that only considers
worst-case cycles).  The paper plans for the average case and names a
probability-weighted objective only as an option; this module does not build it.

SLSQP runs on scipy's compiled kernel through :mod:`repro.offline.slsqp`,
which replays ``scipy.optimize.minimize``'s loop bit for bit without
importing ``scipy.optimize``; on a scipy whose loop it has not verified, the
solve calls ``scipy.optimize.minimize`` with the same rows as dict
constraints.

The literal formulation with explicit voltage/average-workload variables is
available in :mod:`repro.offline.nlp_literal` and is cross-checked against
this one in the test suite.

**When to use which:** this reduced formulation is the production path — it
is what :class:`~repro.offline.acs.ACSScheduler` and
:class:`~repro.offline.wcs.WCSScheduler` solve, and it scales to the full
Figure 6 sweeps.  Reach for :mod:`repro.offline.nlp_literal` only to
cross-validate against the paper's raw variable set on small expansions.
"""

from __future__ import annotations

import ctypes
import functools
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from ..analysis.preemption import FullyPreemptiveSchedule
from ..core.errors import SchedulingError
from ..power.processor import ProcessorModel
from ..telemetry.core import current as _telemetry
from .evaluation import CompiledEvaluation, evaluate_vectors
from .initialization import proportional_budget_vectors, worst_case_simulation_vectors
from .schedule import StaticSchedule

__all__ = ["LinearRows", "ReducedNLP", "SolverOptions", "single_blas_thread"]

#: Telemetry counter: solver iterations summed over every computed solve.
_SOLVE_ITERATIONS = "solve.iterations"
#: Telemetry counters: computed solves that ran on one BLAS thread, or could not be pinned.
_BLAS_PINNED = "solve.blas.pinned"
_BLAS_UNPINNED = "solve.blas.unpinned"
#: Telemetry counters: computed solves run on scipy's compiled SLSQP kernel, or
#: through ``scipy.optimize.minimize``.
_SOLVER_KERNEL = "solve.slsqp.kernel"
_SOLVER_SCIPY = "solve.slsqp.scipy"


@functools.lru_cache(maxsize=None)
def _scipy_openblas() -> Optional[Tuple[Callable[[], int], Callable[[int], None]]]:
    """The thread getter and setter of scipy's bundled OpenBLAS, or ``None``.

    scipy's wheels ship OpenBLAS as ``libscipy_openblas`` in ``scipy.libs/``
    (Linux, Windows) or ``scipy/.dylibs/`` (macOS).  By the time a solve
    runs, the solver has loaded it (scipy's compiled SLSQP kernel, or
    ``scipy.optimize`` where no kernel is verified), so ``CDLL`` returns the
    instance SLSQP calls.  A scipy linked against another BLAS has no such
    library or symbols, and its solves run unpinned.  Looked up once per
    process.
    """
    import scipy

    package = Path(scipy.__file__).parent
    for path in sorted([*package.parent.glob("scipy.libs/libscipy_openblas*"),
                        *package.glob(".dylibs/libscipy_openblas*")]):
        try:
            library = ctypes.CDLL(str(path))
            get_threads = library.scipy_openblas_get_num_threads
            set_threads = library.scipy_openblas_set_num_threads
        except (OSError, AttributeError):
            continue
        get_threads.argtypes, get_threads.restype = [], ctypes.c_int
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
        return get_threads, set_threads
    return None


@contextmanager
def single_blas_thread() -> Iterator[Union[int, str]]:
    """Run the body on one scipy-OpenBLAS thread, then restore the caller's count.

    SLSQP's dense subproblem runs on scipy's OpenBLAS, which starts one
    thread per core.  On this package's NLPs the extra threads only burn
    CPU (and oversubscribe pool workers), and a solve's output bits depend
    on the thread count.  Yields the thread mode the body ran under — ``1``,
    or ``"unpinned"`` when scipy's OpenBLAS cannot be found — and counts it
    as ``solve.blas.pinned`` or ``solve.blas.unpinned``.  The thread count is
    process-wide, so solves in one process must not overlap (pools use
    processes).
    """
    library = _scipy_openblas()
    if library is None:
        _telemetry().count(_BLAS_UNPINNED)
        yield "unpinned"
        return
    get_threads, set_threads = library
    previous = get_threads()
    set_threads(1)
    _telemetry().count(_BLAS_PINNED)
    try:
        yield 1
    finally:
        set_threads(previous)


class LinearRows(NamedTuple):
    """The linear rows of the NLP: ``a_ineq @ x + b_ineq ≥ 0``, ``a_eq @ x − b_eq = 0``."""

    a_ineq: np.ndarray
    b_ineq: np.ndarray
    a_eq: np.ndarray
    b_eq: np.ndarray

    def as_dicts(self) -> List[Dict[str, object]]:
        """The rows as ``scipy.optimize.minimize``'s dict constraints (empty groups left out)."""
        constraints: List[Dict[str, object]] = []
        if len(self.b_ineq):
            constraints.append({
                "type": "ineq",
                "fun": lambda x, a=self.a_ineq, b=self.b_ineq: a @ x + b,
                "jac": lambda x, a=self.a_ineq: a,
            })
        if len(self.b_eq):
            constraints.append({
                "type": "eq",
                "fun": lambda x, a=self.a_eq, b=self.b_eq: a @ x - b,
                "jac": lambda x, a=self.a_eq: a,
            })
        return constraints


@dataclass(frozen=True)
class SolverOptions:
    """Knobs for the scipy-based solver."""

    #: SLSQP's iteration cap.  It only decides when a solve stops, so solves
    #: that converge earlier pay nothing for it.
    maxiter: int = 300
    ftol: float = 1e-8
    finite_difference_step: float = 1e-6
    #: Fraction of the hyperperiod added as slack to the worst-case chain
    #: constraints inside the solver.  SLSQP may violate its constraints by a
    #: small amount; the margin keeps the *true* chain constraint satisfiable
    #: after the post-solve repair, at a negligible cost in optimality.
    chain_margin_fraction: float = 1e-5


@dataclass
class ReducedNLP:
    """Assembles and solves the reduced offline voltage-scheduling NLP.

    Parameters
    ----------
    expansion:
        The fully preemptive expansion of the task set over one hyperperiod.
    processor:
        DVS processor model (delay and energy laws).
    workload_mode:
        ``"acec"`` → the objective evaluates the average case (this is ACS);
        ``"wcec"`` → the objective evaluates the worst case (this is WCS).
    options:
        Solver options.
    """

    expansion: FullyPreemptiveSchedule
    processor: ProcessorModel
    workload_mode: str = "acec"
    options: SolverOptions = field(default_factory=SolverOptions)

    def __post_init__(self) -> None:
        if self.workload_mode not in ("acec", "wcec"):
            raise SchedulingError(f"workload_mode must be 'acec' or 'wcec', got {self.workload_mode!r}")
        subs = self.expansion.sub_instances
        self._n_subs = len(subs)
        # Budgets are decision variables only for jobs split into 2+ sub-instances.
        self._budget_var_index: Dict[int, int] = {}
        self._fixed_budget: Dict[int, float] = {}
        next_var = 0
        for index, sub in enumerate(subs):
            siblings = self.expansion.sub_instances_of(sub.instance)
            if len(siblings) >= 2:
                self._budget_var_index[index] = next_var
                next_var += 1
            else:
                self._fixed_budget[index] = sub.instance.wcec
        self._n_budget_vars = next_var
        self._n_vars = self._n_subs + self._n_budget_vars
        self._actual_cycles = self._build_actual_cycles()

        # Vectorized unpack: sub index of every budget variable (in variable
        # order) plus the fixed single-sub budgets as index/value arrays.
        self._budget_var_subs = np.array(
            sorted(self._budget_var_index, key=lambda i: self._budget_var_index[i]),
            dtype=np.intp,
        )
        self._fixed_budget_subs = np.array(sorted(self._fixed_budget), dtype=np.intp)
        self._fixed_budget_values = np.array(
            [self._fixed_budget[i] for i in sorted(self._fixed_budget)], dtype=float,
        )
        self._budget_var_subs_list = self._budget_var_subs.tolist()
        budget_template = [0.0] * self._n_subs
        for sub_index, value in self._fixed_budget.items():
            budget_template[sub_index] = value
        self._budget_template = budget_template

        # Compiled objective.  Only linear-law processors evaluate it
        # bitwise; everything else keeps the reference evaluation path.
        self._bounds_lower: Optional[np.ndarray] = None
        self._bounds_upper: Optional[np.ndarray] = None
        self._last_point: Optional[np.ndarray] = None
        self._last_value: float = 0.0
        self._compiled: Optional[CompiledEvaluation] = None
        if CompiledEvaluation.supported(self.processor):
            self._compiled = CompiledEvaluation(self.expansion, self.processor, self._actual_cycles)

    # ------------------------------------------------------------------ #
    # Variable packing
    # ------------------------------------------------------------------ #
    @property
    def n_variables(self) -> int:
        return self._n_vars

    def _build_actual_cycles(self) -> Dict[str, float]:
        if self.workload_mode == "acec":
            return {inst.key: inst.acec for inst in self.expansion.instances}
        return {inst.key: inst.wcec for inst in self.expansion.instances}

    def pack(self, end_times: Sequence[float], budgets: Sequence[float]) -> np.ndarray:
        """Pack full end-time/budget vectors into the optimisation variable vector."""
        x = np.zeros(self._n_vars)
        x[: self._n_subs] = np.asarray(end_times, dtype=float)
        for sub_index, var_index in self._budget_var_index.items():
            x[self._n_subs + var_index] = budgets[sub_index]
        return x

    def unpack(self, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Expand the optimisation vector into full end-time/budget vectors."""
        x = np.asarray(x, dtype=float)
        end_times = np.asarray(x[: self._n_subs], dtype=float)
        budgets = np.zeros(self._n_subs)
        budgets[self._budget_var_subs] = x[self._n_subs:]
        budgets[self._fixed_budget_subs] = self._fixed_budget_values
        return end_times, budgets

    # Unused by the planner: kept only for ``batched_solver._evaluate_drain``,
    # which stays while the benchmark's layer tracer wraps it by name.
    def _unpack_batch(self, x_columns: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Column-wise :meth:`unpack` of a ``(n_vars, K)`` matrix."""
        end_times = x_columns[: self._n_subs]
        budgets = np.zeros((self._n_subs, x_columns.shape[1]))
        budgets[self._budget_var_subs] = x_columns[self._n_subs:]
        budgets[self._fixed_budget_subs] = self._fixed_budget_values[:, None]
        return end_times, budgets

    # ------------------------------------------------------------------ #
    # Objective and constraints
    # ------------------------------------------------------------------ #
    def objective(self, x: np.ndarray) -> float:
        """Average-case energy of the candidate schedule ``x``.

        Dispatches to the compiled scalar evaluation when the processor
        supports it (bitwise-identical to the reference evaluation; see
        :class:`~repro.offline.evaluation.CompiledEvaluation`), otherwise to
        :meth:`objective_reference`.
        """
        if self._compiled is None:
            energy = self.objective_reference(x)
            point = np.array(x, dtype=float)
        else:
            values = np.asarray(x, dtype=float).tolist()
            energy = self._scalar_energy(values)
            point = np.array(values)
        # Memoize the last point: the solver evaluates the objective and then
        # the gradient at the same x, and the gradient needs f0.
        self._last_point = point
        self._last_value = energy
        return energy

    def _unpack_lists(self, values: List[float]) -> Tuple[List[float], List[float]]:
        """:meth:`unpack` of a full variable-value list into plain float lists."""
        n_subs = self._n_subs
        budgets = self._budget_template.copy()
        for position, sub_index in enumerate(self._budget_var_subs_list):
            budgets[sub_index] = values[n_subs + position]
        return values[:n_subs], budgets

    def _scalar_energy(self, values: List[float]) -> float:
        """Compiled scalar objective of a full variable-value list."""
        end_times, budgets = self._unpack_lists(values)
        return self._compiled.energy_from_lists(end_times, budgets)

    def objective_reference(self, x: np.ndarray) -> float:
        """The uncompiled objective (kept as the equivalence oracle)."""
        end_times, budgets = self.unpack(x)
        outcome = evaluate_vectors(
            self.expansion, end_times, budgets, self.processor,
            self._actual_cycles, collect_details=False,
        )
        return outcome.energy

    # Unused by the planner: kept only while the benchmark's layer tracer wraps it by name.
    def objective_batch(self, x_columns: np.ndarray) -> np.ndarray:
        """Objective of many candidate vectors at once (``(n_vars, K)`` → ``(K,)``).

        Requires the compiled evaluation (linear-law processor); each element
        is bitwise-equal to :meth:`objective` of the corresponding column.
        """
        if self._compiled is None:
            raise SchedulingError(
                "objective_batch requires the compiled evaluation (linear-law processor)"
            )
        end_times, budgets = self._unpack_batch(np.asarray(x_columns, dtype=float))
        return self._compiled.energies(end_times, budgets)

    def jacobian(self, x: np.ndarray) -> np.ndarray:
        """Forward-difference gradient, each column re-walked only where it changes.

        Reproduces scipy's 2-point finite-difference scheme — absolute step
        ``options.finite_difference_step``, the zero-step relative fallback,
        the one-sided bound adjustment of ``_adjust_scheme_to_bounds`` and the
        exact difference quotient — bitwise, so handing this to the solver
        instead of letting it difference :meth:`objective` itself changes the
        wall-clock cost but not a single bit of the solver trajectory.  A
        column moves one end-time or budget, so its energy comes from
        :meth:`CompiledEvaluation.changed_energies`, which re-walks the total
        order only from that sub-instance until the walk's state is back to
        the unperturbed one.  A processor without the compiled evaluation
        (non-linear delay laws) evaluates each column with :meth:`objective`
        at a copy of ``x`` with one entry moved, as scipy 1.17's
        ``_dense_difference`` builds it.  The replication is pinned by tests
        against ``scipy.optimize._numdiff.approx_derivative``.
        """
        x0 = np.asarray(x, dtype=float)
        if self._last_point is not None and np.array_equal(x0, self._last_point):
            f0 = self._last_value
        else:
            f0 = self.objective(x0)
        n_vars = self._n_vars
        step = np.full(n_vars, self.options.finite_difference_step, dtype=float)
        representable = (x0 + step) - x0
        if not representable.all():
            # Absolute step vanished against a huge |x|: scipy falls back to a
            # signed relative step; replicate it exactly.
            sign_x0 = (x0 >= 0).astype(float) * 2 - 1
            fallback = np.sqrt(np.finfo(np.float64).eps) * sign_x0 * np.maximum(1.0, np.abs(x0))
            step = np.where(representable == 0, fallback, step)

        if self._bounds_lower is None:
            # An open side is ±inf, as scipy's ``old_bound_to_new`` makes it.
            bounds = self.bounds()
            self._bounds_lower = np.array([-np.inf if low is None else low for low, _ in bounds])
            self._bounds_upper = np.array([np.inf if high is None else high for _, high in bounds])
        lower_dist = x0 - self._bounds_lower
        upper_dist = self._bounds_upper - x0
        probe = x0 + step
        violated = (probe < self._bounds_lower) | (probe > self._bounds_upper)
        fitting = np.abs(step) <= np.maximum(lower_dist, upper_dist)
        step = step.copy()
        step[violated & fitting] *= -1
        forward = (upper_dist >= lower_dist) & ~fitting
        step[forward] = upper_dist[forward]
        backward = (upper_dist < lower_dist) & ~fitting
        step[backward] = -lower_dist[backward]

        # Column i of scipy's scheme is x0 with entry i moved to x0[i] +
        # step[i]: one end-time or one budget change of the unpacked vectors.
        perturbed = x0 + step
        dx = perturbed - x0
        if self._compiled is None:
            values = np.empty(n_vars)
            for index in range(n_vars):
                column = x0.copy()
                column[index] = x0[index] + step[index]
                values[index] = self.objective(column)
            return (values - f0) / dx
        moved = perturbed.tolist()
        end_times, budgets = self._unpack_lists(x0.tolist())
        n_subs = self._n_subs
        changes = [(index, False, moved[index]) for index in range(n_subs)]
        changes += [(sub_index, True, moved[n_subs + position])
                    for position, sub_index in enumerate(self._budget_var_subs_list)]
        values = np.array(self._compiled.changed_energies(end_times, budgets, changes))
        return (values - f0) / dx

    def bounds(self) -> List[Tuple[Optional[float], Optional[float]]]:
        """SLSQP's variable bounds: ``E_m ≤ slot_end_m`` and ``w ≥ 0`` only.

        ``None`` leaves a side open; the other two sides of the slot box are
        implied by kept rows (see the module docstring).
        """
        bounds: List[Tuple[Optional[float], Optional[float]]] = [
            (None, sub.slot_end) for sub in self.expansion.sub_instances
        ]
        bounds += [(0.0, None)] * self._n_budget_vars
        return bounds

    def linear_constraints(self) -> LinearRows:
        """SLSQP's rows: ``a_ineq @ x + b_ineq ≥ 0`` and ``a_eq @ x − b_eq = 0``."""
        subs = self.expansion.sub_instances
        fmax = self.processor.fmax
        n_subs = self._n_subs
        margin = self.options.chain_margin_fraction * self.expansion.horizon

        inequality_rows: List[np.ndarray] = []
        inequality_consts: List[float] = []

        def budget_coefficient_row(sub_index: int, coefficient: float) -> np.ndarray:
            row = np.zeros(self._n_vars)
            if sub_index in self._budget_var_index:
                row[n_subs + self._budget_var_index[sub_index]] = coefficient
            return row

        for index, sub in enumerate(subs):
            # E_m − slot_start_m − w_m / fmax ≥ margin, unless the slot starts
            # where m−1's does: then m's chain row and m−1's guard imply it.
            if index == 0 or sub.slot_start != subs[index - 1].slot_start:
                row = budget_coefficient_row(index, -1.0 / fmax)
                row[index] += 1.0
                constant = -sub.slot_start - margin
                if index in self._fixed_budget:
                    constant -= self._fixed_budget[index] / fmax
                inequality_rows.append(row)
                inequality_consts.append(constant)
            if index >= 1:
                # E_m − E_{m−1} − w_m / fmax ≥ margin
                row = budget_coefficient_row(index, -1.0 / fmax)
                row[index] += 1.0
                row[index - 1] -= 1.0
                constant = -margin
                if index in self._fixed_budget:
                    constant -= self._fixed_budget[index] / fmax
                inequality_rows.append(row)
                inequality_consts.append(constant)

        equality_rows: List[np.ndarray] = []
        equality_consts: List[float] = []
        for instance in self.expansion.instances:
            indices = [sub.order for sub in self.expansion.sub_instances_of(instance)]
            if len(indices) < 2:
                continue
            row = np.zeros(self._n_vars)
            for sub_index in indices:
                row[n_subs + self._budget_var_index[sub_index]] = 1.0
            equality_rows.append(row)
            equality_consts.append(instance.wcec)

        def stacked(rows: List[np.ndarray], consts: List[float]) -> Tuple[np.ndarray, np.ndarray]:
            if not rows:
                return np.zeros((0, self._n_vars)), np.zeros(0)
            return np.vstack(rows), np.asarray(consts)

        return LinearRows(*stacked(inequality_rows, inequality_consts),
                          *stacked(equality_rows, equality_consts))

    # ------------------------------------------------------------------ #
    # Solving
    # ------------------------------------------------------------------ #
    def initial_guess(self) -> np.ndarray:
        end_times, budgets = proportional_budget_vectors(self.expansion, self.processor)
        return self.pack(end_times, budgets)

    def fallback_vectors(self) -> Tuple[List[float], List[float]]:
        return worst_case_simulation_vectors(self.expansion, self.processor)

    def solve(self, x0: Optional[np.ndarray] = None) -> StaticSchedule:
        """Run the solver and return a validated :class:`StaticSchedule`.

        SLSQP runs on scipy's compiled kernel (:func:`repro.offline.slsqp.kernel`),
        or, on a scipy whose loop that driver has not verified, through
        ``scipy.optimize.minimize`` with the same rows and bounds and, given a
        compiled evaluation, the same :meth:`jacobian`.  The raw solver output
        is repaired (budgets renormalised, end-times pushed forward to restore
        the worst-case chain) before validation; if no feasible repaired
        schedule emerges, the guaranteed-feasible worst-case-at-fmax schedule
        is returned instead, flagged in ``metadata["fallback"]``.
        """
        # Deferred: a run that replays every schedule from the solve memo
        # loads no solver at all.
        from . import slsqp

        start = self.initial_guess() if x0 is None else np.asarray(x0, dtype=float)
        options = self.options
        rows = self.linear_constraints()
        # Loaded before the pin, so the pin finds the OpenBLAS the solver maps.
        kernel = slsqp.kernel()
        if kernel is None:
            from scipy import optimize
        with single_blas_thread() as blas_threads:
            if kernel is not None:
                x, status, iterations, message = slsqp.minimize(
                    self.objective, self.jacobian, start, self.bounds(), rows,
                    maxiter=options.maxiter, ftol=options.ftol,
                )
            else:
                # The jacobian replays scipy's own finite-difference scheme
                # bitwise (see :meth:`jacobian`), so the solver trajectory is
                # identical with or without it — only the wall-clock changes.
                result = optimize.minimize(
                    self.objective,
                    start,
                    method="SLSQP",
                    jac=self.jacobian if self._compiled is not None else None,
                    bounds=self.bounds(),
                    constraints=rows.as_dicts(),
                    options={
                        "maxiter": options.maxiter,
                        "ftol": options.ftol,
                        "eps": options.finite_difference_step,
                    },
                )
                x, status, message = result.x, int(result.status), str(result.message)
                iterations = int(result.get("nit", -1))
        telemetry = _telemetry()
        if telemetry.enabled:  # the name is built only when someone records it
            telemetry.count(_SOLVER_KERNEL if kernel is not None else _SOLVER_SCIPY)
            telemetry.count(f"solve.status.{status}")
            if iterations >= 0:
                telemetry.count(_SOLVE_ITERATIONS, iterations)
        end_times, budgets = self.unpack(np.asarray(x, dtype=float))
        repaired = self._repair(end_times, budgets)
        metadata = {
            "solver_status": status,
            "solver_message": message,
            "solver_iterations": iterations,
            "blas_threads": blas_threads,
            "fallback": False,
        }
        method_name = "acs" if self.workload_mode == "acec" else "wcs"
        if repaired is not None:
            candidate = StaticSchedule.from_vectors(
                self.expansion, repaired[0], repaired[1],
                method=method_name,
                objective_value=float(self.objective(self.pack(*repaired))),
                metadata=metadata,
            )
            try:
                candidate.validate(self.processor)
                return candidate
            except SchedulingError:
                pass
        # Fall back to the guaranteed-feasible worst-case schedule at fmax.
        fallback_end, fallback_budget = self.fallback_vectors()
        metadata["fallback"] = True
        schedule = StaticSchedule.from_vectors(
            self.expansion, fallback_end, fallback_budget,
            method=method_name,
            objective_value=float(self.objective(self.pack(fallback_end, fallback_budget))),
            metadata=metadata,
        )
        schedule.validate(self.processor)
        return schedule

    # ------------------------------------------------------------------ #
    # Post-processing
    # ------------------------------------------------------------------ #
    def _repair(self, end_times: np.ndarray,
                budgets: np.ndarray) -> Optional[Tuple[List[float], List[float]]]:
        """Project a near-feasible solver output onto the feasible set.

        Budgets are clipped at zero and rescaled so each job's budgets sum to
        its WCEC; end-times are then pushed forward just enough to restore the
        worst-case chain, and clipped to their slot.  Returns ``None`` when the
        projection would violate a slot end (the caller then falls back).
        """
        subs = self.expansion.sub_instances
        repaired_budgets = np.clip(np.asarray(budgets, dtype=float), 0.0, None)
        for instance in self.expansion.instances:
            indices = [sub.order for sub in self.expansion.sub_instances_of(instance)]
            total = repaired_budgets[indices].sum()
            if total <= 1e-12:
                # Degenerate: give everything to the first sub-instance.
                repaired_budgets[indices] = 0.0
                repaired_budgets[indices[0]] = instance.wcec
            else:
                repaired_budgets[indices] *= instance.wcec / total

        fmax = self.processor.fmax
        repaired_ends: List[float] = []
        previous_end = 0.0
        for index, sub in enumerate(subs):
            if repaired_budgets[index] <= 1e-9 * max(1.0, sub.instance.wcec):
                # Zero-budget sub-instances execute nothing; keep their end-time
                # inside the slot but outside the chain bookkeeping.
                repaired_ends.append(min(max(float(end_times[index]), sub.slot_start), sub.slot_end))
                continue
            earliest = max(previous_end, sub.slot_start) + repaired_budgets[index] / fmax
            end = min(max(float(end_times[index]), earliest), sub.slot_end)
            tolerance = 1e-7 * max(1.0, sub.slot_end)
            if end + tolerance < earliest:
                return None
            repaired_ends.append(end)
            previous_end = max(previous_end, end)
        return repaired_ends, list(repaired_budgets)
