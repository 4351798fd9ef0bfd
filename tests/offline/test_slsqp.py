"""The SLSQP driver on scipy's compiled kernel against ``scipy.optimize.minimize``.

:func:`repro.offline.slsqp.minimize` replays ``_minimize_slsqp`` of the
scipy minors it is verified on, so a solve on the kernel must return the same
bits as ``scipy.optimize.minimize`` given the same objective, gradient,
bounds and rows (as dict constraints): the raw point, status, iteration count
and message, and so the schedule ``ReducedNLP.solve`` makes of them.  On a
scipy without a verified kernel every solve takes ``scipy.optimize.minimize``
and these comparisons are skipped.
"""

import numpy as np
import pytest
import scipy

from repro.analysis.preemption import expand_fully_preemptive
from repro.core.task import Task
from repro.core.taskset import TaskSet
from repro.offline import slsqp
from repro.offline.nlp import ReducedNLP, SolverOptions
from repro.telemetry.core import Telemetry, using
from repro.workloads.cnc import cnc_taskset
from repro.workloads.gap import gap_taskset

needs_kernel = pytest.mark.skipif(
    slsqp.kernel() is None, reason=f"scipy {scipy.__version__} has no verified SLSQP kernel")


def _taskset(name, request, processor):
    if name == "cnc":
        return cnc_taskset(processor, target_utilization=0.7, bcec_wcec_ratio=0.1)
    if name == "gap-4":
        return gap_taskset(processor, target_utilization=0.7, bcec_wcec_ratio=0.1, n_tasks=4)
    if name == "no-split":   # equal periods never preempt each other: no budget sums
        return TaskSet([Task("A", period=10, wcec=3000, acec=1500, bcec=600),
                        Task("B", period=10, wcec=4000, acec=2000, bcec=800)], name="no-split")
    return request.getfixturevalue(name)


def _case(case, request, processor):
    """The NLP and the start of one case: ``(nlp, x0)``, ``x0`` ``None`` for the plain start."""
    name = {"warm-start": "three_task_set", "maxiter-5": "three_task_set",
            "outside-box": "two_task_set"}.get(case, case)
    expansion = expand_fully_preemptive(_taskset(name, request, processor))
    options = SolverOptions(maxiter=5) if case == "maxiter-5" else SolverOptions()
    nlp = ReducedNLP(expansion, processor, options=options)
    x0 = None
    if case == "warm-start":   # ACS's second start: the WCS plan's vectors
        wcs = ReducedNLP(expansion, processor, workload_mode="wcec").solve()
        x0 = nlp.pack(wcs.end_times(), wcs.wc_budgets())
    elif case == "outside-box":   # past every slot end, negative budgets: clipped
        x0 = nlp.initial_guess() + 50.0
        x0[len(expansion):] = -1.0
    return nlp, x0


def _on_scipy(nlp, x0, jac):
    """``scipy.optimize.minimize`` on the NLP's rows in dict form."""
    from scipy import optimize

    options = nlp.options
    return optimize.minimize(
        nlp.objective, x0, method="SLSQP", jac=jac, bounds=nlp.bounds(),
        constraints=nlp.linear_constraints().as_dicts(),
        options={"maxiter": options.maxiter, "ftol": options.ftol,
                 "eps": options.finite_difference_step, "disp": False})


def _schedule(schedule):
    return (schedule.end_times(), schedule.wc_budgets(), schedule.objective_value,
            schedule.metadata)


CASES = ["two_task_set", "three_task_set", "cnc", "gap-4", "warm-start", "maxiter-5",
         "outside-box", "no-split"]


@needs_kernel
class TestKernelAgainstScipy:
    @pytest.mark.parametrize("case", CASES)
    def test_raw_result_is_bitwise_scipys(self, case, request, processor):
        nlp, x0 = _case(case, request, processor)
        start = nlp.initial_guess() if x0 is None else x0
        expected = _on_scipy(nlp, start, nlp.jacobian)
        x, status, iterations, message = slsqp.minimize(
            nlp.objective, nlp.jacobian, start, nlp.bounds(), nlp.linear_constraints(),
            maxiter=nlp.options.maxiter, ftol=nlp.options.ftol)
        assert x.tobytes() == expected.x.tobytes()
        assert (status, iterations, message) == (expected.status, expected.nit, expected.message)

    @pytest.mark.parametrize("case", CASES)
    def test_schedule_is_bitwise_the_scipy_paths(self, case, request, processor, monkeypatch):
        nlp, x0 = _case(case, request, processor)
        with using(Telemetry()) as telemetry:
            on_kernel = nlp.solve(x0)
        assert telemetry.counters["solve.slsqp.kernel"] == 1
        monkeypatch.setattr(slsqp, "kernel", lambda: None)
        with using(Telemetry()) as telemetry:
            on_scipy = nlp.solve(x0)
        assert telemetry.counters["solve.slsqp.scipy"] == 1
        assert "solve.slsqp.kernel" not in telemetry.counters
        assert _schedule(on_kernel) == _schedule(on_scipy)

    def test_cases_cover_what_they_name(self, request, processor):
        plain = {case: _case(case, request, processor) for case in ("maxiter-5", "no-split")}
        assert plain["maxiter-5"][0].solve().metadata["solver_status"] == 9
        nlp = plain["no-split"][0]
        assert len(nlp.linear_constraints().b_eq) == 0
        nlp, x0 = _case("outside-box", request, processor)
        lower = np.array([-np.inf if low is None else low for low, _ in nlp.bounds()])
        upper = np.array([np.inf if high is None else high for _, high in nlp.bounds()])
        assert ((x0 < lower) | (x0 > upper)).any()

    def test_cmos_solve_is_bitwise_scipys_own_differences(self, three_task_set, cmos,
                                                          monkeypatch):
        """Without the compiled evaluation the kernel path takes the
        reference-evaluation gradient; scipy differences the objective itself."""
        nlp = ReducedNLP(expand_fully_preemptive(three_task_set), cmos,
                         options=SolverOptions(maxiter=25))
        assert nlp._compiled is None
        start = nlp.initial_guess()
        expected = _on_scipy(nlp, start, None)
        x, status, iterations, message = slsqp.minimize(
            nlp.objective, nlp.jacobian, start, nlp.bounds(), nlp.linear_constraints(),
            maxiter=nlp.options.maxiter, ftol=nlp.options.ftol)
        assert x.tobytes() == expected.x.tobytes()
        assert (status, iterations, message) == (expected.status, expected.nit, expected.message)
        on_kernel = nlp.solve()
        monkeypatch.setattr(slsqp, "kernel", lambda: None)
        assert _schedule(on_kernel) == _schedule(nlp.solve())


def test_unverified_scipy_gets_no_kernel(monkeypatch):
    monkeypatch.setattr(scipy, "__version__", "1.15.3")
    slsqp.kernel.cache_clear()
    try:
        assert slsqp.kernel() is None
    finally:
        monkeypatch.undo()
        slsqp.kernel.cache_clear()


def test_reference_jacobian_is_bitwise_scipys_differences(three_task_set, cmos):
    """The gradient of a processor without the compiled evaluation, at points
    of the slot box and at its corners."""
    from scipy.optimize._constraints import old_bound_to_new
    from scipy.optimize._numdiff import approx_derivative

    expansion = expand_fully_preemptive(three_task_set)
    nlp = ReducedNLP(expansion, cmos)
    assert nlp._compiled is None
    subs = expansion.sub_instances
    lower = nlp.pack([sub.slot_start for sub in subs], [0.0] * len(subs))
    upper = nlp.pack([sub.slot_end for sub in subs], [sub.instance.wcec for sub in subs])
    rng = np.random.default_rng(9)
    points = [lower + rng.uniform(0.0, 1.0, len(lower)) * (upper - lower) for _ in range(6)]
    points += [lower.copy(), upper.copy()]
    for x in points:
        expected = approx_derivative(
            nlp.objective_reference, x, method="2-point",
            abs_step=nlp.options.finite_difference_step, bounds=old_bound_to_new(nlp.bounds()))
        assert np.array_equal(nlp.jacobian(x), expected)
