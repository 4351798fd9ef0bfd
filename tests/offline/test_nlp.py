"""Tests for the reduced NLP assembly (variable packing, constraints, repair)."""

import hashlib
import inspect

import numpy as np
import pytest

from repro.analysis.preemption import expand_fully_preemptive
from repro.core.errors import SchedulingError
from repro.offline.evaluation import evaluate_vectors
from repro.offline.initialization import proportional_budget_vectors, worst_case_simulation_vectors
from repro.offline import slsqp
from repro.offline.nlp import LinearRows, ReducedNLP, SolverOptions
from repro.offline.schedule import StaticSchedule
from repro.scenarios.store import STORE_FORMAT
from repro.workloads.cnc import cnc_taskset
from repro.workloads.gap import gap_taskset


def test_store_format_follows_the_functions_that_define_the_nlp():
    """Every solve-memo key carries ``STORE_FORMAT``, so a change to the NLP
    must bump it, or stored solves of the old NLP would be replayed as
    answers to the new one.  These functions build the NLP (its variables,
    bounds, rows and objective), set the solver's defaults (a unit key
    carries no solver options), start, run and repair the solve, and choose
    the fallback; a change to any of them fails here until the hash is
    re-pinned, and the format bumped with it if solves can change.  The
    compiled evaluation and :meth:`ReducedNLP.jacobian` are held bitwise to
    the reference objective and to scipy's differences, and the SLSQP driver
    to ``scipy.optimize.minimize``, by their own tests."""
    defining = [SolverOptions, ReducedNLP.__post_init__, ReducedNLP._build_actual_cycles,
                ReducedNLP.pack, ReducedNLP.unpack, ReducedNLP.objective,
                ReducedNLP.objective_reference, ReducedNLP.bounds,
                ReducedNLP.linear_constraints, LinearRows, ReducedNLP.initial_guess,
                ReducedNLP.fallback_vectors, ReducedNLP.solve, slsqp.minimize, ReducedNLP._repair,
                StaticSchedule.validate, evaluate_vectors, proportional_budget_vectors,
                worst_case_simulation_vectors]
    source = "".join(inspect.getsource(function) for function in defining)
    digest = hashlib.sha256(source.encode("utf-8")).hexdigest()
    pinned = (5, "e9fc9d4a208156672706191610bd9cb850e1d0ac0aa251e10d73e5394fa657d9")
    assert (STORE_FORMAT, digest) == pinned, (
        "the functions that define the NLP changed: bump STORE_FORMAT if "
        "solves can change, and re-pin this hash")


class TestVariablePacking:
    def test_single_sub_instance_budgets_are_fixed(self, two_task_set, processor):
        expansion = expand_fully_preemptive(two_task_set)
        nlp = ReducedNLP(expansion, processor)
        # Jobs A[0] and A[1] have one sub-instance each → fixed budgets; B[0] has two → 2 variables.
        assert nlp.n_variables == len(expansion) + 2

    def test_pack_unpack_round_trip(self, two_task_set, processor):
        expansion = expand_fully_preemptive(two_task_set)
        nlp = ReducedNLP(expansion, processor)
        end_times = [float(i + 1) for i in range(len(expansion))]
        budgets = [100.0 * (i + 1) for i in range(len(expansion))]
        x = nlp.pack(end_times, budgets)
        unpacked_ends, unpacked_budgets = nlp.unpack(x)
        assert list(unpacked_ends) == pytest.approx(end_times)
        # Fixed budgets come back as the instance WCEC, free ones round-trip.
        for index, sub in enumerate(expansion.sub_instances):
            siblings = expansion.sub_instances_of(sub.instance)
            if len(siblings) == 1:
                assert unpacked_budgets[index] == pytest.approx(sub.instance.wcec)
            else:
                assert unpacked_budgets[index] == pytest.approx(budgets[index])

    def test_invalid_mode_rejected(self, two_task_set, processor):
        expansion = expand_fully_preemptive(two_task_set)
        with pytest.raises(SchedulingError):
            ReducedNLP(expansion, processor, workload_mode="typical")


class TestConstraints:
    def test_bounds_match_slots(self, two_task_set, processor):
        """SLSQP gets each end-time's slot end and each budget's zero floor;
        the slot start and the WCEC ceiling are implied by kept rows."""
        expansion = expand_fully_preemptive(two_task_set)
        nlp = ReducedNLP(expansion, processor)
        bounds = nlp.bounds()
        assert len(bounds) == nlp.n_variables
        for index, sub in enumerate(expansion.sub_instances):
            assert bounds[index] == (None, sub.slot_end)
        assert bounds[len(expansion):] == [(0.0, None)] * (nlp.n_variables - len(expansion))

    def test_feasible_point_satisfies_constraints(self, two_task_set, processor):
        from repro.offline.initialization import worst_case_simulation_vectors
        expansion = expand_fully_preemptive(two_task_set)
        nlp = ReducedNLP(expansion, processor, options=SolverOptions(chain_margin_fraction=0.0))
        end_times, budgets = worst_case_simulation_vectors(expansion, processor)
        x = nlp.pack(end_times, budgets)
        rows = nlp.linear_constraints()
        assert (rows.a_ineq @ x + rows.b_ineq >= -1e-6).all()
        assert np.abs(rows.a_eq @ x - rows.b_eq).max() < 1e-6

    def test_constraint_jacobians_match_functions(self, two_task_set, processor):
        """The dict form ``scipy.optimize.minimize`` is given when no verified kernel runs."""
        expansion = expand_fully_preemptive(two_task_set)
        nlp = ReducedNLP(expansion, processor)
        rng = np.random.default_rng(0)
        x = rng.uniform(1.0, 10.0, size=nlp.n_variables)
        rows = nlp.linear_constraints()
        assert [constraint["type"] for constraint in rows.as_dicts()] == ["ineq", "eq"]
        for constraint in rows.as_dicts():
            jacobian = np.asarray(constraint["jac"](x))
            base = np.asarray(constraint["fun"](x))
            step = 1e-6
            for column in range(nlp.n_variables):
                perturbed = x.copy()
                perturbed[column] += step
                numeric = (np.asarray(constraint["fun"](perturbed)) - base) / step
                assert numeric == pytest.approx(jacobian[:, column], abs=1e-4)


class TestObjectiveAndSolve:
    def test_objective_matches_evaluator(self, two_task_set, processor):
        from repro.offline.evaluation import evaluate_vectors
        from repro.offline.initialization import worst_case_simulation_vectors
        expansion = expand_fully_preemptive(two_task_set)
        end_times, budgets = worst_case_simulation_vectors(expansion, processor)
        acec = {i.key: i.acec for i in expansion.instances}
        nlp = ReducedNLP(expansion, processor, workload_mode="acec")
        assert nlp.objective(nlp.pack(end_times, budgets)) == pytest.approx(
            evaluate_vectors(expansion, end_times, budgets, processor, acec).energy)

    def test_wcec_mode_objective(self, two_task_set, processor):
        from repro.offline.evaluation import evaluate_vectors
        from repro.offline.initialization import worst_case_simulation_vectors
        expansion = expand_fully_preemptive(two_task_set)
        end_times, budgets = worst_case_simulation_vectors(expansion, processor)
        wcec = {i.key: i.wcec for i in expansion.instances}
        nlp = ReducedNLP(expansion, processor, workload_mode="wcec")
        assert nlp.objective(nlp.pack(end_times, budgets)) == pytest.approx(
            evaluate_vectors(expansion, end_times, budgets, processor, wcec).energy)

    def test_solve_improves_on_feasible_reference(self, two_task_set, processor):
        """The solved schedule must beat the guaranteed-feasible fmax-packed schedule.

        (The heuristic *initial guess* may be infeasible and therefore evaluate
        to an unattainably low energy, so it is not a valid reference point.)
        """
        expansion = expand_fully_preemptive(two_task_set)
        nlp = ReducedNLP(expansion, processor, workload_mode="acec")
        reference_objective = nlp.objective(nlp.pack(*nlp.fallback_vectors()))
        schedule = nlp.solve()
        assert schedule.objective_value <= reference_objective + 1e-6

    def test_solve_with_tiny_iteration_budget_still_feasible(self, three_task_set, processor):
        expansion = expand_fully_preemptive(three_task_set)
        nlp = ReducedNLP(expansion, processor, options=SolverOptions(maxiter=1))
        schedule = nlp.solve()
        schedule.validate(processor)


class TestRepair:
    def test_repair_normalises_budgets(self, two_task_set, processor):
        from repro.offline.initialization import worst_case_simulation_vectors
        expansion = expand_fully_preemptive(two_task_set)
        nlp = ReducedNLP(expansion, processor)
        end_times, _ = worst_case_simulation_vectors(expansion, processor)
        # Budgets for B[0] sum to 12000 instead of its WCEC of 8000.
        budgets = []
        for sub in expansion.sub_instances:
            if sub.instance.key == "B[0]":
                budgets.append(10500.0 if sub.sub_index == 0 else 1500.0)
            else:
                budgets.append(sub.instance.wcec)
        repaired = nlp._repair(np.array(end_times), np.array(budgets))
        assert repaired is not None
        repaired_ends, repaired_budgets = repaired
        b_budgets = [b for sub, b in zip(expansion.sub_instances, repaired_budgets)
                     if sub.instance.key == "B[0]"]
        assert sum(b_budgets) == pytest.approx(8000.0)
        assert b_budgets[0] == pytest.approx(7000.0)
        assert all(b >= 0 for b in repaired_budgets)
        # The repaired schedule is feasible.
        from repro.offline.schedule import StaticSchedule
        StaticSchedule.from_vectors(expansion, repaired_ends, repaired_budgets).validate(processor)

    def test_repair_rejects_unfixable_end_times(self, two_task_set, processor):
        expansion = expand_fully_preemptive(two_task_set)
        nlp = ReducedNLP(expansion, processor)
        # Force all worst-case work of B into its first (short) slot end: impossible.
        end_times = []
        budgets = []
        for sub in expansion.sub_instances:
            end_times.append(sub.slot_end)
            if sub.instance.key == "B[0]":
                budgets.append(10000.0 if sub.sub_index == 0 else -2000.0)
            else:
                budgets.append(sub.instance.wcec)
        # After normalisation B[0].0 carries 8000+ cycles but only 10 ms of slot minus
        # the higher-priority 3 ms remain → infeasible at fmax=1000? (7 ms × 1000 = 7000 < 8000)
        repaired = nlp._repair(np.array(end_times), np.array(budgets))
        assert repaired is None


def _named_taskset(name, request, processor):
    """A conftest fixture by name, or the CNC set or the 4-task GAP slice of fig6b-subset."""
    if name == "cnc":
        return cnc_taskset(processor, target_utilization=0.7, bcec_wcec_ratio=0.1)
    if name == "gap-4":
        return gap_taskset(processor, target_utilization=0.7, bcec_wcec_ratio=0.1, n_tasks=4)
    return request.getfixturevalue(name)


def _kept_rows(nlp):
    """The rows SLSQP is given, as ``(A_ub, b_ub, A_eq, b_eq)`` of ``A_ub x ≤ b_ub``, ``A_eq x = b_eq``."""
    rows = nlp.linear_constraints()   # a_ineq x + b_ineq ≥ 0, a_eq x − b_eq = 0
    return -rows.a_ineq, rows.b_ineq, rows.a_eq, rows.b_eq


class TestImpliedRows:
    """Every row SLSQP is not given holds at every point of the rows it is given."""

    @pytest.mark.parametrize("name", ["two_task_set", "three_task_set", "cnc", "gap-4"])
    def test_dropped_rows_are_implied(self, name, request, processor):
        from scipy.optimize import linprog

        expansion = expand_fully_preemptive(_named_taskset(name, request, processor))
        nlp = ReducedNLP(expansion, processor)
        subs = expansion.sub_instances
        a_ub, b_ub, a_eq, b_eq = _kept_rows(nlp)
        bounds = nlp.bounds()
        n_subs, n_vars = len(subs), nlp.n_variables
        horizon = expansion.horizon
        margin = nlp.options.chain_margin_fraction * horizon
        fmax = processor.fmax

        def lp_minimum(cost):
            result = linprog(cost, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                             bounds=bounds, method="highs")
            assert result.status == 0, result.message
            return result.fun

        def unit(index, value=1.0):
            cost = np.zeros(n_vars)
            cost[index] = value
            return cost

        # E_m ≥ slot_start_m.
        start_slack = min(lp_minimum(unit(index)) - sub.slot_start for index, sub in enumerate(subs))
        assert start_slack >= -1e-9 * horizon
        # w ≤ WCEC, for every budget variable.
        budget_subs = [index for index, sub in enumerate(subs)
                       if len(expansion.sub_instances_of(sub.instance)) >= 2]
        assert len(budget_subs) == n_vars - n_subs
        for position, index in enumerate(budget_subs):
            wcec = subs[index].instance.wcec
            assert -lp_minimum(unit(n_subs + position, -1.0)) - wcec <= 1e-9 * wcec
        # The dropped release guard E_m − slot_start_m − w_m / fmax − margin ≥ 0
        # holds with at least one more margin of slack.
        dropped = [index for index in range(1, n_subs)
                   if subs[index].slot_start == subs[index - 1].slot_start]
        assert a_ub.shape[0] == 2 * n_subs - 1 - len(dropped)
        for index in dropped:
            cost = unit(index)
            if index in budget_subs:
                cost[n_subs + budget_subs.index(index)] = -1.0 / fmax
                constant = 0.0
            else:
                constant = subs[index].instance.wcec / fmax
            slack = lp_minimum(cost) - constant - subs[index].slot_start - margin
            assert slack >= margin - 1e-9 * horizon

    @pytest.mark.parametrize(("name", "counts"), [("cnc", (35, 7, 52)), ("gap-4", (39, 9, 56))])
    def test_row_counts_are_pinned(self, name, counts, request, processor):
        """Inequality rows, equality rows and finite bounds of fig6b-subset's NLPs."""
        nlp = ReducedNLP(expand_fully_preemptive(_named_taskset(name, request, processor)), processor)
        a_ub, _, a_eq, _ = _kept_rows(nlp)
        finite = sum((low is not None) + (high is not None) for low, high in nlp.bounds())
        assert (a_ub.shape[0], a_eq.shape[0], finite) == counts


class TestVectorizedJacobian:
    """The batched gradient must replay scipy's finite differences bitwise."""

    @staticmethod
    def _slot_box(nlp):
        """The corners of the slot box (``[slot_start, slot_end]``, ``[0, WCEC]``) points are drawn from."""
        subs = nlp.expansion.sub_instances
        lower = nlp.pack([sub.slot_start for sub in subs], [0.0] * len(subs))
        upper = nlp.pack([sub.slot_end for sub in subs], [sub.instance.wcec for sub in subs])
        return lower, upper

    @staticmethod
    def _solver_bounds(nlp):
        """``nlp.bounds()`` in the ±inf form scipy differences SLSQP's objective under."""
        from scipy.optimize._constraints import old_bound_to_new

        return old_bound_to_new(nlp.bounds())

    def test_objective_dispatch_bitwise(self, three_task_set, processor):
        expansion = expand_fully_preemptive(three_task_set)
        nlp = ReducedNLP(expansion, processor)
        lower, upper = self._slot_box(nlp)
        rng = np.random.default_rng(5)
        for _ in range(20):
            x = lower + rng.uniform(0.0, 1.0, len(lower)) * (upper - lower)
            assert nlp.objective(x) == nlp.objective_reference(x)

    def test_jacobian_matches_scipy_bitwise(self, three_task_set, processor):
        from scipy.optimize._numdiff import approx_derivative

        expansion = expand_fully_preemptive(three_task_set)
        nlp = ReducedNLP(expansion, processor)
        lower, upper = self._slot_box(nlp)
        rng = np.random.default_rng(6)
        points = [lower + rng.uniform(0.0, 1.0, len(lower)) * (upper - lower)
                  for _ in range(10)]
        points.append(lower.copy())   # slot starts, zero budgets: forward steps off w ≥ 0
        points.append(upper.copy())   # slot ends: sign flips
        for x in points:
            expected = approx_derivative(
                nlp.objective_reference, x, method="2-point",
                abs_step=nlp.options.finite_difference_step,
                bounds=self._solver_bounds(nlp),
            )
            assert np.array_equal(nlp.jacobian(x), expected)

    def test_scenario_weighted_jacobian_matches_scipy_bitwise(self, three_task_set, processor):
        from scipy.optimize._numdiff import approx_derivative

        from repro.offline.stochastic import sample_scenarios
        from repro.workloads.distributions import NormalWorkload

        expansion = expand_fully_preemptive(three_task_set)
        scenarios = sample_scenarios(expansion, NormalWorkload(), 6, seed=7)
        nlp = ReducedNLP(expansion, processor, scenarios=scenarios)
        lower, upper = self._slot_box(nlp)
        rng = np.random.default_rng(8)
        points = [lower + rng.uniform(0.0, 1.0, len(lower)) * (upper - lower)
                  for _ in range(6)]
        points += [lower.copy(), upper.copy()]
        for x in points:
            expected = approx_derivative(
                nlp.objective_reference, x, method="2-point",
                abs_step=nlp.options.finite_difference_step,
                bounds=self._solver_bounds(nlp),
            )
            assert np.array_equal(nlp.jacobian(x), expected)

    def test_solve_identical_with_and_without_jacobian(self, three_task_set, processor,
                                                       monkeypatch):
        """The column-walk jacobian against scipy's own differences of the
        reference objective: ``optimize.minimize(jac=None)`` with the
        compiled evaluation switched off."""
        expansion = expand_fully_preemptive(three_task_set)
        options = SolverOptions(maxiter=60)
        fast = ReducedNLP(expansion, processor, options=options).solve()
        reference = ReducedNLP(expansion, processor, options=options)
        reference._compiled = None
        monkeypatch.setattr(slsqp, "kernel", lambda: None)
        slow = reference.solve()
        assert fast.end_times() == slow.end_times()
        assert fast.wc_budgets() == slow.wc_budgets()
        assert fast.objective_value == slow.objective_value
        assert fast.metadata["solver_iterations"] == slow.metadata["solver_iterations"]
        assert fast.metadata["solver_status"] == slow.metadata["solver_status"]

    def test_cmos_processor_solves_on_reference_evaluation(self, three_task_set, cmos):
        """Without the compiled evaluation, the objective and each gradient
        column run on the reference evaluation."""
        expansion = expand_fully_preemptive(three_task_set)
        nlp = ReducedNLP(expansion, cmos, options=SolverOptions(maxiter=25))
        assert nlp._compiled is None
        schedule = nlp.solve()
        schedule.validate(cmos)
