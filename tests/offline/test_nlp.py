"""Tests for the reduced NLP assembly (variable packing, constraints, repair)."""

import hashlib
import inspect

import numpy as np
import pytest

from repro.analysis.preemption import expand_fully_preemptive
from repro.core.errors import SchedulingError
from repro.offline.evaluation import evaluate_vectors
from repro.offline.initialization import proportional_budget_vectors, worst_case_simulation_vectors
from repro.offline.nlp import ReducedNLP, SolverOptions
from repro.offline.schedule import StaticSchedule
from repro.scenarios.store import STORE_FORMAT


def test_store_format_follows_the_functions_that_define_the_nlp():
    """Every solve-memo key carries ``STORE_FORMAT``, so a change to the NLP
    must bump it, or stored solves of the old NLP would be replayed as
    answers to the new one.  These functions build the NLP (its variables,
    bounds, rows and objective), start, run and repair the solve, and choose
    the fallback; a change to any of them fails here until the hash is
    re-pinned, and the format bumped with it if solves can change.  The
    compiled evaluation and :meth:`ReducedNLP.jacobian` are held bitwise to
    the reference objective and to scipy's differences by their own tests."""
    defining = [ReducedNLP.__post_init__, ReducedNLP._build_actual_cycles,
                ReducedNLP.pack, ReducedNLP.unpack, ReducedNLP.objective,
                ReducedNLP.objective_reference, ReducedNLP.bounds,
                ReducedNLP.linear_constraints, ReducedNLP.initial_guess,
                ReducedNLP.fallback_vectors, ReducedNLP.solve, ReducedNLP._repair,
                StaticSchedule.validate, evaluate_vectors, proportional_budget_vectors,
                worst_case_simulation_vectors]
    source = "".join(inspect.getsource(function) for function in defining)
    digest = hashlib.sha256(source.encode("utf-8")).hexdigest()
    pinned = (4, "7ce93954418ac2c8bc33e0a760028e662b2da3a80cc3c7b21a907a9136c3ed11")
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
        expansion = expand_fully_preemptive(two_task_set)
        nlp = ReducedNLP(expansion, processor)
        bounds = nlp.bounds()
        for index, sub in enumerate(expansion.sub_instances):
            assert bounds[index] == (sub.slot_start, sub.slot_end)

    def test_feasible_point_satisfies_constraints(self, two_task_set, processor):
        from repro.offline.initialization import worst_case_simulation_vectors
        expansion = expand_fully_preemptive(two_task_set)
        nlp = ReducedNLP(expansion, processor, options=SolverOptions(chain_margin_fraction=0.0))
        end_times, budgets = worst_case_simulation_vectors(expansion, processor)
        x = nlp.pack(end_times, budgets)
        for constraint in nlp.linear_constraints():
            values = np.asarray(constraint["fun"](x))
            if constraint["type"] == "ineq":
                assert (values >= -1e-6).all()
            else:
                assert np.abs(values).max() < 1e-6

    def test_constraint_jacobians_match_functions(self, two_task_set, processor):
        expansion = expand_fully_preemptive(two_task_set)
        nlp = ReducedNLP(expansion, processor)
        rng = np.random.default_rng(0)
        x = rng.uniform(1.0, 10.0, size=nlp.n_variables)
        for constraint in nlp.linear_constraints():
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


class TestVectorizedJacobian:
    """The batched gradient must replay scipy's finite differences bitwise."""

    @staticmethod
    def _bounds_arrays(nlp):
        bounds = nlp.bounds()
        return (np.array([low for low, _ in bounds]),
                np.array([high for _, high in bounds]))

    def test_objective_dispatch_bitwise(self, three_task_set, processor):
        expansion = expand_fully_preemptive(three_task_set)
        nlp = ReducedNLP(expansion, processor)
        lower, upper = self._bounds_arrays(nlp)
        rng = np.random.default_rng(5)
        for _ in range(20):
            x = lower + rng.uniform(0.0, 1.0, len(lower)) * (upper - lower)
            assert nlp.objective(x) == nlp.objective_reference(x)

    def test_jacobian_matches_scipy_bitwise(self, three_task_set, processor):
        from scipy.optimize._numdiff import approx_derivative

        expansion = expand_fully_preemptive(three_task_set)
        nlp = ReducedNLP(expansion, processor)
        lower, upper = self._bounds_arrays(nlp)
        rng = np.random.default_rng(6)
        points = [lower + rng.uniform(0.0, 1.0, len(lower)) * (upper - lower)
                  for _ in range(10)]
        points.append(lower.copy())   # on the lower bounds: backward steps
        points.append(upper.copy())   # on the upper bounds: sign flips
        for x in points:
            expected = approx_derivative(
                nlp.objective_reference, x, method="2-point",
                abs_step=nlp.options.finite_difference_step,
                bounds=(lower, upper),
            )
            assert np.array_equal(nlp.jacobian(x), expected)

    def test_scenario_weighted_jacobian_matches_scipy_bitwise(self, three_task_set, processor):
        from scipy.optimize._numdiff import approx_derivative

        from repro.offline.stochastic import sample_scenarios
        from repro.workloads.distributions import NormalWorkload

        expansion = expand_fully_preemptive(three_task_set)
        scenarios = sample_scenarios(expansion, NormalWorkload(), 6, seed=7)
        nlp = ReducedNLP(expansion, processor, scenarios=scenarios)
        lower, upper = self._bounds_arrays(nlp)
        rng = np.random.default_rng(8)
        points = [lower + rng.uniform(0.0, 1.0, len(lower)) * (upper - lower)
                  for _ in range(6)]
        points += [lower.copy(), upper.copy()]
        for x in points:
            expected = approx_derivative(
                nlp.objective_reference, x, method="2-point",
                abs_step=nlp.options.finite_difference_step,
                bounds=(lower, upper),
            )
            assert np.array_equal(nlp.jacobian(x), expected)

    def test_solve_identical_with_and_without_jacobian(self, three_task_set, processor):
        """The column-walk jacobian against scipy's own differences of the
        reference objective (the compiled evaluation switched off)."""
        expansion = expand_fully_preemptive(three_task_set)
        options = SolverOptions(maxiter=60)
        fast = ReducedNLP(expansion, processor, options=options).solve()
        reference = ReducedNLP(expansion, processor, options=options)
        reference._compiled = None
        slow = reference.solve()
        assert fast.end_times() == slow.end_times()
        assert fast.wc_budgets() == slow.wc_budgets()
        assert fast.objective_value == slow.objective_value
        assert fast.metadata["solver_iterations"] == slow.metadata["solver_iterations"]
        assert fast.metadata["solver_status"] == slow.metadata["solver_status"]

    def test_cmos_processor_falls_back_to_scipy(self, three_task_set, cmos):
        expansion = expand_fully_preemptive(three_task_set)
        nlp = ReducedNLP(expansion, cmos, options=SolverOptions(maxiter=25))
        assert nlp._compiled is None
        schedule = nlp.solve()
        schedule.validate(cmos)
