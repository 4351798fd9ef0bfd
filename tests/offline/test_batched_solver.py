"""Memoized offline planning: bitwise equivalence and the solve memo.

``plan_expansions`` plans many schedulers' groups through one content-addressed
solve memo.  Its whole value rests on a hard promise: every
:class:`StaticSchedule` it returns is *bitwise identical* to the one the
scheduler's own unmemoized ``schedule_expansion`` produces — same end times,
same budgets, same objective value, float for float.  These tests hold it to
that promise across every registered scheduler (including the x0-seeded
ACS solve), across task sets, and through the memo (warm replays must
recompute nothing and still hand out fresh, independently mutable schedule
objects).  The memo's keys are pinned, so a refactor cannot silently orphan
an on-disk memo.
"""

import numpy as np
import pytest

from repro.analysis.preemption import expand_fully_preemptive
from repro.core.task import Task
from repro.core.taskset import TaskSet
from repro.offline import SolveMemo, plan_expansions, solve_nlp
from repro.offline.batched_solver import plan_key, solve_signature
from repro.offline.acs import ACSScheduler
from repro.offline.baselines import ConstantSpeedScheduler, MaxSpeedScheduler
from repro.offline.nlp import ReducedNLP, SolverOptions
from repro.offline.wcs import WCSScheduler
from repro.scenarios.store import signature_key
from repro.workloads.cnc import cnc_taskset


def assert_schedules_identical(left, right):
    """Bitwise equality of everything a schedule reports."""
    assert left.method == right.method
    assert left.end_times() == right.end_times()
    assert left.wc_budgets() == right.wc_budgets()
    assert left.objective_value == right.objective_value
    assert left.metadata == right.metadata


def all_schedulers(processor):
    return {
        "wcs": WCSScheduler(processor),
        "acs": ACSScheduler(processor),
        "max_speed": MaxSpeedScheduler(processor),
        "constant_speed": ConstantSpeedScheduler(processor),
    }


class TestBitwiseEquivalence:
    def test_batched_planning_matches_sequential_solves(self, processor,
                                                        three_task_set):
        """Every scheduler, memoized plan vs unmemoized solves: bitwise equal."""
        methods = all_schedulers(processor)
        expansion = expand_fully_preemptive(three_task_set)
        sequential = {name: scheduler.schedule_expansion(expansion)
                      for name, scheduler in methods.items()}
        (batched,) = plan_expansions([(expansion, methods)], memo=SolveMemo())
        assert set(batched) == set(sequential)
        for name in sequential:
            assert_schedules_identical(batched[name], sequential[name])

    def test_cross_problem_batch_matches_per_problem_plans(self, processor,
                                                           two_task_set,
                                                           three_task_set):
        """Two task sets planned through one memo, bitwise equal."""
        items = [
            (expand_fully_preemptive(two_task_set), all_schedulers(processor)),
            (expand_fully_preemptive(three_task_set), all_schedulers(processor)),
        ]
        batched = plan_expansions(items, memo=SolveMemo())
        for (expansion, methods), group in zip(items, batched):
            for name, scheduler in methods.items():
                assert_schedules_identical(group[name],
                                           scheduler.schedule_expansion(expansion))

    def test_seeded_acs_wave_structure(self, processor, two_task_set):
        """ACS's x0-seeded re-solve survives memoized planning bitwise."""
        expansion = expand_fully_preemptive(two_task_set)
        scheduler = ACSScheduler(processor)
        (batched,) = plan_expansions(
            [(expansion, {"acs": scheduler})], memo=SolveMemo())
        assert_schedules_identical(batched["acs"],
                                   scheduler.schedule_expansion(expansion))

    def test_cmos_law_takes_the_sequential_fallback(self, cmos, two_task_set):
        """Non-linear processors solve through the reference objective; the
        memoized plan must still return the bitwise-identical schedule."""
        expansion = expand_fully_preemptive(two_task_set)
        methods = {"wcs": WCSScheduler(cmos), "acs": ACSScheduler(cmos)}
        (batched,) = plan_expansions([(expansion, methods)], memo=SolveMemo())
        for name, scheduler in methods.items():
            assert_schedules_identical(batched[name],
                                       scheduler.schedule_expansion(expansion))


class TestSolveMemo:
    def test_warm_replan_computes_nothing(self, processor, three_task_set):
        memo = SolveMemo()
        expansion = expand_fully_preemptive(three_task_set)
        methods = all_schedulers(processor)
        (cold,) = plan_expansions([(expansion, methods)], memo=memo)
        computed_cold = memo.computed
        assert computed_cold > 0
        (warm,) = plan_expansions([(expansion, methods)], memo=memo)
        assert memo.computed == computed_cold  # zero new solves
        for name in cold:
            assert_schedules_identical(warm[name], cold[name])

    def test_identical_solves_within_one_wave_are_deduplicated(
            self, processor, two_task_set):
        """WCS's wcec NLP appears once per scheduler that seeds from it, but
        is solved once."""
        memo = SolveMemo()
        expansion = expand_fully_preemptive(two_task_set)
        methods = {"wcs": WCSScheduler(processor), "acs": ACSScheduler(processor)}
        plan_expansions([(expansion, methods)], memo=memo)
        # wcs + (acs plain, acs wcs seed, acs seeded) = 4 solves, but the two
        # wcec solves coincide -> 3 computed, the second one a memo hit.
        assert memo.computed == 3
        assert memo.hits == 1

    def test_replayed_schedules_are_independently_mutable(self, processor,
                                                          two_task_set):
        """Memo replays hand out fresh objects: a caller that mutates one
        result (its ``method``, say) must not corrupt the memo."""
        memo = SolveMemo()
        expansion = expand_fully_preemptive(two_task_set)
        nlp = ReducedNLP(expansion, processor, workload_mode="wcec")
        first = solve_nlp(nlp, memo=memo)
        first.method = "mutated"
        nlp2 = ReducedNLP(expansion, processor, workload_mode="wcec")
        second = solve_nlp(nlp2, memo=memo)
        assert memo.hits == 1
        assert second is not first
        assert second.method != "mutated"

    def test_persistent_memo_survives_a_fresh_process_view(self, processor,
                                                           two_task_set,
                                                           tmp_path):
        """A store-backed memo warms re-runs that never shared memory."""
        from repro.scenarios.store import ResultStore

        expansion = expand_fully_preemptive(two_task_set)
        methods = {"wcs": WCSScheduler(processor), "acs": ACSScheduler(processor)}
        cold_memo = SolveMemo(ResultStore(tmp_path / "memo"))
        (cold,) = plan_expansions([(expansion, methods)], memo=cold_memo)
        assert cold_memo.computed > 0
        # A brand-new memo over the same directory (what a resumed sweep or
        # another worker process sees) replays every solve from disk.
        warm_memo = SolveMemo(ResultStore(tmp_path / "memo"))
        (warm,) = plan_expansions([(expansion, methods)], memo=warm_memo)
        assert warm_memo.computed == 0
        for name in cold:
            assert_schedules_identical(warm[name], cold[name])

    def test_different_processors_never_collide(self, processor, cmos,
                                                two_task_set):
        """The memo key covers the processor: a cmos solve can't serve an
        ideal-processor lookup."""
        memo = SolveMemo()
        expansion = expand_fully_preemptive(two_task_set)
        plan_expansions([(expansion, {"wcs": WCSScheduler(processor)})], memo=memo)
        first = memo.computed
        plan_expansions([(expansion, {"wcs": WCSScheduler(cmos)})], memo=memo)
        assert memo.computed > first

    def test_solver_build_is_part_of_the_key(self, processor, two_task_set,
                                             monkeypatch):
        """A solve memoized under one scipy build is never replayed under another."""
        import scipy

        from repro.scenarios.store import signature_key

        nlp = ReducedNLP(expand_fully_preemptive(two_task_set), processor)
        here = signature_key(solve_signature(nlp))
        monkeypatch.setattr(scipy, "__version__", scipy.__version__ + ".other")
        assert signature_key(solve_signature(nlp)) != here

    @pytest.mark.parametrize("mode, x0, key", [
        ("wcec", None, "aa7573a605388b13a07ef5c911e31c6f8f20c8c319ef247361b61121e35006ca"),
        ("acec", None, "39575b75babf383528c27c76db6696da62a36b16ecbb2b711ae382838992d643"),
        ("acec", [4.0, 9.0, 14.0, 19.0, 2000.0, 6000.0],
         "ba16744044615366f7f9d856a2929c64f0dadda2ebfd6e73963e323318be2b17"),
    ], ids=["wcs", "acs", "acs-x0"])
    def test_memo_keys_are_pinned(self, processor, two_task_set, monkeypatch,
                                  mode, x0, key):
        """The keys of an on-disk ``solve-memo/`` never move under a refactor.

        The solver build is pinned to fixed strings, so the hex values hold
        on every numpy/scipy release.
        """
        import scipy

        from repro.scenarios.store import signature_key

        monkeypatch.setattr(np, "__version__", "0.0-pinned")
        monkeypatch.setattr(scipy, "__version__", "0.0-pinned")
        nlp = ReducedNLP(expand_fully_preemptive(two_task_set), processor, workload_mode=mode)
        start = None if x0 is None else np.array(x0)
        assert signature_key(solve_signature(nlp, start)) == key


def solve_key(taskset, processor, mode="wcec", **nlp_options):
    nlp = ReducedNLP(expand_fully_preemptive(taskset), processor, workload_mode=mode, **nlp_options)
    return signature_key(solve_signature(nlp))


def tasks_with(**changes):
    """The ``two_task_set`` fixture's tasks, with ``changes`` applied to task A."""
    a = {"name": "A", "period": 10, "wcec": 3000, "acec": 1500, "bcec": 600, **changes}
    return TaskSet([Task(**a), Task("B", period=20, wcec=8000, acec=4400, bcec=800)],
                   name="two-tasks")


class TestSolveKey:
    """The NLP never reads BCEC, and reads ACEC only in its objective, so a
    solve is keyed without them where they are not read; every other input
    it reads moves the key."""

    def test_wcs_key_ignores_acec_and_bcec_while_acs_key_moves_with_acec(self, processor):
        base = tasks_with()
        other_cycles = tasks_with(acec=2500, bcec=2000)
        assert solve_key(other_cycles, processor) == solve_key(base, processor)
        assert solve_key(tasks_with(bcec=1200), processor, "acec") == solve_key(base, processor, "acec")
        assert solve_key(other_cycles, processor, "acec") != solve_key(base, processor, "acec")
        assert solve_key(base, processor, "acec") != solve_key(base, processor)

    def test_wcec_ceff_and_the_store_format_move_the_key(self, processor, monkeypatch):
        from repro.scenarios import store

        base = solve_key(tasks_with(), processor)
        assert solve_key(tasks_with(wcec=3500), processor) != base
        assert solve_key(tasks_with(ceff=2.0), processor) != base
        monkeypatch.setattr(store, "STORE_FORMAT", store.STORE_FORMAT + 1)
        assert solve_key(tasks_with(), processor) != base

    def test_cnc_wcs_solve_at_ratio_0_9_replays_the_ratio_0_1_record(self, processor):
        """Figure 6(b) solves each WCS problem once across BCEC/WCEC ratios."""

        def wcs_nlp(ratio):
            taskset = cnc_taskset(processor, bcec_wcec_ratio=ratio)
            return ReducedNLP(expand_fully_preemptive(taskset), processor, workload_mode="wcec")

        memo = SolveMemo()
        solve_nlp(wcs_nlp(0.1), memo=memo)
        replayed = solve_nlp(wcs_nlp(0.9), memo=memo)
        assert (memo.computed, memo.hits) == (1, 1)
        fresh = wcs_nlp(0.9).solve()
        assert_schedules_identical(replayed, fresh)
        # The hit is rebuilt against the asking expansion: its ACEC fills the average budgets.
        assert [e.avg_budget for e in replayed.entries] == [e.avg_budget for e in fresh.entries]


class TestPlanKey:
    """``plan_key`` decides which comparisons of a chunk share one plan: equal
    planning inputs share a key, and every input that can change a schedule
    is part of it."""

    def test_equal_inputs_built_apart_share_a_key(self, processor, two_task_set):
        key = plan_key(two_task_set, processor, all_schedulers(processor))
        assert key is not None
        assert plan_key(two_task_set, processor, all_schedulers(processor)) == key

    def test_every_planning_input_is_part_of_the_key(self, processor, cmos, two_task_set,
                                                     three_task_set):
        def pair(acs):
            return {"wcs": WCSScheduler(processor), "acs": acs}

        base = (two_task_set, processor, pair(ACSScheduler(processor)))
        variants = [
            (three_task_set, processor, pair(ACSScheduler(processor))),
            (two_task_set, cmos, pair(ACSScheduler(processor))),
            (two_task_set, processor, pair(ACSScheduler(cmos))),
            (two_task_set, processor,
             pair(ACSScheduler(processor, options=SolverOptions(maxiter=50)))),
            (two_task_set, processor, {"wcs": WCSScheduler(processor)}),
            (two_task_set, processor, {"acs": ACSScheduler(processor),
                                       "wcs": WCSScheduler(processor)}),
            (two_task_set, processor, {"wcs": WCSScheduler(processor),
                                       "acs2": ACSScheduler(processor)}),
        ]
        keys = [plan_key(*base)] + [plan_key(*variant) for variant in variants]
        assert None not in keys
        assert len(set(keys)) == len(keys)

    def test_a_setting_without_canonical_form_is_never_shared(self, processor,
                                                              two_task_set):
        scheduler = WCSScheduler(processor)
        scheduler.weights = np.ones(3)  # instance state with no JSON form
        assert plan_key(two_task_set, processor, {"wcs": scheduler}) is None
