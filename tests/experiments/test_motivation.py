"""Tests for the motivational example (Table 1 / Figures 1-2)."""

import pytest

from repro.experiments.motivation import (
    MotivationConfig,
    motivation_taskset,
    run_motivation,
)
from repro.offline.acs import ACSScheduler
from repro.offline.evaluation import average_case_energy, worst_case_energy
from repro.offline.nlp import ReducedNLP
from repro.offline.wcs import WCSScheduler


class TestMotivationTaskset:
    def test_three_equal_tasks_in_a_frame(self):
        taskset = motivation_taskset()
        assert len(taskset) == 3
        for task in taskset:
            assert task.period == pytest.approx(20.0)
            assert task.deadline == pytest.approx(20.0)


class TestRunMotivation:
    @pytest.fixture(scope="class")
    def result(self):
        return run_motivation()

    def test_wcs_end_times_match_figure1(self, result):
        """The WCEC-optimal schedule splits the 20 ms frame evenly: ends at 6.7/13.3/20 ms."""
        assert result.wcs_end_times == pytest.approx([20 / 3, 40 / 3, 20.0], rel=1e-2)

    def test_acs_extends_early_end_times(self, result):
        """ACS pushes the early tasks' end-times later than WCS to leave room for slack reuse."""
        assert result.acs_end_times[0] > result.wcs_end_times[0] + 0.5
        assert result.acs_end_times[-1] == pytest.approx(20.0, rel=1e-2)

    def test_acs_end_times_match_figure2(self, result):
        """With the reconstructed parameters the ACS end-times land on the paper's 10/15/20 ms."""
        assert result.acs_end_times == pytest.approx([10.0, 15.0, 20.0], abs=0.3)

    def test_worst_case_penalty_matches_paper(self, result):
        """The paper reports a ≈33 % worst-case penalty for the Figure 2 end-times."""
        assert result.penalty_worst_case_percent == pytest.approx(33.3, abs=5.0)

    def test_average_case_improvement_positive(self, result):
        """Figure 2 vs Figure 1(b): the paper reports ≈24 %; require a double-digit improvement."""
        assert result.improvement_average_case_percent > 10.0

    def test_worst_case_penalty_nonnegative(self, result):
        """The paper reports a ≈33 % worst-case penalty; the sign of the trade-off must hold."""
        assert result.penalty_worst_case_percent >= -1e-6

    def test_energy_ordering(self, result):
        assert result.acs_average_case_energy < result.wcs_average_case_energy
        assert result.wcs_average_case_energy < result.wcs_worst_case_energy
        assert result.acs_worst_case_energy >= result.wcs_worst_case_energy - 1e-6

    def test_markdown_table_renders(self, result):
        text = result.to_markdown()
        assert "Fig. 1(a)" in text and "Fig. 2" in text

    def test_custom_config(self):
        config = MotivationConfig(wcec=4000.0, acec=1600.0, bcec=800.0)
        result = run_motivation(config)
        assert result.improvement_average_case_percent > 0.0

    def test_wcs_is_solved_once(self, monkeypatch):
        """ACS's WCS warm start replays the WCS solve: a cold run makes 3
        solves where planning WCS and ACS apart makes 4, and returns their
        end-times and energies bit for bit."""
        processor = MotivationConfig().resolved_processor()
        solves = []
        solve = ReducedNLP.solve

        def counted(nlp, x0=None):
            solves.append(nlp.workload_mode)
            return solve(nlp, x0)

        monkeypatch.setattr(ReducedNLP, "solve", counted)
        wcs = WCSScheduler(processor).schedule(motivation_taskset())
        acs = ACSScheduler(processor).schedule(motivation_taskset())
        assert solves == ["wcec", "acec", "wcec", "acec"]
        solves.clear()
        result = run_motivation()
        assert solves == ["wcec", "acec", "acec"]
        assert result.wcs_end_times == wcs.end_times()
        assert result.acs_end_times == acs.end_times()
        assert result.wcs_worst_case_energy == worst_case_energy(wcs, processor)
        assert result.wcs_average_case_energy == average_case_energy(wcs, processor)
        assert result.acs_average_case_energy == average_case_energy(acs, processor)
        assert result.acs_worst_case_energy == worst_case_energy(acs, processor)
