"""Tests for the ASCII Gantt rendering."""

import pytest

from repro.offline.wcs import WCSScheduler
from repro.reporting.gantt import render_static_schedule, render_timeline, render_trace
from repro.runtime.simulator import DVSSimulator, SimulationConfig
from repro.runtime.trace import EventTrace
from repro.workloads.distributions import FixedWorkload
from repro.core.timeline import Timeline


class TestRenderStaticSchedule:
    def test_contains_every_task_and_axis(self, two_task_set, processor):
        schedule = WCSScheduler(processor).schedule(two_task_set)
        text = render_static_schedule(schedule, width=60)
        lines = text.splitlines()
        assert "A" in text and "B" in text
        assert "|" in text  # planned end-time markers
        assert "-" in text  # slots
        assert lines[0].startswith("static schedule 'wcs'")
        # All chart rows share the same width.
        row_lengths = {len(line) for line in lines[1:-1]}
        assert len(row_lengths) == 1

    def test_width_validation(self, two_task_set, processor):
        schedule = WCSScheduler(processor).schedule(two_task_set)
        with pytest.raises(ValueError):
            render_static_schedule(schedule, width=5)


class TestRenderTimeline:
    def test_renders_trace_with_speed_glyphs(self, two_task_set, processor):
        schedule = WCSScheduler(processor).schedule(two_task_set)
        simulator = DVSSimulator(processor, config=SimulationConfig(n_hyperperiods=1, trace=True))
        result = simulator.run(schedule, FixedWorkload(mode="wcec"))
        text = render_timeline(result.trace.to_timeline(), processor, width=60)
        assert "A" in text and "B" in text
        assert any(glyph in text for glyph in "░▒▓█")

    def test_empty_timeline(self, processor):
        assert render_timeline(Timeline(), processor) == "(empty timeline)"

    def test_width_validation(self, processor):
        with pytest.raises(ValueError):
            render_timeline(Timeline(), processor, width=3)


class TestRenderTrace:
    def test_renders_from_the_event_stream(self, two_task_set, processor):
        """The chart is drawn from the typed events alone."""
        schedule = WCSScheduler(processor).schedule(two_task_set)
        simulator = DVSSimulator(processor, config=SimulationConfig(n_hyperperiods=1, trace=True))
        result = simulator.run(schedule, FixedWorkload(mode="wcec"))
        text = render_trace(result.trace, processor, width=60)
        assert "A" in text and "B" in text
        assert any(glyph in text for glyph in "░▒▓█")

    def test_empty_trace(self, processor):
        assert render_trace(EventTrace(), processor) == "(empty timeline)"

    def test_width_validation(self, processor):
        with pytest.raises(ValueError):
            render_trace(EventTrace(), processor, width=3)
