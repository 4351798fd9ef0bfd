"""Unit tests for the telemetry collector: spans, counters, activation, pools."""

import os
import threading

import pytest

from repro.telemetry import (
    NULL_TELEMETRY,
    NullTelemetry,
    Telemetry,
    activate,
    current,
    deactivate,
    using,
)
from repro.telemetry.core import _NULL_SPAN, map_counted


class TestActivation:
    def test_default_is_the_null_singleton(self):
        assert current() is NULL_TELEMETRY
        assert not current().enabled

    def test_using_scopes_the_collector(self):
        telemetry = Telemetry()
        with using(telemetry):
            assert current() is telemetry
            assert current().enabled
        assert current() is NULL_TELEMETRY

    def test_using_restores_on_error(self):
        telemetry = Telemetry()
        with pytest.raises(RuntimeError):
            with using(telemetry):
                raise RuntimeError("boom")
        assert current() is NULL_TELEMETRY

    def test_activate_deactivate(self):
        telemetry = Telemetry()
        activate(telemetry)
        try:
            assert current() is telemetry
        finally:
            deactivate()
        assert current() is NULL_TELEMETRY


class TestNullTelemetry:
    def test_span_returns_the_shared_singleton(self):
        null = NullTelemetry()
        assert null.span("anything") is _NULL_SPAN
        assert null.span("else") is _NULL_SPAN
        with null.span("nested") as span:
            assert span is _NULL_SPAN

    def test_count_and_observe_are_inert(self):
        NULL_TELEMETRY.count("x")
        NULL_TELEMETRY.observe("y", 1.0)  # must not raise, must not record

    def test_stage_still_measures_time(self):
        with NULL_TELEMETRY.stage("work") as timer:
            pass
        assert timer.elapsed_seconds >= 0.0


class TestSpans:
    def test_parent_links_follow_nesting(self):
        telemetry = Telemetry()
        with telemetry.span("outer"):
            with telemetry.span("inner"):
                pass
            with telemetry.span("sibling"):
                pass
        with telemetry.span("second"):
            pass
        spans = {span.name: span for span in telemetry.spans}
        assert spans["outer"].parent is None
        assert spans["inner"].parent == spans["outer"].index
        assert spans["sibling"].parent == spans["outer"].index
        assert spans["second"].parent is None

    def test_snapshot_orders_spans_by_start_index(self):
        telemetry = Telemetry()
        with telemetry.span("a"):
            with telemetry.span("b"):
                pass
        names = [span["name"] for span in telemetry.snapshot()["spans"]]
        assert names == ["a", "b"]  # "b" *finishes* first but started second

    def test_stage_elapsed_is_bitwise_derivable_from_the_span(self):
        telemetry = Telemetry()
        with telemetry.stage("run") as timer:
            pass
        (span,) = telemetry.spans
        assert span.name == "run"
        assert timer.elapsed_seconds == (span.end_ns - span.start_ns) / 1e9
        assert timer.elapsed_seconds == span.elapsed_seconds

    def test_threads_keep_independent_stacks(self):
        telemetry = Telemetry()
        ready = threading.Event()
        release = threading.Event()

        def worker():
            with telemetry.span("thread-span"):
                ready.set()
                release.wait(timeout=5)

        with telemetry.span("main-span"):
            thread = threading.Thread(target=worker)
            thread.start()
            assert ready.wait(timeout=5)
            release.set()
            thread.join(timeout=5)
        spans = {span.name: span for span in telemetry.spans}
        # The worker's span must not adopt the main thread's span as parent.
        assert spans["thread-span"].parent is None
        assert spans["main-span"].parent is None


class TestCounters:
    def test_count_accumulates(self):
        telemetry = Telemetry()
        telemetry.count("hits")
        telemetry.count("hits", 2)
        telemetry.count("misses")
        assert telemetry.counters == {"hits": 3, "misses": 1}

    def test_observe_collects_values(self):
        telemetry = Telemetry()
        telemetry.observe("width", 4.0)
        telemetry.observe("width", 8.0)
        assert telemetry.observations == {"width": [4.0, 8.0]}

    def test_snapshot_sorts_counter_names(self):
        telemetry = Telemetry()
        telemetry.count("zeta")
        telemetry.count("alpha")
        assert list(telemetry.snapshot()["counters"]) == ["alpha", "zeta"]

    def test_stage_timings_aggregate_by_name(self):
        telemetry = Telemetry()
        for _ in range(3):
            with telemetry.span("wave"):
                pass
        timings = telemetry.stage_timings()
        assert timings["wave"]["count"] == 3
        assert timings["wave"]["total_seconds"] >= 0.0


def _square_in_process(value):
    """A pool task (module-level, so it pickles) that records telemetry."""
    current().count("squared")
    current().observe("value", float(value))
    return value * value, os.getpid()


class TestMapCounted:
    @pytest.mark.parametrize("n_jobs", [1, 2])
    def test_results_in_item_order_with_every_workers_telemetry(self, n_jobs):
        items = [3, 1, 4, 1, 5]
        with using(Telemetry()) as telemetry:
            results = list(map_counted(_square_in_process, items, n_jobs))
        assert [square for square, _ in results] == [9, 1, 16, 1, 25]
        pids = {pid for _, pid in results}
        if n_jobs == 1:
            assert pids == {os.getpid()}
        else:
            assert os.getpid() not in pids
        assert telemetry.counters == {"squared": 5}
        assert telemetry.observations == {"value": [3.0, 1.0, 4.0, 1.0, 5.0]}
