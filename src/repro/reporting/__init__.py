"""Reporting helpers: ASCII Gantt charts and JSON serialisation."""

from .gantt import render_static_schedule, render_timeline, render_trace
from .serialization import (
    comparison_result_to_dict,
    load_json,
    trace_from_dicts,
    trace_to_dicts,
    multicore_plan_to_dict,
    multicore_result_to_dict,
    partition_to_dict,
    save_json,
    schedule_from_dict,
    schedule_to_dict,
    simulation_result_to_dict,
    taskset_from_dict,
    taskset_to_dict,
)

__all__ = [
    "render_static_schedule",
    "render_timeline",
    "render_trace",
    "trace_to_dicts",
    "trace_from_dicts",
    "taskset_to_dict",
    "taskset_from_dict",
    "schedule_to_dict",
    "schedule_from_dict",
    "simulation_result_to_dict",
    "comparison_result_to_dict",
    "partition_to_dict",
    "multicore_plan_to_dict",
    "multicore_result_to_dict",
    "save_json",
    "load_json",
]
