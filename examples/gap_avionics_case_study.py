#!/usr/bin/env python3
"""Case study: the Generic Avionics Platform (Figure 6(b), GAP series) with schedule visualisation.

Schedules the GAP avionics task set with ACS and WCS, prints an ASCII Gantt
chart of the ACS static schedule and of one simulated hyperperiod (so the
preemptions and the reclaimed slack are visible), and reports the runtime
energy improvement.  Also demonstrates saving the deployable schedule to JSON.

Run with:  python examples/gap_avionics_case_study.py [--quick]
"""

import argparse

import numpy as np

from repro import (
    ACSScheduler,
    DVSSimulator,
    NormalWorkload,
    SimulationConfig,
    WCSScheduler,
    ideal_processor,
    improvement_percent,
)
from repro.reporting import render_static_schedule, render_trace, save_json, schedule_to_dict
from repro.workloads.gap import gap_taskset


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="smoke-test size (4-task GAP slice, fewer hyperperiods)")
    args = parser.parse_args()
    n_hyperperiods = 5 if args.quick else 50
    # The eight highest-rate GAP tasks keep the example fast; drop n_tasks for the full set.
    gap_tasks = 4 if args.quick else 8

    processor = ideal_processor()
    taskset = gap_taskset(processor, target_utilization=0.7, bcec_wcec_ratio=0.1,
                          n_tasks=gap_tasks)
    print(taskset.describe())
    print()

    acs = ACSScheduler(processor).schedule(taskset)
    wcs = WCSScheduler(processor).schedule(taskset)

    print(render_static_schedule(acs, width=100))
    print()

    simulator = DVSSimulator(processor, config=SimulationConfig(n_hyperperiods=1, seed=3,
                                                                trace=True))
    result = simulator.run(acs, NormalWorkload(), np.random.default_rng(3))
    print(render_trace(result.trace, processor, width=100))
    print()

    comparison = DVSSimulator(processor, config=SimulationConfig(n_hyperperiods=n_hyperperiods))
    acs_energy = comparison.run(acs, NormalWorkload(), np.random.default_rng(1)).mean_energy_per_hyperperiod
    wcs_energy = comparison.run(wcs, NormalWorkload(), np.random.default_rng(1)).mean_energy_per_hyperperiod
    print(f"WCS energy per hyperperiod: {wcs_energy:,.0f}")
    print(f"ACS energy per hyperperiod: {acs_energy:,.0f}")
    print(f"improvement: {improvement_percent(wcs_energy, acs_energy):.1f}%  (paper, full GAP set: ≈30% at ratio 0.1)")

    path = save_json(schedule_to_dict(acs), "gap_acs_schedule.json")
    print(f"deployable static schedule written to {path}")


if __name__ == "__main__":
    main()
