#!/usr/bin/env python3
"""Partition the CNC and GAP case studies across 4 cores and compare heuristics.

Partitioned multiprocessor DVS in three steps, all on top of the single-core
pipeline:

1. **allocate** — a `Partitioner` assigns every task to one core (here the
   worst-fit-decreasing and energy-aware heuristics, against first-fit as the
   packing extreme);
2. **plan** — `plan_multicore` runs the paper's ACS offline NLP independently
   on every core's task subset;
3. **simulate** — `MulticoreRunner` simulates every core's schedule in one
   batch and aggregates energy, utilisation and deadline misses.

The point the table makes: with a quadratic energy law, *balancing* slack
across cores (wfd/energy) beats *packing* tasks onto few cores (ffd) by a
wide margin, because every core's NLP can stretch its sub-instances further.

Run with:  python examples/multicore_partitioning.py [--quick]
"""

import argparse

from repro import (
    MulticoreProblem,
    MulticoreRunner,
    SimulationConfig,
    cnc_taskset,
    gap_taskset,
    ideal_processor,
    plan_multicore,
)
from repro.utils.tables import format_markdown_table

N_CORES = 4
PARTITIONERS = ("ffd", "wfd", "energy")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="smoke-test size (fewer hyperperiods, smaller GAP)")
    args = parser.parse_args()
    n_hyperperiods = 5 if args.quick else 50
    gap_tasks = 6 if args.quick else 8

    processor = ideal_processor(fmax=1000.0)
    applications = (
        ("cnc", cnc_taskset(processor, bcec_wcec_ratio=0.5)),
        ("gap", gap_taskset(processor, bcec_wcec_ratio=0.5, n_tasks=gap_tasks)),
    )

    rows = []
    for app_name, taskset in applications:
        for partitioner in PARTITIONERS:
            problem = MulticoreProblem(
                taskset=taskset,
                processor=processor,
                n_cores=N_CORES,
                partitioner=partitioner,
                method="acs",
            )
            plan = plan_multicore(problem)
            runner = MulticoreRunner(
                processor, policy="greedy",
                config=SimulationConfig(n_hyperperiods=n_hyperperiods),
            )
            result = runner.run(plan, seed=2005)
            used = len(plan.partition.used_cores())
            rows.append([
                app_name, partitioner, used,
                max(result.core_utilizations),
                result.mean_energy_per_hyperperiod,
                result.miss_count,
            ])

    print(f"{N_CORES}-core partitioned DVS, ACS per core, greedy reclamation, "
          f"{n_hyperperiods} hyperperiods")
    print()
    print(format_markdown_table(
        ["application", "partitioner", "used cores", "max core utilisation",
         "energy / hyperperiod", "misses"],
        rows))
    print()
    print("Balancing heuristics (wfd, energy) spread slack evenly and let every "
          "core run slower; first-fit packs tasks onto few cores and leaves the "
          "quadratic energy saving on the table.")


if __name__ == "__main__":
    main()
