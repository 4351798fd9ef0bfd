"""Benchmark: Figure 6(b) — the CNC and GAP real-life case studies.

The paper reports ACS-over-WCS improvements of up to ≈41 % (CNC) and ≈30 %
(GAP) at BCEC/WCEC = 0.1, falling towards zero at 0.9.  The benchmark
regenerates both series through the scenario engine (GAP restricted to its
eight highest-rate tasks to keep the NLP size laptop-friendly; set
``gap_tasks`` to 17 for the full set).
"""

from repro.scenarios import ScenarioEngine, ScenarioSpec

BENCH_DOCUMENT = {
    "kind": "comparison",
    "name": "bench-figure6b",
    "taskset": {"source": "cnc", "utilization": 0.7, "gap_tasks": 8},
    "simulation": {"hyperperiods": 10, "seed": 2005},
    "matrix": {"taskset.source": ["cnc", "gap"], "taskset.ratio": [0.1, 0.5, 0.9]},
}


def test_figure6b_cnc_and_gap(benchmark, run_once):
    result = run_once(benchmark, ScenarioEngine().run, ScenarioSpec.from_dict(BENCH_DOCUMENT))

    print()
    print("Figure 6(b): improvement of ACS over WCS (%) for the CNC and GAP applications")
    print(result.to_markdown())

    assert all(point["deadline_misses"] == 0 for point in result.points)

    for application, paper_peak in (("cnc", 41.0), ("gap", 30.0)):
        series = {ratio: result.point(source=application, ratio=ratio)["methods"]["acs"]
                  ["mean_improvement_percent"] for ratio in (0.1, 0.9)}
        # Strong improvement at high variation; same order of magnitude as the paper.
        assert series[0.1] > 10.0, f"{application}: expected a double-digit gain at ratio 0.1"
        # The gain decays as the ratio approaches 1.
        assert series[0.1] >= series[0.9] - 3.0
        print(f"{application.upper()}: measured {series[0.1]:.1f}% at ratio 0.1 "
              f"(paper ≈{paper_peak:.0f}%)")
