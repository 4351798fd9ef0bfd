"""Tests for the command-line interface."""

import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main

SCENARIOS_DIR = Path(__file__).resolve().parents[1] / "examples" / "scenarios"


class TestParser:
    def test_requires_subcommand(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args([])

    def test_usage_names_the_installed_script(self):
        assert build_parser().format_usage().startswith("usage: repro ")

    @pytest.mark.parametrize("command", ["motivation", "figure6a", "figure6b",
                                         "simulate", "trace", "sweep",
                                         "partition", "scalability"])
    def test_known_subcommands(self, command):
        args = build_parser().parse_args([command])
        assert callable(args.runner)

    def test_flags(self):
        args = build_parser().parse_args(["figure6a", "--quick", "--seed", "11"])
        assert args.quick and args.seed == 11

    def test_figure_jobs_flag(self):
        args = build_parser().parse_args(["figure6a", "--jobs", "4"])
        assert args.jobs == 4

    @pytest.mark.parametrize("command", ["figure6a", "figure6b"])
    def test_quick_and_full_are_mutually_exclusive(self, command, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args([command, "--quick", "--full"])
        assert exit_info.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err

    def test_figure_seed_sets_the_simulation_seed(self):
        args = build_parser().parse_args(["figure6b", "--quick", "--seed", "11"])
        assert args.scenario(args).simulation.seed == 11

    def test_scalability_flags_override_the_document(self):
        args = build_parser().parse_args(
            ["scalability", "--quick", "--app", "gap", "--cores", "2,4", "--hyperperiods", "3"])
        spec = args.scenario(args)
        assert spec.taskset.source == "gap" and spec.taskset.gap_tasks == 5
        assert spec.multicore.cores == (2, 4)
        assert spec.multicore.partitioners == ("ffd", "wfd")
        assert spec.simulation.hyperperiods == 3

    def test_simulate_flags(self):
        args = build_parser().parse_args(
            ["simulate", "--app", "cnc", "--method", "acs", "--policy", "all"])
        assert args.app == "cnc" and args.method == "acs" and args.policy == "all"

    def test_sweep_flags(self):
        args = build_parser().parse_args(
            ["sweep", "--jobs", "2", "--tasksets", "6", "--policy", "lookahead"])
        assert args.jobs == 2 and args.tasksets == 6 and args.policy == "lookahead"

    def test_sweep_flags_map_onto_the_document(self):
        args_list = ["--tasksets", "6", "--tasks", "5", "--ratio", "0.3", "--utilization", "0.6",
                     "--hyperperiods", "9", "--seed", "7", "--policy", "lookahead"]
        args = build_parser().parse_args(["sweep", *args_list])
        spec = args.scenario(args)
        assert spec.kind == "comparison" and spec.matrix == ()
        assert spec.taskset.source == "random" and spec.taskset.periods is None
        assert (spec.taskset.n_tasks, spec.taskset.ratio, spec.taskset.utilization) == (5, 0.3, 0.6)
        assert spec.offline.methods == ("wcs", "acs") and spec.offline.baseline == "wcs"
        assert spec.online.policy == "lookahead"
        assert (spec.simulation.repetitions, spec.simulation.hyperperiods,
                spec.simulation.seed) == (6, 9, 7)
        # --quick caps the size flags and the period pool, nothing else.
        quick = build_parser().parse_args(["sweep", "--quick", *args_list])
        spec = quick.scenario(quick)
        assert (spec.simulation.repetitions, spec.taskset.n_tasks,
                spec.simulation.hyperperiods) == (2, 3, 5)
        assert spec.taskset.periods == (10.0, 20.0, 40.0)
        assert (spec.taskset.ratio, spec.online.policy, spec.simulation.seed) == (0.3, "lookahead", 7)
        small = build_parser().parse_args(["sweep", "--quick", "--tasksets", "1", "--tasks", "2"])
        spec = small.scenario(small)
        assert (spec.simulation.repetitions, spec.taskset.n_tasks) == (1, 2)

    def test_sweep_rejects_unknown_policy(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--policy", "oracle"])

    def test_partition_flags(self):
        args = build_parser().parse_args(
            ["partition", "--cores", "4", "--partitioner", "wfd", "--app", "cnc"])
        assert args.cores == 4 and args.partitioner == "wfd" and args.app == "cnc"

    def test_partition_rejects_unknown_partitioner(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["partition", "--partitioner", "oracle"])

    def test_scalability_flags(self):
        args = build_parser().parse_args(
            ["scalability", "--cores", "1,2", "--partitioners", "wfd", "--quick"])
        assert args.cores == "1,2" and args.partitioners == "wfd" and args.quick

    def test_trace_flags(self):
        args = build_parser().parse_args(
            ["trace", "--app", "demo", "--policy", "lookahead", "--jitter", "1.5"])
        assert args.app == "demo" and args.policy == "lookahead"
        assert args.jitter == 1.5 and args.hyperperiods == 2

    def test_trace_rejects_unknown_policy(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["trace", "--policy", "oracle"])


class TestMain:
    def test_motivation_runs(self, capsys):
        assert main(["motivation"]) == 0
        output = capsys.readouterr().out
        assert "average-case improvement" in output
        assert "Fig. 2" in output

    def test_figure6b_quick_runs(self, capsys):
        assert main(["figure6b", "--quick"]) == 0
        output = capsys.readouterr().out
        assert "| cnc" in output and "| gap" in output
        assert "wall-clock" in output

    def test_simulate_demo_all_policies(self, capsys):
        assert main(["simulate", "--app", "demo", "--policy", "all",
                     "--hyperperiods", "5"]) == 0
        output = capsys.readouterr().out
        for policy in ("static", "greedy", "lookahead", "proportional"):
            assert policy in output
        assert "saving vs static %" in output

    def test_trace_prints_events_and_saves_json(self, capsys, tmp_path):
        target = tmp_path / "events.json"
        assert main(["trace", "--app", "demo", "--jitter", "1.5",
                     "--output", str(target)]) == 0
        output = capsys.readouterr().out
        assert "arrivals=sporadic(max_jitter=1.5)" in output
        assert "execution trace" in output  # the Gantt chart header
        for kind in ("JobRelease", "SegmentStart", "SegmentEnd", "HyperperiodReset"):
            assert kind in output
        import json

        from repro.runtime.trace import EventTrace

        rows = json.loads(target.read_text())["events"]
        trace = EventTrace.from_dicts(rows)  # strict: kinds and fields validate
        assert len(trace) > 0
        assert f"{len(trace)} events" in output

    def test_trace_periodic_has_no_jitter_label(self, capsys):
        assert main(["trace", "--hyperperiods", "1"]) == 0
        output = capsys.readouterr().out
        assert "arrivals=periodic" in output

    @pytest.mark.parametrize("argv", [
        ["simulate", "--app", "demo", "--policy", "oracle"],
        ["simulate", "--app", "demo", "--policy", ""],
        ["sweep", "--quick", "--jobs", "0"],
        ["figure6a", "--quick", "--jobs", "0"],
        ["sweep", "--quick", "--tasksets", "0"],
        ["sweep", "--quick", "--tasksets", "-1"],
        ["trace", "--app", "demo", "--width", "19"],
    ])
    def test_bad_arguments_fail_cleanly(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")

    def test_stats_on_an_empty_store_names_repro_run(self, capsys, tmp_path):
        assert main(["stats", str(tmp_path / "store")]) == 0
        assert "run `repro run ... --store` first" in capsys.readouterr().out

    def test_partition_runs_and_serializes(self, capsys, tmp_path):
        target = tmp_path / "multicore.json"
        assert main(["partition", "--cores", "4", "--partitioner", "wfd",
                     "--app", "demo", "--hyperperiods", "3",
                     "--output", str(target)]) == 0
        output = capsys.readouterr().out
        assert "partitioner=wfd" in output
        assert "mean energy per global hyperperiod" in output
        import json
        data = json.loads(target.read_text())
        assert data["n_cores"] == 4
        assert data["partitioner"] == "wfd"
        assert data["total_energy"] > 0
        assert len(data["cores"]) == 4
        assert sorted(data["assignment"]) == ["camera", "logger", "planner"]

    def test_scalability_quick_runs(self, capsys, tmp_path):
        target = tmp_path / "scalability.json"
        assert main(["scalability", "--quick", "--partitioners", "ffd,wfd",
                     "--output", str(target)]) == 0
        output = capsys.readouterr().out
        assert "improvement vs m=1 %" in output
        assert "wall-clock" in output
        import json
        data = json.loads(target.read_text())
        assert data["scenario"]["multicore"] == {"cores": [1, 2], "partitioners": ["ffd", "wfd"]}
        assert len(data["points"]) == 4

    @pytest.mark.parametrize("argv", [
        ["partition", "--cores", "0"],
        ["scalability", "--cores", "two"],
        ["scalability", "--cores", ""],
        ["scalability", "--partitioners", "oracle"],
    ])
    def test_partition_bad_arguments_fail_cleanly(self, argv, capsys):
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_sweep_quick_runs_and_saves_json(self, capsys, tmp_path):
        target = tmp_path / "sweep.json"
        assert main(["sweep", "--quick", "--output", str(target)]) == 0
        output = capsys.readouterr().out
        assert "| wcs energy | acs energy | acs improvement % | misses |" in output
        assert "wall-clock" in output
        import json
        data = json.loads(target.read_text())
        assert data["scenario"]["online"]["policy"] == "greedy"
        assert data["points"][0]["jobs"] == data["scenario"]["simulation"]["repetitions"] == 2


@pytest.mark.skipif(sys.version_info < (3, 11), reason="TOML scenario files need tomllib")
class TestPaperDocuments:
    """Each figure subcommand runs exactly its committed scenario spec."""

    @pytest.mark.parametrize(("argv", "name", "profile"), [
        (["figure6a"], "figure6a", None),
        (["figure6a", "--quick"], "figure6a", "smoke"),
        (["figure6a", "--full"], "figure6a", "full"),
        (["figure6b"], "figure6b", None),
        (["figure6b", "--quick"], "figure6b", "smoke"),
        (["figure6b", "--full"], "figure6b", "full"),
        (["scalability"], "scalability", None),
        (["scalability", "--quick"], "scalability", "smoke"),
    ])
    def test_document_matches_the_committed_spec(self, argv, name, profile):
        from repro.scenarios import load_scenario

        args = build_parser().parse_args(argv)
        committed = load_scenario(SCENARIOS_DIR / f"{name}.toml", profile=profile)
        assert args.scenario(args).to_dict() == committed.to_dict()
