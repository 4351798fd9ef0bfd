"""Smoke tests for the example scripts.

Every script must at least be syntactically valid, and every script that
finishes in seconds is *executed* (in its ``--quick`` mode where it has one)
in a fresh interpreter, the way a user would run it, from a temporary
working directory so that files an example writes stay out of the repository.
``random_taskset_sweep.py`` is only compiled: even its ``--quick`` sweep plans
for tens of seconds.
"""

import os
import subprocess
import sys

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXAMPLES_DIR = os.path.join(REPO_ROOT, "examples")


def example_scripts():
    return sorted(name for name in os.listdir(EXAMPLES_DIR) if name.endswith(".py"))


def test_examples_directory_is_populated():
    assert "multicore_partitioning.py" in example_scripts()


@pytest.mark.parametrize("script", example_scripts())
def test_example_compiles(script):
    path = os.path.join(EXAMPLES_DIR, script)
    with open(path) as handle:
        compile(handle.read(), path, "exec")


def _run_example(script, *args, cwd):
    environment = dict(os.environ)
    src = os.path.join(REPO_ROOT, "src")
    environment["PYTHONPATH"] = src + os.pathsep + environment.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, os.path.join(EXAMPLES_DIR, script), *args],
        capture_output=True, text=True, env=environment, cwd=cwd,
        timeout=300,
    )


#: (script, arguments, a line fragment of its output, files it writes).
EXAMPLE_RUNS = [
    ("quickstart.py", (), "energy reduction of ACS over WCS", ()),
    ("motivational_example.py", (), "ACS end-times (Fig. 2)", ()),
    ("slack_policy_comparison.py", (), "deadline misses", ()),
    ("cnc_case_study.py", (), "improvement %", ()),
    ("gap_avionics_case_study.py", ("--quick",), "execution trace",
     ("gap_acs_schedule.json",)),
]


@pytest.mark.parametrize("script,args,expected,written", EXAMPLE_RUNS,
                         ids=[run[0] for run in EXAMPLE_RUNS])
def test_example_runs(script, args, expected, written, tmp_path):
    completed = _run_example(script, *args, cwd=tmp_path)
    assert completed.returncode == 0, completed.stderr
    assert expected in completed.stdout
    assert sorted(path.name for path in tmp_path.iterdir()) == list(written)


def test_multicore_partitioning_example_runs_quick(tmp_path):
    completed = _run_example("multicore_partitioning.py", "--quick", cwd=tmp_path)
    assert completed.returncode == 0, completed.stderr
    output = completed.stdout
    for expected in ("cnc", "gap", "ffd", "wfd", "energy", "partitioner"):
        assert expected in output
    # The example's headline claim: balancing beats packing on both apps.
    assert "4-core partitioned DVS" in output
