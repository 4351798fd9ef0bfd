"""The process entry points freeze the collector when the CLI returns; ``repro.cli.main`` does not.

Interpreter shutdown runs full collections over every tracked object, so
``python -m repro`` and the ``repro`` script freeze them before the process
exits (``repro.__main__``).  Each process check runs in a fresh interpreter
whose atexit hook prints ``gc.get_freeze_count()`` after the entry point has
returned; a freeze in this test process would keep its heap alive.
"""

import gc
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main

ROOT = Path(__file__).resolve().parents[1]


def console_script():
    """``module:function`` of the ``repro`` script in ``pyproject.toml``."""
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    return re.search(r'^repro = "([\w.]+):(\w+)"$', text, re.MULTILINE).groups()


def run_entry_point(entry, argv):
    """Run the CLI on ``argv`` through ``entry``: exit code, freeze count at exit, stderr."""
    if entry == "python -m repro":
        launch = "import runpy\nrunpy.run_module('repro', run_name='__main__', alter_sys=True)\n"
    else:  # what the installed script runs
        module, function = console_script()
        launch = f"from {module} import {function}\nsys.exit({function}())\n"
    code = (
        "import atexit, gc, sys\n"
        "atexit.register(lambda: print('freeze-count', gc.get_freeze_count()))\n"
        f"sys.argv = ['repro', *{list(argv)!r}]\n" + launch
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300)
    label, count = proc.stdout.splitlines()[-1].split()
    assert label == "freeze-count", proc.stdout
    return proc.returncode, int(count), proc.stderr


@pytest.mark.parametrize("entry", ["python -m repro", "repro script"])
def test_entry_point_freezes_the_heap_before_exit(entry, tmp_path):
    code, frozen, stderr = run_entry_point(entry, ["store", "ls", "--store", str(tmp_path)])
    assert code == 0, stderr
    assert frozen > 0


def test_error_exit_keeps_its_code(tmp_path):
    code, frozen, stderr = run_entry_point("repro script", ["run", str(tmp_path / "missing.toml")])
    assert code == 2
    assert stderr.startswith("error:")
    assert frozen > 0


def test_cli_main_freezes_nothing(capsys, tmp_path):
    before = gc.get_freeze_count()
    assert main(["store", "ls", "--store", str(tmp_path)]) == 0
    assert "empty" in capsys.readouterr().out
    assert gc.get_freeze_count() == before
