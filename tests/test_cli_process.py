"""The command-line process: what it loads and how it is entered.

A command imports only the modules it runs, the process entry point run()
freezes the import-time objects before main() starts, and main() called in
a process leaves the collector as it found it. Each check runs in a fresh
interpreter on the package in this checkout, so nothing this test session
imported counts.
"""

import ast
import json
import math
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from shotr import cli

from .conftest import write_csv

ROOT = Path(__file__).resolve().parents[1]
CLI_SOURCE = ROOT / "src" / "shotr" / "cli.py"
FILE_COMMANDS = ("reconstruct", "kinematics", "length", "summary")

# `python -m shotr.cli ARGS`, run by runpy as -m runs it, after hooks that
# record the freeze count each time the __main__ module's main() is entered,
# and at exit write that and the loaded shotr modules (and numpy's polynomial
# package, if loaded) to stdout.
AS_MAIN = """
import atexit, gc, json, runpy, sys
freeze_counts = []
def profile(frame, event, arg):
    if (event == "call" and frame.f_code.co_name == "main"
            and frame.f_globals.get("__name__") == "__main__"):
        freeze_counts.append(gc.get_freeze_count())
atexit.register(lambda: print(json.dumps({
    "modules": sorted(m for m in sys.modules
                      if m.startswith("shotr") or m == "numpy.polynomial"),
    "freeze_counts": freeze_counts})))
sys.setprofile(profile)
runpy.run_module("shotr.cli", run_name="__main__", alter_sys=True)
"""

# shotr.cli.main(ARGS) called in a process, as tests and the benchmark call it
IN_PROCESS = """
import gc, json, sys
from shotr.cli import main
before = [gc.get_freeze_count(), gc.isenabled()]
code = main(sys.argv[1:])
sys.stdout.flush()
sys.stderr.write(json.dumps({"code": code, "before": before,
                             "after": [gc.get_freeze_count(), gc.isenabled()]}))
"""


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def python(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], env=_env(), capture_output=True, timeout=120)


@pytest.fixture
def tracks_csv(tmp_path):
    """Two usable tracks, a one-sample track and a non-finite row, so that
    the commands write warnings as well as data."""
    rows = [("a", t, t * t, 1.0 - t) for t in (0.0, 0.4, 1.0, 1.5, 2.5, 3.0)]
    rows += [("b", 0.5 * k, float(k % 3), float(k)) for k in range(8)]
    rows += [("c", 0.0, 1.0, 2.0), ("b", 9.0, float("nan"), 1.0)]
    return write_csv(tmp_path / "tracks.csv", rows)


def loaded(*argv: str) -> dict:
    done = python("-c", AS_MAIN, *argv)
    assert done.returncode == 0, done.stderr.decode()[-2000:]
    return json.loads(done.stdout.decode().splitlines()[-1])


@pytest.mark.parametrize("command", FILE_COMMANDS)
def test_file_commands_do_not_load_the_validation_harness(tmp_path, tracks_csv, command):
    report = loaded(command, "--input", tracks_csv, "--output", str(tmp_path / "out"))
    assert "shotr.trajdata" in report["modules"]
    assert "shotr.validate" not in report["modules"]
    # reconstruct reads no Gauss rule, so numpy's polynomial package stays out
    if command == "reconstruct":
        assert not {"shotr.geometry", "shotr.kinematics", "numpy.polynomial"} & set(
            report["modules"])
    else:
        assert "numpy.polynomial" in report["modules"]


def test_validation_commands_load_the_harness(tmp_path):
    report = loaded("compare", "--meshes", "21", "--output", str(tmp_path / "out"))
    assert "shotr.validate" in report["modules"]


def test_main_runs_with_the_import_time_objects_frozen(tmp_path, tracks_csv):
    report = loaded("length", "--input", tracks_csv, "--output", str(tmp_path / "out"))
    assert len(report["freeze_counts"]) == 1
    assert report["freeze_counts"][0] > 0


def test_main_in_a_process_leaves_the_collector_as_it_was(tracks_csv):
    done = python("-c", IN_PROCESS, "summary", "--input", tracks_csv)
    state = json.loads(done.stderr.decode().splitlines()[-1])
    assert state["code"] == 0
    assert state["after"] == state["before"]


def test_the_script_and_python_m_enter_through_the_same_function():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["shotr"]
    module, _, name = target.partition(":")
    assert module == "shotr.cli"

    tree = ast.parse(CLI_SOURCE.read_text(encoding="utf-8"))
    main_block = next(node for node in tree.body if isinstance(node, ast.If)
                      and ast.unparse(node.test) == "__name__ == '__main__'")
    called = {node.func.id for node in ast.walk(main_block)
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
    assert called == {name}
    assert getattr(cli, name) is cli.run


# One invocation of every subcommand, an input error (exit 1) and a failed
# check (exit 2); {csv} is the fixture's file, {missing} a file that is not.
ENTRY_CASES = {
    "reconstruct": ["reconstruct", "--input", "{csv}"],
    "kinematics": ["kinematics", "--input", "{csv}", "--degree", "2"],
    "length": ["length", "--input", "{csv}", "--limiter", "none"],
    "summary": ["summary", "--input", "{csv}"],
    "convergence": ["convergence", "--degrees", "1,2", "--meshes", "20,40"],
    "compare": ["compare", "--meshes", "21,41"],
    "backtrace-case": ["backtrace", "--case", "tanhcos2d", "--check"],
    "backtrace-input": ["backtrace", "--input", "{csv}", "--dtau", "0.1"],
    "input-error": ["length", "--input", "{missing}"],
    "check-failure": ["compare", "--check", "--meshes", "21"],
}


@pytest.mark.parametrize("case", ENTRY_CASES)
def test_python_m_and_main_write_the_same_bytes(tmp_path, tracks_csv, case):
    argv = [a.format(csv=tracks_csv, missing=tmp_path / "missing.csv") for a in ENTRY_CASES[case]]
    as_main = python("-m", "shotr.cli", *argv)
    in_process = python("-c", "import sys; from shotr.cli import main; sys.exit(main(sys.argv[1:]))",
                        *argv)
    assert as_main.returncode == {"input-error": 1, "check-failure": 2}.get(case, 0)
    assert (as_main.returncode, as_main.stdout, as_main.stderr) == (
        in_process.returncode, in_process.stdout, in_process.stderr)
    assert as_main.stdout or as_main.returncode


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="the platform has no SIGPIPE")
def test_a_closed_stdout_ends_the_process_as_it_ends_cat(tmp_path):
    """`shotr kinematics ... | head -1`: the write after the reader closes
    the pipe kills the process by SIGPIPE, with nothing on stderr, where a
    broken-pipe error would exit 1. The output is far larger than a pipe
    holds, so the process is still writing when the pipe closes."""
    path = write_csv(tmp_path / "long.csv",
                     [("a", 0.1 * k, math.sin(k), math.cos(k)) for k in range(2000)])
    proc = subprocess.Popen([sys.executable, "-m", "shotr.cli", "kinematics", "--input", path],
                            env=_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline().startswith(b"track,t,x,y,z,")
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert (proc.returncode, err) == (-signal.SIGPIPE, b"")
