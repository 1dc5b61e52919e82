"""The benchmark in ``perfbench/`` still runs against the library.

The benchmark calls library functions by name and wraps some of them to
time each layer, so a rename or a removed layer shows up here as a failed
run or as a layer that no longer records time. Each workload runs one
traced round (``--seconds 0``), about 4 s; its scratch files go to the
git-ignored ``.perfbench-work/``. A static scan of ``perfbench/`` names
each program attribute the benchmark reads.
"""

import ast
import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["batch-cweno", "short-none", "validation"])
def test_benchmark_runs_correct_with_every_layer_traced(workload):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    metrics = result["metrics"]
    assert metrics["recon.operators_us_per_cell"]["value"] > 0
    if workload == "batch-cweno":
        assert metrics["cweno.limit_us_per_cell"]["value"] > 0


# What perfbench/ reads of the program: each attribute of a shotr module it
# names, and each function its tracer wraps (tracing.LAYER_CALLS), whose
# loss would leave a per-layer metric at zero rather than fail the run.
# Until the benchmark calls the product path (ROADMAP item 4), these names
# stay as they are.
BENCHMARK_READS = {
    "cli.main", "cweno.CwenoConfig", "geometry.MAX_GEOMETRY_DEGREE",
    "geometry.trajectory_length", "kinematics.dense_times", "kinematics.sample_dense",
    "kinematics.summarize", "recon.reconstruct_track", "trajdata.parse_tracks",
    "trajdata.split_axes", "validate.REFERENCE_MESH_CELLS", "validate.backtrace",
    "validate.check_backtrace", "validate.check_convergence", "validate.get_case",
    "validate.run_convergence",
}
BENCHMARK_TRACES = {
    "shotr.cweno.limit_piecewise", "shotr.geometry.trajectory_length",
    "shotr.kinematics.sample_dense", "shotr.kinematics.summarize", "shotr.mesh.build_mesh",
    "shotr.recon.reconstruct_track", "shotr.recon.reconstruction_operators",
    "shotr.trajdata.parse_tracks", "shotr.validate.backtrace", "shotr.validate.error_norms",
    "shotr.validate.run_convergence",
}
MODULES = {"recon", "cweno", "geometry", "kinematics", "trajdata", "validate", "cli"}


def test_the_names_the_benchmark_reads_are_the_listed_ones_and_exist():
    reads, traces = set(), set()
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in MODULES):
                reads.add(f"{node.value.id}.{node.attr}")
            elif isinstance(node, ast.Assign) and any(
                    isinstance(target, ast.Name) and target.id == "LAYER_CALLS"
                    for target in node.targets):
                traces |= {key.value for key in node.value.keys}
    assert reads == BENCHMARK_READS
    assert traces == BENCHMARK_TRACES
    missing = []
    for name in sorted(reads | {name.removeprefix("shotr.") for name in traces}):
        module, attr = name.rsplit(".", 1)
        if not hasattr(importlib.import_module(f"shotr.{module}"), attr):
            missing.append(name)
    assert missing == []
