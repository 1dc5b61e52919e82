"""The benchmark in ``perfbench/`` still runs against the library.

The benchmark calls library functions by name and wraps some of them to
time each layer, so a rename or a removed layer shows up here as a failed
run or as a layer that no longer records time. Each workload runs one
traced round (``--seconds 0``), about 4 s; its scratch files go to the
git-ignored ``.perfbench-work/``.
"""

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
