"""Seeded end-to-end benchmark of the shotr CLI and library.

    python3 perfbench/run.py --workload batch-cweno --seed 1 --seconds 30 --trace 0

Run from a checkout of the repository; the program is imported from its
``src`` directory and metric names and units come from ``BENCHMARK.json``.
The benchmark writes the workload's inputs from the seed, then for
``--seconds`` repeats rounds of a closed loop with one client:

* ``--trace 0``: every CLI invocation of the workload as a subprocess, then
  the same computation through the public library, serial and in-process.
  Reports the end-to-end metrics. Wall times (cli_wall_s, lib_wall_s) are
  printed in the table; the gated metrics are the CPU times of the same
  operations (cli_cpu_s: user + system time of the CLI processes; lib_cpu_s:
  process time of the library calls), because on a shared virtual machine
  the wall times also carry the time the host takes the CPUs away.
* ``--trace 1``: adds an in-process ``shotr.cli.main(argv)`` pass and a
  library pass with spans around each layer's calls, and reports the
  per-layer metrics, the CLI-vs-library attribution and the tracing
  overhead.

Every output is checked (see workloads.py); an operation is one CLI
invocation or one library call on one track or study. A table of every
metric (median, quartiles, sample count, unit) and the environment is
printed first; the last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.
"""

import argparse
import gc
import json
import logging
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
SETUP_RUNS = 9
CLI_TIMEOUT_S = 60.0

if not (SRC / "shotr" / "__init__.py").is_file():
    sys.exit(f"perfbench: no program at {SRC / 'shotr'}; run from a repository checkout")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import shotr  # noqa: E402
from shotr import cli  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

if not Path(shotr.__file__).resolve().is_relative_to(SRC):
    sys.exit(f"perfbench: imported shotr from {shotr.__file__}, not from {SRC}")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def setup_times(env: dict) -> list[float]:
    """Wall time to start an interpreter and finish `import shotr`, after one
    untimed start that compiles the bytecode."""
    cmd = [sys.executable, "-c", "import shotr, sys; sys.stdout.write(shotr.__file__)"]
    times = []
    for i in range(SETUP_RUNS + 1):
        start = time.perf_counter()
        done = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              check=True, timeout=CLI_TIMEOUT_S)
        elapsed = time.perf_counter() - start
        if not Path(done.stdout).resolve().is_relative_to(SRC):
            raise RuntimeError(f"child imported shotr from {done.stdout}, not from {SRC}")
        if i:
            times.append(elapsed)
    return times


def run_cli(argv: list[str], env: dict, err_path: Path):
    """One CLI invocation: (wall seconds, CPU seconds, exit code, stderr lines,
    peak RSS MB)."""
    with open(err_path, "w+", encoding="utf-8") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "shotr.cli", *argv],
                                stdout=subprocess.DEVNULL, stderr=err, cwd=ROOT, env=env)
        timer = threading.Timer(CLI_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        elapsed = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        lines = err.read().splitlines()
    return (elapsed, usage.ru_utime + usage.ru_stime, proc.returncode, lines,
            usage.ru_maxrss / 1024.0)


def environment() -> dict:
    """The machine and libraries the numbers were taken on; nothing is changed."""
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level} {kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), "")
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches": caches,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "num_threads_env": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
    }


def stats(values: list[float]) -> tuple[float, float, float, int]:
    """Median, first and third quartile, sample count."""
    if len(values) == 1:
        return values[0], values[0], values[0], 1
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, len(values)


def print_table(title: str, samples: dict[str, list], units: dict[str, str]) -> None:
    print(f"{title}:")
    print(f"  {'metric':<40} {'median':>14} {'q1':>14} {'q3':>14} {'n':>4}  unit")
    for name, values in samples.items():
        med, q1, q3, n = stats(values)
        print(f"  {name:<40} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {n:>4}  {units[name]}")


class Bench:
    """One workload's invocations run three ways: as a CLI subprocess,
    through shotr.cli.main in this process, and through the library."""

    def __init__(self, workload, ledger, env, work: Path):
        self.workload = workload
        self.ledger = ledger
        self.env = env
        self.work = work
        self.peak_rss_mb = 0.0
        self.per_command: dict[str, list[float]] = {}

    def _record(self, label: str, inv, elapsed: float, problems: list[str]) -> float:
        self.per_command.setdefault(f"{label} {inv.name}", []).append(elapsed)
        self.ledger.attempted += 1
        if problems:
            self.ledger.fail(f"{label} {inv.name}", problems)
        return elapsed

    def cli(self, inv) -> tuple[float, float]:
        elapsed, cpu, code, lines, rss = run_cli(inv.argv, self.env,
                                                 self.work / f"{inv.name}.err")
        self.peak_rss_mb = max(self.peak_rss_mb, rss)
        return self._record("cli", inv, elapsed, inv.cli_problems(code, lines)), cpu

    def main(self, inv) -> float:
        mark = len(self.ledger.warnings.messages)
        start = time.perf_counter()
        code = cli.main(list(inv.argv))
        elapsed = time.perf_counter() - start
        return self._record("main", inv, elapsed,
                            inv.cli_problems(code, self.ledger.warnings.messages[mark:]))

    def lib(self, inv, label: str = "lib") -> tuple[float, float, dict]:
        gc.collect()  # garbage left by the benchmark's own checks is not charged to the call
        before, cpu_before = self.ledger.lib_seconds, self.ledger.lib_cpu_seconds
        result = inv.lib(self.ledger)
        elapsed = self.ledger.lib_seconds - before
        self.per_command.setdefault(f"{label} {inv.name}", []).append(elapsed)
        return elapsed, self.ledger.lib_cpu_seconds - cpu_before, result


def measure(args, ledger) -> tuple[dict, dict, dict]:
    """Returns (end-to-end samples, per-layer samples, extra report items)."""
    env = child_env()
    warnings = ledger.warnings
    work = WORK / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    work.mkdir(parents=True)
    try:
        workload = workloads.build(args.workload, args.seed, work)
        invs = workload.invocations
        setup = setup_times(env)
        bench = Bench(workload, ledger, env, work)

        # warm-up library pass: its results are the reference for CLI output
        for inv in invs:
            inv.reference = bench.lib(inv)[2]
        bench.per_command.clear()

        e2e = {"setup_s": setup, "cli_wall_s": [], "lib_wall_s": [],
               "cli_cpu_s": [], "lib_cpu_s": []}
        mains, traced, layers, self_s = [], [], {}, {}
        tracer = tracing.Tracer()
        if args.trace:
            ledger.tracer = tracer
        deadline = time.perf_counter() + args.seconds
        while True:
            r = dict.fromkeys(("cli_wall_s", "cli_cpu_s", "main", "lib_wall_s", "lib_cpu_s",
                               "traced"), 0.0)
            mark, traced_warnings = len(tracer.spans), []
            tracer.keep_limited = not traced
            for inv in invs:
                # an invocation's runs are adjacent in time, so the differences
                # between them see the least drift in the machine's speed
                wall, cpu = bench.cli(inv)
                r["cli_wall_s"] += wall
                r["cli_cpu_s"] += cpu
                if args.trace:
                    r["main"] += bench.main(inv)
                wall, cpu, _ = bench.lib(inv)
                r["lib_wall_s"] += wall
                r["lib_cpu_s"] += cpu
                if args.trace:
                    wmark = len(warnings.messages)
                    with tracer.installed():
                        r["traced"] += bench.lib(inv, "traced")[0]
                    traced_warnings += warnings.messages[wmark:]
            for key in ("cli_wall_s", "cli_cpu_s", "lib_wall_s", "lib_cpu_s"):
                e2e[key].append(r[key])
            if args.trace:
                mains.append(r["main"])
                traced.append(r["traced"])
                agg = tracer.aggregate(mark)
                for name, a in agg.items():
                    self_s.setdefault(name, []).append(a["self"])
                metrics = tracing.layer_metrics(agg, workloads.classify_warnings(traced_warnings))
                for name, value in metrics.items():
                    layers.setdefault(name, []).append(value)
            if time.perf_counter() >= deadline:
                break
        e2e["peak_rss_mb"] = [bench.peak_rss_mb]
        extra = {"per_command": bench.per_command, "size": workload.size,
                 "argv": {inv.name: inv.argv for inv in invs}}
        if not args.trace:
            return e2e, {}, extra

        layers["cweno.changed_frac"] = [tracing.changed_fraction(tracer.limited)]
        layers["cli.startup_s"] = [c - m for c, m in zip(e2e["cli_wall_s"], mains)]
        layers["cli.main_s"] = mains
        layers["cli.overhead_s"] = [m - lib for m, lib in zip(mains, e2e["lib_wall_s"])]
        layers["tracing.overhead_frac"] = [t / lib - 1.0 for t, lib in zip(traced, e2e["lib_wall_s"])]
        parts = {k: statistics.median(layers[k]) for k in ("cli.startup_s", "cli.overhead_s")}
        parts["lib_wall_s"] = statistics.median(e2e["lib_wall_s"])
        extra["attribution"] = {
            "cli_wall_s": statistics.median(e2e["cli_wall_s"]),
            **parts,
            "sum of the three": sum(parts.values()),
            "setup_s x invocations": statistics.median(setup) * len(invs),
        }
        extra["self_s"] = self_s
        extra["spans"] = tracer.to_json()
        return e2e, layers, extra
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    env_info = environment()
    # the program's warnings are counted, not printed, in this process
    ledger = workloads.Ledger(workloads.WarningCounter())
    root_logger = logging.getLogger()
    root_logger.setLevel(logging.WARNING)
    root_logger.addHandler(ledger.warnings)
    try:
        e2e, layers, extra = measure(args, ledger)
    finally:
        root_logger.removeHandler(ledger.warnings)

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    print("environment: " + json.dumps(env_info))
    print("size: " + json.dumps(extra["size"]))
    for name, inv_argv in extra["argv"].items():
        print(f"argv {name}: shotr {' '.join(inv_argv)}")
    print_table("end to end", e2e, {**dict.fromkeys(e2e, "s"), **units})
    print(f"  error_rate {ledger.failed}/{ledger.attempted} = "
          f"{ledger.failed / max(ledger.attempted, 1):.6g}")
    print_table("per command", extra["per_command"], dict.fromkeys(extra["per_command"], "s"))
    if layers:
        print_table("per layer", layers, units)
        print_table("self time per traced pass", extra["self_s"], dict.fromkeys(extra["self_s"], "s"))
        print("attribution of cli_wall_s (medians): " + json.dumps(extra["attribution"]))
        spans_path = WORK / f"spans-{args.workload}-s{args.seed}.json"
        spans_path.write_text(json.dumps({"environment": env_info, "spans": extra["spans"]}))
        print(f"spans: {spans_path.relative_to(ROOT)}")
    print("cweno gap at right-interface samples, share of coordinate scale (not checked): "
          f"{ledger.cweno_right_gap:.3g}")
    for problem in ledger.problems:
        print(f"FAILED {problem}")

    chosen = spec["per_layer"] if args.trace else spec["end_to_end"]
    measured = layers if args.trace else e2e
    metrics = {m["name"]: {"value": stats(measured[m["name"]])[0], "unit": m["unit"]}
               for m in chosen}
    print(json.dumps({"correct": ledger.failed == 0, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
