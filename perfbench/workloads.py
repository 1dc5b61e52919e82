"""Seeded workloads: input generators, CLI invocations, their serial library
equivalents, and the checks applied to both.

Each workload writes its input files from a seed; the program only reads
those files. Every CLI invocation has a library equivalent that does the
same computation in-process and serially (parse, reconstruct, evaluate) but
formats nothing, so the two wall times can be compared and the outputs
checked against each other.
"""

import csv
import json
import logging
import math
import time
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

from shotr import cweno, geometry, kinematics, recon, trajdata, validate

DEGREE = 3                  # the CLI default
GEOM_DEGREE = min(DEGREE, geometry.MAX_GEOMETRY_DEGREE)
REL_TOL = 1e-12             # CLI output vs serial library
INTERP_TOL = 1e-9           # reconstruction at samples, share of coordinate scale
CWENO = cweno.CwenoConfig()  # the CLI default limiter constants

# Sizes are chosen so one CLI pass plus one library pass takes a few seconds
# on a 2-CPU machine, which leaves several rounds in a run.
BATCH_TRACKS = 3
SHORT_TRACKS = 160          # plus SHORT_SINGLES one-sample tracks
SHORT_SINGLES = 4
SHORT_NAN_ROWS = 6
SHORT_FRAME_DT = 0.5
LONG_TRACKS = 2
LONG_SAMPLES = 250
BACKTRACE_DTAU = 0.02
BACKTRACE_CASE_POINTS = 41  # the CLI defaults for backtrace --case
BACKTRACE_CASE_DTAU = 0.5
CONVERGENCE_DEGREES = (1, 2, 3, 4)

# Warning texts the program logs (and the CLI prints on stderr), by counter.
WARNINGS = {
    "non-finite sample rejected": "rows_rejected",
    "dropped (": "tracks_dropped",
    "degree reduced": "degree_reductions",
    "singular at degree": "singular_fallbacks",
}


def classify_warnings(lines) -> dict[str, int]:
    counts = dict.fromkeys(WARNINGS.values(), 0)
    for line in lines:
        for text, key in WARNINGS.items():
            if text in line:
                counts[key] += 1
    return counts


class WarningCounter(logging.Handler):
    """Counts the program's warnings by kind; installed on the root logger so
    the in-process library and CLI calls print nothing."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.messages: list[str] = []

    def emit(self, record):
        self.messages.append(record.getMessage())


class Ledger:
    """Operations attempted and failed, and serial library wall and CPU time."""

    def __init__(self, warnings: WarningCounter):
        self.warnings = warnings
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.lib_seconds = 0.0
        self.lib_cpu_seconds = 0.0
        self.cweno_right_gap = 0.0   # largest |limited - sample| at right interfaces
        self.tracer = None           # when set, spans carry the operation's label

    def fail(self, label: str, problems: list[str]) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(f"{label}: {'; '.join(problems[:3])}")

    def call(self, label: str, compute: Callable):
        """One timed library operation. A raised exception is counted as a
        failure and gives None (no operation here returns None)."""
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.track = label
        start, cpu_start = time.perf_counter(), time.process_time()
        try:
            return compute()
        except Exception as exc:  # a failing call is counted, the run goes on
            self.fail(label, [f"{type(exc).__name__}: {exc}"])
            return None
        finally:
            self.lib_seconds += time.perf_counter() - start
            self.lib_cpu_seconds += time.process_time() - cpu_start

    def check(self, label: str, problems: list[str]) -> None:
        if problems:
            self.fail(label, problems)


# ---------------------------------------------------------------------------
# generated inputs
# ---------------------------------------------------------------------------

@dataclass
class Expected:
    """What the generator knows about a file it wrote."""

    rows: int                    # data rows in the file
    rows_rejected: int           # rows with a non-finite coordinate
    tracks_dropped: int          # tracks left with fewer than 2 rows
    cells: dict[str, int]        # surviving track id -> cells


def _smooth_walk(rng, times: np.ndarray, dim: int, walk: float) -> np.ndarray:
    """A smooth signal per axis plus a Gaussian random walk."""
    amp = rng.uniform(1.0, 3.0, dim)
    freq = rng.uniform(0.3, 1.5, dim)
    phase = rng.uniform(0.0, 2.0 * np.pi, dim)
    drift = rng.normal(0.0, 0.2, dim)
    steps = rng.normal(0.0, 1.0, (len(times), dim)) * walk
    steps[1:] *= np.sqrt(np.diff(times))[:, None]
    steps[0] = 0.0
    return (amp * np.sin(np.outer(times, freq) + phase) + np.outer(times, drift)
            + np.cumsum(steps, axis=0))


def _long_tracks(rng, prefix: str, n_tracks: int, walk: float, fixed_duration: bool) -> dict:
    """Tracks of LONG_SAMPLES samples with widths uniform in [0.05, 0.15];
    with fixed_duration the widths are scaled to sum to their mean, so the
    number of backtrace steps does not depend on the seed."""
    tracks = {}
    for k in range(n_tracks):
        widths = rng.uniform(0.05, 0.15, LONG_SAMPLES - 1)
        if fixed_duration:
            widths *= 0.1 * len(widths) / widths.sum()
        times = rng.uniform(0.0, 10.0) + np.concatenate([[0.0], np.cumsum(widths)])
        tracks[f"{prefix}{k:03d}"] = (times, _smooth_walk(rng, times, 3, walk))
    return tracks


def write_generic_csv(path: Path, tracks: dict) -> Expected:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(["track", "t", "x", "y", "z"])
        for tid, (times, coords) in tracks.items():
            for t, c in zip(times, coords):
                out.writerow([tid, repr(float(t))] + [repr(float(v)) for v in c])
    rows = sum(len(t) for t, _ in tracks.values())
    return Expected(rows, 0, 0, {tid: len(t) - 1 for tid, (t, _) in tracks.items()})


TRACKMATE_HEADER = ["LABEL", "ID", "TRACK_ID", "QUALITY", "POSITION_X", "POSITION_Y",
                    "POSITION_T", "FRAME", "RADIUS", "MEAN_INTENSITY_CH1"]


def write_trackmate_csv(path: Path, rng) -> Expected:
    """2-D TrackMate export: half the tracks 2-10 samples, half 11-40, missed
    frames (widths of 1-3 frame intervals), a few NaN rows in long tracks,
    a few one-sample tracks, rows shuffled across tracks. The track lengths
    are the same for every seed, so the amount of work is too."""
    half = SHORT_TRACKS // 2
    lengths = rng.permutation(np.concatenate([
        2 + np.arange(half) % 9,
        11 + np.arange(SHORT_TRACKS - half) % 30,
        np.ones(SHORT_SINGLES, dtype=int),
    ]))
    rows = []
    for tid, n in enumerate(lengths):
        gaps = rng.choice([1, 2, 3], size=n - 1, p=[0.8, 0.15, 0.05])
        frames = int(rng.integers(0, 50)) + np.concatenate([[0], np.cumsum(gaps)])
        start = rng.uniform(0.0, 500.0, 2)
        steps = rng.normal(0.0, 0.8, (n, 2)) * np.sqrt(np.concatenate([[0], gaps]))[:, None]
        xy = start + rng.normal(0.0, 0.3, 2) * frames[:, None] + np.cumsum(steps, axis=0)
        for f, (x, y) in zip(frames, xy):
            rows.append([tid, int(f), float(x), float(y)])

    long_rows = [i for i, r in enumerate(rows) if lengths[r[0]] >= 11]
    nan_rows = set(rng.choice(long_rows, SHORT_NAN_ROWS, replace=False).tolist())
    accepted: dict[str, int] = {}
    lines = []
    for i, (tid, f, x, y) in enumerate(rows):
        if i in nan_rows:
            x = float("nan")
        else:
            accepted[str(tid)] = accepted.get(str(tid), 0) + 1
        lines.append([f"ID{i}", i, tid, repr(float(rng.uniform(5, 50))), repr(x), repr(y),
                      repr(f * SHORT_FRAME_DT), f, "2.5", repr(float(rng.uniform(100, 200)))])
    order = rng.permutation(len(lines))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(TRACKMATE_HEADER)
        out.writerows(lines[i] for i in order)

    surviving = {tid: n - 1 for tid, n in accepted.items() if n >= 2}
    dropped = sum(1 for tid in range(len(lengths)) if accepted.get(str(tid), 0) < 2)
    return Expected(len(rows), len(nan_rows), dropped, surviving)


# ---------------------------------------------------------------------------
# CLI output readers: track (or study) -> numeric rows
# ---------------------------------------------------------------------------

def _num(token: str) -> float:
    return float(token) if token != "" else math.nan


def read_csv_by_key(path: Path, skip=()) -> dict[str, np.ndarray]:
    """Rows grouped by their first column, minus the columns in skip."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)
        grouped: dict[str, list] = {}
        for row in reader:
            values = [_num(v) for j, v in enumerate(row[1:], start=1) if j not in skip]
            grouped.setdefault(row[0], []).append(values)
    return {k: np.array(v) for k, v in grouped.items()}


def read_reconstruct_json(path: Path) -> dict[str, np.ndarray]:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    return {
        tid: np.array([[c["center"], c["width"], *c["coeffs"]]
                       for axis in entry["axes"] for c in axis])
        for tid, entry in doc["tracks"].items()
    }


def _pad3(values) -> list[float]:
    vals = [float(v) for v in values]
    return vals + [0.0] * (3 - len(vals))


# ---------------------------------------------------------------------------
# checks on library results
# ---------------------------------------------------------------------------

def interpolation_problems(track, polys, limiter: str, ledger: Ledger) -> list[str]:
    """Unlimited output passes through every sample. The limiter blends
    candidates anchored at each cell's left sample, so limited output is
    checked there and its gap at the right sample is only recorded."""
    scale = max(1.0, float(np.abs(track.coords).max()))
    times = track.times
    problems = []
    for d, p in enumerate(polys):
        samples = track.coords[:, d]
        if limiter == "none":
            err = np.abs(p.value(times) - samples).max()
        else:
            left = np.array([c.value(t) for c, t in zip(p.cells, times[:-1])])
            err = np.abs(left - samples[:-1]).max()
            right = np.array([c.value(t) for c, t in zip(p.cells, times[1:])])
            ledger.cweno_right_gap = max(ledger.cweno_right_gap,
                                         float(np.abs(right - samples[1:]).max()) / scale)
        if err > INTERP_TOL * scale:
            problems.append(f"axis {d}: |p(t_k) - s_k| = {err:.3e} > {INTERP_TOL:g} x {scale:.3g}")
    return problems


def finite_problems(values: np.ndarray) -> list[str]:
    return [] if np.all(np.isfinite(values)) else ["non-finite output"]


def compare_outputs(got: dict, want: dict) -> list[str]:
    """CLI output vs the serial library, to REL_TOL of each array's scale."""
    problems = []
    if got.keys() != want.keys():
        missing = sorted(set(want) - set(got))[:3]
        extra = sorted(set(got) - set(want))[:3]
        return [f"keys differ: missing {missing}, extra {extra}"]
    for key, w in want.items():
        g = got[key]
        if g.shape != w.shape:
            problems.append(f"{key}: shape {g.shape} != {w.shape}")
            continue
        scale = np.nanmax(np.abs(w)) if w.size and not np.all(np.isnan(w)) else 0.0
        if not np.allclose(g, w, rtol=REL_TOL, atol=REL_TOL * scale, equal_nan=True):
            problems.append(f"{key}: differs by {np.nanmax(np.abs(g - w)):.3e}")
    return problems


# ---------------------------------------------------------------------------
# library equivalents: per-track operations (compute is timed, check is not)
# ---------------------------------------------------------------------------

def summary_compute(track, limiter):
    polys = recon.reconstruct_track(track, DEGREE, limiter, CWENO)
    return polys, kinematics.summarize(polys, trajdata.split_axes(track), GEOM_DEGREE)


def summary_check(track, raw, limiter, ledger):
    polys, s = raw
    values = np.array([[s.v_l, *_pad3(s.v_d), *_pad3(s.v_m), s.length, s.duration]])
    return values, interpolation_problems(track, polys, limiter, ledger)


def kinematics_compute(track, limiter):
    polys = recon.reconstruct_track(track, DEGREE, limiter, CWENO)
    return polys, kinematics.sample_dense(polys)


def kinematics_check(track, raw, limiter, ledger):
    polys, samples = raw
    values = np.array([[s.t, *_pad3(s.position), *_pad3(s.velocity),
                        *_pad3(s.acceleration), s.speed] for s in samples])
    problems = interpolation_problems(track, polys, limiter, ledger)
    want = polys[0].mesh.n_cells * (polys[0].degree + 1)
    if len(samples) != want:
        problems.append(f"{len(samples)} dense rows, expected cells x (N+1) = {want}")
    return values, problems


def reconstruct_compute(track, limiter):
    return recon.reconstruct_track(track, DEGREE, limiter, CWENO)


def reconstruct_check(track, polys, limiter, ledger):
    values = np.array([[c.basis.center, c.basis.width, *c.coeffs]
                       for p in polys for c in p.cells])
    return values, interpolation_problems(track, polys, limiter, ledger)


def length_compute(track, limiter):
    polys = recon.reconstruct_track(track, DEGREE, limiter, CWENO)
    return polys, geometry.trajectory_length(polys, GEOM_DEGREE)


def length_check(track, raw, limiter, ledger):
    polys, length = raw
    problems = interpolation_problems(track, polys, limiter, ledger)
    if not length > 0:
        problems.append(f"length {length!r} not positive")
    return np.array([[length]]), problems


BACKTRACE_PAIRS = (("RK2+P1", 1, "rk2"), ("RK4+P3", 3, "rk4"))   # as the CLI runs them


def _backtrace_rows(results) -> np.ndarray:
    return np.array([[r.endpoint_error, *r.combined.as_tuple()] for r in results])


def backtrace_compute(track, limiter):
    return [validate.backtrace(track, degree, BACKTRACE_DTAU, order=order, limiter=limiter)
            for _, degree, order in BACKTRACE_PAIRS]


def backtrace_check(track, results, limiter, ledger):
    return _backtrace_rows(results), []


PER_TRACK = {
    "summary": (summary_compute, summary_check),
    "kinematics": (kinematics_compute, kinematics_check),
    "reconstruct": (reconstruct_compute, reconstruct_check),
    "length": (length_compute, length_check),
    "backtrace-file": (backtrace_compute, backtrace_check),
}


def parse_problems(track_set, counts: dict[str, int], expected: Expected) -> list[str]:
    problems = []
    if {tid: len(t) - 1 for tid, t in track_set.tracks.items()} != expected.cells:
        problems.append("parsed tracks or their lengths differ from the generator's")
    for key in ("rows_rejected", "tracks_dropped"):
        if counts[key] != getattr(expected, key):
            problems.append(f"{key}: {counts[key]} != {getattr(expected, key)}")
    return problems


def file_command_lib(name: str, path: Path, fmt: str, limiter: str, expected: Expected):
    """Library equivalent of a per-track file command: one parse operation,
    then one operation per track."""
    compute, check = PER_TRACK[name]

    def lib(ledger: Ledger) -> dict[str, np.ndarray]:
        mark = len(ledger.warnings.messages)
        track_set = ledger.call(f"{name} parse", lambda: trajdata.parse_tracks(str(path), fmt))
        if track_set is None:
            return {}
        counts = classify_warnings(ledger.warnings.messages[mark:])
        ledger.check(f"{name} parse", parse_problems(track_set, counts, expected))
        results = {}
        for tid, track in track_set.tracks.items():
            label = f"{name} {tid}"
            raw = ledger.call(label, lambda: compute(track, limiter))
            if raw is not None:
                values, problems = check(track, raw, limiter, ledger)
                ledger.check(label, problems + finite_problems(values))
                results[tid] = values
        return results

    return lib


def convergence_lib(ledger: Ledger) -> dict[str, np.ndarray]:
    case = validate.get_case("conv3d")
    rows = ledger.call("convergence", lambda: validate.run_convergence(
        case, CONVERGENCE_DEGREES, validate.REFERENCE_MESH_CELLS))
    if rows is None:
        return {}
    ledger.check("convergence", validate.check_convergence(rows))
    values = [[row.degree, row.dt, norms.as_tuple()[k],
               math.nan if row.orders is None else row.orders[ax][k]]
              for row in rows for ax, norms in row.errors.items() for k in range(3)]
    return {case.name: np.array(values)}


def backtrace_case_lib(ledger: Ledger) -> dict[str, np.ndarray]:
    case = validate.get_case("tanhcos2d")
    reference = lambda t: np.column_stack([f(t) for f in case.position_fns])

    def compute():
        track = case.sample(BACKTRACE_CASE_POINTS)
        return [validate.backtrace(track, degree, BACKTRACE_CASE_DTAU, order=order,
                                   reference=reference)
                for _, degree, order in BACKTRACE_PAIRS]

    results = ledger.call("backtrace tanhcos2d", compute)
    if results is None:
        return {}
    ledger.check("backtrace tanhcos2d", validate.check_backtrace(*results))
    return {case.name: _backtrace_rows(results)}


# ---------------------------------------------------------------------------
# invocations and workloads
# ---------------------------------------------------------------------------

@dataclass
class Invocation:
    """One CLI invocation and its serial library equivalent."""

    name: str
    argv: list[str]
    output: Path
    read: Callable[[Path], dict[str, np.ndarray]]
    lib: Callable[[Ledger], dict[str, np.ndarray]]
    expected: Expected | None = None   # for commands that read a track file
    degree_reductions: int = 0          # warnings expected per invocation
    reference: dict = field(default_factory=dict)   # library result of the warm-up pass

    def cli_problems(self, returncode: int, stderr_lines: list[str]) -> list[str]:
        if returncode != 0:
            return [f"exit {returncode}: {' | '.join(stderr_lines[-3:])}"]
        problems = compare_outputs(self.read(self.output), self.reference)
        counts = classify_warnings(stderr_lines)
        want = {"degree_reductions": self.degree_reductions}
        if self.expected is not None:
            want["rows_rejected"] = self.expected.rows_rejected
            want["tracks_dropped"] = self.expected.tracks_dropped
        return problems + [f"{k}: {counts[k]} != {v}" for k, v in want.items() if counts[k] != v]


@dataclass
class Workload:
    name: str
    invocations: list[Invocation]
    size: dict


def _size(expected: Expected) -> dict:
    return {"tracks": len(expected.cells), "rows": expected.rows,
            "cells": sum(expected.cells.values())}


def batch_cweno(rng, work: Path) -> Workload:
    """3-D generic CSV, 250 samples per track, degree 3, default cweno
    limiter, through summary and kinematics: the default CLI path."""
    path = work / "batch.csv"
    expected = write_generic_csv(path, _long_tracks(rng, "b", BATCH_TRACKS, 0.3, False))
    invs = [
        Invocation(name, [name, "--input", str(path), "--output", str(work / f"{name}.csv")],
                   work / f"{name}.csv", read_csv_by_key,
                   file_command_lib(name, path, "generic_csv", "cweno", expected), expected)
        for name in ("summary", "kinematics")
    ]
    return Workload("batch-cweno", invs, _size(expected))


def short_none(rng, work: Path) -> Workload:
    """2-D TrackMate CSV of many short tracks, limiter none, through
    reconstruct (JSON) and length: per-track fixed costs dominate."""
    path = work / "short.csv"
    expected = write_trackmate_csv(path, rng)
    reductions = sum(1 for cells in expected.cells.values() if cells < DEGREE)
    common = ["--input", str(path), "--format", "trackmate_csv", "--limiter", "none"]
    invs = [
        Invocation(name, [name, *common, "--output", str(work / out)], work / out, read,
                   file_command_lib(name, path, "trackmate_csv", "none", expected),
                   expected, reductions)
        for name, out, read in (("reconstruct", "recon.json", read_reconstruct_json),
                                ("length", "length.csv", read_csv_by_key))
    ]
    return Workload("short-none", invs, _size(expected))


def validation(rng, work: Path) -> Workload:
    """The published convergence table, the synthetic backtrace gate, and
    backtrace on long 3-D tracks with no limiter and a small step."""
    path = work / "long.csv"
    expected = write_generic_csv(path, _long_tracks(rng, "v", LONG_TRACKS, 0.05, True))
    invs = [
        Invocation("convergence",
                   ["convergence", "--check", "--degrees", ",".join(map(str, CONVERGENCE_DEGREES)),
                    "--output", str(work / "conv.csv")],
                   work / "conv.csv", partial(read_csv_by_key, skip=(3, 4)), convergence_lib),
        Invocation("backtrace-case",
                   ["backtrace", "--case", "tanhcos2d", "--check",
                    "--output", str(work / "bt_case.csv")],
                   work / "bt_case.csv", partial(read_csv_by_key, skip=(1,)), backtrace_case_lib),
        Invocation("backtrace-file",
                   ["backtrace", "--input", str(path), "--limiter", "none",
                    "--dtau", repr(BACKTRACE_DTAU), "--output", str(work / "bt_file.csv")],
                   work / "bt_file.csv", partial(read_csv_by_key, skip=(1,)),
                   file_command_lib("backtrace-file", path, "generic_csv", "none", expected),
                   expected),
    ]
    size = _size(expected)
    size["convergence_cells"] = len(CONVERGENCE_DEGREES) * sum(validate.REFERENCE_MESH_CELLS)
    return Workload("validation", invs, size)


WORKLOADS = {"batch-cweno": batch_cweno, "short-none": short_none, "validation": validation}


def build(name: str, seed: int, work: Path) -> Workload:
    """Write the workload's inputs under work; the same seed gives the same files."""
    rng = np.random.default_rng([seed, list(WORKLOADS).index(name)])
    return WORKLOADS[name](rng, work)
