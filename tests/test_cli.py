import argparse
import csv
import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from shotr import validate
from shotr.cli import build_parser, main
from shotr.geometry import trajectory_length
from shotr.kinematics import summarize
from shotr.recon import LIMITERS, MAX_DEGREE, reconstruct_track
from shotr.trajdata import FORMATS, parse_tracks, split_axes

from . import oracle
from .conftest import count_calls, random_track, write_csv


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_csv_text(text):
    rows = list(csv.reader(text.splitlines()))
    return rows[0], rows[1:]


def track_to_rows(track):
    return [
        (track.track_id, t, *coord)
        for t, coord in zip(track.times, track.coords)
    ]


def test_reconstruct_two_point_track(tmp_path, capsys):
    path = write_csv(tmp_path / "a.csv", [("a", 0.0, 1.0), ("a", 2.0, 5.0)], header="track,t,x")
    code, out, _ = run_cli(capsys, "reconstruct", "--input", path, "--degree", "1", "--limiter", "none")
    assert code == 0
    doc = json.loads(out)
    cells = doc["tracks"]["a"]["axes"][0]
    assert len(cells) == 1
    assert cells[0]["center"] == pytest.approx(1.0)
    assert cells[0]["width"] == pytest.approx(2.0)
    # midpoint value, then slope * width
    np.testing.assert_allclose(cells[0]["coeffs"], [3.0, 4.0], atol=1e-13)


def test_reconstruct_deterministic_output(tmp_path, capsys, rng):
    rows = []
    for tid in ("a", "b", "c"):
        rows += track_to_rows(random_track(rng, 9, dim=2, track_id=tid))
    path = write_csv(tmp_path / "a.csv", rows)
    code1, out1, _ = run_cli(capsys, "reconstruct", "--input", path)
    code2, out2, _ = run_cli(capsys, "reconstruct", "--input", path)
    assert code1 == code2 == 0
    assert out1 == out2


def test_reconstruct_degree_reduction_warns(tmp_path, capsys, caplog):
    path = write_csv(
        tmp_path / "a.csv",
        [("a", 0, 0, 0), ("a", 1, 1, 0), ("a", 2, 0, 1), ("a", 3, 1, 1)],
    )
    code, out, err = run_cli(capsys, "reconstruct", "--input", path, "--degree", "5")
    assert code == 0
    doc = json.loads(out)
    assert doc["tracks"]["a"]["degree_used"] == 3
    assert any("degree reduced" in r.message for r in caplog.records)


def test_kinematics_stationary_track(tmp_path, capsys):
    path = write_csv(
        tmp_path / "a.csv",
        [("a", 0, 2, 3), ("a", 1, 2, 3), ("a", 2, 2, 3), ("a", 3, 2, 3)],
    )
    code, out, _ = run_cli(capsys, "kinematics", "--input", path, "--degree", "3")
    assert code == 0
    header, rows = read_csv_text(out)
    assert header == ["track", "t", "x", "y", "z", "vx", "vy", "vz", "ax", "ay", "az", "speed"]
    assert len(rows) == 3 * 4  # cells x (degree + 1)
    for row in rows:
        assert float(row[2]) == pytest.approx(2.0, abs=1e-11)
        for col in (5, 6, 7, 8, 9, 10, 11):
            assert float(row[col]) == pytest.approx(0.0, abs=1e-10)
        assert row[4] == "0"  # absent z axis written as zero


def test_kinematics_row_count_and_speed_reevaluation(tmp_path, capsys, rng):
    tracks = [random_track(rng, 8, dim=2, track_id=t) for t in ("a", "b")]
    path = write_csv(tmp_path / "a.csv", [r for t in tracks for r in track_to_rows(t)])
    code, out, _ = run_cli(capsys, "kinematics", "--input", path, "--degree", "3", "--limiter", "none")
    assert code == 0
    _, rows = read_csv_text(out)
    assert len(rows) == 2 * 7 * 4
    # oracle: recompute the velocity magnitude from an independent evaluation
    by_track = {t.track_id: reconstruct_track(t, 3, "none") for t in tracks}
    for row in rows:
        polys = by_track[row[0]]
        t = float(row[1])
        v = np.array([float(p.derivative(t)) for p in polys])
        assert float(row[11]) == pytest.approx(np.linalg.norm(v), rel=1e-12, abs=1e-12)


def test_degree1_matches_independent_linear_interpolator(tmp_path, capsys, rng):
    tracks = [random_track(rng, int(rng.integers(3, 12)), 2, f"t{i}") for i in range(10)]
    path = write_csv(tmp_path / "a.csv", [r for t in tracks for r in track_to_rows(t)])
    code, out, _ = run_cli(capsys, "kinematics", "--input", path, "--degree", "1", "--limiter", "none")
    assert code == 0
    _, rows = read_csv_text(out)
    lookup = {t.track_id: t for t in tracks}
    for row in rows:
        track = lookup[row[0]]
        t = float(row[1])
        for d in (0, 1):
            expected = np.interp(t, track.times, track.coords[:, d])
            assert float(row[2 + d]) == pytest.approx(expected, abs=1e-12)


def test_length_and_summary_roundtrip(tmp_path, capsys):
    path = write_csv(
        tmp_path / "a.csv",
        [("a", 0, 0, 0), ("a", 1, 1, 0), ("a", 2, 1, 1)],
    )
    code, out, _ = run_cli(
        capsys, "length", "--input", path,
        "--degree", "1", "--limiter", "none",
    )
    assert code == 0
    _, rows = read_csv_text(out)
    assert float(rows[0][1]) == pytest.approx(2.0, abs=1e-12)

    code, out, _ = run_cli(
        capsys, "summary", "--input", path,
        "--degree", "1", "--limiter", "none",
    )
    header, rows = read_csv_text(out)
    assert header[:2] == ["track", "vL"]
    assert float(rows[0][1]) == pytest.approx(1.0, abs=1e-12)      # vL
    assert float(rows[0][2]) == pytest.approx(0.5, abs=1e-13)      # vD_x
    assert float(rows[0][8]) == pytest.approx(2.0, abs=1e-12)      # L
    assert float(rows[0][9]) == pytest.approx(2.0)                 # duration


def test_output_file_written(tmp_path, capsys):
    path = write_csv(tmp_path / "a.csv", [("a", 0, 0, 0), ("a", 1, 1, 1)])
    out_path = tmp_path / "out.csv"
    code, out, _ = run_cli(capsys, "summary", "--input", path, "--output", str(out_path))
    assert code == 0
    assert out == ""
    assert out_path.read_text().startswith("track,vL")


def test_trackmate_format_flag(tmp_path, capsys):
    tm = tmp_path / "tm.csv"
    tm.write_text(
        "TRACK_ID,POSITION_T,POSITION_X,POSITION_Y\n1,0,0,0\n1,1,1,0\n1,2,2,0\n",
        encoding="utf-8",
    )
    code, out, _ = run_cli(capsys, "summary", "--input", str(tm), "--format", "trackmate_csv")
    assert code == 0
    assert out.splitlines()[1].startswith("1,")


def test_missing_file_exits_one(capsys):
    code, _, err = run_cli(capsys, "summary", "--input", "/nonexistent/nope.csv")
    assert code == 1
    assert "error" in err.lower()


def test_malformed_file_exits_one(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("track,t,x\na,0,zero\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "kinematics", "--input", str(path))
    assert code == 1
    assert "line 2" in err


@pytest.mark.parametrize("fmt, axes, gap", [
    ("generic_csv", "x,z", "has column 'z' but lacks 'y'"),
    ("trackmate_csv", "POSITION_X,POSITION_Z", "has column 'POSITION_Z' but lacks 'POSITION_Y'"),
])
def test_header_that_skips_an_axis_exits_one(tmp_path, capsys, fmt, axes, gap):
    """length does not read such a file as 1-D and exit 0."""
    header = {"generic_csv": "track,t", "trackmate_csv": "TRACK_ID,POSITION_T"}[fmt]
    path = tmp_path / "skip.csv"
    path.write_text(f"{header},{axes}\na,0,0,0\na,1,1,5\na,2,2,9\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "length", "--input", str(path), "--format", fmt)
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ") and gap in err


def test_header_without_a_time_column_exits_one(tmp_path, capsys):
    path = tmp_path / "no_t.csv"
    path.write_text("track,x,y\na,0,0\na,1,1\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "length", "--input", str(path))
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1
    assert err.startswith(f"error: {path}: header ") and "lacks required columns" in err


def test_convergence_check_passes_for_linear(capsys):
    code, out, _ = run_cli(
        capsys, "convergence", "--case", "conv3d", "--degrees", "1", "--check"
    )
    assert code == 0
    header, rows = read_csv_text(out)
    assert header == ["case", "N", "dt", "axis", "norm", "error", "order"]
    assert len(rows) == 4 * 3 * 3  # meshes x axes x norms
    assert rows[0][0] == "conv3d"


def test_convergence_custom_meshes(capsys):
    code, out, _ = run_cli(
        capsys, "convergence", "--degrees", "2", "--meshes", "50,100"
    )
    assert code == 0
    _, rows = read_csv_text(out)
    orders = [float(r[6]) for r in rows if r[6] and r[4] == "L1"]
    assert orders and all(abs(o - 3.0) < 0.25 for o in orders)


@pytest.mark.parametrize("argv", [
    ["convergence", "--degrees", ""],
    ["convergence", "--meshes", ","],
    ["compare", "--meshes", ","],
], ids=["convergence-degrees", "convergence-meshes", "compare-meshes"])
def test_empty_integer_list_exits_one(capsys, argv):
    """An empty list is an error, not a request for the default list."""
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert "comma-separated integers" in err


@pytest.mark.parametrize("argv, expected", [
    (["summary", "--input", "a.csv", "--degree", "3.5"],
     "argument --degree: expected an integer, got '3.5'"),
    (["convergence", "--degrees", "1,x"],
     "argument --degrees: expected comma-separated integers, got '1,x'"),
], ids=["degree", "degrees"])
def test_a_malformed_integer_names_what_was_expected(capsys, argv, expected):
    """A value that int() refuses is reported as the integer the flag
    expects, not by the name of a private parser function."""
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert expected in err
    assert re.search(r"\b_\w", err) is None, err


def test_convergence_repeated_mesh_exits_one(capsys):
    """Two equal meshes give no order (log(dt / dt) = 0), and a coarser mesh
    after a finer one would gate a coarse pair as the finest."""
    code, out, err = run_cli(capsys, "convergence", "--meshes", "100,100", "--degrees", "1")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "100" in err and "repeated" in err
    code, out, err = run_cli(capsys, "convergence", "--check", "--degrees", "1",
                             "--meshes", "100,200,400,200")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "400, 200 decrease" in err


@pytest.mark.parametrize("argv, message", [
    (["backtrace", "--case", "tanhcos2d", "--meshes", "-1"],
     "case 'tanhcos2d' needs at least 2 points, got -1"),
    (["backtrace", "--case", "tanhcos2d", "--meshes", "0"],
     "case 'tanhcos2d' needs at least 2 points, got 0"),
    (["backtrace", "--case", "conv3d", "--meshes", "1"],
     "case 'conv3d' needs at least 2 points, got 1"),
    (["compare", "--meshes", "1,21"], "case 'tanhcos2d' needs at least 2 points, got 1"),
    (["convergence", "--meshes", "0,10"], "mesh cell count 0: a mesh has at least 1 cell"),
], ids=["backtrace-negative", "backtrace-zero", "backtrace-one", "compare-one",
        "convergence-zero"])
def test_study_sizes_below_a_mesh_exit_one(capsys, argv, message):
    """A point count below 2, or a cell count below 1, is one error line
    naming the size, before any output."""
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err == f"error: {message}\n"


def test_compare_check_flags_a_reduced_fit(capsys):
    """On 2 and 3 points the cubic cannot be fitted: the CSV keeps the P3
    label, and the gate names each reduced fit before the other violations."""
    code, out, err = run_cli(capsys, "compare", "--meshes", "2,3", "--check")
    assert code == 2
    assert {r[1] for r in read_csv_text(out)[1]} == {"P1", "P3"}
    lines = err.splitlines()
    failed = lines[lines.index("check failed:") + 1:]
    assert failed[:2] == ["P3 at 2 points: fitted at degree 1",
                          "P3 at 3 points: fitted at degree 2"]


def test_convergence_check_failure_exits_two(capsys):
    """The table is written, then the violations follow "check failed:"."""
    code, out, err = run_cli(capsys, "convergence", "--check", "--degrees", "3",
                             "--meshes", "10,20")
    assert code == 2
    assert len(read_csv_text(out)[1]) == 2 * 3 * 3  # meshes x axes x norms
    lines = err.splitlines()
    assert lines[lines.index("check failed:") + 1] == (
        "N=3 cells=20 axis=x order(L1)=2.65 outside 4±0.25")


def test_convergence_check_flags_a_reduced_fit(capsys):
    """On 1 and 2 cells the cubic cannot be fitted: the table keeps N=3, and
    the gate names each reduced fit before the order violations."""
    code, out, err = run_cli(capsys, "convergence", "--meshes", "1,2", "--degrees", "3",
                             "--check")
    assert code == 2
    assert {r[1] for r in read_csv_text(out)[1]} == {"3"}
    lines = err.splitlines()
    failed = lines[lines.index("check failed:") + 1:]
    assert failed[:3] == ["N=3 cells=1: fitted at degree 1",
                          "N=3 cells=2: fitted at degree 2",
                          "N=3 cells=2 axis=x order(L1)=0.54 outside 4±0.25"]


def test_compare_row_shape(capsys):
    code, out, _ = run_cli(capsys, "compare", "--case", "tanhcos2d", "--meshes", "21,41")
    assert code == 0
    header, rows = read_csv_text(out)
    assert len(rows) == 2 * 2 * 2  # methods x meshes x axes
    assert {r[1] for r in rows} == {"P1", "P3"}


def test_compare_check_fails_at_coarse_mesh(capsys):
    # the 10x velocity gate is unattainable at 21 points (see ledger); the
    # command must report the violation and exit 2
    code, _, err = run_cli(capsys, "compare", "--check", "--meshes", "21,41,81")
    assert code == 2
    assert "velocity L2 ratio" in err


def test_compare_check_passes_at_fine_mesh(capsys):
    code, _, _ = run_cli(capsys, "compare", "--check", "--meshes", "81")
    assert code == 0


def test_backtrace_case_check(capsys):
    code, out, _ = run_cli(
        capsys, "backtrace", "--case", "tanhcos2d", "--dtau", "0.5", "--check"
    )
    assert code == 0
    header, rows = read_csv_text(out)
    assert header == ["track", "method", "endpoint_err", "L1", "L2", "Linf"]
    assert [r[1] for r in rows] == ["RK2+P1", "RK4+P3"]
    assert float(rows[1][4]) < float(rows[0][4])


def test_backtrace_case_check_failure_exits_two(capsys):
    """At dtau = dt every RK2 stage lands on a frame, where P1 meets the
    samples exactly, so RK4+P3 is not below it in any norm."""
    code, out, err = run_cli(capsys, "backtrace", "--case", "tanhcos2d", "--meshes", "5",
                             "--dtau", "0.5", "--check")
    assert code == 2
    assert [r[1] for r in read_csv_text(out)[1]] == ["RK2+P1", "RK4+P3"]
    lines = err.splitlines()
    failed = lines[lines.index("check failed:") + 1:]
    assert [line.split(":")[0] for line in failed] == [
        "backtrace L1", "backtrace L2", "backtrace Linf"]
    assert all("not below low-order" in line for line in failed)


def test_backtrace_file_mode(tmp_path, capsys, rng):
    rows_in = track_to_rows(random_track(rng, 12, dim=2, track_id="a"))
    path = write_csv(tmp_path / "a.csv", rows_in)
    code, out, _ = run_cli(capsys, "backtrace", "--input", path, "--dtau", "0.1")
    assert code == 0
    _, rows = read_csv_text(out)
    assert len(rows) == 2
    assert {r[1] for r in rows} == {"RK2+P1", "RK4+P3"}


@pytest.mark.parametrize("limiter", ["none", "cweno"])
def test_backtrace_logs_a_short_tracks_degree_reduction_once(tmp_path, capsys, caplog, limiter):
    """RK2+P1's cubic reference is fitted at the degree the track allows, so
    only RK4+P3's own fit logs the reduction."""
    path = write_csv(tmp_path / "a.csv", [("a", 0, 0, 0), ("a", 1, 1, 0), ("a", 2, 1, 1)])
    code, _, _ = run_cli(capsys, "backtrace", "--input", path, "--limiter", limiter)
    assert code == 0
    assert [r.message for r in caplog.records if "degree reduced" in r.message] == [
        "track 'a': degree reduced from 3 to 2 (3 samples)"
    ]


@pytest.mark.parametrize("limiter", ["none", "cweno"])
def test_backtrace_fits_each_tracks_reference_once(tmp_path, capsys, monkeypatch, rng, limiter):
    """One fit per method and one cubic reference, shared by both methods."""
    rows_in = [row for tid in "ab" for row in track_to_rows(random_track(rng, 9, 2, tid))]
    path = write_csv(tmp_path / "a.csv", rows_in)
    calls = []
    count_calls(monkeypatch, validate, "reconstruct_track", calls)
    code, _, _ = run_cli(capsys, "backtrace", "--input", path, "--limiter", limiter)
    assert code == 0
    assert len(calls) == 2 * 3


def test_backtrace_file_mode_rejects_check(tmp_path, capsys, rng):
    path = write_csv(tmp_path / "a.csv", track_to_rows(random_track(rng, 6, 2, "a")))
    code, _, err = run_cli(capsys, "backtrace", "--input", path, "--check")
    assert code == 1
    assert "--case" in err


def test_invalid_dtau_exits_one(tmp_path, capsys, rng):
    path = write_csv(tmp_path / "a.csv", track_to_rows(random_track(rng, 6, 2, "a")))
    code, _, err = run_cli(capsys, "backtrace", "--input", path, "--dtau", "-1")
    assert code == 1


@pytest.mark.parametrize("dtau", ["inf", "nan", "0"])
def test_non_finite_or_zero_dtau_exits_one(capsys, dtau):
    code, out, err = run_cli(capsys, "backtrace", "--case", "tanhcos2d", "--dtau", dtau)
    assert code == 1
    assert out == ""
    assert "dtau must be finite and > 0" in err


@pytest.mark.parametrize("source", ["--case", "--input"])
def test_dtau_with_too_many_steps_exits_one(tmp_path, capsys, rng, source):
    """1e-300 overflows the step count; 1e-18 gives 2e18 steps, which numpy
    refuses by size before it allocates anything."""
    path = write_csv(tmp_path / "a.csv", track_to_rows(random_track(rng, 6, 2, "a")))
    for dtau in ("1e-300", "1e-18"):
        code, out, err = run_cli(capsys, "backtrace", source,
                                 "conv3d" if source == "--case" else path, "--dtau", dtau)
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: dtau {dtau} ") and "duration" in err
        assert len(err.splitlines()) == 1


# 2e15 steps (16 PB) under a 4 GiB address-space cap: the allocator refuses
# them whatever the host's overcommit policy.
_CAPPED_BACKTRACE = """
import resource, sys
cap = 4 << 30
resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
sys.path.insert(0, %r)
from shotr.cli import main
sys.exit(main(sys.argv[1:]))
""" % str(Path(__file__).resolve().parents[1] / "src")


@pytest.mark.parametrize("source", ["--case", "--input"])
def test_dtau_whose_steps_cannot_be_allocated_exits_one(tmp_path, rng, source):
    pytest.importorskip("resource")
    path = write_csv(tmp_path / "a.csv", track_to_rows(random_track(rng, 6, 2, "a")))
    done = subprocess.run(
        [sys.executable, "-c", _CAPPED_BACKTRACE, "backtrace", source,
         "conv3d" if source == "--case" else str(path), "--dtau", "1e-15"],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 1
    assert done.stdout == ""
    assert done.stderr.startswith("error: dtau 1e-15 gives ") and "allocate" in done.stderr
    assert len(done.stderr.splitlines()) == 1


def test_invalid_degree_exits_one(tmp_path, capsys, rng):
    path = write_csv(tmp_path / "a.csv", track_to_rows(random_track(rng, 6, 2, "a")))
    code, _, err = run_cli(capsys, "summary", "--input", path, "--degree", "0")
    assert code == 1
    assert "degree" in err


def test_degree_above_the_library_range_exits_before_reading_input(tmp_path, capsys):
    # every track has one sample and is dropped, so no reconstruction runs
    path = write_csv(tmp_path / "a.csv", [("a", 0.0, 1.0), ("b", 0.0, 2.0)], header="track,t,x")
    code, out, err = run_cli(capsys, "length", "--input", path, "--degree", str(MAX_DEGREE + 1))
    assert code == 1
    assert out == ""
    assert f"degree must be in [1, {MAX_DEGREE}], got {MAX_DEGREE + 1}" in err
    assert "dropped" not in err


def _subparsers():
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return sub.choices


def test_limiter_names_are_the_library_names():
    for name, p in _subparsers().items():
        for action in p._actions:
            if "--limiter" in action.option_strings:
                assert tuple(action.choices) == LIMITERS, name


def test_format_names_are_the_library_names():
    """--format offers trajdata's formats, and its first is the default."""
    seen = 0
    for name, p in _subparsers().items():
        for action in p._actions:
            if "--format" in action.option_strings:
                seen += 1
                assert tuple(action.choices) == tuple(FORMATS), name
                assert action.default in (None, next(iter(FORMATS))), name
    assert seen == 5  # the four file commands and backtrace


@pytest.mark.parametrize("command", ["convergence", "compare"])
def test_empty_case_name_exits_one(capsys, command):
    code, out, err = run_cli(capsys, command, "--case", "")
    assert code == 1
    assert out == ""
    assert "unknown case" in err


def test_cli_lengths_are_the_library_defaults(tmp_path, capsys, rng):
    """At default flags `length` and `summary` report the library's own
    lengths, degree-reduced tracks included."""
    tracks = [random_track(rng, n, 2, f"t{n}") for n in (2, 3, 40)]
    path = write_csv(tmp_path / "a.csv", [r for t in tracks for r in track_to_rows(t)])
    code, out, _ = run_cli(capsys, "length", "--input", path)
    assert code == 0
    _, length_rows = read_csv_text(out)
    code, out, _ = run_cli(capsys, "summary", "--input", path)
    assert code == 0
    _, summary_rows = read_csv_text(out)
    want_length, want_summary = [], []
    for track in tracks:
        polys = reconstruct_track(track, 3, "cweno")
        want_length.append([track.track_id, format(trajectory_length(polys), ".17g")])
        length = summarize(polys, split_axes(track)).length
        want_summary.append([track.track_id, format(length, ".17g")])
    assert length_rows == want_length
    assert [[r[0], r[8]] for r in summary_rows] == want_summary


OUTPUT = {"--output"}
RECONSTRUCTION = {"--degree", "--limiter"}
FILE_INPUT = {"--input", "--format"}
EXPECTED_OPTIONS = {
    "reconstruct": OUTPUT | RECONSTRUCTION | FILE_INPUT,
    "kinematics": OUTPUT | RECONSTRUCTION | FILE_INPUT,
    "length": OUTPUT | RECONSTRUCTION | FILE_INPUT,
    "summary": OUTPUT | RECONSTRUCTION | FILE_INPUT,
    "convergence": OUTPUT | {"--case", "--degrees", "--meshes", "--check"},
    "compare": OUTPUT | {"--case", "--meshes", "--check"},
    "backtrace": OUTPUT | FILE_INPUT | {"--limiter", "--case", "--meshes", "--dtau", "--check"},
}


def test_every_subcommand_accepts_only_the_options_it_reads():
    options = {
        name: {s for action in p._actions for s in action.option_strings} - {"-h", "--help"}
        for name, p in _subparsers().items()
    }
    assert options == EXPECTED_OPTIONS
    assert sum(len(opts) for opts in options.values()) == 37
    # README's "Command line" section names every option and no other
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Command line", 1)[1].split("\n## ", 1)[0]
    assert set(re.findall(r"--[a-z][a-z0-9-]*", section)) == set().union(*options.values())


# the limiter constants and the geometry degree are the library defaults
REMOVED_TUNING_FLAGS = {
    f"{command}{flag}": [command, "--input", "{path}", flag]
    for command in ("reconstruct", "kinematics", "length", "summary")
    for flag in ("--cweno-eps=1e-10", "--cweno-r=2", "--cweno-lambda0=0.5", "--geom-degree=1")
}


@pytest.mark.parametrize("argv", [
    ["convergence", "--limiter", "cweno"],
    ["compare", "--degree", "5"],
    ["backtrace", "--input", "{path}", "--cweno-r", "9"],
    ["backtrace", "--case", "tanhcos2d", "--limiter", "none"],
    ["backtrace", "--case", "tanhcos2d", "--meshes", "21,41"],
    ["backtrace", "--input", "{path}", "--meshes", "81"],
    ["backtrace", "--case", "tanhcos2d", "--format", "trackmate_csv"],
    *REMOVED_TUNING_FLAGS.values(),
], ids=["convergence-limiter", "compare-degree", "backtrace-input-cweno-r",
        "backtrace-case-limiter", "backtrace-case-two-meshes", "backtrace-input-meshes",
        "backtrace-case-format", *REMOVED_TUNING_FLAGS])
def test_flags_a_subcommand_does_not_use_exit_one(tmp_path, capsys, rng, argv):
    path = write_csv(tmp_path / "a.csv", track_to_rows(random_track(rng, 6, 2, "a")))
    code, out, err = run_cli(capsys, *(a.format(path=path) for a in argv))
    assert code == 1
    assert out == ""
    assert err


def _default_limiter_input(tmp_path, rng):
    sizes = [40, 7] + [2] * 6  # two samples: degree 1 is used whatever the request
    tracks = [random_track(rng, n, 3, f"t{i}") for i, n in enumerate(sizes)]
    rows = [r for t in tracks for r in track_to_rows(t)]
    path = write_csv(tmp_path / "d.csv", rows, header="track,t,x,y,z")
    return path, parse_tracks(path).tracks


def test_cli_default_limiter_is_the_library_default(tmp_path, capsys, rng):
    """The CLI's reconstruction and the library's default call run one limiter."""
    path, tracks = _default_limiter_input(tmp_path, rng)
    code, out, _ = run_cli(capsys, "reconstruct", "--input", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["limiter"] == "cweno"
    for tid, track in tracks.items():
        expected = [oracle.poly_to_dict(p)["cells"] for p in reconstruct_track(track, 3, "cweno")]
        assert doc["tracks"][tid]["axes"] == expected


def test_backtrace_rows_are_the_library_default(tmp_path, capsys, rng):
    path, tracks = _default_limiter_input(tmp_path, rng)
    code, out, _ = run_cli(capsys, "backtrace", "--input", path, "--dtau", "0.05")
    assert code == 0
    _, rows = read_csv_text(out)
    expected = []
    for tid, track in tracks.items():
        for method, degree in (("RK2+P1", 1), ("RK4+P3", 3)):
            res = validate.backtrace(track, degree, 0.05, limiter="cweno")
            expected.append([tid, method]
                            + [format(v, ".17g") for v in (res.endpoint_error,
                                                           *res.combined.as_tuple())])
    assert rows == expected
