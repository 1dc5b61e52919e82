import csv
import json

import numpy as np
import pytest

from shotr.cli import main
from shotr.recon import reconstruct_track
from shotr.trajdata import parse_tracks, split_axes

from .conftest import random_track, write_csv


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
        "--degree", "1", "--limiter", "none", "--geom-degree", "1",
    )
    assert code == 0
    _, rows = read_csv_text(out)
    assert float(rows[0][1]) == pytest.approx(2.0, abs=1e-12)

    code, out, _ = run_cli(
        capsys, "summary", "--input", path,
        "--degree", "1", "--limiter", "none", "--geom-degree", "1",
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


def test_backtrace_file_mode(tmp_path, capsys, rng):
    rows_in = track_to_rows(random_track(rng, 12, dim=2, track_id="a"))
    path = write_csv(tmp_path / "a.csv", rows_in)
    code, out, _ = run_cli(capsys, "backtrace", "--input", path, "--dtau", "0.1")
    assert code == 0
    _, rows = read_csv_text(out)
    assert len(rows) == 2
    assert {r[1] for r in rows} == {"RK2+P1", "RK4+P3"}


def test_backtrace_file_mode_rejects_check(tmp_path, capsys, rng):
    path = write_csv(tmp_path / "a.csv", track_to_rows(random_track(rng, 6, 2, "a")))
    code, _, err = run_cli(capsys, "backtrace", "--input", path, "--check")
    assert code == 1
    assert "--case" in err


def test_cweno_flag_overrides(tmp_path, capsys):
    path = write_csv(tmp_path / "a.csv", [("a", 0, 0, 0), ("a", 1, 1, 0), ("a", 2, 0, 0)])
    code, out, _ = run_cli(
        capsys, "reconstruct", "--input", path,
        "--cweno-lambda0", "0.5", "--cweno-eps", "1e-10", "--cweno-r", "2",
    )
    assert code == 0
    assert json.loads(out)["limiter"] == "cweno"


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


@pytest.mark.parametrize("flag, value, field", [
    ("--cweno-eps", "nan", "epsilon"),
    ("--cweno-eps", "0", "epsilon"),
    ("--cweno-eps", "-1e-14", "epsilon"),
    ("--cweno-lambda0", "nan", "lambda_central"),
    ("--cweno-lambda0", "inf", "lambda_central"),
])
def test_invalid_cweno_parameters_exit_one(tmp_path, capsys, flag, value, field):
    path = write_csv(tmp_path / "c.csv", [("a", t, 1.0, 2.0) for t in range(6)])
    code, out, err = run_cli(capsys, "length", "--input", path, f"{flag}={value}")
    assert code == 1
    assert out == ""
    assert field in err


def test_invalid_degree_exits_one(tmp_path, capsys, rng):
    path = write_csv(tmp_path / "a.csv", track_to_rows(random_track(rng, 6, 2, "a")))
    code, _, err = run_cli(capsys, "summary", "--input", path, "--degree", "0")
    assert code == 1
    assert "degree" in err
