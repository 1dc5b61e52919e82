"""The text the file commands write, against the reference layouts in
``tests/oracle.py``: reconstruct's stdout is ``json.dump(doc, indent=2)``
of the per-track document, and the CSV commands' stdout is one row per
``KinematicSample`` (kinematics) or per track (length, summary), every
value formatted on its own."""

import csv
import io
import json

import numpy as np
import pytest

from shotr import cli
from shotr.cli import main
from shotr.recon import LIMITERS, PiecewisePoly, reconstruct_track
from shotr.trajdata import TrackSeries, parse_tracks

from . import oracle
from .conftest import random_track

# ids csv and JSON must quote or escape: quotes, backslashes, commas,
# %-templates and non-ASCII text
TRACK_IDS = ["plain", 'say "hi"', "back\\slash", "ünï€😀", "a,b", "100%", "%s%d", "7"]


def write_tracks(path, tracks) -> str:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(["track", "t", "x", "y", "z"][: 2 + tracks[0].dim])
        for track in tracks:
            for t, coord in zip(track.times, track.coords):
                out.writerow([track.track_id, repr(float(t))] + [repr(float(c)) for c in coord])
    return str(path)


@pytest.fixture(params=[1, 2, 3], ids=lambda d: f"dim{d}")
def track_file(request, tmp_path, rng):
    """Tracks of 2 to 60 samples under awkward ids, in a file of one dim."""
    lengths = [2, 3, 5, 9, 12, 21, 60, 4]
    tracks = [random_track(rng, n, request.param, tid) for n, tid in zip(lengths, TRACK_IDS)]
    path = write_tracks(tmp_path / "tracks.csv", tracks)
    return path, list(parse_tracks(path).tracks.values())


def run(capsys, *argv) -> str:
    code = main(list(argv))
    out = capsys.readouterr().out
    assert code == 0
    return out


@pytest.mark.parametrize("limiter", LIMITERS)
@pytest.mark.parametrize("degree", [1, 2, 3, 9])
def test_reconstruct_stdout_is_json_dump_of_the_document(track_file, capsys, degree, limiter):
    path, tracks = track_file
    out = run(capsys, "reconstruct", "--input", path, "--degree", str(degree),
              "--limiter", limiter)
    pairs = [(t, reconstruct_track(t, degree, limiter)) for t in tracks]
    assert out == oracle.reconstruct_json(pairs, degree, limiter)


@pytest.mark.parametrize("limiter", LIMITERS)
@pytest.mark.parametrize("degree", [1, 2, 3, 9])
def test_kinematics_stdout_is_one_row_per_sample(track_file, capsys, degree, limiter):
    path, tracks = track_file
    out = run(capsys, "kinematics", "--input", path, "--degree", str(degree),
              "--limiter", limiter)
    pairs = [(t, reconstruct_track(t, degree, limiter)) for t in tracks]
    assert out == oracle.kinematics_csv(pairs)


@pytest.mark.parametrize("limiter", LIMITERS)
@pytest.mark.parametrize("degree", [1, 2, 3, 9])
@pytest.mark.parametrize("command", ["length", "summary"])
def test_length_and_summary_stdout_is_one_row_per_track(track_file, capsys, command, degree,
                                                        limiter):
    path, tracks = track_file
    out = run(capsys, command, "--input", path, "--degree", str(degree), "--limiter", limiter)
    pairs = [(t, reconstruct_track(t, degree, limiter)) for t in tracks]
    assert out == {"length": oracle.length_csv, "summary": oracle.summary_csv}[command](pairs)


@pytest.mark.parametrize("command", ["kinematics", "summary", "length"])
def test_tables_formatted_a_few_rows_at_a_time_give_the_same_text(track_file, capsys,
                                                                  monkeypatch, command):
    path, _ = track_file
    whole = run(capsys, command, "--input", path)
    monkeypatch.setattr(cli, "_BLOCK_ROWS", 3)
    assert run(capsys, command, "--input", path) == whole


@pytest.mark.parametrize("block", [1, 3])
def test_json_formatted_a_few_cells_at_a_time_gives_the_same_text(track_file, tmp_path, capsys,
                                                                   monkeypatch, block):
    """Most tracks of the file are longer than the block; a file whose one
    track is dropped writes no track at all."""
    path, _ = track_file
    dropped = tmp_path / "dropped.csv"
    dropped.write_text("track,t,x\na,0.0,1.0\n", encoding="utf-8")
    paths = [path, str(dropped)]
    whole = [run(capsys, "reconstruct", "--input", p) for p in paths]
    monkeypatch.setattr(cli, "_BLOCK_ROWS", block)
    assert [run(capsys, "reconstruct", "--input", p) for p in paths] == whole


def test_file_of_dropped_tracks(tmp_path, capsys):
    """Every track has one usable sample: an empty "tracks" object and CSV
    headers with no rows."""
    path = tmp_path / "short.csv"
    path.write_text("track,t,x\na,0.0,1.0\nb,1.0,2.0\nb,2.0,nan\n", encoding="utf-8")
    out = run(capsys, "reconstruct", "--input", str(path))
    assert out == json.dumps({"degree": 3, "limiter": "cweno", "tracks": {}}, indent=2) + "\n"
    out = run(capsys, "kinematics", "--input", str(path))
    assert out == oracle.kinematics_csv([])
    assert run(capsys, "length", "--input", str(path)) == oracle.length_csv([])
    assert run(capsys, "summary", "--input", str(path)) == oracle.summary_csv([])


def test_non_finite_coefficients_are_spelled_as_json_dump_spells_them(
        tmp_path, capsys, monkeypatch, rng):
    track = random_track(rng, 4, 2, "a")
    path = write_tracks(tmp_path / "a.csv", [track])
    polys = reconstruct_track(track, 2)
    coeffs = polys[1].coeffs.copy()
    coeffs[0, :3] = [np.nan, np.inf, -np.inf]
    polys = [polys[0], PiecewisePoly(polys[1].mesh, coeffs)]
    monkeypatch.setattr(cli, "reconstruct_tracks",
                        lambda tracks, degree, limiter: ((t, polys) for t in tracks))
    out = run(capsys, "reconstruct", "--input", path, "--degree", "2")
    assert out == oracle.reconstruct_json([(track, polys)], 2, "cweno")
    assert '"center": ' in out and "NaN,\n" in out and "-Infinity\n" in out


def test_csv_rows_format_as_format_17g():
    values = [0.0, -0.0, 1.0, -2.5, 0.1, 1 / 3, 1e-320, 5e-324, 1.7976931348623157e308,
              123456789012345678.0, 1e16, 1e17, np.nan, np.inf, -np.inf, 2.0**-1074 * 3]
    table = np.array(values + [0.0] * (-len(values) % 4)).reshape(-1, 4)
    for track_id in TRACK_IDS + [""]:
        text = cli._csv_rows(track_id, table)
        want = [[track_id] + [format(float(x), ".17g") for x in row] for row in table]
        assert list(csv.reader(text.splitlines())) == want
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(want)
        assert text == buf.getvalue()


def test_awkward_track_ids_survive_the_file(tmp_path):
    """The awkward ids survive the file: what the tests above compare is
    the id text itself."""
    tracks = [TrackSeries(tid, [0.0, 1.0], [0.0, 1.0]) for tid in TRACK_IDS]
    path = write_tracks(tmp_path / "ids.csv", tracks)
    assert list(parse_tracks(path).tracks) == TRACK_IDS
