import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shotr.errors import DuplicateTimestamp, MalformedRow, NonMonotoneTimes
from shotr.trajdata import TrackSeries, parse_tracks, split_axes

from .conftest import write_csv


def test_parse_generic_single_track(tmp_path):
    path = write_csv(tmp_path / "a.csv", [("a", 0, 1.0, 2.0), ("a", 1, 3.0, 4.0), ("a", 2, 5.0, 6.0)])
    ts = parse_tracks(path)
    assert len(ts) == 1
    track = ts.tracks["a"]
    assert len(track) == 3
    assert track.dim == 2
    np.testing.assert_array_equal(track.times, [0, 1, 2])
    np.testing.assert_array_equal(track.coords, [[1, 2], [3, 4], [5, 6]])


def test_parse_infers_dimension_from_header(tmp_path):
    path = write_csv(tmp_path / "a.csv", [("a", 0, 1.0), ("a", 1, 2.0)], header="track,t,x")
    assert parse_tracks(path).tracks["a"].dim == 1
    path = write_csv(
        tmp_path / "b.csv", [("a", 0, 1, 2, 3), ("a", 1, 2, 3, 4)], header="track,t,x,y,z"
    )
    assert parse_tracks(path).tracks["a"].dim == 3


@pytest.mark.parametrize("fmt, header, present, missing", [
    ("generic_csv", "track,t,x,z", "z", "y"),
    ("generic_csv", "track,t,y", "y", "x"),
    ("trackmate_csv", "TRACK_ID,POSITION_T,POSITION_X,POSITION_Z", "POSITION_Z", "POSITION_Y"),
    ("trackmate_csv", "TRACK_ID,POSITION_T,POSITION_Y,POSITION_Z", "POSITION_Y", "POSITION_X"),
])
def test_header_that_skips_an_axis_is_rejected(tmp_path, fmt, header, present, missing):
    """The axes after a gap are not dropped: x,z is no 1-D file."""
    path = write_csv(tmp_path / "a.csv", [("a", 0, 1, 2), ("a", 1, 3, 4)], header=header)
    with pytest.raises(MalformedRow, match=f"has column '{present}' but lacks '{missing}'$"):
        parse_tracks(path, fmt)


def test_duplicate_timestamp_names_track(tmp_path):
    path = write_csv(tmp_path / "a.csv", [("a", 0, 1, 1), ("a", 0, 2, 2), ("a", 1, 3, 3)])
    with pytest.raises(DuplicateTimestamp, match="'a'"):
        parse_tracks(path)


def test_trackmate_matches_generic(tmp_path):
    """The TrackMate column mapping yields the same data as a generic file."""
    rows = [("7", 0.0, 1.5, -2.0), ("7", 0.144, 1.6, -2.1), ("7", 0.288, 1.8, -2.0)]
    generic = write_csv(tmp_path / "g.csv", rows)
    tm_lines = ["LABEL,TRACK_ID,QUALITY,POSITION_X,POSITION_Y,POSITION_T,FRAME"]
    for tid, t, x, y in rows:
        tm_lines.append(f"spot,{tid},1.0,{x},{y},{t},0")
    tm_path = tmp_path / "tm.csv"
    tm_path.write_text("\n".join(tm_lines) + "\n", encoding="utf-8")

    a = parse_tracks(generic)
    b = parse_tracks(str(tm_path), fmt="trackmate_csv")
    assert a.tracks.keys() == b.tracks.keys()
    np.testing.assert_array_equal(a.tracks["7"].times, b.tracks["7"].times)
    np.testing.assert_array_equal(a.tracks["7"].coords, b.tracks["7"].coords)


def test_malformed_row_reports_line_number(tmp_path):
    path = write_csv(tmp_path / "a.csv", [("a", 0, 1, 1), ("a", "oops", 2, 2)])
    with pytest.raises(MalformedRow, match="line 3"):
        parse_tracks(path)


def test_missing_fields_reports_line_number(tmp_path):
    path = tmp_path / "a.csv"
    path.write_text("track,t,x,y\na,0,1,1\na,1\n", encoding="utf-8")
    with pytest.raises(MalformedRow, match="line 3"):
        parse_tracks(str(path))


def test_first_bad_line_in_file_order_is_reported(tmp_path):
    """An unparsable time before a short row is the error, not the short row."""
    path = tmp_path / "a.csv"
    path.write_text("track,t,x,y\na,0,1,1\na,zero,2,2\na,2,3,3\na,3\n", encoding="utf-8")
    with pytest.raises(MalformedRow, match="^line 3: cannot parse time from 'zero'$"):
        parse_tracks(str(path))
    path.write_text("track,t,x,y\na,0,1,1\na,1\na,zero,2,2\n", encoding="utf-8")
    with pytest.raises(MalformedRow, match="^line 3: expected at least 4 fields, got 2$"):
        parse_tracks(str(path))


def test_utf8_byte_order_mark_is_skipped(tmp_path):
    """Spreadsheet exports often start with a UTF-8 byte-order mark."""
    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbftrack,t,x\na,0,1\na,1,2\n")
    ts = parse_tracks(str(path))
    assert list(ts.tracks) == ["a"]
    np.testing.assert_array_equal(ts.tracks["a"].coords, [[1.0], [2.0]])


def test_non_finite_rows_rejected_with_warning(tmp_path, caplog):
    path = write_csv(
        tmp_path / "a.csv",
        [("a", 0, 1, 1), ("a", 1, "nan", 2), ("a", 2, 3, 3), ("a", 3, "inf", 1)],
    )
    with caplog.at_level(logging.WARNING):
        ts = parse_tracks(path)
    assert len(ts.tracks["a"]) == 2
    assert sum("non-finite" in r.message for r in caplog.records) == 2


def test_short_tracks_dropped_with_warning(tmp_path, caplog):
    path = write_csv(tmp_path / "a.csv", [("a", 0, 1, 1), ("b", 0, 1, 1), ("b", 1, 2, 2)])
    with caplog.at_level(logging.WARNING):
        ts = parse_tracks(path)
    assert set(ts.tracks) == {"b"}
    assert any("dropped" in r.message for r in caplog.records)


def test_parse_sorts_rows_and_is_order_independent(tmp_path):
    rows = [("a", 2, 5, 6), ("a", 0, 1, 2), ("a", 1, 3, 4)]
    shuffled = write_csv(tmp_path / "s.csv", rows)
    ordered = write_csv(tmp_path / "o.csv", sorted(rows, key=lambda r: r[1]))
    a = parse_tracks(shuffled)
    b = parse_tracks(ordered)
    np.testing.assert_array_equal(a.tracks["a"].times, b.tracks["a"].times)
    np.testing.assert_array_equal(a.tracks["a"].coords, b.tracks["a"].coords)


def test_empty_file_is_malformed(tmp_path):
    path = tmp_path / "a.csv"
    path.write_text("", encoding="utf-8")
    with pytest.raises(MalformedRow):
        parse_tracks(str(path))


def test_split_axes_projects_components():
    track = TrackSeries("a", [0.0, 1.0], [[1.0, 2.0], [3.0, 4.0]])
    xs, ys = split_axes(track)
    np.testing.assert_array_equal(xs.values, [1, 3])
    np.testing.assert_array_equal(ys.values, [2, 4])
    np.testing.assert_array_equal(xs.times, track.times)
    for axis in (xs, ys):
        assert isinstance(axis, TrackSeries)
        assert (axis.track_id, axis.dim, axis.coords.shape) == ("a", 1, (2, 1))


def test_split_axes_1d_identity():
    track = TrackSeries("a", [0.0, 1.0, 2.0], [[5.0], [6.0], [7.0]])
    (axis,) = split_axes(track)
    np.testing.assert_array_equal(axis.values, [5, 6, 7])


@settings(max_examples=50, deadline=None)
@given(
    n=st.integers(2, 20),
    dim=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_split_then_reassemble_is_identity(n, dim, seed):
    rng = np.random.default_rng(seed)
    times = np.cumsum(rng.uniform(0.01, 1.0, n))
    coords = rng.normal(size=(n, dim))
    track = TrackSeries("a", times, coords)
    back = np.column_stack([s.values for s in split_axes(track)])
    np.testing.assert_array_equal(back, track.coords)


def test_values_are_the_samples_of_a_one_axis_track():
    track = TrackSeries("a", [0.0, 1.0, 2.0], [5.0, 6.0, 7.0])
    np.testing.assert_array_equal(track.values, [5, 6, 7])
    assert track.values.shape == (3,)
    with pytest.raises(ValueError):
        track.values[0] = 1.0  # read-only, as the coordinates are
    with pytest.raises(ValueError, match="track 'b' has 2 axes"):
        TrackSeries("b", [0.0, 1.0], [[1.0, 2.0], [3.0, 4.0]]).values


def test_track_series_invariants():
    with pytest.raises(ValueError):
        TrackSeries("a", [0.0], [[1.0]])  # too short
    with pytest.raises(DuplicateTimestamp, match="track 'a' has duplicate"):
        TrackSeries("a", [0.0, 0.0], [[1.0], [2.0]])
    with pytest.raises(NonMonotoneTimes, match="track 'a' has decreasing"):
        TrackSeries("a", [0.0, 2.0, 1.0], [[1.0], [2.0], [3.0]])
    with pytest.raises(ValueError, match=r"^coords must have 1 to 3 columns, got shape \(2, 4\)$"):
        TrackSeries("a", [0.0, 1.0], np.ones((2, 4)))
    with pytest.raises(ValueError, match=r"^coords shape \(3, 2\) does not match 2 times$"):
        TrackSeries("a", [0.0, 1.0], np.ones((3, 2)))
    with pytest.raises(ValueError, match=r"^coords shape \(3, 1\) does not match 2 times$"):
        TrackSeries("a", [0.0, 1.0], [1.0, 2.0, 3.0])
    track = TrackSeries("a", [0.0, 1.0], [[1.0], [2.0]])
    with pytest.raises(ValueError):
        track.times[0] = 5.0  # read-only after construction


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_dimension_is_the_number_of_coordinate_columns(dim):
    track = TrackSeries("a", [0.0, 1.0], np.ones((2, dim)))
    assert track.dim == dim
    with pytest.raises(AttributeError):
        track.dim = 2  # derived from coords, not settable


def test_nan_time_rejected_as_non_finite():
    # not reported as a non-increasing (duplicate) timestamp
    with pytest.raises(ValueError, match="track 'p7' has non-finite"):
        TrackSeries("p7", [0.0, np.nan, 2.0], [[1.0], [2.0], [3.0]])


def test_nan_coordinate_rejected_as_non_finite():
    with pytest.raises(ValueError, match="track 'p7' has non-finite"):
        TrackSeries("p7", [0.0, 1.0, 2.0], [[1.0, 0.0], [np.nan, 0.0], [3.0, 0.0]])


def test_track_series_rejects_infinite_time():
    with pytest.raises(ValueError, match="track 'p7' has non-finite"):
        TrackSeries("p7", [0.0, 1.0, np.inf], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="track 'p7' has non-finite"):
        TrackSeries("p7", [0.0, 1.0, 2.0], [1.0, -np.inf, 3.0])
