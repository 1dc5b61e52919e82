"""Differential tests: the batched array core against the per-cell oracle."""

import logging

import numpy as np
import pytest

from shotr import trajdata
from shotr.errors import ShotrError
from shotr.mesh import build_mesh
from shotr.recon import MAX_DEGREE, reconstruct_track
from shotr.trajdata import TrackSeries, parse_tracks
from shotr.validate import backtrace, error_norms

from . import oracle
from .conftest import random_times, random_track


def assert_matches(got, ref):
    np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12 * np.abs(ref).max())


@pytest.mark.parametrize("degree", range(1, MAX_DEGREE + 1))
def test_array_core_matches_oracle(rng, degree):
    """Random non-uniform tracks of every short length and one long one,
    without and with the limiter, at arbitrary time and value scales,
    against the exact rational solve."""
    for n in [*range(2, 2 * degree + 5), 60]:
        times = random_times(rng, n, t0=rng.uniform(-10, 10)) * 10.0 ** rng.uniform(-3, 3)
        values = rng.normal(size=n).cumsum() * 10.0 ** rng.uniform(-3, 3)
        series = TrackSeries("axis", times, values)
        ref = oracle.reconstruct_axis(series, degree)
        assert_matches(reconstruct_track(series, degree)[0].coeffs, ref)
        assert_matches(reconstruct_track(series, degree, "cweno")[0].coeffs,
                       oracle.limit(ref, series))


# one cell 1e-15 the width of its neighbours (1e85 next to 1e100 once scaled)
FORMER_SINGULAR_TIMES = [
    np.array([0, 1, 2, 3, 3 + 1e-15, 4, 5, 6, 7, 8, 9, 10.0]),
    np.array([0, 1, 2, 3, 4, 5, 6, 6 + 1e-15, 7, 8, 9, 10, 11, 12, 13, 14.0]),
]


@pytest.mark.parametrize("times", FORMER_SINGULAR_TIMES)
def test_extreme_width_ratios_fit_at_full_degree(caplog, times):
    """Both interface samples of every cell are met, and the limiter
    matches the oracle's on the exact fit."""
    series = TrackSeries("axis", times * 1e100, np.sin(np.arange(len(times), dtype=float)))
    with caplog.at_level(logging.WARNING):
        poly = reconstruct_track(series, 3)[0]
        limited = reconstruct_track(series, 3, "cweno")[0]
    assert caplog.records == []
    assert poly.degree == 3
    t, s = series.times, series.values
    for at, samples in ((t[:-1], s[:-1]), (t[1:], s[1:])):
        got = np.array([c.value(x) for c, x in zip(poly.cells, at)])
        np.testing.assert_allclose(got, samples, rtol=0, atol=1e-12)
    ref = oracle.reconstruct_axis(series, 3)
    assert_matches(poly.coeffs, ref)
    assert_matches(limited.coeffs, oracle.limit(ref, series))


@pytest.mark.parametrize("times", FORMER_SINGULAR_TIMES)
def test_limiter_keeps_the_fit_where_the_weights_are_linear(times):
    """At 1e100 every sigma is far below epsilon, so the weights are the
    linear ones and the limited fit is the unlimited one, samples included.
    Summing candidates 1e15 times the data scale missed samples by 3e-4."""
    series = TrackSeries("axis", times * 1e100, np.sin(np.arange(len(times), dtype=float)))
    np.testing.assert_array_equal(reconstruct_track(series, 3, "cweno")[0].coeffs,
                                  reconstruct_track(series, 3)[0].coeffs)


@pytest.mark.parametrize("limiter", ["none", "cweno"])
@pytest.mark.parametrize("degree", [1, 2, 3, 5])
def test_backtrace_matches_stepwise_oracle(rng, degree, limiter):
    """The all-steps-at-once backtrace reproduces the step-by-step loop bit
    for bit: steps that divide the duration, a partial final step, and a
    step longer than the track."""
    for n, dim in [(2, 3), (3, 2), (2 * degree + 3, 3), (40, 2), (260, 3)]:
        track = random_track(rng, n, dim)
        duration = track.times[-1] - track.times[0]
        for dtau in (duration / 7, 0.37 * duration / min(n, 30), 2.5 * duration):
            for order in (None, "rk2", "rk4"):
                res = backtrace(track, degree, dtau, order=order, limiter=limiter)
                taus, path = oracle.backtrace_path(track, degree, dtau, order, limiter)
                assert np.array_equal(res.taus, taus)
                assert np.array_equal(res.path, path)


def test_error_norms_match_per_cell_oracle(rng):
    """Full, clipped and partially overlapping windows, on reconstructions
    and on closed-form functions, to 1e-13 relative."""
    for _ in range(20):
        n = int(rng.integers(2, 200))
        track = random_track(rng, n, 1)
        poly = reconstruct_track(track, int(rng.integers(1, 6)))[0]
        mesh = build_mesh(track.times)
        t0, t1 = mesh.span
        span = t1 - t0
        g = lambda t: np.sin(3 * t) + 0.1 * t**2
        windows = [
            (t0, t1),
            (t0 + 0.3 * span, t1 - 0.2 * span),
            (t0 - span, t0 + 0.4 * span),
            (t0 + 0.6 * span, t1 + span),
        ]
        for window in windows:
            for quad in (1, 4, 7):
                got = error_norms(g, poly.value, window, quad, mesh)
                ref = oracle.error_norms(g, poly.value, window, quad, mesh)
                np.testing.assert_allclose(got.as_tuple(), ref.as_tuple(), rtol=1e-13, atol=0)


NON_FINITE = ("nan", "NaN", "inf", "-inf", "Infinity")


def _token(rng, x: float) -> str:
    """The same number written the ways real exports write it."""
    return [repr(x), format(x, ".6g"), f" {x!r} ", format(x, ".3e")][int(rng.integers(4))]


def _random_rows(rng, dim: int) -> list[tuple[str, str, list[str]]]:
    """(track id field, time token, coordinate tokens) of a few tracks in
    shuffled order: one-sample tracks, non-finite rows, quoted ids, ids with
    a comma and ids with surrounding spaces. The first row in the file of a
    track with three or more rows is non-finite, so that track is ordered
    by its first accepted row."""
    rows = []
    for k in range(int(rng.integers(3, 12))):
        n = int(rng.integers(1, 12))
        times = rng.uniform(-5, 5) + np.cumsum(rng.uniform(0.01, 1.0, n))
        coords = rng.normal(size=(n, dim)).cumsum(axis=0)
        tid = [f"p{k}", f'"q {k}"', f'"r,{k}"', f"  s{k} ", str(k)][int(rng.integers(5))]
        for i in range(n):
            tokens = [_token(rng, float(c)) for c in coords[i]]
            t = _token(rng, float(times[i]))
            if rng.uniform() < 0.1:
                bad = NON_FINITE[int(rng.integers(len(NON_FINITE)))]
                if rng.uniform() < 0.3:
                    t = bad
                else:
                    tokens[int(rng.integers(dim))] = bad
            rows.append((tid, t, tokens))
    rows = [rows[i] for i in rng.permutation(len(rows))]
    ids = [tid for tid, _, _ in rows]
    tid = next((tid for tid in ids if ids.count(tid) >= 3), None)
    if tid is not None:
        first = ids.index(tid)
        rows[first] = (tid, "nan", rows[first][2])
    return rows


def _write(path, rng, rows, layout: str, dim: int) -> str:
    """Write rows in the generic or TrackMate layout, with blank lines."""
    if layout == "generic_csv":
        lines = ["track,t," + ",".join("xyz"[:dim])]
        lines += [",".join([tid, t, *c]) for tid, t, c in rows]
    else:
        axes = ["POSITION_X", "POSITION_Y", "POSITION_Z"][:dim]
        lines = ["LABEL,TRACK_ID,QUALITY," + ",".join(axes) + ",POSITION_T,FRAME"]
        lines += [",".join([f"ID{i}", tid, "1.0", *c, t, str(i)])
                  for i, (tid, t, c) in enumerate(rows)]
    for _ in range(int(rng.integers(0, 4))):
        blank = ["", ",,,", " , ,"][int(rng.integers(3))]
        lines.insert(int(rng.integers(1, len(lines) + 1)), blank)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def _parse_both(path: str, fmt: str, caplog):
    """(result or exception, warning messages) from the column parse and
    from the row-by-row oracle."""
    out = []
    for parse in (parse_tracks, oracle.parse_tracks):
        caplog.clear()
        try:
            result = parse(path, fmt)
        except ShotrError as exc:
            result = exc
        out.append((result, [r.getMessage() for r in caplog.records]))
    return out


def assert_same_parse(got, ref):
    (result, warnings), (ref_result, ref_warnings) = got, ref
    assert warnings == ref_warnings
    if isinstance(ref_result, Exception):
        assert type(result) is type(ref_result)
        assert str(result) == str(ref_result)
        return
    assert list(result.tracks) == list(ref_result.tracks)
    for tid, track in result.tracks.items():
        ref_track = ref_result.tracks[tid]
        assert track.coords.shape == ref_track.coords.shape
        assert track.times.tobytes() == ref_track.times.tobytes()
        assert track.coords.tobytes() == ref_track.coords.tobytes()


@pytest.fixture(params=[5, trajdata._BLOCK_ROWS], ids=["5-row blocks", "default blocks"])
def block_rows(request, monkeypatch):
    """Parse in blocks of the default size and in blocks small enough that
    every file spans several."""
    monkeypatch.setattr(trajdata, "_BLOCK_ROWS", request.param)
    return request.param


@pytest.mark.parametrize("layout", ["generic_csv", "trackmate_csv"])
@pytest.mark.parametrize("seed", range(12))
def test_parse_matches_row_by_row_oracle(tmp_path, caplog, block_rows, layout, seed):
    """Shuffled rows with NaN and inf rows, one-sample tracks, blank lines
    and quoted or padded ids give the same tracks, in the same order, bit
    for bit, with the same warnings in the same order."""
    caplog.set_level(logging.WARNING)
    rng = np.random.default_rng([seed, len(layout)])
    dim = int(rng.integers(1, 4))
    path = _write(tmp_path / "a.csv", rng, _random_rows(rng, dim), layout, dim)
    got, ref = _parse_both(path, layout, caplog)
    assert not isinstance(ref[0], Exception), "the seeded file should parse"
    assert ref[1], "the seeded file should reject some rows"
    assert_same_parse(got, ref)


@pytest.mark.parametrize("seed", range(12))
def test_parse_errors_match_row_by_row_oracle(tmp_path, caplog, block_rows, seed):
    """Unparsable tokens, short rows and repeated time stamps, alone and
    together: the same exception, message and preceding warnings."""
    caplog.set_level(logging.WARNING)
    rng = np.random.default_rng([seed, 99])
    dim = int(rng.integers(1, 4))
    rows = _random_rows(rng, dim)
    faults = [3, 3] if seed % 3 == 0 else rng.choice(4, size=int(rng.integers(1, 4)))
    for fault in faults:
        at = int(rng.integers(len(rows) + 1))
        tid, t, coords = rows[int(rng.integers(len(rows)))]
        if fault == 0:
            rows.insert(at, (tid, "oops", coords))
        elif fault == 1:
            rows.insert(at, (tid, t, [*coords[:-1], "1.0.0"]))
        elif fault == 2:
            rows.insert(at, (tid, t, []))
        else:
            rows.insert(at, (tid, t, coords))  # the same time again
    path = _write(tmp_path / "a.csv", rng, rows, "generic_csv", dim)
    got, ref = _parse_both(path, "generic_csv", caplog)
    assert_same_parse(got, ref)
