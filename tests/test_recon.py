import logging
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shotr import recon
from shotr.errors import UnsupportedDegree
from shotr.mesh import build_mesh
from shotr.recon import (
    LIMITERS,
    MAX_DEGREE,
    PiecewisePoly,
    TaylorBasis,
    effective_degree,
    evaluate,
    reconstruct_track,
    reconstruct_tracks,
    reconstruction_operators,
)
from shotr.trajdata import TrackSeries, split_axes

from . import oracle
from .conftest import count_calls, random_times, random_track


def taylor_coeffs(poly: np.polynomial.Polynomial, center: float, width: float, degree: int):
    """Exact coefficients of a polynomial in the normalized Taylor basis."""
    return np.array(
        [poly.deriv(l)(center) * width**l for l in range(degree + 1)]
    )


# ---------------------------------------------------------------------------
# stencils
# ---------------------------------------------------------------------------

def test_stencil_interior_spans_2n_plus_2_cells():
    mesh = build_mesh(np.arange(20.0))
    windows, _ = reconstruction_operators(mesh, 1)
    np.testing.assert_array_equal(windows[9], [7, 8, 9, 10, 11])
    windows, R = reconstruction_operators(mesh, 3)
    np.testing.assert_array_equal(windows[9], np.arange(5, 14))
    assert R.shape == (mesh.n_cells, 4, 2 * 3 + 3)


def test_stencil_boundary_shifts_one_sided():
    mesh = build_mesh(np.arange(10.0))  # 10-point track
    windows, _ = reconstruction_operators(mesh, 3)
    np.testing.assert_array_equal(windows[0], np.arange(0, 9))
    np.testing.assert_array_equal(windows[8], np.arange(1, 10))
    # own interfaces always present
    for cell in range(mesh.n_cells):
        assert cell in windows[cell] and cell + 1 in windows[cell]


def test_stencil_two_point_track_is_square():
    mesh = build_mesh(np.array([0.0, 1.0]))
    windows, R = reconstruction_operators(mesh, 1)
    np.testing.assert_array_equal(windows, [[0, 1]])
    assert R.shape == (1, 2, 2)


def test_effective_degree_reduction():
    assert effective_degree(2, 1) == 1
    assert effective_degree(2, 5) == 1
    assert effective_degree(4, 5) == 3
    assert effective_degree(100, 3) == 3
    with pytest.raises(UnsupportedDegree):
        effective_degree(100, 0)
    with pytest.raises(UnsupportedDegree):
        effective_degree(100, 10)


# ---------------------------------------------------------------------------
# system assembly
# ---------------------------------------------------------------------------

def test_assemble_rows_are_basis_values():
    series = TrackSeries("axis", [0.0, 1.0], [2.0, 5.0])
    mesh = build_mesh(series.times)
    basis = TaylorBasis(0.5, 1.0)
    stencil = oracle.build_stencil(mesh, 0, 1)
    M, B, C, d = oracle.assemble_clsq(series, stencil, basis, 1)
    np.testing.assert_allclose(M, [[1.0, -0.5], [1.0, 0.5]])
    np.testing.assert_array_equal(B, [2.0, 5.0])
    np.testing.assert_array_equal(C, M)
    np.testing.assert_array_equal(d, [2.0, 5.0])


def test_assemble_rows_reproduce_polynomial_samples(rng):
    """Row dotted with the exact Taylor coefficients returns the sample."""
    times = random_times(rng, 12)
    p = np.polynomial.Polynomial([0.3, -1.2, 0.7])
    series = TrackSeries("axis", times, p(times))
    mesh = build_mesh(times)
    cell = 5
    basis = TaylorBasis(float(mesh.barycenters[cell]), float(mesh.widths[cell]))
    stencil = oracle.build_stencil(mesh, cell, 2)
    M, B, C, d = oracle.assemble_clsq(series, stencil, basis, 2)
    exact = taylor_coeffs(p, basis.center, basis.width, 2)
    np.testing.assert_allclose(M @ exact, B, rtol=1e-12, atol=1e-12)
    np.testing.assert_array_equal(d, series.values[[cell, cell + 1]])


def test_solve_square_system_interpolates():
    series = TrackSeries("axis", [0.0, 1.0], [2.0, 5.0])
    mesh = build_mesh(series.times)
    basis = TaylorBasis(0.5, 1.0)
    M, B, C, d = oracle.assemble_clsq(series, oracle.build_stencil(mesh, 0, 1), basis, 1)
    coeffs = oracle.solve_clsq(M, B, C, d)
    np.testing.assert_allclose(M @ coeffs, B, atol=1e-13)
    np.testing.assert_allclose(coeffs, [3.5, 3.0])  # midpoint value, slope * width


def test_constraints_hold_even_with_noisy_data(rng):
    times = random_times(rng, 16)
    values = rng.normal(0, 10, 16)  # rough data: large LSQ residual
    poly = reconstruct_track(TrackSeries("axis", times, values), 3)[0]
    cells = poly.cells
    for cell in (0, 7, 14):
        d = values[[cell, cell + 1]]
        got = cells[cell].value(times[[cell, cell + 1]])
        np.testing.assert_allclose(got, d, atol=1e-10 * max(1, np.abs(d).max()))


def test_quadratic_data_reconstructed_exactly(rng):
    times = random_times(rng, 10)
    series = TrackSeries("axis", times, times**2)
    poly = reconstruct_track(series, 2)[0]
    pts = rng.uniform(times[0], times[-1], 20)
    np.testing.assert_allclose(poly.value(pts), pts**2, atol=1e-12)


def test_reconstruction_matrix_matches_direct_solve(rng):
    """The batched operator applied to the samples solves each cell's
    constrained least-squares problem."""
    times = random_times(rng, 14)
    series = TrackSeries("axis", times, rng.normal(size=14))
    mesh = build_mesh(times)
    windows, R = reconstruction_operators(mesh, 3)
    for cell in (0, 6, 12):
        basis = TaylorBasis(float(mesh.barycenters[cell]), float(mesh.widths[cell]))
        stencil = oracle.build_stencil(mesh, cell, 3)
        np.testing.assert_array_equal(windows[cell], stencil.interface_indices)
        M, B, C, d = oracle.assemble_clsq(series, stencil, basis, 3)
        np.testing.assert_allclose(R[cell] @ B, oracle.solve_clsq(M, B, C, d), atol=1e-11)


# ---------------------------------------------------------------------------
# whole-axis reconstruction
# ---------------------------------------------------------------------------

def test_constant_series_reproduced():
    series = TrackSeries("axis", [0.0, 1.0, 2.0, 3.0], [5.0, 5.0, 5.0, 5.0])
    for degree in (1, 2, 3, 5):
        poly = reconstruct_track(series, degree)[0]
        for cell in poly.cells:
            assert cell.coeffs[0] == pytest.approx(5.0, abs=1e-12)
            np.testing.assert_allclose(cell.coeffs[1:], 0.0, atol=1e-12)


def test_constant_series_reproduced_nonuniform(rng):
    times = random_times(rng, 9)
    series = TrackSeries("axis", times, np.full(9, 5.0))
    for degree in (1, 3, 5):
        poly = reconstruct_track(series, degree)[0]
        pts = rng.uniform(times[0], times[-1], 50)
        np.testing.assert_allclose(poly.value(pts), 5.0, atol=1e-11)
        np.testing.assert_allclose(poly.derivative(pts), 0.0, atol=1e-11)


def test_degree_one_equals_linear_interpolation(rng):
    """Unlimited P1 is exactly the linear linking between samples."""
    times = random_times(rng, 15)
    values = rng.normal(size=15)
    poly = reconstruct_track(TrackSeries("axis", times, values), 1)[0]
    pts = rng.uniform(times[0], times[-1], 200)
    np.testing.assert_allclose(poly.value(pts), np.interp(pts, times, values), atol=1e-12)


@pytest.mark.parametrize("degree", [1, 2, 3, 4, 5])
def test_polynomial_exactness(rng, degree):
    for _ in range(5):
        n_pts = degree + 2 + int(rng.integers(0, 6))
        times = random_times(rng, n_pts)
        p = np.polynomial.Polynomial(rng.uniform(-2, 2, degree + 1))
        poly = reconstruct_track(TrackSeries("axis", times, p(times)), degree)[0]
        pts = rng.uniform(times[0], times[-1], 50)
        for got, ref in (
            (poly.value(pts), p(pts)),
            (poly.derivative(pts), p.deriv(1)(pts)),
            (poly.second_derivative(pts), p.deriv(2)(pts)),
        ):
            scale = max(1.0, np.max(np.abs(ref)))
            assert np.max(np.abs(got - ref)) / scale < 1e-10


def test_interface_interpolation_and_continuity(rng):
    """Also at epoch-scale times, where a cell's interfaces are not exactly
    at u = -1/2 and 1/2 of its rounded barycenter."""
    for t0 in (0.0, EPOCH):
        times = random_times(rng, 20, t0)
        values = rng.normal(0, 3, 20)
        series = TrackSeries("axis", times, values)
        scale = max(1.0, np.abs(values).max())
        for degree in (2, 3, 4):
            poly = reconstruct_track(series, degree)[0]
            for i, cell in enumerate(poly.cells):
                assert abs(cell.value(times[i]) - values[i]) <= 1e-10 * scale
                assert abs(cell.value(times[i + 1]) - values[i + 1]) <= 1e-10 * scale
            for i in range(1, poly.mesh.n_cells):
                jump = abs(poly.cells[i - 1].value(times[i]) - poly.cells[i].value(times[i]))
                assert jump <= 1e-10 * scale


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    degree=st.integers(1, 4),
    a=st.floats(-5, 5).filter(lambda v: abs(v) > 1e-3),
    b=st.floats(-5, 5),
)
def test_affine_equivariance(seed, degree, a, b):
    rng = np.random.default_rng(seed)
    times = random_times(rng, 12)
    values = rng.normal(size=12)
    base = reconstruct_track(TrackSeries("axis", times, values), degree)[0]
    scaled = reconstruct_track(TrackSeries("axis", times, a * values + b), degree)[0]
    pts = rng.uniform(times[0], times[-1], 30)
    np.testing.assert_allclose(
        scaled.value(pts), a * base.value(pts) + b,
        atol=1e-9 * max(1.0, abs(a) * np.abs(base.value(pts)).max() + abs(b)),
    )


def test_short_track_degree_reduction_build():
    # 4-point track at requested degree 5 -> cubic interpolation, still exact
    times = np.array([0.0, 1.0, 2.5, 3.0])
    p = np.polynomial.Polynomial([1.0, -2.0, 0.5, 0.25])
    poly = reconstruct_track(TrackSeries("axis", times, p(times)), 5)[0]
    assert poly.degree == 3
    pts = np.linspace(0, 3, 40)
    np.testing.assert_allclose(poly.value(pts), p(pts), atol=1e-10)


def test_two_point_track():
    poly = reconstruct_track(TrackSeries("axis", [0.0, 2.0], [1.0, 5.0]), 1)[0]
    assert poly.degree == 1
    assert poly.value(1.0) == pytest.approx(3.0)
    assert poly.cells[0].coeffs[0] == pytest.approx(3.0)   # value at barycenter
    assert poly.cells[0].coeffs[1] == pytest.approx(4.0)   # slope * width


def test_poly_leaves_the_callers_coefficients_writable():
    mesh = build_mesh(np.array([0.0, 1.0, 2.0]))
    c = np.zeros((2, 4))
    poly = PiecewisePoly(mesh, c)
    c[0, 0] = 1.0
    assert not poly.coeffs.any()
    with pytest.raises(ValueError, match="read-only"):
        poly.coeffs[0, 0] = 1.0
    frozen = np.ones((2, 4))
    frozen.setflags(write=False)
    assert PiecewisePoly(mesh, frozen).coeffs is frozen


@pytest.mark.parametrize("shape", [(5, 4), (1, 4), (4,), (2, 1), (2, MAX_DEGREE + 2), (2, 4, 1)])
def test_poly_rejects_coefficients_that_do_not_fit_its_mesh(shape):
    """One row per cell, of 2 to MAX_DEGREE + 1 coefficients; any other
    shape is a ValueError that names it, not a fit that evaluates to 0 or
    an IndexError later."""
    mesh = build_mesh(np.array([0.0, 1.0, 2.0]))
    for columns in (2, MAX_DEGREE + 1):
        assert PiecewisePoly(mesh, np.zeros((2, columns))).degree == columns - 1
    with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")):
        PiecewisePoly(mesh, np.zeros(shape))


def test_axes_must_share_one_mesh_and_one_degree(rng):
    """One cell lookup serves every axis, so the axes must share the mesh
    (an equal one built on its own will do) and the degree."""
    track = random_track(rng, 12, 2)
    x, y = reconstruct_track(track, 3)
    t = rng.uniform(track.times[0], track.times[-1], 30)
    same = evaluate([x, PiecewisePoly(build_mesh(track.times), y.coeffs)], t, (0, 1))
    assert [a.tobytes() for a in same] == [a.tobytes() for a in evaluate([x, y], t, (0, 1))]
    other_mesh = PiecewisePoly(build_mesh(2 * track.times), y.coeffs)
    other_degree = reconstruct_track(track, 2)[1]
    for polys in ([x, other_mesh], [x, other_degree], [other_degree, x]):
        with pytest.raises(ValueError, match="one mesh and one degree"):
            evaluate(polys, t, (0,))


@pytest.mark.parametrize("limiter", LIMITERS)
@pytest.mark.parametrize("degree", range(1, MAX_DEGREE + 1))
def test_a_named_cell_is_evaluated_on_its_own_polynomial(rng, limiter, degree):
    """Told the cells, the evaluator reads each cell's polynomial at both of
    its interfaces, bit for bit as its CellPoly does, whether it scales per
    cell (every cell at once) or per gathered row (one cell). A query by
    time gives an interior interface to the left cell instead, and on a
    limited fit, whose cells miss their samples, the two sides differ.
    A CellPoly's value and derivatives at scalar, 1-D, empty and 2-D times
    have the query's shape and the bytes of the evaluator told its cell."""
    track = random_track(rng, 2 * degree + 6, 2)
    polys = reconstruct_track(track, degree, limiter)
    assert polys[0].degree == degree
    ends = np.stack([track.times[:-1], track.times[1:]], axis=1)  # (n_cells, 2)
    cells = np.arange(len(ends))[:, None]
    want = np.array([[c.value(ends[i]) for i, c in enumerate(p.cells)] for p in polys])
    named, = recon._evaluate(polys, ends, cells, (0,))
    assert named.tobytes() == want.tobytes()
    for i in range(len(ends)):
        one, = recon._evaluate(polys, ends[i:i + 1], cells[i:i + 1], (0,))
        assert one.tobytes() == want[:, i:i + 1].tobytes()
    by_time, = evaluate(polys, track.times[1:-1], (0,))
    assert by_time.tobytes() == want[:, :-1, 1].tobytes()  # the left neighbour's right end
    if limiter == "cweno":
        assert np.any(by_time != named[:, 1:, 0])
    fractions = [0.3, rng.uniform(-0.5, 1.5, 5), np.array([]), rng.uniform(-0.5, 1.5, (2, 3))]
    for i, (start, width) in enumerate(zip(track.times[:-1], np.diff(track.times))):
        for x in fractions:
            t = start + x * width
            want = recon._evaluate(polys, np.asarray(t), np.full(np.shape(t), i), (0, 1, 2))
            for a, p in enumerate(polys):
                cell = p.cells[i]
                got = [cell.value(t), cell.derivative(t), cell.second_derivative(t)]
                for order, (g, w) in enumerate(zip(got, want)):
                    assert np.shape(g) == np.shape(t), (i, np.shape(t), order)
                    assert np.asarray(g).tobytes() == w[a].tobytes(), (i, np.shape(t), order)


@pytest.mark.parametrize("limiter", LIMITERS)
def test_reconstruction_keeps_its_own_coefficients_without_a_copy(rng, monkeypatch, limiter):
    """The fit and the limiter freeze the arrays they made before building
    the record, so the record takes them as they are."""
    kept = []
    frozen_floats = recon._frozen_floats
    monkeypatch.setattr(recon, "_frozen_floats",
                        lambda a: kept.append(frozen_floats(a) is a) or frozen_floats(a))
    track = random_track(rng, 30, 3)
    reconstruct_track(track, 3, limiter)
    list(reconstruct_tracks([track, track], 3, limiter))
    # 3 fits of 3 axes; with the limiter, each axis is built again limited
    assert kept == [True] * (9 if limiter == "none" else 18)


def test_to_dict_shape(rng):
    times = random_times(rng, 6)
    poly = reconstruct_track(TrackSeries("axis", times, rng.normal(size=6)), 2)[0]
    doc = oracle.poly_to_dict(poly)
    assert doc["degree"] == 2
    assert len(doc["cells"]) == 5
    assert set(doc["cells"][0]) == {"center", "width", "coeffs"}
    assert len(doc["cells"][0]["coeffs"]) == 3


@pytest.mark.parametrize("limiter", ["none", "cweno"])
def test_track_without_singular_cells_takes_one_solve(rng, monkeypatch, limiter):
    """All cells of all axes come from one batched QR factorization and one
    inverse of its triangular factors; degree 1 (two samples) fits nothing
    beyond the linear-linking segment."""
    calls = []
    for name in ("qr", "inv", "solve", "lstsq"):
        count_calls(monkeypatch, np.linalg, name, calls)
    for n, degree in [(2, 3), (3, 3), (5, 3), (9, 4), (40, 3), (40, 9)]:
        calls.clear()
        reconstruct_track(random_track(rng, n, 3), degree, limiter)
        assert calls == ([] if n == 2 else ["qr", "inv"])


@pytest.mark.parametrize("budget", [None, 40], ids=["default chunks", "40-cell chunks"])
def test_reconstruct_tracks_equals_reconstruct_track(rng, monkeypatch, caplog, budget):
    """The batched pass gives each track the arrays of its own call, bit for
    bit, in input order, with the degree-reduction warnings in input order.
    The tracks have every length from 2 (one cell) to 2N + 4 at the highest
    degree, and 60, shuffled; with 40-cell chunks a chunk boundary falls
    inside a group of tracks sharing their degree and stencil size, and the
    60-sample track is a chunk of its own."""
    lengths = rng.permutation(np.r_[2 : 2 * MAX_DEGREE + 5, 60])
    tracks = [random_track(rng, int(n), 3, f"n{n}") for n in lengths]
    if budget is not None:
        monkeypatch.setattr(recon, "_CHUNK_CELLS", budget)
        chunks = list(recon._chunks(tracks))
        assert [t for chunk in chunks for t in chunk] == tracks
        groups = [{(effective_degree(len(t), 3), min(2 * 3 + 3, len(t))) for t in chunk}
                  for chunk in chunks]
        assert sum((3, 9) in g for g in groups) > 1
    for degree in range(1, MAX_DEGREE + 1):
        for limiter in LIMITERS:
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="shotr.recon"):
                pairs = list(reconstruct_tracks(tracks, degree, limiter))
                batched_log = caplog.messages
                caplog.clear()
                expected = [reconstruct_track(t, degree, limiter) for t in tracks]
                assert caplog.messages == batched_log
            assert [t for t, _ in pairs] == tracks
            for (_, polys), want in zip(pairs, expected):
                assert len(polys) == len(want)
                for p, w in zip(polys, want):
                    assert p.mesh.n_cells == w.mesh.n_cells
                    assert np.array_equal(p.coeffs, w.coeffs)


def test_operators_solve_a_long_track_a_chunk_of_cells_at_a_time(rng, monkeypatch):
    """No QR takes more than _CHUNK_CELLS cells, and with 7-cell chunks
    tracks of 2 to 1,300 samples keep the coefficients of one solve, bit for
    bit, through reconstruct_track and reconstruct_tracks."""
    tracks = [random_track(rng, n, 3, f"n{n}") for n in (2, 3, 8, 9, 16, 23, 60, 1300)]
    cases = [(degree, limiter) for degree in (1, 3, 9) for limiter in LIMITERS]
    expected = {case: [reconstruct_track(t, *case) for t in tracks] for case in cases}
    monkeypatch.setattr(recon, "_CHUNK_CELLS", 7)
    batches, qr = [], np.linalg.qr
    monkeypatch.setattr(np.linalg, "qr", lambda a: batches.append(len(a)) or qr(a))
    for case in cases:
        for got in ([reconstruct_track(t, *case) for t in tracks],
                    [polys for _, polys in reconstruct_tracks(tracks, *case)]):
            for polys, want in zip(got, expected[case], strict=True):
                for p, w in zip(polys, want, strict=True):
                    assert np.array_equal(p.coeffs, w.coeffs)
    assert max(batches) == 7


@pytest.mark.parametrize("limiter", LIMITERS)
def test_split_axis_reconstructs_as_its_axis_of_the_track(rng, limiter):
    """A one-axis track from split_axes is reconstructed, and limited, bit
    for bit as the same axis of the whole track."""
    for n in (2, 3, 5, 12, 40):
        track = random_track(rng, n, 3, "p")
        for degree in (1, 2, 3, 5, MAX_DEGREE):
            whole = reconstruct_track(track, degree, limiter)
            for d, axis in enumerate(split_axes(track)):
                (poly,) = reconstruct_track(axis, degree, limiter)
                assert np.array_equal(poly.coeffs, whole[d].coeffs)


def test_reconstruct_tracks_checks_arguments_before_iteration(rng):
    tracks = [random_track(rng, 5)]
    with pytest.raises(ValueError, match="unknown limiter"):
        reconstruct_tracks(tracks, 3, "minmod")
    with pytest.raises(UnsupportedDegree):
        reconstruct_tracks(tracks, MAX_DEGREE + 1)


# ---------------------------------------------------------------------------
# properties through reconstruct_track
# ---------------------------------------------------------------------------

EPOCH = 1.7e9  # Unix time stamps, as many acquisition systems write them


def width_ratio_track(rng, degree: int, n: int, max_ratio: float, t0: float):
    """A 2-D track of n samples from t0 whose cell widths spread over
    max_ratio (both extremes present once there are two cells), sampling a
    random polynomial of the degree the reconstruction uses; also returns
    that polynomial as a function of time."""
    widths = 0.05 * max_ratio ** rng.uniform(0, 1, n - 1)
    if n > 2:
        widths[rng.choice(n - 1, 2, replace=False)] = [0.05, 0.05 * max_ratio]
    times = t0 + np.concatenate([[0.0], np.cumsum(widths)])
    coef = rng.normal(size=(effective_degree(n, degree) + 1, 2))

    def exact(t):
        s = (np.asarray(t) - times[0]) / (times[-1] - times[0])
        return np.stack([np.polyval(coef[:, d], s) for d in range(2)], axis=-1)

    return TrackSeries("p", times, exact(times)), exact


def property_errors(track: TrackSeries, degree: int, exact) -> tuple[float, float, float]:
    """Largest interface miss, interface jump and departure from the exact
    polynomial inside the cells, relative to the largest sample."""
    t = track.times
    miss = jump = off = 0.0
    for d, poly in enumerate(reconstruct_track(track, degree)):
        cells = poly.cells
        left = np.array([c.value(a) for c, a in zip(cells, t[:-1])])
        right = np.array([c.value(b) for c, b in zip(cells, t[1:])])
        values = track.coords[:, d]
        miss = max(miss, np.abs(left - values[:-1]).max(), np.abs(right - values[1:]).max())
        jump = max(jump, np.abs(right[:-1] - left[1:]).max(initial=0.0))
        inside = t[:-1, None] + np.array([0.2, 0.5, 0.8]) * np.diff(t)[:, None]
        off = max(off, np.abs(poly.value(inside) - exact(inside)[..., d]).max())
    scale = np.abs(track.coords).max()
    return miss / scale, jump / scale, off / scale


def tolerance(degree: int) -> float:
    """Allowed interface miss, interface jump and departure from degree-N
    data, relative to the data scale. Interpolation and continuity hold by
    construction, so what is left is the rounding of the fitted Taylor
    coefficients: at tenfold width spread the worst of 300 seeded tracks per
    degree stays below 1e-12 at every degree. At millionfold spread, on the
    draws of the test below, it grows to 1e-8 (degree 5) and 2e-6 (degree
    9), and degrees 4, 7 and 8 exceed this bound (strict xfails); other
    draws can miss by far more (ROADMAP item 6)."""
    return 1e-12 * 10.0**degree


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    degree=st.integers(1, MAX_DEGREE),
    extra=st.integers(0, 2 * MAX_DEGREE + 2),
    epoch=st.booleans(),
)
def test_interpolation_continuity_and_exactness(seed, degree, extra, epoch):
    """Tracks of 2 to 2N+4 samples, at zero or epoch-scale times, with
    cell widths varying up to tenfold (missed frames)."""
    rng = np.random.default_rng(seed)
    n = 2 + extra % (2 * degree + 3)
    track, exact = width_ratio_track(rng, degree, n, 10.0, EPOCH if epoch else 0.0)
    miss, jump, off = property_errors(track, degree, exact)
    assert miss < tolerance(degree)
    assert jump < tolerance(degree)
    assert off < tolerance(degree)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    degree=st.integers(1, MAX_DEGREE),
    extra=st.integers(0, 2 * MAX_DEGREE + 2),
    epoch=st.booleans(),
    log_ratio=st.floats(0.0, 6.0),
    limiter=st.sampled_from(["none", "cweno"]),
)
def test_finite_input_gives_finite_output(seed, degree, extra, epoch, log_ratio, limiter):
    """Cell widths varying up to a millionfold, at any data scale."""
    rng = np.random.default_rng(seed)
    n = 2 + extra % (2 * degree + 3)
    track, _ = width_ratio_track(rng, degree, n, 10.0**log_ratio, EPOCH if epoch else 0.0)
    walk = rng.normal(size=(n, 2)).cumsum(axis=0) * 10.0 ** rng.uniform(-6, 6)
    for t in (track, TrackSeries("w", track.times, walk)):
        for poly in reconstruct_track(t, degree, limiter):
            assert np.isfinite(poly.coeffs).all()


MILLIONFOLD_MISSES = {
    # degree: worst property error on the test's draws, relative to the data scale
    4: 2e-7,
    7: 7e-2,
    8: 3e-1,
}


@pytest.mark.parametrize("degree", [
    pytest.param(d, marks=pytest.mark.xfail(strict=True, reason=(
        f"a cell a millionth the width of its neighbours: the samples of the "
        f"wide cells cluster at their interfaces, the fit of q is ill-posed "
        f"there and its Taylor coefficients grow until their rounding misses "
        f"the samples by {MILLIONFOLD_MISSES[d]:.0e} of the data scale "
        f"(bound {tolerance(d):.0e})"
    ))) if d in MILLIONFOLD_MISSES else d
    for d in range(1, MAX_DEGREE + 1)
])
def test_properties_hold_at_millionfold_width_ratios(degree):
    """Two track lengths at zero and epoch-scale times per degree, drawn
    from one stream for all degrees in turn."""
    rng = np.random.default_rng(20241018)
    for d in range(1, degree + 1):
        cases = [width_ratio_track(rng, d, n, 1e6, t0)
                 for n in (d + 2, 2 * d + 4) for t0 in (0.0, EPOCH)]
    worst = max(max(property_errors(track, degree, exact)) for track, exact in cases)
    assert worst < tolerance(degree)


def test_degree_nine_is_exact_at_tenfold_width_ratios():
    """Ten samples: square interpolation at degree 9."""
    track, exact = width_ratio_track(np.random.default_rng(5421), 9, 10, 10.0, 0.0)
    assert property_errors(track, 9, exact)[2] < tolerance(9)


@pytest.mark.parametrize("degree", range(1, MAX_DEGREE + 1))
def test_unlimited_fit_does_not_depend_on_the_unit_of_time(degree):
    """Times from zero in seconds, milliseconds, kiloseconds and an odd unit,
    with tenfold width spread: positions at fixed fractions of every cell
    agree to 1e-8 of the data scale."""
    fractions = np.array([0.0, 0.2, 0.5, 0.8, 1.0])
    for seed in range(8):
        rng = np.random.default_rng([seed, degree])
        n = 2 + int(rng.integers(0, 2 * degree + 3))
        track, _ = width_ratio_track(rng, degree, n, 10.0, 0.0)
        positions = []
        for unit in (1.0, 1e-3, 1e3, 7.3):
            t = track.times * unit
            at = t[:-1, None] + fractions * np.diff(t)[:, None]
            polys = reconstruct_track(TrackSeries("u", t, track.coords), degree)
            positions.append(np.stack([p.value(at) for p in polys]))
        scale = np.abs(track.coords).max()
        for got in positions[1:]:
            assert np.abs(got - positions[0]).max() < 1e-8 * scale
