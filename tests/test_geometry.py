import numpy as np
import pytest

from shotr.errors import UnsupportedDegree
from shotr.quadrature import gauss_points
from shotr.geometry import _reference_cell, cell_lengths, trajectory_length
from shotr.kinematics import summarize
from shotr.recon import LIMITERS, reconstruct_track
from shotr.trajdata import TrackSeries, split_axes

from . import oracle
from .conftest import count_calls, random_track


def track_from_fn(fns, times, track_id="t"):
    coords = np.column_stack([f(times) for f in fns])
    return TrackSeries(track_id, times, coords)


def test_linear_basis_derivatives_constant():
    _, d, _ = _reference_cell(1)
    np.testing.assert_array_equal(d, [[-1.0] * d.shape[1], [1.0] * d.shape[1]])


def test_quadratic_basis_derivatives_closed_form():
    """-3 + 4 xi, 4 - 8 xi and -1 + 4 xi ([-3, 4, -1] at xi = 0), at the
    Gauss points."""
    _, d, _ = _reference_cell(2)
    xi, _ = gauss_points(0.0, 1.0, 3)
    np.testing.assert_allclose(d, [-3 + 4 * xi, 4 - 8 * xi, -1 + 4 * xi], rtol=0, atol=1e-14)


def test_partition_of_unity_and_derivative_sum():
    """The basis sums to one, so its derivatives sum to zero."""
    for degree in (1, 2, 3, 5):
        nodes, d, w = _reference_cell(degree)
        np.testing.assert_allclose(nodes, np.linspace(0.0, 1.0, degree + 1), rtol=0, atol=1e-15)
        np.testing.assert_allclose(d.sum(axis=0), 0.0, atol=1e-12)
        assert w.sum() == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("degree", [1, 2, 3])
def test_derived_tables_match_the_hand_written_basis(degree):
    """Bit for bit."""
    _, d, _ = _reference_cell(degree)
    xi, _ = gauss_points(0.0, 1.0, max(degree + 1, 3))
    assert d.tobytes() == oracle.nodal_basis_derivatives(degree, xi).tobytes()


def test_unsupported_degree_raises():
    polys = reconstruct_track(random_track(np.random.default_rng(1), 5), 3)
    for geom_degree in (0, -1):
        with pytest.raises(UnsupportedDegree):
            cell_lengths(polys, geom_degree)


def test_straight_segment_length_is_five():
    track = TrackSeries("seg", [0.0, 1.0], [[0.0, 0.0], [3.0, 4.0]])
    polys = reconstruct_track(track, 1)
    for geom_degree in (1, 2, 3):
        assert cell_lengths(polys, geom_degree)[0] == pytest.approx(5.0, abs=1e-12)


def test_1d_monotone_cell_collapses_to_displacement():
    track = TrackSeries("m", [0.0, 1.0, 2.0], [[0.0], [2.0], [3.0]])
    polys = reconstruct_track(track, 1)
    np.testing.assert_allclose(cell_lengths(polys, 3), [2.0, 1.0], atol=1e-12)


def test_polyline_length_linear_geometry():
    track = TrackSeries("p", [0.0, 1.0, 2.0], [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
    polys = reconstruct_track(track, 1)
    assert trajectory_length(polys, 1) == pytest.approx(2.0, abs=1e-13)


def test_linear_geometry_reduces_to_chord_sum(rng):
    for _ in range(20):
        track = random_track(rng, int(rng.integers(2, 15)), dim=int(rng.integers(1, 4)))
        polys = reconstruct_track(track, 3)
        chords = np.linalg.norm(np.diff(track.coords, axis=0), axis=1).sum()
        assert trajectory_length(polys, 1) == pytest.approx(chords, rel=1e-12, abs=1e-12)


def test_length_bounds_displacement(rng):
    for _ in range(50):
        track = random_track(rng, int(rng.integers(2, 20)), dim=2)
        polys = reconstruct_track(track, 3)
        chord = np.linalg.norm(track.coords[-1] - track.coords[0])
        assert trajectory_length(polys, 3) >= chord - 1e-12


def test_quarter_circle_high_order_convergence():
    errs = []
    for n in (32, 64, 128):
        th = np.linspace(0, np.pi / 2, n + 1)
        track = track_from_fn((np.cos, np.sin), th, "qc")
        polys = reconstruct_track(track, 3)
        errs.append(abs(trajectory_length(polys, 3) - np.pi / 2))
    orders = [np.log2(errs[i - 1] / errs[i]) for i in range(1, len(errs))]
    assert errs[-1] < 1e-8
    assert orders[-1] >= 3.5


def test_helix_length_matches_analytic():
    # (cos t, sin t, t/2): speed sqrt(1 + 1/4) everywhere
    t_end = 4.0
    exact = np.sqrt(1.25) * t_end
    errs = []
    for n in (40, 80):
        ts = np.linspace(0, t_end, n + 1)
        track = track_from_fn((np.cos, np.sin, lambda t: 0.5 * t), ts, "hx")
        polys = reconstruct_track(track, 3)
        errs.append(abs(trajectory_length(polys, 3) - exact))
    assert errs[0] / exact < 1e-5
    assert errs[0] / errs[1] > 10  # about 4th-order decay


def test_rigid_rotation_invariance(rng):
    track = random_track(rng, 12, dim=3)
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    rotated = TrackSeries("r", track.times, track.coords @ q.T)
    base = trajectory_length(reconstruct_track(track, 3), 3)
    rot = trajectory_length(reconstruct_track(rotated, 3), 3)
    assert rot == pytest.approx(base, rel=1e-10)


def test_cell_geometry_end_nodes_hit_interface_samples(rng):
    # unlimited reconstruction interpolates the samples, so the first and
    # last curve nodes of every cell are the recorded positions
    track = random_track(rng, 10, dim=2)
    polys = reconstruct_track(track, 3)
    nodes, _, _ = _reference_cell(3)
    node_times = track.times[:-1, None] + nodes * np.diff(track.times)[:, None]
    np.testing.assert_allclose(node_times[:, -1], track.times[1:])
    nodal = np.array([[c.value(t) for c, t in zip(p.cells, node_times)] for p in polys])
    np.testing.assert_allclose(nodal[:, :, 0].T, track.coords[:-1], atol=1e-10)
    np.testing.assert_allclose(nodal[:, :, -1].T, track.coords[1:], atol=1e-10)


def test_geometry_degree_above_three_falls_back():
    track = track_from_fn((np.cos, np.sin), np.linspace(0, 1.5, 30), "qc")
    polys = reconstruct_track(track, 5)
    assert trajectory_length(polys, 7) == pytest.approx(trajectory_length(polys, 3), abs=1e-15)


@pytest.mark.parametrize("geom_degree", [1, 2, 3, 5])
def test_cell_lengths_match_the_nodal_basis(rng, geom_degree):
    """The lengths of the hand-written basis computed one cell at a time,
    to 1e-14 relative (the order of the sums differs). A limited fit misses
    its samples, so each cell's end nodes must come from its own polynomial."""
    track = random_track(rng, 30, 3)
    for limiter in LIMITERS:
        polys = reconstruct_track(track, 4, limiter)
        want = oracle.cell_lengths(polys, min(geom_degree, 3))
        np.testing.assert_allclose(cell_lengths(polys, geom_degree), want, rtol=1e-14, atol=0)


@pytest.mark.parametrize("geom_degree", [1, 2, 3])
def test_cell_lengths_build_the_basis_tables_once(rng, monkeypatch, geom_degree):
    """After its first call for a degree, cell_lengths calls no
    numpy.polynomial function."""
    polys = reconstruct_track(random_track(rng, 12, 2), 3)
    first = cell_lengths(polys, geom_degree)
    calls = []
    count_calls(monkeypatch, np.polynomial.polynomial, "polyval", calls)
    count_calls(monkeypatch, np.polynomial.polynomial, "polyder", calls)
    count_calls(monkeypatch, np.polynomial.legendre, "leggauss", calls)
    again = cell_lengths(polys, geom_degree)
    assert calls == []
    assert again.tobytes() == first.tobytes()
    _reference_cell.__wrapped__(geom_degree)
    assert "polyval" in calls  # the counters see the tables when they are built


def test_arc_length_takes_the_axes_of_one_track(rng):
    """Arc length evaluates through the same core as evaluate, so axes on
    different meshes (of equal or unequal cell counts) or of different
    degrees are evaluate's ValueError, not one axis read on another's mesh."""
    def fit(times, degree=3):
        track = TrackSeries("t", times, rng.normal(size=(len(times), 2)))
        return track, reconstruct_track(track, degree)

    track, a = fit(np.arange(4.0))
    _, b = fit(10 * np.arange(4.0))
    _, c = fit(np.arange(5.0))
    _, d = fit(np.arange(4.0), 1)
    for polys in ([a[0], b[1]], [a[0], c[1]], [a[0], d[1]]):
        for measure in (cell_lengths, trajectory_length,
                        lambda p: summarize(p, split_axes(track))):
            with pytest.raises(ValueError, match="one mesh and one degree"):
                measure(polys)
