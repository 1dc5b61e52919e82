import numpy as np
import pytest

from shotr.errors import UnsupportedDegree
from shotr.geometry import cell_lengths, trajectory_length
from shotr.kinematics import summarize
from shotr.recon import LIMITERS, reconstruct_track
from shotr.trajdata import TrackSeries, split_axes
from shotr.validate import get_case

from . import oracle
from .conftest import random_track


def track_from_fn(fns, times, track_id="t"):
    coords = np.column_stack([f(times) for f in fns])
    return TrackSeries(track_id, times, coords)


def test_unsupported_degree_raises():
    """A geometry degree below the fit's asks for a polyline or a lower
    geometry that no longer exists: an error, not the curve's length."""
    track = random_track(np.random.default_rng(1), 5)
    polys = reconstruct_track(track, 3)
    for measure in (trajectory_length, lambda p, g: summarize(p, split_axes(track), g).length):
        for geom_degree in (0, -1, 2):
            with pytest.raises(UnsupportedDegree, match="below the fit's degree 3"):
                measure(polys, geom_degree)
        assert measure(polys, 3) == measure(polys, 7) == trajectory_length(polys)


def test_straight_segment_length_is_five():
    track = TrackSeries("seg", [0.0, 1.0], [[0.0, 0.0], [3.0, 4.0]])
    polys = reconstruct_track(track, 1)
    assert cell_lengths(polys)[0] == pytest.approx(5.0, abs=1e-12)


def test_1d_monotone_cell_collapses_to_displacement():
    track = TrackSeries("m", [0.0, 1.0, 2.0], [[0.0], [2.0], [3.0]])
    polys = reconstruct_track(track, 1)
    np.testing.assert_allclose(cell_lengths(polys), [2.0, 1.0], atol=1e-12)


def test_polyline_length_linear_geometry():
    track = TrackSeries("p", [0.0, 1.0, 2.0], [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
    polys = reconstruct_track(track, 1)
    assert trajectory_length(polys, 1) == pytest.approx(2.0, abs=1e-13)


def test_linear_geometry_reduces_to_chord_sum(rng):
    """The degree-1 fit is the polyline, so its length is the chords' sum."""
    for _ in range(20):
        track = random_track(rng, int(rng.integers(2, 15)), dim=int(rng.integers(1, 4)))
        polys = reconstruct_track(track, 1)
        chords = np.linalg.norm(np.diff(track.coords, axis=0), axis=1).sum()
        assert trajectory_length(polys) == pytest.approx(chords, rel=1e-12, abs=1e-12)


def test_length_bounds_displacement(rng):
    for _ in range(50):
        track = random_track(rng, int(rng.integers(2, 20)), dim=2)
        polys = reconstruct_track(track, 3)
        chord = np.linalg.norm(track.coords[-1] - track.coords[0])
        assert trajectory_length(polys) >= chord - 1e-12


def test_quarter_circle_high_order_convergence():
    errs = []
    for n in (32, 64, 128):
        th = np.linspace(0, np.pi / 2, n + 1)
        track = track_from_fn((np.cos, np.sin), th, "qc")
        polys = reconstruct_track(track, 3)
        errs.append(abs(trajectory_length(polys) - np.pi / 2))
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
        errs.append(abs(trajectory_length(polys) - exact))
    assert errs[0] / exact < 1e-5
    assert errs[0] / errs[1] > 10  # about 4th-order decay


def test_rigid_rotation_invariance(rng):
    track = random_track(rng, 12, dim=3)
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    rotated = TrackSeries("r", track.times, track.coords @ q.T)
    base = trajectory_length(reconstruct_track(track, 3))
    rot = trajectory_length(reconstruct_track(rotated, 3))
    assert rot == pytest.approx(base, rel=1e-10)


def _conv3d_length(panels: int, points: int) -> float:
    """The exact curve's length by a composite Gauss rule: `panels` equal
    panels of `points` points. Its speed stays above 5.8 on the domain, so
    the rule converges fast; 2,000 x 10 and 20,000 x 20 points agree with an
    adaptive quadrature to 2e-15 relative."""
    case = get_case("conv3d")
    x, w = np.polynomial.legendre.leggauss(points)
    edges = np.linspace(*case.domain, panels + 1)
    half = 0.5 * np.diff(edges)[:, None]
    t = (0.5 * (edges[:-1] + edges[1:]))[:, None] + half * x
    speed = np.linalg.norm(case.velocity(t.ravel()), axis=1).reshape(t.shape)
    return float(np.sum(speed * half * w))


@pytest.mark.parametrize("degree", [1, 2, 3, 4, 5])
def test_conv3d_length_converges_with_the_fit(degree):
    """The length is the fit's own, so it converges at the fit's order N+1
    (measured 2.00, 4.12, 3.97, 5.57 and 5.99 from 400 to 800 cells), not
    capped by a lower-degree cell geometry."""
    exact = _conv3d_length(2000, 10)
    case = get_case("conv3d")
    errs = [abs(trajectory_length(reconstruct_track(case.sample(cells + 1), degree)) - exact)
            for cells in (400, 800)]
    assert np.log2(errs[0] / errs[1]) >= degree + 1 - 0.25


@pytest.mark.parametrize("degree", range(1, 10))
def test_cell_lengths_match_the_nodal_basis(rng, degree):
    """The speed integral of each cell's own polynomial, one cell at a time,
    to 1e-14 relative (the order of the sums differs). A limited fit misses
    its samples, so each cell's nodes must come from its own polynomial."""
    track = random_track(rng, 30, 3)
    for limiter in LIMITERS:
        polys = reconstruct_track(track, degree, limiter)
        np.testing.assert_allclose(cell_lengths(polys), oracle.cell_lengths(polys),
                                   rtol=1e-14, atol=0)


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
