import numpy as np
import pytest

from shotr.errors import OutOfDomain
from shotr.geometry import trajectory_length
from shotr.kinematics import dense_times, eval_at, sample_dense, summarize
from shotr.quadrature import gauss_points
from shotr.recon import reconstruct_track
from shotr.trajdata import TrackSeries, split_axes

from .conftest import random_track


def test_linear_motion_velocity_and_zero_acceleration(rng):
    times = np.sort(rng.uniform(0, 5, 9))
    track = TrackSeries("lin", times, 2.0 * times.reshape(-1, 1))
    for degree in (1, 3):
        polys = reconstruct_track(track, degree)
        for t in rng.uniform(times[0], times[-1], 10):
            s = eval_at(polys, t)
            assert s.velocity[0] == pytest.approx(2.0, abs=1e-10)
            assert s.acceleration[0] == pytest.approx(0.0, abs=1e-10)


def test_degree_one_acceleration_identically_zero(rng):
    track = random_track(rng, 10, dim=2)
    polys = reconstruct_track(track, 1)
    for t in rng.uniform(track.times[0], track.times[-1], 20):
        np.testing.assert_array_equal(eval_at(polys, t).acceleration, 0.0)


def test_quadratic_acceleration(rng):
    times = np.linspace(-1, 2, 12)
    track = TrackSeries("sq", times, (times**2).reshape(-1, 1))
    polys = reconstruct_track(track, 2)
    for t in rng.uniform(-1, 2, 10):
        assert eval_at(polys, t).acceleration[0] == pytest.approx(2.0, abs=1e-10)


def test_eval_outside_domain_raises(rng):
    track = random_track(rng, 5)
    polys = reconstruct_track(track, 1)
    for t in (track.times[-1] + 0.1, track.times[0] - 0.1, float("nan")):
        with pytest.raises(OutOfDomain):
            eval_at(polys, t)


def test_dense_sampling_counts_and_ordering():
    track = TrackSeries("c", [0.0, 1.0, 2.0, 3.0], [[0.0], [1.0], [0.0], [2.0]])
    polys = reconstruct_track(track, 3)
    samples = sample_dense(polys)
    assert len(samples) == 3 * 4  # cells x (degree + 1)
    ts = np.array([s.t for s in samples])
    assert np.all(np.diff(ts) > 0)
    # Gauss abscissae exclude the cell endpoints
    assert not np.isin(ts, track.times).any()


def test_dense_speed_integral_consistent_with_length(rng):
    # integrating |v| with the same Gauss weights reproduces the path length
    ts = np.linspace(0, np.pi, 80)
    track = TrackSeries("arc", ts, np.column_stack([np.cos(ts), np.sin(ts)]))
    polys = reconstruct_track(track, 3)
    mesh = polys[0].mesh
    n = polys[0].degree + 1
    total = 0.0
    for i in range(mesh.n_cells):
        nodes, w = gauss_points(mesh.interfaces[i], mesh.interfaces[i + 1], n)
        speed = np.sqrt(sum(p.derivative(nodes) ** 2 for p in polys))
        total += float(np.dot(w, speed))
    assert total == pytest.approx(trajectory_length(polys), rel=1e-8)
    assert total == pytest.approx(np.pi, rel=1e-6)


def test_summary_stationary_track():
    track = TrackSeries("s", [0.0, 1.0, 2.0], [[4.0, 1.0], [4.0, 1.0], [4.0, 1.0]])
    polys = reconstruct_track(track, 1)
    s = summarize(polys, split_axes(track))
    assert s.v_l == pytest.approx(0.0, abs=1e-13)
    np.testing.assert_allclose(s.v_d, 0.0, atol=1e-13)
    np.testing.assert_allclose(s.v_m, 0.0, atol=1e-13)
    assert s.length == pytest.approx(0.0, abs=1e-13)


def test_summary_uniform_motion():
    times = np.linspace(0, 2, 9)
    track = TrackSeries("u", times, (3.0 * times).reshape(-1, 1))
    polys = reconstruct_track(track, 1)
    s = summarize(polys, split_axes(track))
    assert s.v_l == pytest.approx(3.0, abs=1e-12)
    assert s.v_d[0] == pytest.approx(3.0, abs=1e-13)
    assert s.v_m[0] == pytest.approx(3.0, abs=1e-13)
    assert s.duration == pytest.approx(2.0)


def test_summary_back_and_forth():
    track = TrackSeries("bf", [0.0, 1.0, 2.0], [[0.0], [1.0], [0.0]])
    polys = reconstruct_track(track, 1)
    s = summarize(polys, split_axes(track), geom_degree=1)
    assert s.v_d[0] == pytest.approx(0.0, abs=1e-14)
    assert s.length == pytest.approx(2.0, abs=1e-13)
    assert s.v_l == pytest.approx(1.0, abs=1e-13)
    assert s.v_l > 0


def test_summary_speed_is_the_length_over_the_duration(rng):
    """v_l is derived: the record's length over its duration, which is the
    fit's arc length over the track's duration to the bit."""
    track = random_track(rng, 30, dim=3)
    polys = reconstruct_track(track, 3)
    s = summarize(polys, split_axes(track))
    assert s.v_l == s.length / s.duration
    assert s.v_l == trajectory_length(polys) / float(track.times[-1] - track.times[0])


def test_summary_takes_the_one_axis_tracks_of_the_fitted_track(rng):
    """Another track's axes are a ValueError, not one track's length over
    another's duration: of another count, or on other times."""
    a = TrackSeries("a", np.arange(4.0), rng.normal(size=(4, 2)))
    b = TrackSeries("b", 10 * np.arange(6.0), rng.normal(size=(6, 3)))
    c = TrackSeries("c", 10 * np.arange(4.0), rng.normal(size=(4, 2)))
    polys = reconstruct_track(a, 3)
    with pytest.raises(ValueError, match="3 one-axis tracks for 2 axes"):
        summarize(polys, split_axes(b))
    with pytest.raises(ValueError, match="times are not the reconstruction's mesh"):
        summarize(polys, split_axes(c))
    assert summarize(polys, split_axes(a)).duration == 3.0


def test_displacement_velocity_equals_time_average_of_velocity(rng):
    track = random_track(rng, 14, dim=2)
    polys = reconstruct_track(track, 3)
    s = summarize(polys, split_axes(track))
    mesh = polys[0].mesh
    for d in range(2):
        total = 0.0
        for i in range(mesh.n_cells):
            nodes, w = gauss_points(mesh.interfaces[i], mesh.interfaces[i + 1], 4)
            total += float(np.dot(w, polys[d].derivative(nodes)))
        assert total / s.duration == pytest.approx(s.v_d[d], abs=1e-8)


def test_degree_one_velocity_equals_cell_secants(rng):
    track = random_track(rng, 11, dim=1)
    polys = reconstruct_track(track, 1)
    secants = np.diff(track.coords[:, 0]) / np.diff(track.times)
    for i in range(len(secants)):
        t_mid = 0.5 * (track.times[i] + track.times[i + 1])
        assert eval_at(polys, t_mid).velocity[0] == pytest.approx(secants[i], abs=1e-12)


def test_positions_interpolate_samples(rng):
    track = random_track(rng, 12, dim=3)
    polys = reconstruct_track(track, 3)
    scale = max(1.0, np.abs(track.coords).max())
    for k, t in enumerate(track.times):
        s = eval_at(polys, float(t))
        np.testing.assert_allclose(s.position, track.coords[k], atol=1e-10 * scale)


def test_speed_is_euclidean_norm():
    track = TrackSeries("v", [0.0, 1.0], [[0.0, 0.0], [3.0, 4.0]])
    polys = reconstruct_track(track, 1)
    s = eval_at(polys, 0.5)
    assert s.speed == pytest.approx(5.0, abs=1e-12)


def test_dense_times_matches_sample_dense(rng):
    track = random_track(rng, 7, dim=1)
    polys = reconstruct_track(track, 2)
    ts = dense_times(polys)
    samples = sample_dense(polys)
    np.testing.assert_allclose(ts, [s.t for s in samples])
