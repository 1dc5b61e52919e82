"""Differential tests: the batched array core against the per-cell oracle."""

import logging

import numpy as np
import pytest

from shotr.cweno import CwenoConfig
from shotr.mesh import build_mesh
from shotr.recon import MAX_DEGREE, _stencil_starts, reconstruct_axis, reconstruct_track
from shotr.trajdata import AxisSeries
from shotr.validate import backtrace, error_norms

from . import oracle
from .conftest import random_times, random_track


def assert_matches(got, ref):
    np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12 * np.abs(ref).max())


@pytest.mark.parametrize("degree", range(1, MAX_DEGREE + 1))
def test_array_core_matches_oracle(rng, degree):
    """Random non-uniform tracks of every short length and one long one,
    without and with the limiter, at arbitrary time and value scales."""
    cfg = CwenoConfig()
    for n in [*range(2, 2 * degree + 5), 60]:
        times = random_times(rng, n, t0=rng.uniform(-10, 10)) * 10.0 ** rng.uniform(-3, 3)
        values = rng.normal(size=n).cumsum() * 10.0 ** rng.uniform(-3, 3)
        series = AxisSeries(times, values)
        ref = oracle.reconstruct_axis(series, degree)
        assert_matches(reconstruct_axis(series, degree).coeffs, ref)
        assert_matches(
            reconstruct_axis(series, degree, "cweno", cfg).coeffs, oracle.limit(ref, series, cfg)
        )


SINGULAR_CASES = [
    # the lower-degree stencil starts where the full one does
    (np.array([0, 1, 2, 3, 3 + 1e-15, 4, 5, 6, 7, 8, 9, 10.0]), 3, 1),
    # two fallbacks; the degree-1 stencil starts two columns into the full one
    (np.array([0, 1, 2, 3, 4, 5, 6, 6 + 1e-15, 7, 8, 9, 10, 11, 12, 13, 14.0]), 6, 2),
]


@pytest.mark.parametrize("times, cell, fallbacks", SINGULAR_CASES)
def test_singular_fallback_matches_oracle(caplog, times, cell, fallbacks):
    series = AxisSeries(times * 1e100, np.sin(np.arange(len(times), dtype=float)))
    with caplog.at_level(logging.WARNING, logger="shotr.recon"):
        got = reconstruct_axis(series, 3)
    assert [r.getMessage() for r in caplog.records] == [
        f"cell {cell}: singular at degree {d}, retrying at {d - 1}"
        for d in range(3, 3 - fallbacks, -1)
    ]
    assert got.degree == 3
    np.testing.assert_array_equal(got.coeffs[cell, 4 - fallbacks :], 0.0)
    ref = oracle.reconstruct_axis(series, 3)
    assert_matches(got.coeffs, ref)
    cfg = CwenoConfig()
    assert_matches(reconstruct_axis(series, 3, "cweno").coeffs, oracle.limit(ref, series, cfg))


def test_lower_degree_stencils_nest_in_the_full_window():
    """A singular cell's lower-degree operator is stored inside the columns
    of its full-degree stencil."""
    for n_if in range(2, 40):
        cells = np.arange(n_if - 1)
        for degree in range(1, MAX_DEGREE + 1):
            start, size = _stencil_starts(n_if, cells, degree)
            for deg in range(1, degree):
                lo, width = _stencil_starts(n_if, cells, deg)
                assert np.all(lo >= start) and np.all(lo + width <= start + size)


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
