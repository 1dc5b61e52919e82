import numpy as np
import pytest

from shotr.cweno import (
    CwenoConfig,
    blend,
    candidates,
    limit_piecewise,
    nonlinear_weights,
    oscillation_indicators,
    side_lines,
)
from shotr.mesh import build_mesh
from shotr.recon import CellPoly, PiecewisePoly, TaylorBasis, reconstruct_track
from shotr.trajdata import TrackSeries

from .conftest import random_times


def step_series(n_left=3, n_right=3, lo=0.0, hi=1.0):
    n = n_left + n_right
    times = np.arange(float(n))
    values = np.concatenate([np.full(n_left, lo), np.full(n_right, hi)])
    return TrackSeries("axis", times, values, 1)


def test_config_defaults_sum_to_one():
    cfg = CwenoConfig()
    assert cfg.lambda_central + 2 * cfg.lambda_side == pytest.approx(1.0, abs=1e-15)


def test_config_has_the_documented_constants_and_takes_no_arguments():
    cfg = CwenoConfig()
    assert cfg.lambda_central == 200.0 / 202.0
    assert cfg.lambda_side == 0.5 * (1.0 - 200.0 / 202.0)
    assert cfg.epsilon == 1e-14
    assert cfg.exponent == 4
    with pytest.raises(TypeError):
        CwenoConfig(exponent=200)


def test_large_exponent_gives_finite_output(rng):
    """At the fixed exponent 4, (sigma + epsilon)^4 overflows from sigma =
    1e78, and lambda over it would give 0 / 0; scaling by the smallest of
    each set keeps the weights finite (numpy RuntimeWarnings fail the
    suite). Values of order 1e100 give indicators of order 1e200."""
    sigmas = np.array([[1e100, 1e200, 1e300], [1e300, 1e100, 1e200],
                       [1e200, 1e300, 1e100], [1e300, 1e300, 1e300]])
    omega = nonlinear_weights(sigmas)
    assert np.isfinite(omega).all()
    np.testing.assert_allclose(omega.sum(axis=1), 1.0, rtol=0, atol=1e-15)
    np.testing.assert_array_equal(omega[:3].argmax(axis=1), [0, 1, 2])

    times = random_times(rng, 60)
    series = TrackSeries("axis", times, rng.normal(size=60).cumsum() * 1e100, 1)
    limited = reconstruct_track(series, 3, "cweno")[0]
    assert np.isfinite(limited.coeffs).all()


def test_left_line_has_unit_slope():
    series = TrackSeries("axis", [0.0, 1.0, 2.0], [0.0, 1.0, 1.5], 1)
    left, _ = side_lines(series, 3)
    line = CellPoly(left[1], TaylorBasis(3, 1.5, 1.0))  # cell 1
    pts = np.linspace(0.8, 2.3, 7)
    np.testing.assert_allclose(line.derivative(pts), 1.0, atol=1e-13)
    assert line.value(1.0) == pytest.approx(1.0)


def test_first_cell_has_no_left_line():
    series = TrackSeries("axis", [0.0, 1.0, 2.0], [0.0, 1.0, 1.5], 1)
    left, right = side_lines(series, 2)
    # the right line is the cell's own linking segment and always exists;
    # it stands in for the missing left line of the first cell
    np.testing.assert_array_equal(left[0], right[0])
    assert not np.array_equal(left[1], right[1])


def test_constant_data_lines_equal_central(rng):
    times = random_times(rng, 8)
    series = TrackSeries("axis", times, np.full(8, 2.5), 1)
    poly = reconstruct_track(series, 3)[0]
    cands = candidates(poly, series)
    for i, cell in enumerate(poly.cells):
        pts = np.linspace(times[i], times[i + 1], 5)
        central, left, right = (CellPoly(c, cell.basis) for c in cands[i])
        np.testing.assert_allclose(left.value(pts), 2.5, atol=1e-12)
        np.testing.assert_allclose(right.value(pts), 2.5, atol=1e-12)
        np.testing.assert_allclose(central.value(pts), 2.5, atol=1e-10)


def test_line_reexpansion_reproduces_defining_samples(rng):
    """Change of basis must not move the line through its two points."""
    times = random_times(rng, 10)
    values = rng.normal(0, 2, 10)
    series = TrackSeries("axis", times, values, 1)
    poly = reconstruct_track(series, 3)[0]
    left, right = side_lines(series, 3)
    for cell in range(1, 9):
        basis = poly.cells[cell].basis
        line = CellPoly(left[cell], basis)
        assert line.value(times[cell - 1]) == pytest.approx(values[cell - 1], abs=1e-12)
        assert line.value(times[cell]) == pytest.approx(values[cell], abs=1e-12)
        line = CellPoly(right[cell], basis)
        assert line.value(times[cell]) == pytest.approx(values[cell], abs=1e-12)
        assert line.value(times[cell + 1]) == pytest.approx(values[cell + 1], abs=1e-12)


def test_central_recombination_identity(rng):
    cfg = CwenoConfig()
    for _ in range(20):
        times = random_times(rng, 9)
        series = TrackSeries("axis", times, rng.normal(size=9), 1)
        optimal = PiecewisePoly(build_mesh(times), rng.normal(size=(8, 4)))
        p0, left, right = candidates(optimal, series).transpose(1, 0, 2)
        recombined = (
            cfg.lambda_central * p0 + cfg.lambda_side * left + cfg.lambda_side * right
        )
        np.testing.assert_allclose(recombined, optimal.coeffs, atol=1e-14)


def test_central_of_constant_is_constant():
    series = TrackSeries("axis", [0.0, 1.0, 2.0, 3.0], [4.0, 4.0, 4.0, 4.0], 1)
    poly = reconstruct_track(series, 2)[0]
    p0 = candidates(poly, series)[:, 0]
    np.testing.assert_allclose(p0, np.tile([4.0, 0.0, 0.0], (3, 1)), atol=1e-13)


# ---------------------------------------------------------------------------
# oscillation indicator
# ---------------------------------------------------------------------------

def test_sigma_constant_is_zero():
    assert oscillation_indicators(np.array([7.0, 0.0, 0.0, 0.0]), 1.0) == 0.0


def test_sigma_unit_slope_line():
    # p(t) = t on [0, 1]: the only derivative term integrates to 1
    assert oscillation_indicators(np.array([0.5, 1.0]), 1.0) == pytest.approx(1.0, abs=1e-14)


def test_sigma_matches_symbolic_integration(rng):
    """Gram-matrix form vs exact polynomial integration of the squared
    derivatives over the cell, in physical time."""
    for _ in range(10):
        center, width = rng.uniform(-2, 2), rng.uniform(0.3, 2.0)
        coeffs = rng.normal(size=4)
        a, b = center - width / 2, center + width / 2
        # monomial form in t: p(u)/... with u=(t-center)/width
        fact = np.array([1.0, 1.0, 2.0, 6.0])
        mono_u = np.polynomial.Polynomial(coeffs / fact)
        expected = 0.0
        p = mono_u
        for order in range(1, 4):
            p = p.deriv()  # derivative in u; d^k/dt^k = (1/width^k) d^k/du^k
            sq = p * p
            anti = sq.integ()
            ua, ub = (a - center) / width, (b - center) / width
            expected += (anti(ub) - anti(ua)) * width / width ** (2 * order)
        got = oscillation_indicators(coeffs, width)
        assert got == pytest.approx(expected, rel=1e-12, abs=1e-13)


# ---------------------------------------------------------------------------
# blending
# ---------------------------------------------------------------------------

def test_weights_sum_to_one(rng):
    for _ in range(200):
        sig = rng.uniform(0, 10, 3) ** 2
        w = nonlinear_weights(sig)
        assert abs(w.sum() - 1.0) <= 1e-14
        assert np.all(w >= 0)


def test_equal_sigmas_recover_linear_weights_and_optimal(rng):
    cfg = CwenoConfig()
    w = nonlinear_weights(np.array([3.7, 3.7, 3.7]))
    np.testing.assert_allclose(w, [cfg.lambda_central, cfg.lambda_side, cfg.lambda_side], atol=1e-15)

    times = random_times(rng, 9)
    series = TrackSeries("axis", times, rng.normal(size=9), 1)
    optimal = PiecewisePoly(build_mesh(times), rng.normal(size=(8, 4)))
    blended = blend(candidates(optimal, series), np.ones((8, 3)))
    np.testing.assert_allclose(blended, optimal.coeffs, atol=1e-13)


def test_step_data_collapses_to_flat_side_line():
    series = step_series()
    poly = reconstruct_track(series, 3)[0]
    jump_cell = 2  # samples 2 and 3 straddle the jump
    cands = candidates(poly, series)[jump_cell]
    sigmas = oscillation_indicators(cands, poly.mesh.widths[jump_cell])
    w = nonlinear_weights(sigmas)
    assert w[0] < 0.01          # central candidate suppressed
    assert w[1] > 0.98          # flat backward line wins
    basis = poly.cells[jump_cell].basis
    blended = CellPoly(blend(cands, sigmas), basis)
    pts = np.linspace(series.times[jump_cell], series.times[jump_cell + 1], 30)
    np.testing.assert_allclose(blended.value(pts), CellPoly(cands[1], basis).value(pts), atol=1e-2)


def test_smooth_cubic_blend_matches_optimal():
    ts = np.linspace(0.0, 1.0, 201)
    f = lambda t: t**3 + 30.0 * t
    series = TrackSeries("axis", ts, f(ts), 1)
    unlimited = reconstruct_track(series, 3)[0]
    limited = limit_piecewise(unlimited, series)
    pts = np.linspace(0, 1, 1500)
    scale = np.max(np.abs(f(pts)))
    assert np.max(np.abs(limited.value(pts) - unlimited.value(pts))) / scale <= 1e-8


def test_blend_is_convex_combination(rng):
    """The limited value never leaves the envelope of the three candidates."""
    times = random_times(rng, 12)
    values = rng.normal(0, 2, 12)
    series = TrackSeries("axis", times, values, 1)
    poly = reconstruct_track(series, 3)[0]
    cands = candidates(poly, series)
    limited = limit_piecewise(poly, series)
    for i, cell in enumerate(limited.cells):
        pts = rng.uniform(times[i], times[i + 1], 20)
        stack = np.array([CellPoly(c, cell.basis).value(pts) for c in cands[i]])
        assert np.all(cell.value(pts) >= stack.min(axis=0) - 1e-12)
        assert np.all(cell.value(pts) <= stack.max(axis=0) + 1e-12)


def test_monotone_step_total_variation_bound():
    """Per-cell variation of the limited curve stays at the linking level."""
    series = step_series(4, 4)
    unlimited = reconstruct_track(series, 3)[0]
    limited = limit_piecewise(unlimited, series)
    times = series.times
    for i in range(limited.mesh.n_cells):
        pts = np.linspace(times[i], times[i + 1], 400)
        # variation of the cell's own polynomial; at a genuine jump the
        # limiter sacrifices continuity across the interface instead
        tv = np.sum(np.abs(np.diff(limited.cells[i].value(pts))))
        tv_linking = abs(series.values[i + 1] - series.values[i])
        assert tv <= tv_linking * 1.01 + 1e-12


def test_limited_reconstruction_via_reconstruct_track(rng):
    times = random_times(rng, 10)
    values = rng.normal(size=10)
    series = TrackSeries("axis", times, values, 1)
    direct = limit_piecewise(reconstruct_track(series, 3)[0], series)
    via_flag = reconstruct_track(series, 3, limiter="cweno")[0]
    pts = rng.uniform(times[0], times[-1], 50)
    np.testing.assert_allclose(via_flag.value(pts), direct.value(pts), atol=1e-13)
    with pytest.raises(ValueError, match="unknown limiter"):
        reconstruct_track(series, 3, limiter="minmod")
