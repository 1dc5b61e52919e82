import warnings

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
from shotr.recon import MAX_DEGREE, CellPoly, PiecewisePoly, TaylorBasis, reconstruct_track
from shotr.trajdata import TrackSeries, split_axes

from . import oracle
from .conftest import random_times


def step_series(n_left=3, n_right=3, lo=0.0, hi=1.0):
    n = n_left + n_right
    times = np.arange(float(n))
    values = np.concatenate([np.full(n_left, lo), np.full(n_right, hi)])
    return TrackSeries("axis", times, values)


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
    series = TrackSeries("axis", times, rng.normal(size=60).cumsum() * 1e100)
    limited = reconstruct_track(series, 3, "cweno")[0]
    assert np.isfinite(limited.coeffs).all()


def test_left_line_has_unit_slope():
    series = TrackSeries("axis", [0.0, 1.0, 2.0], [0.0, 1.0, 1.5])
    left, _ = side_lines(build_mesh(series.times), series.values, 3)
    line = CellPoly(left[1], TaylorBasis(1.5, 1.0))  # cell 1
    pts = np.linspace(0.8, 2.3, 7)
    np.testing.assert_allclose(line.derivative(pts), 1.0, atol=1e-13)
    assert line.value(1.0) == pytest.approx(1.0)


def test_first_cell_has_no_left_line():
    series = TrackSeries("axis", [0.0, 1.0, 2.0], [0.0, 1.0, 1.5])
    left, right = side_lines(build_mesh(series.times), series.values, 2)
    # the right line is the cell's own linking segment and always exists;
    # it stands in for the missing left line of the first cell
    np.testing.assert_array_equal(left[0], right[0])
    assert not np.array_equal(left[1], right[1])


def test_constant_data_lines_equal_central(rng):
    times = random_times(rng, 8)
    series = TrackSeries("axis", times, np.full(8, 2.5))
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
    series = TrackSeries("axis", times, values)
    poly = reconstruct_track(series, 3)[0]
    left, right = side_lines(poly.mesh, values, 3)
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
        series = TrackSeries("axis", times, rng.normal(size=9))
        optimal = PiecewisePoly(build_mesh(times), rng.normal(size=(8, 4)))
        p0, left, right = candidates(optimal, series).transpose(1, 0, 2)
        recombined = (
            cfg.lambda_central * p0 + cfg.lambda_side * left + cfg.lambda_side * right
        )
        np.testing.assert_allclose(recombined, optimal.coeffs, atol=1e-14)


def test_central_of_constant_is_constant():
    series = TrackSeries("axis", [0.0, 1.0, 2.0, 3.0], [4.0, 4.0, 4.0, 4.0])
    poly = reconstruct_track(series, 2)[0]
    p0 = candidates(poly, series)[:, 0]
    np.testing.assert_allclose(p0, np.tile([4.0, 0.0, 0.0], (3, 1)), atol=1e-13)


def test_limiter_takes_the_one_axis_track_of_the_fit(rng):
    """Another track's axis is summarize's ValueError, not a limit of one
    track's fit with another's samples: on other times, or of another
    length, which numpy would reject only as a broadcast of (5, 4) with
    (7, 4)."""
    a = TrackSeries("a", random_times(rng, 6), rng.normal(size=6))
    poly = reconstruct_track(a, 3)[0]
    others = (TrackSeries("b", 10 * a.times, a.values),
              TrackSeries("c", random_times(rng, 8), rng.normal(size=8)))
    for other in others:
        for fn in (candidates, limit_piecewise):
            with pytest.raises(ValueError, match="times are not the reconstruction's mesh"):
                fn(poly, other)
    same_times = TrackSeries("d", a.times.copy(), a.values)
    np.testing.assert_array_equal(limit_piecewise(poly, same_times).coeffs,
                                  limit_piecewise(poly, a).coeffs)


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


def fit_candidates(rng, degree, n_pts=41):
    """Candidates of a random walk's fit, and its cell widths."""
    times = random_times(rng, n_pts) * 10.0 ** rng.uniform(-2, 2)
    series = TrackSeries("axis", times, rng.normal(size=n_pts).cumsum())
    poly = reconstruct_track(series, degree)[0]
    return candidates(poly, series), poly.mesh.widths


@pytest.mark.parametrize("degree", range(1, MAX_DEGREE + 1))
def test_sigma_matches_the_einsum_form(rng, degree):
    """In each shape the limiter and its callers pass (one cell, cells, cells'
    candidates and candidates' cells), on a fit's candidates and on random
    coefficients, the matrix-product indicators are within
    4 (N + 1)^2 machine epsilons of the sum of the absolute terms of the
    einsum form."""
    cands, widths = fit_candidates(rng, degree)
    noise = rng.normal(size=cands.shape) * 10.0 ** rng.uniform(-3, 3, cands.shape)
    for c in (cands, noise):
        for coeffs, w in ((c[5, 0], widths[5]), (c[:, 1], widths), (c, widths[:, None]),
                          (c.transpose(1, 0, 2), widths)):
            got = oscillation_indicators(coeffs, w)
            ref = oracle.einsum_indicators(coeffs, w)
            terms = oracle.einsum_indicators(coeffs, w, absolute=True)
            assert np.shape(got) == np.shape(ref) == coeffs.shape[:-1]
            assert np.all(np.abs(got - ref) <= 4 * (degree + 1) ** 2 * np.finfo(float).eps * terms)


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
    series = TrackSeries("axis", times, rng.normal(size=9))
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
    series = TrackSeries("axis", ts, f(ts))
    unlimited = reconstruct_track(series, 3)[0]
    limited = limit_piecewise(unlimited, series)
    pts = np.linspace(0, 1, 1500)
    scale = np.max(np.abs(f(pts)))
    assert np.max(np.abs(limited.value(pts) - unlimited.value(pts))) / scale <= 1e-8


def test_blend_is_convex_combination(rng):
    """The limited value never leaves the envelope of the three candidates."""
    times = random_times(rng, 12)
    values = rng.normal(0, 2, 12)
    series = TrackSeries("axis", times, values)
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
    series = TrackSeries("axis", times, values)
    direct = limit_piecewise(reconstruct_track(series, 3)[0], series)
    via_flag = reconstruct_track(series, 3, limiter="cweno")[0]
    pts = rng.uniform(times[0], times[-1], 50)
    np.testing.assert_allclose(via_flag.value(pts), direct.value(pts), atol=1e-13)
    with pytest.raises(ValueError, match="unknown limiter"):
        reconstruct_track(series, 3, limiter="minmod")


def assert_same_bits(got, ref):
    assert got.shape == ref.shape
    np.testing.assert_array_equal(got.view(np.uint64), ref.view(np.uint64))


@pytest.mark.parametrize("degree", [1, 3, 9])
def test_weights_and_blend_are_the_reduction_forms_to_the_bit(rng, degree):
    """For the same sigmas, the three-term weights and blend give the bits
    of the min and sums taken as numpy reductions: on a fit's indicators,
    on sigmas of every magnitude, on equal sets and on zeros, for one cell,
    for cells and for a stack of cells."""
    cands, widths = fit_candidates(rng, degree)
    shape = cands.shape[:2]
    for sigmas in (oscillation_indicators(cands, widths[:, None]),
                   10.0 ** rng.uniform(-30, 300, shape),
                   np.repeat(rng.uniform(size=(shape[0], 1)), 3, axis=1),
                   np.zeros(shape)):
        for c, s in ((cands[7], sigmas[7]), (cands, sigmas),
                     (cands.reshape(2, -1, *cands.shape[1:]), sigmas.reshape(2, -1, 3))):
            assert_same_bits(nonlinear_weights(s), oracle.reduced_weights(s))
            assert_same_bits(blend(c, s), oracle.reduced_blend(c, s))


def scaled_walk(scale):
    """30-sample 2-D random walk on frame intervals of 0.5 to 1.5 times scale."""
    rng = np.random.default_rng(0)
    times = np.cumsum(rng.uniform(0.5, 1.5, 30)) * scale
    return TrackSeries("walk", times, rng.normal(size=(30, 2)).cumsum(axis=0))


@pytest.mark.parametrize("degree, scale, kept", [(3, 1e-61, 0), (3, 1e-63, 58),
                                                 (9, 1e-16, 0), (9, 1e-18, 14)])
def test_cells_whose_weights_are_not_finite_keep_the_fit(degree, scale, kept):
    """A width raised to 1 - 2N overflows in cells narrower than about
    1e-308^(1 / (2N - 1)) time units, and their weights are not finite.
    Such a cell keeps the unlimited fit, as a cell with
    equal indicators does, and the limiter raises no numpy warning; just
    above that scale no cell's weights overflow."""
    track = scaled_walk(scale)
    n_kept = 0
    for poly, series in zip(reconstruct_track(track, degree), split_axes(track)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            limited = limit_piecewise(poly, series)
        with np.errstate(over="ignore", invalid="ignore"):
            omega = nonlinear_weights(oscillation_indicators(candidates(poly, series),
                                                             poly.mesh.widths[:, None]))
        not_finite = ~np.isfinite(omega).all(axis=1)
        assert np.isfinite(limited.coeffs).all()
        np.testing.assert_array_equal(limited.coeffs[not_finite], poly.coeffs[not_finite])
        n_kept += not_finite.sum()
    assert n_kept == kept
    via_flag = reconstruct_track(track, degree, "cweno")
    assert all(np.isfinite(p.coeffs).all() for p in via_flag)
