import dataclasses

import numpy as np
import pytest

from shotr import validate
from shotr.errors import ShotrError
from shotr.mesh import build_mesh
from shotr.recon import evaluate, reconstruct_track
from shotr.trajdata import TrackSeries
from shotr.validate import (
    CASES,
    backtrace,
    check_backtrace,
    check_comparison,
    check_convergence,
    compare_spt,
    error_norms,
    get_case,
    run_convergence,
)

from .conftest import count_calls, random_track
from .oracle import rk_step


# ---------------------------------------------------------------------------
# error norms
# ---------------------------------------------------------------------------

def _one_column(reference, candidate, quad, mesh):
    """The norms of two functions of one value per time, through error_norms'
    one column."""
    [norms] = error_norms(lambda t: reference(t)[:, None], lambda t: candidate(t)[:, None],
                          quad, mesh)
    return norms


def test_identical_functions_have_zero_norms():
    mesh = build_mesh(np.linspace(0, 2, 11))
    f = lambda t: np.sin(t)
    en = _one_column(f, f, 4, mesh)
    assert en.as_tuple() == (0.0, 0.0, 0.0)


def test_constant_error_analytic():
    mesh = build_mesh(np.linspace(0, 2, 21))
    en = _one_column(lambda t: np.ones_like(t), lambda t: np.zeros_like(t), 4, mesh)
    assert en.l1 == pytest.approx(2.0, abs=1e-13)
    assert en.l2 == pytest.approx(np.sqrt(2.0), abs=1e-13)
    assert en.linf == pytest.approx(1.0, abs=1e-15)


def test_linear_error_analytic():
    mesh = build_mesh(np.linspace(0, 1, 9))
    en = _one_column(lambda t: t, lambda t: np.zeros_like(t), 4, mesh)
    assert en.l1 == pytest.approx(0.5, abs=1e-12)
    assert en.l2 == pytest.approx(1 / np.sqrt(3), abs=1e-12)
    assert en.linf == pytest.approx(1.0, abs=1e-15)


def test_norm_dominance_inequalities(rng):
    for _ in range(10):
        times = np.sort(rng.uniform(0, 3, 12))
        times[0], times[-1] = 0.0, 3.0
        mesh = build_mesh(np.unique(times))
        c = rng.normal(size=4)
        f = lambda t: np.polynomial.polynomial.polyval(t, c)
        g = lambda t: np.sin(3 * t)
        en = _one_column(f, g, 5, mesh)
        T = 3.0
        assert en.l1 <= T * en.linf + 1e-12
        assert en.l2**2 <= T * en.linf**2 + 1e-12


def test_each_clipped_interface_is_evaluated_once():
    """k cells take their quad * k nodes and their k + 1 interfaces, in one
    call of each function."""
    mesh = build_mesh(np.linspace(0, 2, 21))
    sizes = []
    candidate = lambda t: sizes.append(t.size) or np.zeros((t.size, 2))
    error_norms(lambda t: np.column_stack([t, t]), candidate, 4, mesh)
    assert sizes == [4 * 20 + 21]


def test_functions_of_different_forms_are_rejected():
    """Both functions give the same one column per axis, (m, dim); one value
    per time, (m,), is rejected on either side, a 1-D result against a
    column would broadcast to (m, m), and one column against three to three."""
    mesh = build_mesh(np.linspace(0, 2, 11))
    axis = lambda t: np.sin(t)
    column = lambda t: np.sin(t)[:, None]
    three = lambda t: np.zeros((len(t), 3))
    cube = lambda t: np.zeros((len(t), 2, 2))
    for f, g in ((axis, column), (column, axis), (axis, axis), (axis, three),
                 (column, three), (cube, cube), (lambda t: 1.0, lambda t: 0.0)):
        with pytest.raises(ValueError, match="returned shapes"):
            error_norms(f, g, 4, mesh)
    # a scalar broadcasts against a column, on either side
    zero = lambda t: 0.0
    zeros = lambda t: np.zeros((t.size, 1))
    assert error_norms(column, zero, 4, mesh) == error_norms(column, zeros, 4, mesh)
    assert error_norms(zero, column, 4, mesh) == error_norms(zeros, column, 4, mesh)


# ---------------------------------------------------------------------------
# synthetic cases
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(CASES))
def test_case_velocity_is_position_derivative(name):
    case = get_case(name)
    a, b = case.domain
    t = np.linspace(a + 0.01, b - 0.01, 57)
    h = 1e-6
    for pos, vel in zip(case.position_fns, case.velocity_fns):
        fd = (pos(t + h) - pos(t - h)) / (2 * h)
        np.testing.assert_allclose(vel(t), fd, rtol=1e-6, atol=1e-6)


def test_case_sampling_endpoints_inclusive():
    case = get_case("tanhcos2d")
    track = case.sample(41)
    assert len(track) == 41
    assert track.times[0] == case.domain[0]
    assert track.times[-1] == case.domain[1]
    assert track.dim == 2


@pytest.mark.parametrize("n_points", [-1, 0, 1])
def test_case_sampling_needs_two_points(n_points):
    with pytest.raises(ValueError, match=rf"^case 'tanhcos2d' needs at least 2 points, "
                                         rf"got {n_points}$"):
        get_case("tanhcos2d").sample(n_points)


def test_unknown_case_raises():
    with pytest.raises(ShotrError):
        get_case("nope")


@pytest.mark.parametrize("name", sorted(CASES))
def test_case_is_one_frozen_record_that_evaluates_its_exact_curve(name):
    """get_case returns the record CASES holds, on every call; position and
    velocity give one column per axis, each its own function's values, and
    sample takes its coordinates from position."""
    case = get_case(name)
    assert case is get_case(name) is CASES[name]
    with pytest.raises(dataclasses.FrozenInstanceError):
        case.domain = (0.0, 1.0)
    t = np.linspace(*case.domain, 7)
    for got, fns in ((case.position(t), case.position_fns),
                     (case.velocity(t), case.velocity_fns)):
        assert got.shape == (7, case.dim)
        for column, f in zip(got.T, fns):
            np.testing.assert_array_equal(column, f(t))
    np.testing.assert_array_equal(case.sample(7).coords, case.position(t))


# ---------------------------------------------------------------------------
# convergence study
# ---------------------------------------------------------------------------

def test_convergence_published_anchor_values():
    case = get_case("conv3d")
    rows = run_convergence(case, degrees=[1], mesh_cells=[100, 200])
    first = rows[0].errors["x"]
    assert first.l1 == pytest.approx(1.89e-3, rel=0.02)
    second = rows[1]
    assert second.errors["x"].l1 == pytest.approx(4.73e-4, rel=0.02)
    assert second.orders["x"][0] == pytest.approx(2.0, abs=0.02)


def test_convergence_cubic_anchor():
    case = get_case("conv3d")
    rows = run_convergence(case, degrees=[3], mesh_cells=[400, 800])
    assert rows[1].errors["x"].l1 == pytest.approx(1.81e-8, rel=0.03)
    assert rows[1].orders["x"][0] == pytest.approx(4.0, abs=0.05)


def test_polynomial_case_is_exact():
    from shotr.validate import SyntheticCase

    case = SyntheticCase(
        name="cubic",
        position_fns=(lambda t: t**3 - t, lambda t: 2 * t**2 + 1),
        velocity_fns=(lambda t: 3 * t**2 - 1, lambda t: 4 * t),
        domain=(0.0, 1.0),
    )
    rows = run_convergence(case, degrees=[3], mesh_cells=[20, 40])
    for row in rows:
        for en in row.errors.values():
            assert en.linf < 1e-12


def test_check_convergence_flags_bad_rows():
    case = get_case("conv3d")
    rows = run_convergence(case, degrees=[1], mesh_cells=[100, 200, 400, 800])
    assert check_convergence(rows) == []
    rows[0].errors["x"].l1 *= 2.0
    violations = check_convergence(rows)
    assert any("L1" in v and "cells=100" in v for v in violations)


def test_check_convergence_flags_an_order_off_its_degree():
    """Cubic reconstruction on 10 and 20 cells has not reached its order 4:
    the gate names the degree, the finer mesh, the axis, the norm and the
    order."""
    violations = check_convergence(run_convergence(get_case("conv3d"), [3], [10, 20]))
    assert "N=3 cells=20 axis=x order(L1)=2.65 outside 4±0.25" in violations
    assert all(" order(L" in v for v in violations)


def test_check_convergence_names_each_reduced_fit_first():
    """On 1 and 2 cells the cubic is fitted at degrees 1 and 2: the rows keep
    the requested degree, which groups the order gate, and the gate names
    each reduced fit once, before its other violations."""
    rows = run_convergence(get_case("conv3d"), [3], [1, 2])
    assert [row.degree for row in rows] == [3, 3]
    violations = check_convergence(rows)
    assert violations[:2] == ["N=3 cells=1: fitted at degree 1",
                              "N=3 cells=2: fitted at degree 2"]
    assert all(" order(L" in v for v in violations[2:])


@pytest.mark.parametrize("limiter, degree", [
    *[("none", degree) for degree in range(1, 6)],
    ("cweno", 1),
    *[pytest.param("cweno", degree, marks=pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 1: on smooth data the default limiter returns the mean of "
        "its two side lines, whose velocity converges at order 1.03-1.06")))
      for degree in range(2, 6)],
])
def test_fitted_velocity_converges_at_order_n(limiter, degree):
    """conv3d from 400 to 800 cells: the L1 and L2 errors of the fit's
    velocity, scored with N+1 Gauss points per cell, fall at order N
    within ORDER_TOL on every axis."""
    case = get_case("conv3d")
    norms = []
    for cells in (400, 800):
        polys = reconstruct_track(case.sample(cells + 1), degree, limiter)
        norms.append(error_norms(case.velocity, lambda t: evaluate(polys, t, (1,))[0].T,
                                 degree + 1, mesh=polys[0].mesh))
    orders = [np.log2(coarse.as_tuple()[k] / fine.as_tuple()[k])
              for coarse, fine in zip(*norms) for k in (0, 1)]
    assert all(abs(order - degree) <= validate.ORDER_TOL for order in orders), orders


def test_convergence_meshes_must_increase():
    """Each order compares a mesh with the one before it, and the gate reads
    the last two rows as the finest: equal or decreasing neighbours are a
    ValueError naming the pair, before any mesh is fitted."""
    case = get_case("conv3d")
    with pytest.raises(ValueError, match="mesh cell count 200 repeated"):
        run_convergence(case, degrees=[1], mesh_cells=[100, 200, 200])
    with pytest.raises(ValueError, match="mesh cell counts 800, 400 decrease"):
        run_convergence(case, degrees=[1, 2], mesh_cells=[800, 400, 200, 100])


def test_convergence_meshes_have_a_cell():
    """A cell count below 1 is a ValueError naming it, before the order
    check and before any mesh is fitted."""
    case = get_case("conv3d")
    for cells in ([0, 10], [10, 0], [-3, 10]):
        with pytest.raises(ValueError, match=rf"^mesh cell count {min(cells)}: "
                                             "a mesh has at least 1 cell$"):
            run_convergence(case, degrees=[1], mesh_cells=cells)


# ---------------------------------------------------------------------------
# comparison study
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def comparison_rows():
    return compare_spt(get_case("tanhcos2d"))


def test_comparison_mid_mesh_p3_beats_p1_everywhere(comparison_rows):
    for axis in "xy":
        p1 = next(r for r in comparison_rows if r.method == "P1" and r.n_points == 41 and r.axis == axis)
        p3 = next(r for r in comparison_rows if r.method == "P3" and r.n_points == 41 and r.axis == axis)
        for k in range(3):
            assert p3.position.as_tuple()[k] < p1.position.as_tuple()[k]
            assert p3.velocity.as_tuple()[k] < p1.velocity.as_tuple()[k]


def test_comparison_errors_decrease_with_refinement(comparison_rows):
    for method in ("P1", "P3"):
        for axis in "xy":
            seq = [r for r in comparison_rows if r.method == method and r.axis == axis]
            seq.sort(key=lambda r: r.n_points)
            for prev, cur in zip(seq, seq[1:]):
                assert cur.position.l2 < prev.position.l2
                assert cur.velocity.l2 < prev.velocity.l2


def test_check_comparison_flags_errors_that_do_not_decrease():
    """On 3 and 4 points the errors grow under refinement: the gate names
    the method, axis, quantity, norm and the two meshes."""
    violations = check_comparison(compare_spt(get_case("tanhcos2d"), (3, 4)))
    decreasing = [v for v in violations if " not decreasing: " in v]
    assert any(v.startswith("P1 axis=x velocity L2 not decreasing: ")
               and v.endswith(" (3 -> 4 points)") for v in decreasing)
    assert {v.split()[0] for v in decreasing} == {"P1", "P3"}


def test_comparison_rows_hold_the_named_degree():
    """On 2 and 3 points P3 is fitted at degrees 1 and 2: the rows keep the
    degree the method names, and the gate, which derives the fitted degree
    from effective_degree, names each reduced fit once, before its other
    violations."""
    rows = compare_spt(get_case("tanhcos2d"), (2, 3, 4))
    assert {(r.method, r.n_points, r.degree) for r in rows} == {
        (f"P{degree}", n_points, degree) for degree in (1, 3) for n_points in (2, 3, 4)}
    violations = check_comparison(rows)
    assert violations[:2] == ["P3 at 2 points: fitted at degree 1",
                              "P3 at 3 points: fitted at degree 2"]
    assert sum(" fitted at degree " in v for v in violations) == 2


def test_p1_velocity_is_secant_slope():
    case = get_case("tanhcos2d")
    track = case.sample(21)
    polys = reconstruct_track(track, 1)
    secants = np.diff(track.coords[:, 0]) / np.diff(track.times)
    mids = 0.5 * (track.times[:-1] + track.times[1:])
    np.testing.assert_allclose(polys[0].derivative(mids), secants, atol=1e-12)


def test_check_comparison_reports_ratio_violations(comparison_rows, monkeypatch):
    monkeypatch.setattr(validate, "COMPARISON_MIN_RATIO", 1.0)
    violations = check_comparison(comparison_rows)
    assert violations == []  # P3 always beats P1 outright
    monkeypatch.setattr(validate, "COMPARISON_MIN_RATIO", 1e9)
    violations = check_comparison(comparison_rows)
    assert violations  # absurd gate must trip


# ---------------------------------------------------------------------------
# Runge-Kutta steps and backtracing
# ---------------------------------------------------------------------------

def test_rk_step_zero_field_fixed_point():
    v = lambda x, t: np.zeros_like(x)
    state = np.array([1.0, -2.0])
    for order in ("rk2", "rk4"):
        np.testing.assert_array_equal(rk_step(state, 0.0, 0.3, v, order), state)


def test_rk_step_constant_field_exact():
    c = np.array([2.0, -1.0])
    v = lambda x, t: c
    for order in ("rk2", "rk4"):
        got = rk_step(np.zeros(2), 0.0, 0.25, v, order)
        np.testing.assert_allclose(got, -0.25 * c, atol=1e-15)


def test_rk4_exact_for_cubic_time_field():
    # dx/dtau = -tau  =>  x(1) = x0 - 1/2, reproduced exactly by rk4
    v = lambda x, t: np.array([t])
    x = np.array([0.0])
    tau = 0.0
    for _ in range(4):
        x = rk_step(x, tau, 0.25, v, "rk4")
        tau += 0.25
    assert x[0] == pytest.approx(-0.5, abs=1e-12)
    with pytest.raises(ValueError):
        rk_step(x, 0.0, 0.1, v, "rk3")


def _integrate_analytic_field(order, dtau):
    # dx/dtau = -v(x, tau) with v = x cos(tau): exact x(tau) = x0 exp(-sin tau)
    x = np.array([1.0])
    tau = 0.0
    for _ in range(round(2.0 / dtau)):
        x = rk_step(x, tau, dtau, lambda s, t: s * np.cos(t), order)
        tau += dtau
    return abs(x[0] - np.exp(-np.sin(2.0)))


def test_rk_orders_under_step_halving():
    e_rk2 = [_integrate_analytic_field("rk2", h) for h in (0.1, 0.05)]
    e_rk4 = [_integrate_analytic_field("rk4", h) for h in (0.1, 0.05)]
    assert e_rk2[0] / e_rk2[1] >= 2**1.8
    assert e_rk4[0] / e_rk4[1] >= 2**3.5


def test_backtrace_straight_line_returns_to_start():
    times = np.linspace(0, 3, 13)
    coords = np.column_stack([2.0 * times, -1.0 * times])
    track = TrackSeries("line", times, coords)
    for degree, order in ((1, "rk2"), (3, "rk4")):
        res = backtrace(track, degree, 0.5, order=order)
        np.testing.assert_allclose(res.path[-1], coords[0], atol=1e-10)
        assert res.endpoint_error < 1e-10


def test_backtrace_high_order_beats_linear():
    case = get_case("tanhcos2d")
    track = case.sample(41)
    ref = lambda t: np.column_stack([f(t) for f in case.position_fns])
    low = backtrace(track, 1, 0.5, order="rk2", reference=ref)
    high = backtrace(track, 3, 0.5, order="rk4", reference=ref)
    for k in range(3):
        assert high.combined.as_tuple()[k] < low.combined.as_tuple()[k]
    assert check_backtrace(low, high) == []
    assert check_backtrace(high, low)  # reversed ordering must be flagged


def test_backtrace_large_step_stays_bounded():
    # dtau = 0.5 spans ~3.5 acquisition frames of 0.144 s; the high-order
    # velocity field keeps large steps nearly as accurate as small ones
    fx = lambda t: np.sin(t) + 0.5 * t
    fy = lambda t: np.cos(1.3 * t)
    times = np.arange(0.0, 2.0 + 1e-9, 0.144)
    track = TrackSeries("frames", times, np.column_stack([fx(times), fy(times)]))
    ref = lambda t: np.column_stack([fx(t), fy(t)])
    coarse = backtrace(track, 3, 0.5, order="rk4", reference=ref)
    fine = backtrace(track, 3, 0.144, order="rk4", reference=ref)
    assert coarse.combined.linf < 1e-3
    assert coarse.combined.linf < 2 * fine.combined.linf
    assert len(coarse.taus) == len(coarse.path)
    # linear linking with the same large step loses more than an order
    linear = backtrace(track, 1, 0.5, order="rk2", reference=ref)
    assert linear.combined.linf > 10 * coarse.combined.linf


def test_backtrace_default_reference_is_cubic_reconstruction(rng):
    track = random_track(rng, 15, dim=2)
    res = backtrace(track, 1, 0.1)
    assert res.path.shape == (len(res.taus), 2)
    assert res.combined.l1 >= 0.0


def test_backtrace_partial_final_step():
    times = np.linspace(0, 1.3, 14)  # duration not a multiple of dtau
    track = TrackSeries("p", times, np.column_stack([times, times**2]))
    res = backtrace(track, 3, 0.5)
    assert res.taus[-1] == pytest.approx(1.3, abs=1e-12)


@pytest.mark.parametrize("order, expected", [
    ("rk2", 2),
    pytest.param("rk4", 4, marks=pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 10: a stage time on an interior interface takes the earlier "
        "cell, so with steps that land on frames RK4's end stages come from the "
        "cells beside the step, across the C0 curve's velocity jump: first order, "
        "0.548 / 0.275 / 0.145"))),
], ids=["rk2", "rk4"])
def test_backtrace_converges_at_its_order_on_frame_aligned_steps(order, expected):
    """A 41-sample 2-D random walk at dt 0.1, whose fitted velocity jumps at
    every frame, backtraced at dtau 0.1, 0.05 and 0.025 against the fit's own
    positions: the error falls at the method's order, less 0.25."""
    walk = np.cumsum(np.random.default_rng(1).normal(size=(41, 2)), axis=0)
    track = TrackSeries("walk", 0.1 * np.arange(41), walk)
    errors = np.array([backtrace(track, 3, dtau, order=order).combined.linf
                       for dtau in (0.1, 0.05, 0.025)])
    orders = np.log2(errors[:-1] / errors[1:])
    assert orders.min() >= expected - 0.25, (errors, orders)


def test_backtrace_rejects_unknown_order(monkeypatch):
    times = np.linspace(0, 1.3, 14)
    track = TrackSeries("p", times, np.column_stack([times, times**2]))
    calls = []
    count_calls(monkeypatch, validate, "reconstruct_track", calls)
    with pytest.raises(ValueError, match="rk2"):
        backtrace(track, 3, 0.5, order="rk3")
    assert calls == []


@pytest.mark.parametrize("order", ["rk2", "rk4"])
def test_backtrace_takes_its_velocities_from_one_evaluation(rng, monkeypatch, order):
    """RK2 evaluates the velocity at the n step midpoints, RK4 at the n + 1
    step ends and the n midpoints, in one call."""
    track = random_track(rng, 30, 3)
    calls, evaluate = [], validate.evaluate
    monkeypatch.setattr(validate, "evaluate", lambda polys, t, orders: (
        calls.append((t.size, tuple(orders))) or evaluate(polys, t, orders)))
    res = backtrace(track, 3, 0.37, order=order, reference=lambda t: np.zeros((t.size, 3)))
    n = len(res.taus) - 1
    assert calls == [(n if order == "rk2" else 2 * n + 1, (1,))]


@pytest.mark.parametrize("dtau", [0.0, -0.5, float("inf"), float("nan")])
def test_backtrace_rejects_step_that_is_not_finite_and_positive(dtau):
    times = np.linspace(0, 1.3, 14)
    track = TrackSeries("p", times, np.column_stack([times, times**2]))
    with pytest.raises(ValueError, match="dtau"):
        backtrace(track, 3, dtau)


def test_backtrace_rejects_a_step_count_that_overflows_before_fitting(monkeypatch):
    times = np.linspace(0, 1.3, 14)
    track = TrackSeries("p", times, np.column_stack([times, times**2]))
    calls = []
    count_calls(monkeypatch, validate, "reconstruct_track", calls)
    for dtau in (1e-300, 5e-324):
        with pytest.raises(ValueError, match=r"dtau .*duration 1\.3"):
            backtrace(track, 3, dtau)
    assert calls == []


def test_backtrace_checks_the_shape_of_the_reference():
    """A 1-D reference that returns (n,) would broadcast against the (n, 1)
    path into (n, n) and give norms of about 2."""
    times = np.linspace(0.0, 1.0, 21)
    track = TrackSeries("s", times, np.sin(3 * times))
    res = backtrace(track, 3, 0.05, reference=lambda t: np.sin(3 * t)[:, None])
    assert max(res.combined.as_tuple()) < 1e-3
    with pytest.raises(ValueError, match=r"shape \(21,\), expected \(21, 1\)"):
        backtrace(track, 3, 0.05, reference=lambda t: np.sin(3 * t))
    with pytest.raises(ValueError, match=r"shape \(21, 2\), expected \(21, 1\)"):
        backtrace(track, 3, 0.05, reference=lambda t: np.column_stack([t, t]))
