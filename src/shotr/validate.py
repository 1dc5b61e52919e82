"""Validation harness: error norms, convergence and comparison studies,
and backward-in-time integration of reconstructed velocities.

The built-in synthetic cases have closed-form position and velocity, so
reconstruction errors can be measured exactly. ``run_convergence``
reproduces the published accuracy benchmark (degree-N reconstruction
converging at order N+1), ``compare_spt`` scores high-order reconstruction
against plain linear linking, and ``backtrace`` integrates the recovered
velocity field backward from the last sample: the closer the returned path
to the recorded trajectory, the more accurate the velocity. The field
depends on time only, so the RK2 or RK4 steps take their velocities from
one evaluation at the steps' ends and midpoints.
"""

import math
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ShotrError
from .mesh import StaggeredMesh, gauss_rule
from .recon import PiecewisePoly, effective_degree, evaluate, reconstruct_track
from .trajdata import TrackSeries

AXES = "xyz"
NORM_NAMES = ("L1", "L2", "Linf")  # the order of ErrorNorms.as_tuple


@dataclass
class ErrorNorms:
    l1: float
    l2: float
    linf: float

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.l1, self.l2, self.linf)


def error_norms(
    reference: Callable[[np.ndarray], np.ndarray],
    candidate: Callable[[np.ndarray], np.ndarray],
    quad_points_per_cell: int,
    mesh: StaggeredMesh,
) -> list[ErrorNorms]:
    """Integral L1/L2 and discrete Linf distance between two functions over
    every cell of mesh, one ErrorNorms per column.

    Both functions map times (m,) to one column per axis, the same (m, dim)
    from both; a scalar broadcasts. Any other shape, (m,) included, is a
    ValueError. Integrals use the mesh's Gauss rule (``mesh.gauss_rule``);
    the max is taken over its nodes and the interfaces, from one evaluation
    of each function. The functions see times alone, so a fit scored here
    reads a node rounded onto an interior interface on the left cell, not
    its own. One pass over the (columns, points) error block gives every
    column's norms, each sum taken over that column's contiguous row.
    """
    nodes, weights = gauss_rule(mesh, quad_points_per_cell)
    pts = np.concatenate([nodes.ravel(), mesh.interfaces])
    ref, cand = np.asarray(reference(pts)), np.asarray(candidate(pts))
    shapes = {r.shape for r in (ref, cand) if r.ndim}  # a scalar broadcasts
    if len(shapes) != 1 or not all(len(s) == 2 and s[0] == pts.size for s in shapes):
        raise ValueError(f"the functions returned shapes {ref.shape} and {cand.shape} at "
                         f"{pts.size} times; expected ({pts.size}, columns) from both")
    err = np.ascontiguousarray(np.abs(ref - cand).T)  # (columns, points)
    quad_err, weights = err[:, : weights.size], weights.ravel()
    l1 = np.sum(weights * quad_err, axis=1).tolist()
    l2 = np.sum(weights * quad_err**2, axis=1).tolist()
    return [ErrorNorms(a, math.sqrt(b), c) for a, b, c in zip(l1, l2, err.max(axis=1).tolist())]


# ---------------------------------------------------------------------------
# synthetic cases
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SyntheticCase:
    """Analytic trajectory with its exact velocity, for validation runs."""

    name: str
    position_fns: tuple[Callable, ...]
    velocity_fns: tuple[Callable, ...]
    domain: tuple[float, float]

    @property
    def dim(self) -> int:
        return len(self.position_fns)

    def position(self, t: np.ndarray) -> np.ndarray:
        """The exact positions at times (m,), one column per axis."""
        return np.column_stack([f(t) for f in self.position_fns])

    def velocity(self, t: np.ndarray) -> np.ndarray:
        """The exact velocities at times (m,), one column per axis."""
        return np.column_stack([f(t) for f in self.velocity_fns])

    def sample(self, n_points: int) -> TrackSeries:
        """Equidistant samples over the domain, endpoints included, as a
        track named after the case; fewer than 2 points is a ValueError."""
        if n_points < 2:
            raise ValueError(f"case {self.name!r} needs at least 2 points, got {n_points}")
        t = np.linspace(self.domain[0], self.domain[1], n_points)
        return TrackSeries(self.name, t, self.position(t))


CASES: dict[str, SyntheticCase] = {
    "conv3d": SyntheticCase(
        name="conv3d",
        position_fns=(
            lambda t: np.sin(np.pi * t) * np.cos(2 * np.pi * t),
            lambda t: 3 * np.cos(2 * np.pi * t) - 2 * np.sin(np.pi * t),
            lambda t: -6 * np.sin(np.pi * t) + 2 * np.cos(3 * np.pi * t),
        ),
        velocity_fns=(
            lambda t: np.pi * np.cos(np.pi * t) * np.cos(2 * np.pi * t)
            - 2 * np.pi * np.sin(np.pi * t) * np.sin(2 * np.pi * t),
            lambda t: -6 * np.pi * np.sin(2 * np.pi * t) - 2 * np.pi * np.cos(np.pi * t),
            lambda t: -6 * np.pi * np.cos(np.pi * t) - 6 * np.pi * np.sin(3 * np.pi * t),
        ),
        domain=(-1.0, 1.0),
    ),
    "tanhcos2d": SyntheticCase(
        name="tanhcos2d",
        position_fns=(
            lambda t: 2 * t - np.log(np.tanh(5 * (t - 1)) + 1) / 5,
            lambda t: np.sin(2 * np.pi * t),
        ),
        velocity_fns=(
            lambda t: 1 + np.tanh(5 * (t - 1)),
            lambda t: 2 * np.pi * np.cos(2 * np.pi * t),
        ),
        domain=(0.0, 2.0),
    ),
}


def get_case(name: str) -> SyntheticCase:
    try:
        return CASES[name]
    except KeyError:
        raise ShotrError(
            f"unknown case {name!r}; available: {sorted(CASES)}"
        ) from None


# ---------------------------------------------------------------------------
# convergence study
# ---------------------------------------------------------------------------

REFERENCE_MESH_CELLS = (100, 200, 400, 800)
# check_convergence's gates: each error within this share of its reference,
# and each L1/L2 order on the two finest refinements within ORDER_TOL of N+1.
REFERENCE_REL_TOL = 0.05
ORDER_TOL = 0.25

# Published per-axis position errors (l1, l2, linf) of the 3-D convergence
# benchmark, keyed by (degree, refinement level, axis). Level k has
# REFERENCE_MESH_CELLS[k] cells over the case domain.
REFERENCE_POSITION_ERRORS: dict[tuple[int, int, str], tuple[float, float, float]] = {
    (1, 0, 'x'): (1.89e-03, 1.49e-03, 1.64e-03),
    (1, 0, 'y'): (5.06e-03, 4.00e-03, 4.60e-03),
    (1, 0, 'z'): (7.74e-03, 6.24e-03, 7.62e-03),
    (1, 1, 'x'): (4.73e-04, 3.72e-04, 4.11e-04),
    (1, 1, 'y'): (1.27e-03, 1.00e-03, 1.15e-03),
    (1, 1, 'z'): (1.94e-03, 1.56e-03, 1.91e-03),
    (1, 2, 'x'): (1.18e-04, 9.31e-05, 1.03e-04),
    (1, 2, 'y'): (3.16e-04, 2.50e-04, 2.88e-04),
    (1, 2, 'z'): (4.84e-04, 3.90e-04, 4.77e-04),
    (1, 3, 'x'): (2.95e-05, 2.33e-05, 2.57e-05),
    (1, 3, 'y'): (7.91e-05, 6.25e-05, 7.20e-05),
    (1, 3, 'z'): (1.21e-04, 9.75e-05, 1.19e-04),
    (2, 0, 'x'): (2.80e-04, 2.49e-04, 6.16e-04),
    (2, 0, 'y'): (4.86e-04, 4.14e-04, 5.91e-04),
    (2, 0, 'z'): (1.11e-03, 9.49e-04, 1.38e-03),
    (2, 1, 'x'): (3.43e-05, 3.02e-05, 8.16e-05),
    (2, 1, 'y'): (5.96e-05, 5.13e-05, 7.39e-05),
    (2, 1, 'z'): (1.35e-04, 1.16e-04, 1.72e-04),
    (2, 2, 'x'): (4.23e-06, 3.69e-06, 1.03e-05),
    (2, 2, 'y'): (7.42e-06, 6.41e-06, 9.24e-06),
    (2, 2, 'z'): (1.68e-05, 1.45e-05, 2.15e-05),
    (2, 3, 'x'): (5.25e-07, 4.55e-07, 1.30e-06),
    (2, 3, 'y'): (9.27e-07, 8.01e-07, 1.15e-06),
    (2, 3, 'z'): (2.09e-06, 1.81e-06, 2.69e-06),
    (3, 0, 'x'): (7.66e-05, 6.60e-05, 1.04e-04),
    (3, 0, 'y'): (9.05e-05, 8.24e-05, 2.27e-04),
    (3, 0, 'z'): (2.99e-04, 2.69e-04, 6.88e-04),
    (3, 1, 'x'): (4.68e-06, 4.01e-06, 4.94e-06),
    (3, 1, 'y'): (5.61e-06, 5.00e-06, 1.50e-05),
    (3, 1, 'z'): (1.88e-05, 1.68e-05, 4.94e-05),
    (3, 2, 'x'): (2.90e-07, 2.50e-07, 3.10e-07),
    (3, 2, 'y'): (3.47e-07, 3.05e-07, 9.51e-07),
    (3, 2, 'z'): (1.17e-06, 1.03e-06, 3.19e-06),
    (3, 3, 'x'): (1.81e-08, 1.56e-08, 1.94e-08),
    (3, 3, 'y'): (2.16e-08, 1.88e-08, 5.96e-08),
    (3, 3, 'z'): (7.29e-08, 6.34e-08, 2.01e-07),
    (4, 0, 'x'): (1.18e-05, 1.17e-05, 4.77e-05),
    (4, 0, 'y'): (9.72e-06, 8.65e-06, 2.74e-05),
    (4, 0, 'z'): (5.11e-05, 4.89e-05, 1.88e-04),
    (4, 1, 'x'): (3.68e-07, 3.67e-07, 1.98e-06),
    (4, 1, 'y'): (2.76e-07, 2.36e-07, 4.66e-07),
    (4, 1, 'z'): (1.42e-06, 1.23e-06, 3.31e-06),
    (4, 2, 'x'): (1.11e-08, 1.06e-08, 6.60e-08),
    (4, 2, 'y'): (8.40e-09, 7.21e-09, 9.98e-09),
    (4, 2, 'z'): (4.27e-08, 3.66e-08, 5.48e-08),
    (4, 3, 'x'): (3.38e-10, 3.09e-10, 2.09e-09),
    (4, 3, 'y'): (2.61e-10, 2.25e-10, 3.12e-10),
    (4, 3, 'z'): (1.32e-09, 1.14e-09, 1.57e-09),
    (5, 0, 'x'): (3.90e-06, 3.91e-06, 1.71e-05),
    (5, 0, 'y'): (1.92e-06, 1.98e-06, 9.03e-06),
    (5, 0, 'z'): (1.35e-05, 1.29e-05, 4.73e-05),
    (5, 1, 'x'): (5.63e-08, 4.93e-08, 1.57e-07),
    (5, 1, 'y'): (2.99e-08, 2.99e-08, 1.70e-07),
    (5, 1, 'z'): (2.24e-07, 2.20e-07, 1.19e-06),
    (5, 2, 'x'): (8.54e-10, 7.33e-10, 1.27e-09),
    (5, 2, 'y'): (4.58e-10, 4.32e-10, 2.77e-09),
    (5, 2, 'z'): (3.47e-09, 3.26e-09, 2.07e-08),
    (5, 3, 'x'): (1.32e-11, 1.14e-11, 1.49e-11),
    (5, 3, 'y'): (7.05e-12, 6.39e-12, 4.39e-11),
    (5, 3, 'z'): (5.36e-11, 4.85e-11, 3.31e-10),
}


@dataclass
class ConvergenceRow:
    """Errors of one (degree, mesh) pair, with orders vs the previous mesh."""

    case: str
    degree: int
    n_cells: int
    dt: float
    errors: dict[str, ErrorNorms]
    orders: dict[str, tuple[float, float, float]] | None


def run_convergence(
    case: SyntheticCase,
    degrees: Sequence[int],
    mesh_cells: Sequence[int] = REFERENCE_MESH_CELLS,
    limiter: str = "none",
) -> list[ConvergenceRow]:
    """Position errors and empirical orders over increasing mesh cell counts,
    each at least 1. An empty list of degrees or meshes is a ValueError."""
    if len(degrees) == 0 or len(mesh_cells) == 0:
        raise ValueError("a convergence study needs a degree and a mesh, got none")
    for cells in mesh_cells:
        if cells < 1:
            raise ValueError(f"mesh cell count {cells}: a mesh has at least 1 cell")
    for before, after in zip(mesh_cells, mesh_cells[1:]):
        if before == after:
            raise ValueError(f"mesh cell count {after} repeated: "
                             "an order needs two different meshes")
        if before > after:
            raise ValueError(f"mesh cell counts {before}, {after} decrease: "
                             "a refinement sequence goes from coarse to fine")
    rows: list[ConvergenceRow] = []
    a, b = case.domain
    axes = AXES[: case.dim]
    tracks = {cells: case.sample(cells + 1) for cells in mesh_cells}
    for degree in degrees:
        prev: ConvergenceRow | None = None
        for cells in mesh_cells:
            polys = reconstruct_track(tracks[cells], degree, limiter)
            mesh, quad = polys[0].mesh, polys[0].degree + 1
            errors = dict(zip(axes, error_norms(case.position, _derivative(polys, 0),
                                                quad, mesh=mesh)))
            dt = (b - a) / cells
            orders = None
            if prev is not None:
                ratio = math.log(dt / prev.dt)
                orders = {ax: tuple(math.log(e / p) / ratio for e, p in zip(
                    errors[ax].as_tuple(), prev.errors[ax].as_tuple())) for ax in axes}
            row = ConvergenceRow(case.name, degree, cells, dt, errors, orders)
            rows.append(row)
            prev = row
    return rows


def check_convergence(rows: list[ConvergenceRow]) -> list[str]:
    """Violations of the convergence gates; empty when everything passes.

    Gates: each row fitted at its own degree (not on fewer cells), per-axis
    errors match the published reference within REFERENCE_REL_TOL where a
    reference entry exists, and L1/L2 empirical orders on the two finest
    refinements stay within ORDER_TOL of degree + 1.
    """
    violations = [f"N={degree} cells={cells}: fitted at degree {fitted}"
                  for degree, cells in dict.fromkeys((r.degree, r.n_cells) for r in rows)
                  if (fitted := effective_degree(cells + 1, degree)) < degree]
    level_of = {cells: lvl for lvl, cells in enumerate(REFERENCE_MESH_CELLS)}
    by_degree: dict[int, list[ConvergenceRow]] = {}
    for row in rows:
        by_degree.setdefault(row.degree, []).append(row)

    for row in rows:
        lvl = level_of.get(row.n_cells)
        if lvl is None or row.case != "conv3d":
            continue
        for ax, norms in row.errors.items():
            ref = REFERENCE_POSITION_ERRORS.get((row.degree, lvl, ax))
            if ref is None:
                continue
            for k, name in enumerate(NORM_NAMES):
                got = norms.as_tuple()[k]
                if abs(got - ref[k]) > REFERENCE_REL_TOL * ref[k]:
                    violations.append(
                        f"N={row.degree} cells={row.n_cells} axis={ax} {name}: "
                        f"{got:.3e} vs reference {ref[k]:.3e} (>±{REFERENCE_REL_TOL:.0%})"
                    )

    for degree, drows in by_degree.items():
        expected = degree + 1
        for row in drows[-2:]:
            if row.orders is None:
                continue
            for ax, orders in row.orders.items():
                for k, name in enumerate(NORM_NAMES[:2]):
                    if abs(orders[k] - expected) > ORDER_TOL:
                        violations.append(
                            f"N={degree} cells={row.n_cells} axis={ax} order({name})="
                            f"{orders[k]:.2f} outside {expected}±{ORDER_TOL}"
                        )
    return violations


# ---------------------------------------------------------------------------
# comparison against linear linking
# ---------------------------------------------------------------------------

COMPARISON_MESH_POINTS = (21, 41, 81)
COMPARISON_DEGREES = (1, 3)
COMPARISON_QUAD_POINTS = 4  # Gauss points per cell
COMPARISON_MIN_RATIO = 10.0  # P3 velocity L2 error at least this far below P1's


@dataclass
class ComparisonRow:
    """Position and velocity errors of one (method, mesh, axis) triple. The
    degree is the one the method names; a mesh too short for it fits
    ``effective_degree(n_points, degree)``."""

    case: str
    degree: int
    n_points: int
    axis: str
    position: ErrorNorms
    velocity: ErrorNorms

    @property
    def method(self) -> str:
        return f"P{self.degree}"


def compare_spt(
    case: SyntheticCase,
    mesh_points: Sequence[int] = COMPARISON_MESH_POINTS,
) -> list[ComparisonRow]:
    """Score linear linking (P1) against cubic reconstruction (P3).

    Both methods share one quadrature so their norms are comparable. An
    empty list of meshes is a ValueError.
    """
    if len(mesh_points) == 0:
        raise ValueError("a comparison needs at least one mesh, got none")
    rows: list[ComparisonRow] = []
    axes = AXES[: case.dim]
    for n_points in mesh_points:
        track = case.sample(n_points)
        for degree in COMPARISON_DEGREES:
            polys = reconstruct_track(track, degree)
            mesh = polys[0].mesh
            position = error_norms(case.position, _derivative(polys, 0),
                                   COMPARISON_QUAD_POINTS, mesh=mesh)
            velocity = error_norms(case.velocity, _derivative(polys, 1),
                                   COMPARISON_QUAD_POINTS, mesh=mesh)
            rows += [
                ComparisonRow(case.name, degree, n_points, ax, pos, vel)
                for ax, pos, vel in zip(axes, position, velocity)
            ]
    return rows


def check_comparison(rows: list[ComparisonRow]) -> list[str]:
    """Violations of the comparison gates; empty when everything passes.

    Gates: each method fitted at its own degree on every mesh, P3 velocity
    L2 error at least COMPARISON_MIN_RATIO times below P1 on every mesh and
    axis, and both methods' position and velocity errors strictly
    decreasing under refinement.
    """
    violations = [f"P{degree} at {n_points} points: fitted at degree {fitted}"
                  for degree, n_points in dict.fromkeys((r.degree, r.n_points) for r in rows)
                  if (fitted := effective_degree(n_points, degree)) < degree]
    index = {(r.method, r.n_points, r.axis): r for r in rows}
    meshes = sorted({r.n_points for r in rows})
    axes = sorted({r.axis for r in rows})

    for n_points in meshes:
        for ax in axes:
            p1 = index.get(("P1", n_points, ax))
            p3 = index.get(("P3", n_points, ax))
            if p1 is None or p3 is None:
                continue
            if p3.velocity.l2 * COMPARISON_MIN_RATIO > p1.velocity.l2:
                violations.append(
                    f"points={n_points} axis={ax}: velocity L2 ratio "
                    f"{p1.velocity.l2 / p3.velocity.l2:.1f} < {COMPARISON_MIN_RATIO}"
                )

    for method in ("P1", "P3"):
        for ax in axes:
            seq = [index[(method, m, ax)] for m in meshes if (method, m, ax) in index]
            for prev, cur in zip(seq, seq[1:]):
                for qty in ("position", "velocity"):
                    for k, name in enumerate(NORM_NAMES):
                        before = getattr(prev, qty).as_tuple()[k]
                        after = getattr(cur, qty).as_tuple()[k]
                        if not after < before:
                            violations.append(
                                f"{method} axis={ax} {qty} {name} not decreasing: "
                                f"{before:.3e} -> {after:.3e} "
                                f"({prev.n_points} -> {cur.n_points} points)"
                            )
    return violations


# ---------------------------------------------------------------------------
# backward integration
# ---------------------------------------------------------------------------

@dataclass
class BacktraceResult:
    endpoint_error: float          # distance from path[-1] to the first recorded sample
    taus: np.ndarray               # local integration times, 0 .. duration
    path: np.ndarray               # (len(taus), dim)
    combined: ErrorNorms           # path vs reference, on the deviation magnitude


def _derivative(polys: list[PiecewisePoly], order: int) -> Callable[[np.ndarray], np.ndarray]:
    """Times (m,) -> the order-th time derivative (m, dim) of a
    reconstruction: its positions for order 0, its velocities for 1."""
    return lambda t: evaluate(polys, t, (order,))[0].T


def cubic_reference(track: TrackSeries) -> Callable[[np.ndarray], np.ndarray]:
    """``backtrace``'s default reference: the unlimited cubic reconstruction
    of track, fitted at the degree a short track allows, so that its degree
    reduction is logged once, by the fit being scored."""
    return _derivative(reconstruct_track(track, effective_degree(len(track), 3)), 0)


def backtrace(
    track: TrackSeries,
    degree: int,
    dtau: float,
    order: str | None = None,
    limiter: str = "none",
    reference: Callable[[np.ndarray], np.ndarray] | None = None,
) -> BacktraceResult:
    """Integrate the reconstructed velocity backward from the last sample.

    The ODE runs over a local time 0 .. duration while physical time runs
    from the last acquisition back to the first; velocity lookups clamp to
    the track's time span (stages may step slightly outside). The requested
    degree sets the order, also on short tracks: RK2 for 1, else RK4. The
    field depends on time only, so one evaluation of the velocity at the
    steps' ends and midpoints (midpoints only for RK2) gives every stage.
    The path is scored at the RK step times against ``reference``
    (physical time -> positions), which defaults to
    ``cubic_reference(track)`` and must return shape (len(taus), track.dim),
    else ValueError. A dtau whose
    step count overflows raises ValueError, and one whose steps cannot be
    allocated MemoryError, both before the fit, as does an order other
    than "rk2" or "rk4".
    """
    if not (math.isfinite(dtau) and dtau > 0):
        raise ValueError(f"dtau must be finite and positive, got {dtau!r}")
    t0, t1 = float(track.times[0]), float(track.times[-1])
    duration = t1 - t0
    if not duration / dtau < sys.maxsize:
        raise ValueError(f"dtau {dtau!r} gives too many steps to count over "
                         f"the duration {duration!r}")
    n_full = int(math.floor(duration / dtau + 1e-12))
    rest = duration - n_full * dtau
    n_steps = n_full + int(rest > 1e-12 * max(duration, 1.0))
    try:
        h = np.full(n_steps, dtau)
    except (MemoryError, ValueError):  # numpy refuses a size past its index range
        raise MemoryError(f"dtau {dtau!r} gives {n_steps} steps over the duration "
                          f"{duration!r}, too many to allocate") from None
    h[n_full:] = rest
    taus_arr = np.add.accumulate(np.concatenate([[0.0], h]))
    if order is None:
        order = "rk2" if degree == 1 else "rk4"
    if order not in ("rk2", "rk4"):
        raise ValueError(f"order must be 'rk2' or 'rk4', got {order!r}")

    polys = reconstruct_track(track, degree, limiter)

    # The steps share their ends (taus[:-1] + h is taus[1:] bit for bit),
    # and RK4's two midpoint stages are one; summing the increments in step
    # order gives the path of stepping one at a time. Adding 0.0 makes a
    # -0.0 increment +0.0, as a step from a zero state makes it.
    t_ends = np.clip(t1 - taus_arr, t0, t1)
    t_mids = np.clip(t1 - (taus_arr[:-1] + 0.5 * h), t0, t1)
    velocity = _derivative(polys, 1)
    if order == "rk2":
        increments = 0.0 + h[:, None] * -velocity(t_mids)
    else:
        k = -velocity(np.concatenate([t_ends, t_mids]))
        k_ends, k_mid = k[: n_steps + 1], k[n_steps + 1:]
        increments = 0.0 + h[:, None] / 6.0 * (k_ends[:-1] + 2.0 * k_mid + 2.0 * k_mid
                                               + k_ends[1:])
    path_arr = np.add.accumulate(
        np.concatenate([track.coords[-1:].astype(float), increments]), axis=0
    )

    if reference is None:
        reference = (_derivative(polys, 0) if degree == 3 and limiter == "none"
                     else cubic_reference(track))
    expected = np.asarray(reference(t_ends), dtype=float)
    if expected.shape != path_arr.shape:
        raise ValueError(f"reference returned shape {expected.shape}, "
                         f"expected {path_arr.shape} (steps x axes)")
    distance = np.linalg.norm(path_arr - expected, axis=1)
    return BacktraceResult(
        endpoint_error=float(np.linalg.norm(path_arr[-1] - track.coords[0])),
        taus=taus_arr,
        path=path_arr,
        combined=ErrorNorms(
            l1=float(np.trapezoid(distance, taus_arr)),
            l2=float(math.sqrt(np.trapezoid(distance**2, taus_arr))),
            linf=float(np.max(distance)),
        ),
    )


def check_backtrace(low: BacktraceResult, high: BacktraceResult) -> list[str]:
    """Violations of the ordering gate: the high-order pairing must beat
    the low-order one in every norm."""
    violations = []
    for k, name in enumerate(NORM_NAMES):
        lo = low.combined.as_tuple()[k]
        hi = high.combined.as_tuple()[k]
        if not hi < lo:
            violations.append(
                f"backtrace {name}: high-order {hi:.3e} not below low-order {lo:.3e}"
            )
    return violations
