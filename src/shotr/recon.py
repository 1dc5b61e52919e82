"""Per-cell polynomial reconstruction by constrained least squares.

Each cell of the staggered mesh gets a degree-N polynomial written in a
normalized Taylor basis about the cell barycenter,

    p_i(t) = sum_l  s_hat[l] * u^l / l!,   u = (t - t_i) / dt_i,

fitted in the least-squares sense to the samples of a stencil spanning
2(N+1) cells, subject to exact interpolation of the cell's own two
interface samples, at u_l and u_r (about -1/2 and 1/2, as computed).

The constraints are eliminated: every polynomial through the two samples
is the cell's linear-linking segment plus (u - u_l)(u - u_r) q(u), with q
of degree N - 2. Only q is fitted, to the samples' residuals about the
segment, by Householder QR in powers of v = (u - mid) / half, which spans
[-1, 1] over the stencil, and then converted to Taylor coefficients. So
interpolation and continuity hold up to the rounding of those
coefficients, and the fit has full rank whenever times strictly increase.
One batched QR gives every cell's sample-to-coefficients operator, which
the spatial axes (sharing the mesh) reuse; for a file of tracks, one QR
serves the cells of all tracks that share their degree and stencil size.

Measured: coefficients match an exact rational solve to 1e-12 of their
scale (degrees 1-9), and degree-N data is reproduced to 1e-12 while widths
vary tenfold. Next to a cell a millionth the width of its neighbours q is
ill-determined: some fits of degree 3 and up then miss their samples by
the rounding of large coefficients.

A reconstruction is the mesh plus an ``(n_cells, N + 1)`` array of these
coefficients per axis. ``evaluate`` is the one path from them to values and
derivatives: one cell lookup per set of times serves every axis and order.
The curve is only C0, so each interior frame has a value on either side: a
query by time gives it to its left cell. Arc length, the integral of the
fit's own speed, names each cell instead and runs the same evaluation
after the lookup. A ``CellPoly`` runs it too, on its one cell, so a cell and its
track give the same bits. The factorial scaling, the Horner loop and the
width scaling are written once, in that evaluation's core.
"""

import logging
import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from .errors import UnsupportedDegree
from .mesh import StaggeredMesh, build_mesh, locate_cells
from .trajdata import TrackSeries, _frozen_floats, split_axes

logger = logging.getLogger(__name__)

MAX_DEGREE = 9  # the highest degree tested: exact for degree-9 data at tenfold width spread
LIMITERS = ("none", "cweno")
# Cells reconstruct_tracks fits at once. A chunk shares each solve among
# many short tracks; at degree 9 its temporaries take about 8 kB a cell,
# and 512 cells keep a 200k-row file's peak memory at that of fitting
# track by track (4,096 added 36 MB and ran slower). A longer track is
# solved this many cells at a time.
_CHUNK_CELLS = 512

_FACT = np.array([math.factorial(k) for k in range(MAX_DEGREE + 2)], dtype=float)
_PAIR = np.arange(2)
_SIGNS = np.array([1.0, -1.0])


@dataclass(frozen=True)
class TaylorBasis:
    """Normalized Taylor basis about a cell barycenter, of any degree."""

    center: float
    width: float


@dataclass(frozen=True)
class CellPoly:
    """Polynomial of one cell: coefficients in its Taylor basis, evaluated
    as its track evaluates this cell, in the query's shape."""

    coeffs: np.ndarray
    basis: TaylorBasis

    def _eval(self, t, order: int):
        axes, = _evaluate_taylor([self.coeffs[None]], np.array([self.basis.center]),
                                 np.array([self.basis.width]), np.asarray(t, dtype=float),
                                 0, (order,))
        return axes[0]

    def value(self, t):
        return self._eval(t, 0)

    def derivative(self, t):
        return self._eval(t, 1)

    def second_derivative(self, t):
        return self._eval(t, 2)


@dataclass(frozen=True)
class PiecewisePoly:
    """Reconstruction of one axis: the mesh and each cell's coefficients.

    The coefficients, one row per cell and 2 to MAX_DEGREE + 1 columns, are
    held read-only; the caller's own array stays writable. value,
    derivative and second_derivative are one-axis calls to ``evaluate``.
    """

    mesh: StaggeredMesh
    coeffs: np.ndarray  # (n_cells, degree + 1), normalized Taylor basis per cell

    def __post_init__(self):
        coeffs = _frozen_floats(self.coeffs)
        if coeffs.ndim != 2 or len(coeffs) != self.mesh.n_cells or not (
                2 <= coeffs.shape[1] <= MAX_DEGREE + 1):
            raise ValueError(f"coeffs must have {self.mesh.n_cells} rows and 2 to "
                             f"{MAX_DEGREE + 1} columns, got shape {coeffs.shape}")
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def degree(self) -> int:
        return self.coeffs.shape[1] - 1

    @property
    def cells(self) -> list[CellPoly]:
        """Read-only per-cell views of the coefficient array."""
        return [
            CellPoly(c, TaylorBasis(float(center), float(width)))
            for c, center, width in zip(self.coeffs, self.mesh.barycenters, self.mesh.widths)
        ]

    def value(self, t):
        return evaluate([self], t, (0,))[0][0]

    def derivative(self, t):
        return evaluate([self], t, (1,))[0][0]

    def second_derivative(self, t):
        return evaluate([self], t, (2,))[0][0]


def evaluate(axis_polys: list[PiecewisePoly], t, orders) -> list[np.ndarray]:
    """The derivatives of the given orders (0 is the position) of every axis
    of a track at times t, one array of shape (dim, *t.shape) per order.

    The axes share one mesh, so one cell lookup serves every axis and order.
    A time on an interior interface takes its left cell, and times outside
    the span the end cells' polynomials. Arc length names each cell
    instead, through the same evaluation.
    Axes on different meshes or of different degrees are a ValueError.
    """
    t = np.asarray(t, dtype=float)
    return _evaluate(axis_polys, t, locate_cells(axis_polys[0].mesh, t), orders)


def _evaluate(axis_polys: list[PiecewisePoly], t: np.ndarray, cells: np.ndarray,
              orders) -> list[np.ndarray]:
    """evaluate at times t on the given cells, an index per time that
    broadcasts against t: one array of shape (dim, *broadcast shape) per
    order, from the core once the axes are checked."""
    mesh, n = axis_polys[0].mesh, axis_polys[0].coeffs.shape[-1]
    if not all((p.mesh is mesh or np.array_equal(p.mesh.interfaces, mesh.interfaces))
               and p.coeffs.shape[-1] == n for p in axis_polys):
        raise ValueError("the axes of a track must share one mesh and one degree")
    return _evaluate_taylor([p.coeffs for p in axis_polys], mesh.barycenters, mesh.widths,
                            t, cells, orders)


def _fitted_samples(axis_polys: list[PiecewisePoly], series: list[TrackSeries]) -> np.ndarray:
    """The samples of the one-axis tracks the axes were fitted from, as one
    (axes, n) array; another count, or times other than the first axis's
    mesh, are a ValueError."""
    times = axis_polys[0].mesh.interfaces
    if len(series) != len(axis_polys):
        raise ValueError(f"summarize got {len(series)} one-axis tracks "
                         f"for {len(axis_polys)} axes")
    if not all(s.times is times or np.array_equal(s.times, times) for s in series):
        raise ValueError("the one-axis tracks' times are not the reconstruction's mesh")
    return np.array([s.values for s in series])


def _evaluate_taylor(coeffs: list[np.ndarray], centers: np.ndarray, widths: np.ndarray,
                     t: np.ndarray, cells, orders) -> list[np.ndarray]:
    """The one Taylor-basis evaluator: coeffs, one (n_cells, N + 1) array
    per axis in the normalized Taylor basis of cells of the given centers
    and widths, at times t on cells, an index per time that broadcasts
    against t. One array of shape (dim, *broadcast shape) per order, from
    one Horner loop in u; an order above N gives zeros."""
    n = coeffs[0].shape[-1]
    width = widths[cells]
    u = (t - centers[cells]) / width
    if np.shape(cells) != u.shape:  # so that every order has u's shape
        cells = np.broadcast_to(cells, u.shape)
    # Dense queries (dense output, error norms, RK stages, arc length) scale
    # per cell, then gather, which costs less than scaling per point; fewer
    # times than cells take their rows first, so the cost follows t, not the
    # track. Both do the same divisions, so the bits agree.
    per_cell = u.size >= len(centers)
    stacked = np.array([c if per_cell else c[cells] for c in coeffs])
    out = []
    for order in orders:
        if order >= n:
            out.append(np.zeros((len(coeffs), *u.shape)))
            continue
        scaled = stacked[..., order:] / _FACT[: n - order]
        if per_cell:
            scaled = np.take(scaled, cells, axis=1)
        acc = scaled[..., -1]
        for l in range(n - order - 2, -1, -1):
            acc = acc * u + scaled[..., l]
        out.append(acc / width**order if order else acc)
    return out


def check_degree(degree: int) -> int:
    """The requested degree, if it lies in [1, MAX_DEGREE]."""
    if not 1 <= degree <= MAX_DEGREE:
        raise UnsupportedDegree(f"degree must be in [1, {MAX_DEGREE}], got {degree}")
    return degree


def effective_degree(n_points: int, degree: int) -> int:
    """Degree actually used for a track of n_points samples.

    Short tracks cannot feed the full stencil, so the degree drops to
    n_points - 1 (pure interpolation when the system turns square), with
    floor 1.
    """
    return max(1, min(check_degree(degree), n_points - 1))


def _stencils(n_cells: int, degree: int) -> tuple[np.ndarray, np.ndarray]:
    """Interface indices of each cell's stencil, (n_cells, size), and the
    positions of the cell's own two interfaces in it, (n_cells, 2). The
    stencil covers 2(N+1) cells: the 2N+3 interfaces centered on the cell's
    left interface, shifted one-sided near the track ends, or every
    interface of a shorter track."""
    n_if = n_cells + 1
    size = min(2 * degree + 3, n_if)
    cells = np.arange(n_cells)
    starts = np.minimum(np.maximum(cells - (degree + 1), 0), n_if - size)
    windows = starts[:, None] + np.arange(size)
    own = (cells - starts)[:, None] + _PAIR
    return windows, own


def _stencil_geometry(mesh: StaggeredMesh, degree: int):
    """Stencils of every cell of a mesh: interface indices (n_cells, size),
    the positions of each cell's own two interfaces in them (n_cells, 2),
    and the stencil samples' times as u = (t - barycenter) / width."""
    windows, own = _stencils(mesh.n_cells, degree)
    u = (mesh.interfaces[windows] - mesh.barycenters[:, None]) / mesh.widths[:, None]
    return windows, own, u


def _operators(u: np.ndarray, own: np.ndarray, degree: int) -> np.ndarray:
    """Sample-to-coefficients operators (b, degree + 1, size) of b stacked
    cells, from their stencil coordinates u (b, size) and own-sample
    positions (b, 2). Cells are independent, so a cell's operator does not
    depend on which cells are stacked with it, and they are solved
    _CHUNK_CELLS at a time: a long track's solve temporaries stay those of
    a chunk."""
    R = np.zeros((u.shape[0], degree + 1, u.shape[1]))
    for lo in range(0, len(u), _CHUNK_CELLS):
        cells = slice(lo, lo + _CHUNK_CELLS)
        _solve(R[cells], u[cells], own[cells], degree)
    return R


def _solve(R: np.ndarray, u: np.ndarray, own: np.ndarray, degree: int) -> None:
    """Write the operators of cells u (b, size), own (b, 2) into R, zeros of
    shape (b, degree + 1, size)."""
    n, k = degree + 1, degree - 1
    b, size = u.shape
    rows = np.arange(b)[:, None]
    # 1 and u at every stencil sample
    ones_u = np.ones((b, size, 2))
    ones_u[..., 1] = u
    u_own = u[rows, own]
    ul, ur = u_own[:, :1], u_own[:, 1:]
    # the linear-linking segment: value (u_r s_l - u_l s_r) / (u_r - u_l) and
    # slope (s_r - s_l) / (u_r - u_l) at u = 0
    weights = _SIGNS / (ur - ul)
    R[rows, 0, own] = u_own[:, ::-1] * weights
    R[rows, 1, own] = -weights
    if degree == 1:
        return
    # q in powers of v = (u - mid) / half, fitted to the samples' residuals
    # about the segment; the rows of the cell's own samples are zero
    half = 0.5 * (u[:, -1:] - u[:, :1])
    mid = u[:, :1] + half
    v = (u - mid) / half
    A = np.empty((b, size, k))
    A[..., 0] = (u - ul) * (u - ur)
    for j in range(1, k):
        A[..., j] = A[..., j - 1] * v
    Q, T = np.linalg.qr(A)
    Qt = Q.transpose(0, 2, 1)
    # q's coefficients: T^-1 Q^T applied to the samples minus the segment's values
    X = np.linalg.inv(T) @ (Qt - (Qt @ ones_u) @ R[:, :2])
    # P[:, :, j]: coefficients in powers of u of (u - ul)(u - ur) v^j
    P = np.zeros((b, n, k))
    P[:, 0, :1] = ul * ur
    P[:, 1, :1] = -(ul + ur)
    P[:, 2, 0] = 1.0
    for j in range(1, k):
        P[:, 1:, j] = P[:, :-1, j - 1] / half
        P[:, :, j] -= P[:, :, j - 1] * (mid / half)
    R += P @ X
    R *= _FACT[:n, None]


def reconstruction_operators(mesh: StaggeredMesh, degree: int) -> tuple[np.ndarray, np.ndarray]:
    """Sample-to-coefficients operators of every cell of a mesh.

    Returns (windows, R): windows[i] are the interface indices of cell i's
    stencil and ``R[i] @ values[windows[i]]`` its degree+1
    coefficients. Every cell is fitted in one batched QR.
    """
    windows, own, u = _stencil_geometry(mesh, degree)
    return windows, _operators(u, own, degree)


def _degree_used(track: TrackSeries, degree: int) -> int:
    """The track's effective degree; a reduction is logged as a warning."""
    n_eff = effective_degree(len(track), degree)
    if n_eff < degree:
        logger.warning(
            "track %r: degree reduced from %d to %d (%d samples)",
            track.track_id, degree, n_eff, len(track),
        )
    return n_eff


def _apply(track: TrackSeries, mesh: StaggeredMesh, windows: np.ndarray, R: np.ndarray,
           limiter: str) -> list[PiecewisePoly]:
    """Every axis of a track from its cells' operators, limited if asked."""
    polys = []
    for d in range(track.dim):
        coeffs = np.matmul(R, track.coords[:, d][windows][..., None])[..., 0]
        coeffs.setflags(write=False)  # the record keeps it without a copy
        polys.append(PiecewisePoly(mesh, coeffs))
    if limiter == "none":
        return polys
    from .cweno import limit_piecewise

    return [limit_piecewise(p, s) for p, s in zip(polys, split_axes(track))]


def _check_limiter(limiter: str) -> None:
    if limiter not in LIMITERS:
        raise ValueError(f"unknown limiter {limiter!r}")


def reconstruct_track(
    track: TrackSeries,
    degree: int,
    limiter: str = "none",
    cweno_config=None,
) -> list[PiecewisePoly]:
    """Reconstruct every axis of a track, one PiecewisePoly per dimension.

    The per-cell operators are computed once and shared across axes, since
    all axes sample the same times. limiter="cweno" replaces each cell's
    coefficients with the nonlinear blend against the one-sided linear
    candidates; "none" keeps the unlimited constrained least-squares
    polynomials. A single axis is a track of dim 1. cweno_config is
    accepted and ignored: the limiter's constants are fixed (CwenoConfig).
    """
    _check_limiter(limiter)
    n_eff = _degree_used(track, degree)
    mesh = build_mesh(track.times)
    windows, R = reconstruction_operators(mesh, n_eff)
    return _apply(track, mesh, windows, R, limiter)


def reconstruct_tracks(
    tracks: Iterable[TrackSeries], degree: int, limiter: str = "none"
) -> Iterator[tuple[TrackSeries, list[PiecewisePoly]]]:
    """Reconstruct many tracks: an iterator of (track, polys) in input
    order, each polys equal to ``reconstruct_track(track, degree, limiter)``.

    Tracks are taken in consecutive chunks of at most _CHUNK_CELLS cells (a
    longer track is a chunk of its own). Within a chunk, the cells of all
    tracks with the same effective degree and stencil size get their
    operators from one batched solve, and each track applies its slice.
    Degree reductions are logged in input order.
    """
    _check_limiter(limiter)
    check_degree(degree)
    return (pair for chunk in _chunks(tracks)
            for pair in _reconstruct_chunk(chunk, degree, limiter))


def _chunks(tracks):
    """Consecutive lists of tracks holding at most _CHUNK_CELLS cells each,
    or one longer track."""
    chunk, cells = [], 0
    for track in tracks:
        if chunk and cells + len(track) - 1 > _CHUNK_CELLS:
            yield chunk
            chunk, cells = [], 0
        chunk.append(track)
        cells += len(track) - 1
    if chunk:
        yield chunk


def _reconstruct_chunk(tracks: list, degree: int, limiter: str):
    """(track, polys) of a chunk's tracks in order, with one operator solve
    per (effective degree, stencil size)."""
    geometry, groups = [], {}
    for i, track in enumerate(tracks):
        n_eff = _degree_used(track, degree)
        mesh = build_mesh(track.times)
        windows, own, u = _stencil_geometry(mesh, n_eff)
        geometry.append((mesh, windows, own, u))
        groups.setdefault((n_eff, windows.shape[1]), []).append(i)
    operators = [None] * len(tracks)
    for (n_eff, _), members in groups.items():
        meshes, _, owns, us = zip(*(geometry[i] for i in members))
        R = _operators(np.concatenate(us), np.concatenate(owns), n_eff)
        bounds = np.cumsum([0] + [m.n_cells for m in meshes]).tolist()
        for i, lo, hi in zip(members, bounds, bounds[1:]):
            operators[i] = R[lo:hi]
    for track, (mesh, windows, _, _), R in zip(tracks, geometry, operators):
        yield track, _apply(track, mesh, windows, R, limiter)
