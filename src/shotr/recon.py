"""Per-cell polynomial reconstruction by constrained least squares.

Each cell of the staggered mesh gets a degree-N polynomial written in a
normalized Taylor basis about the cell barycenter,

    p_i(t) = sum_l  s_hat[l] * (t - t_i)^l / (l! * dt_i^l),

fitted in the least-squares sense to the samples of a stencil spanning
2(N+1) cells, subject to exact interpolation of the cell's own two
interface samples. The equality-constrained normal equations are solved as
a small KKT block system; the inverse action is precomputed per cell as a
matrix that maps stencil samples straight to coefficients, so the three
spatial axes (which share the mesh) reuse the same factorization.

A reconstruction is the mesh plus an ``(n_cells, N + 1)`` array of these
coefficients; every cell's KKT system is solved in one batched call.
"""

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import SingularSystem, UnsupportedDegree
from .mesh import StaggeredMesh, build_mesh, locate_cells
from .trajdata import AxisSeries, TrackSeries, split_axes

logger = logging.getLogger(__name__)

MAX_DEGREE = 9  # the width normalization keeps conditioning acceptable up to here

_FACT = np.array([math.factorial(k) for k in range(MAX_DEGREE + 2)], dtype=float)
_POWERS = np.arange(MAX_DEGREE + 1, dtype=float)
_PAIR = np.arange(2)


def _taylor_eval(coeffs: np.ndarray, u, order: int = 0) -> np.ndarray:
    """order-th derivative in u of sum_l coeffs[..., l] u^l / l!, by Horner.

    coeffs[..., l] must broadcast against u. Dividing by width**order turns
    the result into the physical-time derivative.
    """
    n = coeffs.shape[-1]
    if order >= n:
        return np.zeros(np.broadcast_shapes(coeffs.shape[:-1], np.shape(u)))
    scaled = coeffs[..., order:] / _FACT[: n - order]
    acc = scaled[..., -1]
    for l in range(n - order - 2, -1, -1):
        acc = acc * u + scaled[..., l]
    return acc


@dataclass(frozen=True)
class TaylorBasis:
    """Normalized Taylor basis about a cell barycenter."""

    degree: int
    center: float
    width: float


@dataclass(frozen=True)
class CellPoly:
    """Polynomial of one cell: coefficients in its Taylor basis."""

    coeffs: np.ndarray
    basis: TaylorBasis

    def _eval(self, t, order: int):
        u = (np.asarray(t, dtype=float) - self.basis.center) / self.basis.width
        return _taylor_eval(self.coeffs, u, order) / self.basis.width**order

    def value(self, t):
        return self._eval(t, 0)

    def derivative(self, t):
        return self._eval(t, 1)

    def second_derivative(self, t):
        return self._eval(t, 2)


@dataclass(frozen=True)
class PiecewisePoly:
    """Reconstruction of one axis: the mesh and each cell's coefficients."""

    mesh: StaggeredMesh
    coeffs: np.ndarray  # (n_cells, degree + 1), normalized Taylor basis per cell

    def __post_init__(self):
        self.coeffs.setflags(write=False)

    @property
    def degree(self) -> int:
        return self.coeffs.shape[1] - 1

    @property
    def cells(self) -> list[CellPoly]:
        """Read-only per-cell views of the coefficient array."""
        return [
            CellPoly(c, TaylorBasis(self.degree, float(center), float(width)))
            for c, center, width in zip(self.coeffs, self.mesh.barycenters, self.mesh.widths)
        ]

    def _eval(self, t, order: int):
        t = np.asarray(t, dtype=float)
        idx = locate_cells(self.mesh, t)
        width = self.mesh.widths[idx]
        u = (t - self.mesh.barycenters[idx]) / width
        return _taylor_eval(self.coeffs[idx], u, order) / width**order

    def value(self, t):
        return self._eval(t, 0)

    def derivative(self, t):
        return self._eval(t, 1)

    def second_derivative(self, t):
        return self._eval(t, 2)

    def to_dict(self) -> dict:
        return {
            "degree": self.degree,
            "cells": [
                {"center": float(center), "width": float(width), "coeffs": c.tolist()}
                for c, center, width in zip(self.coeffs, self.mesh.barycenters, self.mesh.widths)
            ],
        }


def effective_degree(n_points: int, degree: int) -> int:
    """Degree actually used for a track of n_points samples.

    Short tracks cannot feed the full stencil, so the degree drops to
    n_points - 1 (pure interpolation when the system turns square), with
    floor 1.
    """
    if not 1 <= degree <= MAX_DEGREE:
        raise UnsupportedDegree(f"degree must be in [1, {MAX_DEGREE}], got {degree}")
    return max(1, min(degree, n_points - 1))


def _stencil_starts(n_if: int, cells: np.ndarray, degree: int) -> tuple[np.ndarray, int]:
    """First interface index and size of each cell's stencil.

    The stencil covers 2(N+1) cells: the 2N+3 interfaces centered on the
    cell's left interface, shifted one-sided near the track ends, or every
    interface of a shorter track. It always holds the cell's own interfaces.
    """
    size = min(2 * degree + 3, n_if)
    return np.minimum(np.maximum(cells - (degree + 1), 0), n_if - size), size


def _solve(K: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve a stack of systems; also return which were singular.

    A batch with a singular member is re-solved one system at a time, so
    only the singular ones are lost (their solution rows are NaN).
    """
    try:
        return np.linalg.solve(K, rhs), np.zeros(len(K), dtype=bool)
    except np.linalg.LinAlgError:
        if len(K) == 1:
            return np.full(rhs.shape, np.nan), np.ones(1, dtype=bool)
        parts = [_solve(K[i : i + 1], rhs[i : i + 1]) for i in range(len(K))]
        return np.concatenate([p[0] for p in parts]), np.concatenate([p[1] for p in parts])


def _kkt_operators(
    mesh: StaggeredMesh, cells: np.ndarray, windows: np.ndarray, degree: int
) -> tuple[np.ndarray, np.ndarray]:
    """Coefficient blocks of the inverted KKT matrices of the given cells,
    whose stencils are the interface indices in the rows of windows.

    Returns (R, singular): R[k] maps the samples of cell k's stencil to its
    degree+1 coefficients.
    """
    n = degree + 1
    b, size = windows.shape
    u = (mesh.interfaces[windows] - mesh.barycenters[cells, None]) / mesh.widths[cells, None]
    # u**0 / 0! is exactly 1. The powers from 1 up stay one array call: with
    # a single exponent numpy squares by a path that rounds differently.
    M = np.empty((b, size, n))
    M[..., 0] = 1.0
    M[..., 1:] = np.power(u[..., None], _POWERS[1:n]) / _FACT[1:n]
    rows = np.arange(b)[:, None]
    own = (cells - windows[:, 0])[:, None] + _PAIR          # the cell's interfaces
    C = M[rows, own]                                           # (b, 2, n)
    MT2 = 2.0 * M.transpose(0, 2, 1)
    K = np.zeros((b, n + 2, n + 2))
    K[:, :n, :n] = MT2 @ M
    np.negative(C.transpose(0, 2, 1), out=K[:, :n, n:])
    K[:, n:, :n] = C
    rhs = np.zeros((b, n + 2, size))
    rhs[:, :n] = MT2
    rhs[rows, n + _PAIR, own] = 1.0
    sol, singular = _solve(K, rhs)
    return sol[:, :n], singular


def reconstruction_operators(mesh: StaggeredMesh, degree: int) -> tuple[np.ndarray, np.ndarray]:
    """Sample-to-coefficients operators of every cell of a mesh.

    Returns (windows, R): windows[i] are the interface indices of cell i's
    stencil and ``R[i] @ values[windows[i]]`` its degree+1 coefficients.
    All cells are solved at the full degree at once. A cell whose system is
    singular retries at the next lower degree; its lower-degree stencil lies
    inside the full one, so its operator keeps the same shape, with zero
    columns and zero high-order rows.
    """
    n_if = len(mesh.interfaces)
    cells = np.arange(mesh.n_cells)
    starts, size = _stencil_starts(n_if, cells, degree)
    windows = starts[:, None] + np.arange(size)
    R, singular = _kkt_operators(mesh, cells, windows, degree)
    deg = degree
    while singular.any():
        cells = cells[singular]
        for i in cells:
            if deg == 1:
                raise SingularSystem(f"cell {i}: Singular matrix")
            logger.warning("cell %d: singular at degree %d, retrying at %d", i, deg, deg - 1)
        R[cells] = 0.0  # drop the failed solve's rows
        deg -= 1
        deg_starts, deg_size = _stencil_starts(n_if, cells, deg)
        deg_windows = deg_starts[:, None] + np.arange(deg_size)
        R_deg, singular = _kkt_operators(mesh, cells, deg_windows, deg)
        ok = ~singular
        cols = deg_windows[ok] - starts[cells[ok], None]
        R[cells[ok, None, None], np.arange(deg + 1)[:, None], cols[:, None, :]] = R_deg[ok]
    return windows, R


def _apply(
    ops: tuple[np.ndarray, np.ndarray], mesh: StaggeredMesh, values: np.ndarray
) -> PiecewisePoly:
    windows, R = ops
    return PiecewisePoly(mesh, np.matmul(R, values[windows][..., None])[..., 0])


def _limit(poly: PiecewisePoly, series: AxisSeries, limiter: str, cweno_config) -> PiecewisePoly:
    if limiter == "none":
        return poly
    if limiter != "cweno":
        raise ValueError(f"unknown limiter {limiter!r}")
    from .cweno import CwenoConfig, limit_piecewise

    return limit_piecewise(poly, series, cweno_config or CwenoConfig())


def reconstruct_axis(
    series: AxisSeries,
    degree: int,
    limiter: str = "none",
    cweno_config=None,
) -> PiecewisePoly:
    """Reconstruct one axis as a piecewise polynomial of the given degree.

    limiter="cweno" replaces each cell's coefficients with the nonlinear
    blend against the one-sided linear candidates; "none" keeps the
    unlimited constrained least-squares polynomials.
    """
    n_eff = effective_degree(len(series), degree)
    mesh = build_mesh(series.times)
    poly = _apply(reconstruction_operators(mesh, n_eff), mesh, series.values)
    return _limit(poly, series, limiter, cweno_config)


def reconstruct_track(
    track: TrackSeries,
    degree: int,
    limiter: str = "none",
    cweno_config=None,
) -> list[PiecewisePoly]:
    """Reconstruct every axis of a track, one PiecewisePoly per dimension.

    The per-cell operators are computed once and shared across axes, since
    all axes sample the same times.
    """
    n_eff = effective_degree(len(track), degree)
    if n_eff < degree:
        logger.warning(
            "track %r: degree reduced from %d to %d (%d samples)",
            track.track_id, degree, n_eff, len(track),
        )
    mesh = build_mesh(track.times)
    ops = reconstruction_operators(mesh, n_eff)
    polys = [_apply(ops, mesh, track.coords[:, d]) for d in range(track.dim)]
    if limiter == "none":
        return polys
    return [_limit(p, s, limiter, cweno_config) for p, s in zip(polys, split_axes(track))]
