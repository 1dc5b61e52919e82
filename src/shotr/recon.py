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
the spatial axes (sharing the mesh) reuse.

Measured: coefficients match an exact rational solve to 1e-12 of their
scale (degrees 1-9), and degree-N data is reproduced to 1e-12 while widths
vary tenfold. Next to a cell a millionth the width of its neighbours q is
ill-determined: some fits of degree 3 and up then miss their samples by
the rounding of large coefficients.

A reconstruction is the mesh plus an ``(n_cells, N + 1)`` array of these
coefficients.
"""

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import UnsupportedDegree
from .mesh import StaggeredMesh, build_mesh, locate_cells
from .trajdata import AxisSeries, TrackSeries, split_axes

logger = logging.getLogger(__name__)

MAX_DEGREE = 9  # the highest degree tested: exact for degree-9 data at tenfold width spread

_FACT = np.array([math.factorial(k) for k in range(MAX_DEGREE + 2)], dtype=float)
_PAIR = np.arange(2)
_SIGNS = np.array([1.0, -1.0])


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


def reconstruction_operators(mesh: StaggeredMesh, degree: int) -> tuple[np.ndarray, np.ndarray]:
    """Sample-to-coefficients operators of every cell of a mesh.

    Returns (windows, R): windows[i] are the interface indices of cell i's
    stencil and ``R[i] @ values[windows[i]]`` its degree+1
    coefficients. Every cell is fitted in one batched QR.
    """
    n, k = degree + 1, degree - 1
    b = mesh.n_cells
    windows, own = _stencils(b, degree)
    size = windows.shape[1]
    rows = np.arange(b)[:, None]
    # 1 and u at every stencil sample, u = (t - barycenter) / width
    ones_u = np.ones((b, size, 2))
    ones_u[..., 1] = (mesh.interfaces[windows] - mesh.barycenters[:, None]) / mesh.widths[:, None]
    u = ones_u[..., 1]
    u_own = u[rows, own]
    ul, ur = u_own[:, :1], u_own[:, 1:]
    # the linear-linking segment: value (u_r s_l - u_l s_r) / (u_r - u_l) and
    # slope (s_r - s_l) / (u_r - u_l) at u = 0
    R = np.zeros((b, n, size))
    weights = _SIGNS / (ur - ul)
    R[rows, 0, own] = u_own[:, ::-1] * weights
    R[rows, 1, own] = -weights
    if degree == 1:
        return windows, R
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
