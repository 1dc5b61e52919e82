"""Curvilinear trajectory length via isoparametric cell mappings.

Each cell of the reconstructed curve is mapped to the reference interval
[0, 1] by a Lagrange nodal basis of degree up to 3, with nodal positions
taken from the reconstruction polynomials at equispaced node times. The
cell length is the Gauss-quadrature integral of the Jacobian magnitude
sqrt(sum_axes (ds/dxi)^2); for degree 1 this collapses to the straight
chord, i.e. summing cells reproduces the classical polyline length.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .errors import UnsupportedDegree
from .quadrature import gauss_points
from .recon import PiecewisePoly, _taylor_eval

MAX_GEOMETRY_DEGREE = 3

# Lagrange bases on equispaced nodes m/N of [0, 1], as monomial coefficients
# (rows: basis functions, columns: powers of xi).
_NODAL_COEFFS = {
    1: np.array([
        [1.0, -1.0],
        [0.0, 1.0],
    ]),
    2: np.array([
        [1.0, -3.0, 2.0],
        [0.0, 4.0, -4.0],
        [0.0, -1.0, 2.0],
    ]),
    3: np.array([
        [1.0, -11.0 / 2.0, 9.0, -9.0 / 2.0],
        [0.0, 9.0, -45.0 / 2.0, 27.0 / 2.0],
        [0.0, -9.0 / 2.0, 18.0, -27.0 / 2.0],
        [0.0, 1.0, -9.0 / 2.0, 9.0 / 2.0],
    ]),
}


@dataclass(frozen=True)
class NodalBasis:
    """Lagrange nodal basis of the reference cell [0, 1]."""

    degree: int

    def __post_init__(self):
        if self.degree not in _NODAL_COEFFS:
            raise UnsupportedDegree(
                f"nodal basis degree must be in {sorted(_NODAL_COEFFS)}, got {self.degree}"
            )

    @property
    def nodes(self) -> np.ndarray:
        return np.arange(self.degree + 1) / self.degree

    def values(self, xi) -> np.ndarray:
        """Basis values at xi; shape (degree + 1,) + shape(xi)."""
        xi = np.asarray(xi, dtype=float)
        return np.array(
            [np.polynomial.polynomial.polyval(xi, c) for c in _NODAL_COEFFS[self.degree]]
        )

    def derivatives(self, xi) -> np.ndarray:
        """Exact basis derivatives at xi; shape (degree + 1,) + shape(xi)."""
        xi = np.asarray(xi, dtype=float)
        return np.array(
            [
                np.polynomial.polynomial.polyval(
                    xi, np.polynomial.polynomial.polyder(c)
                )
                for c in _NODAL_COEFFS[self.degree]
            ]
        )


def nodal_basis_derivatives(degree: int, xi) -> np.ndarray:
    """Derivatives of all nodal basis functions at reference coordinate xi."""
    return NodalBasis(degree).derivatives(xi)


def _clamped_geometry_degree(geom_degree: int) -> int:
    if geom_degree < 1:
        raise UnsupportedDegree(f"geometry degree must be >= 1, got {geom_degree}")
    return min(geom_degree, MAX_GEOMETRY_DEGREE)


@functools.cache
def _reference_cell(degree: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Constants of the degree-g reference cell: the nodes, (g + 1,); the
    basis derivatives at the max(g + 1, 3) Gauss points of [0, 1],
    (g + 1, n_q); and the Gauss weights, (n_q,)."""
    basis = NodalBasis(degree)
    xi_q, w_q = gauss_points(0.0, 1.0, max(degree + 1, 3))
    tables = basis.nodes, basis.derivatives(xi_q), w_q
    for table in tables:
        table.setflags(write=False)
    return tables


def nodal_positions(
    axis_polys: list[PiecewisePoly], geom_degree: int = 3
) -> tuple[np.ndarray, np.ndarray]:
    """Equispaced node times of every cell, (n_cells, g + 1), and the curve
    positions there, (n_axes, n_cells, g + 1), taken from the reconstruction."""
    nodes, _, _ = _reference_cell(_clamped_geometry_degree(geom_degree))
    mesh = axis_polys[0].mesh
    node_times = mesh.interfaces[:-1, None] + nodes * mesh.widths[:, None]
    u = (node_times - mesh.barycenters[:, None]) / mesh.widths[:, None]
    coeffs = np.array([p.coeffs for p in axis_polys])[:, :, None, :]
    return node_times, _taylor_eval(coeffs, u)


def cell_lengths(axis_polys: list[PiecewisePoly], geom_degree: int = 3) -> np.ndarray:
    """Arc length of every cell of the reconstructed curve.

    Degrees above 3 fall back to the cubic geometry (the highest basis
    available); the quadrature uses max(degree + 1, 3) Gauss points.
    """
    degree = _clamped_geometry_degree(geom_degree)
    _, nodal = nodal_positions(axis_polys, degree)
    _, dphi, w_q = _reference_cell(degree)
    tangent = nodal @ dphi                          # ds/dxi, (n_axes, n_cells, n_q)
    return np.sqrt(np.sum(tangent**2, axis=0)) @ w_q


def trajectory_length(axis_polys: list[PiecewisePoly], geom_degree: int = 3) -> float:
    """Total curve length: the sum of the cells' lengths."""
    return float(np.sum(cell_lengths(axis_polys, geom_degree)))
