"""Curvilinear trajectory length via isoparametric cell mappings.

Each cell of the reconstructed curve is mapped to the reference interval
[0, 1] by a Lagrange nodal basis of degree up to 3, with nodal positions
taken from the reconstruction at equispaced node times. Each cell is
evaluated at its own nodes through recon's evaluator, told the cell: a node
on an interface is read from that cell's polynomial, not its left
neighbour's. The
cell length is the Gauss-quadrature integral of the Jacobian magnitude
sqrt(sum_axes (ds/dxi)^2); for degree 1 this collapses to the straight
chord, i.e. summing cells reproduces the classical polyline length.
"""

import functools

import numpy as np

from .errors import UnsupportedDegree
from .quadrature import gauss_points
from .recon import PiecewisePoly, _evaluate

# Cubic isoparametric cells at most. The tables derive for any degree, but a
# higher cap would change the `length` and `summary` of every reconstruction
# above degree 3, and equispaced Lagrange nodes grow ill-conditioned with degree.
MAX_GEOMETRY_DEGREE = 3


def _clamped_geometry_degree(geom_degree: int) -> int:
    if geom_degree < 1:
        raise UnsupportedDegree(f"geometry degree must be >= 1, got {geom_degree}")
    return min(geom_degree, MAX_GEOMETRY_DEGREE)


@functools.cache
def _reference_cell(degree: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Constants of the degree-g reference cell: the equispaced nodes m/g,
    (g + 1,); the derivatives of their Lagrange basis at the max(g + 1, 3)
    Gauss points of [0, 1], (g + 1, n_q); and the Gauss weights, (n_q,).

    In y = g xi the m-th basis function is prod_{k != m} (y - k) / (m - k):
    integer coefficients over an integer denominator, so its coefficients in
    powers of xi are rounded once, as if written out by hand (arc length is
    ill-conditioned for short steps far from the origin, and a float solve
    for them moved lengths by up to 4e-13 relative)."""
    P = np.polynomial.polynomial
    k = np.arange(degree + 1)
    xi_q, w_q = gauss_points(0.0, 1.0, max(degree + 1, 3))
    dphi = []
    for m in k:
        others = np.delete(k, m)
        coeffs = P.polyfromroots(others) * degree**k / np.prod(m - others)
        dphi.append(P.polyval(xi_q, P.polyder(coeffs)))
    tables = k / degree, np.array(dphi), w_q
    for table in tables:
        table.setflags(write=False)
    return tables


def cell_lengths(
    axis_polys: list[PiecewisePoly], geom_degree: int = MAX_GEOMETRY_DEGREE
) -> np.ndarray:
    """Arc length of every cell of the reconstructed curve.

    The curve positions at each cell's equispaced node times, taken from the
    reconstruction, define its degree-g geometry; g above
    MAX_GEOMETRY_DEGREE falls back to it. The quadrature uses
    max(g + 1, 3) Gauss points.
    """
    nodes, dphi, w_q = _reference_cell(_clamped_geometry_degree(geom_degree))
    mesh = axis_polys[0].mesh
    node_times = mesh.interfaces[:-1, None] + nodes * mesh.widths[:, None]
    cells = np.arange(mesh.n_cells)[:, None]        # each cell at its own nodes
    positions, = _evaluate(axis_polys, node_times, cells, (0,))
    tangent = positions @ dphi                      # ds/dxi, (n_axes, n_cells, n_q)
    return np.sqrt(np.sum(tangent**2, axis=0)) @ w_q


def trajectory_length(
    axis_polys: list[PiecewisePoly], geom_degree: int = MAX_GEOMETRY_DEGREE
) -> float:
    """Total curve length: the sum of the cells' lengths."""
    return float(np.sum(cell_lengths(axis_polys, geom_degree)))
