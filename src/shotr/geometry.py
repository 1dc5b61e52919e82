"""Curvilinear trajectory length: the length of the fitted curve itself.

The length of a cell is the Gauss-Legendre integral of the speed |p'(t)|
over it, with max(N + 1, 4) points. The speed of every axis and cell comes
from one call of recon's evaluator, told the cells, so a node rounded onto
an interface is read from its own cell's polynomial, not its left
neighbour's. A degree-1 fit has constant speed on each cell, so its length
is the classical polyline length. The speed reads only the coefficients of
order 1 and up, which carry no offset, so moving a track in space changes
its length by rounding only.
"""

import numpy as np

from .errors import UnsupportedDegree
from .quadrature import gauss_points
from .recon import MAX_DEGREE, PiecewisePoly, _evaluate

# The length is the fit's own, so a geometry degree selects nothing: any g at
# or above the fit's degree names the fit, and a lower g is rejected.
MAX_GEOMETRY_DEGREE = MAX_DEGREE


def cell_lengths(axis_polys: list[PiecewisePoly]) -> np.ndarray:
    """Arc length of every cell of the reconstructed curve."""
    mesh = axis_polys[0].mesh
    nodes, weights = gauss_points(mesh.interfaces[:-1], mesh.interfaces[1:],
                                  max(axis_polys[0].degree + 1, 4))
    velocity, = _evaluate(axis_polys, nodes, np.arange(mesh.n_cells)[:, None], (1,))
    return np.vecdot(np.sqrt(np.sum(velocity**2, axis=0)), weights)


def trajectory_length(
    axis_polys: list[PiecewisePoly], geom_degree: int = MAX_GEOMETRY_DEGREE
) -> float:
    """Total curve length: the sum of the cells' lengths. A geom_degree
    below the fit's degree is an UnsupportedDegree: the length is the
    fitted curve's, never a lower-degree geometry's."""
    degree = axis_polys[0].degree
    if geom_degree < degree:
        raise UnsupportedDegree(f"geometry degree {geom_degree} is below the fit's degree "
                                f"{degree}; the length is the fitted curve's own")
    return float(np.sum(cell_lengths(axis_polys)))
