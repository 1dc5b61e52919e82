"""Staggered computational mesh over a track's sample times.

Sample times become cell interfaces, and a mesh is built from them alone:
each of the N_K - 1 cells derives its width and barycenter, so
non-equidistant acquisitions need no special treatment. Reconstruction
unknowns live at cell centers while data sits at the interfaces. Dense
output, arc length and the error norms read the mesh's Gauss rule.
"""

import functools
import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import NonMonotoneTimes
from .trajdata import _frozen_floats


@dataclass
class StaggeredMesh:
    interfaces: np.ndarray                         # the N_K sample times
    widths: np.ndarray = field(init=False)         # N_K - 1 positive cell widths
    barycenters: np.ndarray = field(init=False)    # cell midpoints

    def __post_init__(self):
        t = self.interfaces = _frozen_floats(self.interfaces)
        if t.ndim != 1:
            raise ValueError(f"interfaces must be one-dimensional, got shape {t.shape}")
        if len(t) < 2:
            raise NonMonotoneTimes("need at least 2 strictly increasing times")
        if not np.isfinite(t).all():
            raise ValueError("times include non-finite values")
        self.widths = t[1:] - t[:-1]
        if (self.widths <= 0).any():
            raise NonMonotoneTimes("times must be strictly increasing")
        self.barycenters = 0.5 * (t[:-1] + t[1:])
        for a in (self.widths, self.barycenters):
            a.setflags(write=False)

    @property
    def n_cells(self) -> int:
        return len(self.widths)

    @property
    def span(self) -> tuple[float, float]:
        return float(self.interfaces[0]), float(self.interfaces[-1])


def build_mesh(times: np.ndarray) -> StaggeredMesh:
    """Build the staggered mesh whose interfaces are exactly the sample times."""
    return StaggeredMesh(times)


def locate_cells(mesh: StaggeredMesh, t: np.ndarray) -> np.ndarray:
    """Index of the cell containing each t, by one binary search over the
    interior interfaces: an interior interface belongs to its left cell,
    times outside the span (and NaN, which sorts last) to the end cells."""
    return np.searchsorted(mesh.interfaces[1:-1], t, side="left")


def gauss_rule(mesh: StaggeredMesh, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-point Gauss–Legendre rule on every cell, exact to degree 2n - 1:
    nodes and weights (n_cells, n), row i on cell i, the weights carrying
    the half-width. A count that is not an integer >= 1 is a ValueError."""
    try:
        count = operator.index(n)
    except TypeError:
        raise ValueError(f"Gauss points per cell must be an integer, got {n!r}") from None
    if count < 1:
        raise ValueError(f"Gauss points per cell must be at least 1, got {n!r}")
    x, w = _legendre(count)
    h = (0.5 * mesh.widths)[:, None]
    return mesh.barycenters[:, None] + h * x, h * w


@functools.cache
def _legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-point rule on [-1, 1], read-only. numpy's polynomial package
    loads on the first call, so a command that reads no rule never loads it."""
    pair = np.polynomial.legendre.leggauss(n)
    for table in pair:
        table.setflags(write=False)
    return pair
