"""Staggered computational mesh over a track's sample times.

Sample times become cell interfaces; each of the N_K - 1 cells carries its
own width and barycenter, so non-equidistant acquisitions need no special
treatment. Reconstruction unknowns live at cell centers while data sits at
the interfaces.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NonMonotoneTimes


@dataclass
class StaggeredMesh:
    interfaces: np.ndarray   # the N_K sample times
    widths: np.ndarray       # N_K - 1 positive cell widths
    barycenters: np.ndarray  # cell midpoints

    def __post_init__(self):
        self.interfaces.setflags(write=False)
        self.widths.setflags(write=False)
        self.barycenters.setflags(write=False)

    @property
    def n_cells(self) -> int:
        return len(self.widths)

    @property
    def span(self) -> tuple[float, float]:
        return float(self.interfaces[0]), float(self.interfaces[-1])


def build_mesh(times: np.ndarray) -> StaggeredMesh:
    """Build the staggered mesh whose interfaces are exactly the sample times."""
    times = np.ascontiguousarray(times, dtype=float)
    if times.ndim != 1 or len(times) < 2:
        raise NonMonotoneTimes("need at least 2 strictly increasing times")
    if not np.isfinite(times).all():
        raise ValueError("times include non-finite values")
    widths = times[1:] - times[:-1]
    if (widths <= 0).any():
        raise NonMonotoneTimes("times must be strictly increasing")
    barycenters = 0.5 * (times[:-1] + times[1:])
    return StaggeredMesh(times.copy(), widths, barycenters)


def locate_cells(mesh: StaggeredMesh, t: np.ndarray) -> np.ndarray:
    """Index of the cell containing each t, by binary search and clipped to
    the end cells; an interior interface belongs to its left cell."""
    idx = np.searchsorted(mesh.interfaces, t, side="left") - 1
    return np.clip(idx, 0, mesh.n_cells - 1)
