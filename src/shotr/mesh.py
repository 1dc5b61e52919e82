"""Staggered computational mesh over a track's sample times.

Sample times become cell interfaces, and a mesh is built from them alone:
each of the N_K - 1 cells derives its width and barycenter, so
non-equidistant acquisitions need no special treatment. Reconstruction
unknowns live at cell centers while data sits at the interfaces.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import NonMonotoneTimes


@dataclass
class StaggeredMesh:
    interfaces: np.ndarray                         # the N_K sample times
    widths: np.ndarray = field(init=False)         # N_K - 1 positive cell widths
    barycenters: np.ndarray = field(init=False)    # cell midpoints

    def __post_init__(self):
        t = self.interfaces = np.asarray(self.interfaces, dtype=float)
        if t.ndim != 1 or len(t) < 2:
            raise NonMonotoneTimes("need at least 2 strictly increasing times")
        if not np.isfinite(t).all():
            raise ValueError("times include non-finite values")
        self.widths = t[1:] - t[:-1]
        if (self.widths <= 0).any():
            raise NonMonotoneTimes("times must be strictly increasing")
        self.barycenters = 0.5 * (t[:-1] + t[1:])
        for a in (t, self.widths, self.barycenters):
            a.setflags(write=False)

    @property
    def n_cells(self) -> int:
        return len(self.widths)

    @property
    def span(self) -> tuple[float, float]:
        return float(self.interfaces[0]), float(self.interfaces[-1])


def build_mesh(times: np.ndarray) -> StaggeredMesh:
    """Build the staggered mesh whose interfaces are exactly the sample times."""
    return StaggeredMesh(np.array(times, dtype=float))


def locate_cells(mesh: StaggeredMesh, t: np.ndarray) -> np.ndarray:
    """Index of the cell containing each t, by binary search and clipped to
    the end cells; an interior interface belongs to its left cell."""
    idx = np.searchsorted(mesh.interfaces, t, side="left") - 1
    return np.clip(idx, 0, mesh.n_cells - 1)
