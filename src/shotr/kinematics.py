"""Instantaneous and summary kinematics of reconstructed trajectories.

Position, velocity, and acceleration at any time come straight from the
piecewise polynomial and its analytic derivatives, all three for every axis
from one evaluation. A query time on an interior frame is read on its left
cell, as every query by time is (``recon.evaluate``); arc length, the
integral of the fit's own speed, instead names each cell. Dense output
samples the N+1 Gauss points of every cell.
Summary velocities: average speed along the curvilinear path, net
displacement over duration, and the mean of per-cell finite-difference
velocities, over the fit's cells (the duration and the widths are its
mesh's) and the samples of the one-axis tracks it was fitted from.
"""

from dataclasses import dataclass

import numpy as np

from .errors import OutOfDomain
from .geometry import MAX_GEOMETRY_DEGREE, trajectory_length
from .quadrature import gauss_points
from .recon import PiecewisePoly, _fitted_samples, evaluate
from .trajdata import TrackSeries


@dataclass
class KinematicSample:
    """State of the particle at one time."""

    t: float
    position: np.ndarray
    velocity: np.ndarray
    acceleration: np.ndarray

    @property
    def speed(self) -> float:
        """Euclidean magnitude of the velocity vector."""
        return float(np.linalg.norm(self.velocity))


@dataclass
class VelocitySummary:
    v_d: np.ndarray       # per-axis displacement / duration
    v_m: np.ndarray       # per-axis mean of per-cell finite differences
    length: float
    duration: float

    @property
    def v_l(self) -> float:
        """Path length / duration."""
        return self.length / self.duration


def _check_domain(axis_polys: list[PiecewisePoly], t) -> None:
    lo, hi = axis_polys[0].mesh.span
    t = np.asarray(t, dtype=float)
    if not np.all((t >= lo) & (t <= hi)):  # also rejects NaN
        raise OutOfDomain(f"t outside [{lo!r}, {hi!r}]")


def eval_at(axis_polys: list[PiecewisePoly], t: float) -> KinematicSample:
    """Kinematic state at time t (t must lie within the track's span)."""
    _check_domain(axis_polys, t)
    t = float(t)
    position, velocity, acceleration = evaluate(axis_polys, t, (0, 1, 2))
    return KinematicSample(t, position, velocity, acceleration)


def dense_times(axis_polys: list[PiecewisePoly]) -> np.ndarray:
    """The N+1 Gauss abscissae of every cell, in increasing time order."""
    mesh = axis_polys[0].mesh
    n = axis_polys[0].degree + 1
    return gauss_points(mesh.interfaces[:-1], mesh.interfaces[1:], n)[0].ravel()


def dense_kinematics(axis_polys: list[PiecewisePoly]):
    """Dense output as arrays: the times (m,) of dense_times and the
    position, velocity and acceleration there, each (dim, m)."""
    times = dense_times(axis_polys)
    return times, *evaluate(axis_polys, times, (0, 1, 2))


def sample_dense(axis_polys: list[PiecewisePoly]) -> list[KinematicSample]:
    """Dense kinematic output at the Gauss points of every cell."""
    times, pos, vel, acc = dense_kinematics(axis_polys)
    return [KinematicSample(*row) for row in zip(times.tolist(), pos.T, vel.T, acc.T)]


def summarize(
    axis_polys: list[PiecewisePoly],
    series: list[TrackSeries],
    geom_degree: int = MAX_GEOMETRY_DEGREE,
) -> VelocitySummary:
    """Summary velocities of one track, from its axes' reconstructions and
    its one-axis tracks (``split_axes``). One-axis tracks of another count
    or on other times than the first axis's mesh are a ValueError; the
    length is trajectory_length's, geom_degree included."""
    values = _fitted_samples(axis_polys, series)
    mesh = axis_polys[0].mesh
    duration = float(mesh.interfaces[-1] - mesh.interfaces[0])
    return VelocitySummary(
        v_d=(values[:, -1] - values[:, 0]) / duration,
        v_m=np.mean(np.diff(values) / mesh.widths, axis=1),
        length=trajectory_length(axis_polys, geom_degree),
        duration=duration,
    )
