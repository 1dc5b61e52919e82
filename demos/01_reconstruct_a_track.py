"""Reconstruct a single 2-D track and query it anywhere in time.

A track is just ordered (t, x, y) samples. The reconstruction turns it
into piecewise cubic polynomials per axis that pass through every sample
and stay continuous between cells, so position, velocity, and
acceleration become available at arbitrary times, not only at the frames.
"""

import numpy as np

from shotr import TrackSeries, eval_at, reconstruct_track
from shotr.kinematics import dense_kinematics

rng = np.random.default_rng(1)

# a particle drifting right while wiggling vertically; frames 0.144 s apart
times = np.arange(0.0, 3.0, 0.144)
coords = np.column_stack([0.8 * times + 0.1 * np.sin(3 * times), np.cos(2 * times)])
track = TrackSeries("demo", times, coords)

# unlimited mode: the polynomials interpolate every sample exactly.
# (limiter="cweno" guards rough data against overshoots instead; see the
# limiting demo for what that trades away at sharp features.)
polys = reconstruct_track(track, degree=3, limiter="none")

print(f"track has {len(track)} samples -> {polys[0].mesh.n_cells} cells of cubic pieces")

# 1) the reconstruction interpolates the recorded positions
worst = max(
    abs(float(polys[d].value(t)) - track.coords[k, d])
    for k, t in enumerate(track.times)
    for d in range(2)
)
print(f"max deviation at the recorded samples: {worst:.2e}")

# 2) kinematics at an arbitrary instant, independent of the frame grid
state = eval_at(polys, 1.234)
print(f"\nat t = {state.t}:")
print(f"  position     = {state.position}")
print(f"  velocity     = {state.velocity}")
print(f"  acceleration = {state.acceleration}")
print(f"  speed        = {state.speed:.4f}")

# 3) dense output at the Gauss points of every cell (4 per cell for cubics),
#    as arrays: the times, then position, velocity and acceleration, each
#    one row per axis
dense_t, _, dense_v, _ = dense_kinematics(polys)
speed = np.linalg.norm(dense_v, axis=0)
print(f"\ndense sampling: {len(dense_t)} states, e.g. first three times:")
for t, v in zip(dense_t[:3], speed[:3]):
    print(f"  t={t:.4f}  speed={v:.4f}")
