"""Curvilinear path length and the three summary velocities.

Summing straight chords between samples underestimates a curved path.
The isoparametric cell geometry integrates the reconstructed curve
instead, converging at 4th order; with linear geometry it reduces to the
classical polyline length. Summary velocities: average speed along the
path (v_L), net displacement over duration (v_D), and the mean of
per-frame finite differences (v_M).
"""

import numpy as np

from shotr import TrackSeries, reconstruct_track, split_axes, summarize, trajectory_length

# quarter circle of radius 1: exact length pi/2
print("quarter-circle length error vs number of samples:")
print(f"{'samples':>8} {'polyline (linear geom)':>24} {'curved geometry':>18}")
for n in (9, 17, 33, 65):
    th = np.linspace(0, np.pi / 2, n)
    track = TrackSeries("qc", th, np.column_stack([np.cos(th), np.sin(th)]))
    polys = reconstruct_track(track, degree=3, limiter="none")
    exact = np.pi / 2
    err_lin = abs(trajectory_length(polys, geom_degree=1) - exact)
    err_iso = abs(trajectory_length(polys, geom_degree=3) - exact)
    print(f"{n:>8} {err_lin:>24.3e} {err_iso:>18.3e}")
print("the polyline error falls at 2nd order, the curved geometry at 4th\n")

# a particle going out and back: path length vs net displacement
times = np.linspace(0.0, 2.0, 21)
x = np.sin(np.pi * times)  # 0 -> 1 -> 0
track = TrackSeries("outback", times, x.reshape(-1, 1))
polys = reconstruct_track(track, degree=3, limiter="none")
s = summarize(polys, split_axes(track))
print("out-and-back particle:")
print(f"  path length L = {s.length:.4f} over {s.duration:.1f} s")
print(f"  v_L (speed along path)    = {s.v_l:.4f}")
print(f"  v_D (displacement / time) = {s.v_d[0]:.4e}   <- nearly zero")
print(f"  v_M (mean frame velocity) = {s.v_m[0]:.4e}")
