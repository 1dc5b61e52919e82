"""Curvilinear path length and the three summary velocities.

Summing straight chords between samples underestimates a curved path.
The length of a fit is the integral of its own speed: the degree-1 fit is
the classical polyline, and the cubic (P3) fit's length converges at 4th
order. Summary velocities: average speed along the path (v_L), net
displacement over duration (v_D), and the mean of per-frame finite
differences (v_M).
"""

import numpy as np

from shotr import TrackSeries, reconstruct_track, split_axes, summarize, trajectory_length

# quarter circle of radius 1: exact length pi/2
print("quarter-circle length error vs number of samples:")
print(f"{'samples':>8} {'polyline (P1 fit)':>24} {'P3 fit':>18}")
for n in (9, 17, 33, 65):
    th = np.linspace(0, np.pi / 2, n)
    track = TrackSeries("qc", th, np.column_stack([np.cos(th), np.sin(th)]))
    exact = np.pi / 2
    err_p1 = abs(trajectory_length(reconstruct_track(track, degree=1, limiter="none")) - exact)
    err_p3 = abs(trajectory_length(reconstruct_track(track, degree=3, limiter="none")) - exact)
    print(f"{n:>8} {err_p1:>24.3e} {err_p3:>18.3e}")
print("the polyline error falls at 2nd order, the P3 fit's at 4th\n")

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
