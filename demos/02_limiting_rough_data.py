"""What the nonlinear limiter does at a jump in the data.

High-degree polynomials forced through a step overshoot on both sides.
The limiter blends each cell's polynomial with two linear candidates,
weighted by oscillation indicators: smooth cells stay near the high-order
polynomial, while the jump cell collapses onto the flatter line.
"""

import numpy as np

from shotr import TrackSeries, reconstruct_track

times = np.arange(10.0)
values = np.where(times < 4.5, 0.0, 1.0)  # jump between samples 4 and 5
step = TrackSeries("step", times, values)  # 1-D values: a one-axis track

[unlimited] = reconstruct_track(step, degree=3, limiter="none")
[limited] = reconstruct_track(step, degree=3, limiter="cweno")

print("per-cell value range on a unit step (true data stays in [0, 1]):")
print(f"{'cell':>4} {'unlimited min/max':>24} {'limited min/max':>24}")
for i in range(times.size - 1):
    pts = np.linspace(times[i], times[i + 1], 200)
    u = unlimited.cells[i].value(pts)
    l = limited.cells[i].value(pts)
    print(f"{i:>4} {u.min():>11.4f} {u.max():>11.4f} {l.min():>11.4f} {l.max():>11.4f}")

overshoot_u = max(abs(unlimited.value(np.linspace(0, 9, 2000))).max() - 1.0, 0.0)
overshoot_l = max(abs(limited.value(np.linspace(0, 9, 2000))).max() - 1.0, 0.0)
print(f"\nworst overshoot beyond the data range: unlimited {overshoot_u:.3f}, "
      f"limited {overshoot_l:.2e}")

# On smooth data the limiter still moves the curve: below is the largest gap
# between the limited and unlimited fits of a cubic. Under refinement the
# limited fit converges at about order 2 instead of N + 1 (ROADMAP item 1).
t = np.linspace(0, 1, 200)
smooth = TrackSeries("cubic", t, t**3 + 30 * t)
pts = np.linspace(0, 1, 1000)
dev = np.abs(
    reconstruct_track(smooth, 3, "cweno")[0].value(pts)
    - reconstruct_track(smooth, 3, "none")[0].value(pts)
).max()
print(f"limited vs unlimited on smooth cubic data: max deviation {dev:.2e}")
