"""Scoring velocity accuracy without a ground truth: backward integration.

Real experiments never provide the true velocity. The trick: reconstruct
the trajectory, take its velocity field, and integrate the equations of
motion backward in time from the last recorded position. The closer the
returned path hugs the trajectory, the more accurate the velocity was.
Here the trajectory is synthetic, so the scoring is against the exact
curve: cubic reconstruction with RK4 beats linear linking with RK2 by an
order of magnitude even with steps spanning ten frames.
"""

from shotr.validate import backtrace, get_case

case = get_case("tanhcos2d")   # a stall-then-dash x motion with an oscillating y
track = case.sample(41)
reference = case.position      # the exact curve, one column per axis

print(f"track: {len(track)} samples over {track.times[-1] - track.times[0]:.1f} s, "
      f"integration step 0.5 s (10 cells per step)\n")
print(f"{'method':>10} {'endpoint err':>14} {'L1':>10} {'L2':>10} {'Linf':>10}")
for label, degree, order in (("RK2 + P1", 1, "rk2"), ("RK4 + P3", 3, "rk4")):
    res = backtrace(track, degree, dtau=0.5, order=order, reference=reference)
    print(f"{label:>10} {res.endpoint_error:>14.3e} "
          f"{res.combined.l1:>10.3e} {res.combined.l2:>10.3e} {res.combined.linf:>10.3e}")

print("\nthe high-order pairing tracks the true path far more closely;")
print("on recorded data the same comparison runs against the cubic")
print("reconstruction of the samples (no analytic reference needed).")
