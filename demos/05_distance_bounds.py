"""
Distance bounds from boundary-gap profiles
==========================================

A profile prescribes the euclidean gap delta(t) between a backward
trajectory and the domain boundary.  Integrating 1/delta gives an upper
bound on hyperbolic distance; the shrinking gap itself forces a lower
bound.  The two bounds separate slowly shrinking gaps (distance well below
t^2) from gaussian-thin gaps (distance comparable to t^2 / 4).
"""

import math

from petallab import (
    bound_ratio_series,
    gaussian_profile,
    logrecip_profile,
    lower_bound,
    profile_from_table,
    upper_bound,
)

grid = [-(10.0 ** k) for k in range(2, 7)]

# delta(t) = 1/log(-t): the gap shrinks so slowly that the distance grows
# far below quadratically.
profile = logrecip_profile()
print("logrecip profile, upper bound over t^2:")
for t, ratio in bound_ratio_series(profile, grid):
    print(f"  t = {t:>10.0f}   ratio = {ratio:.8f}")

# delta(t) = -t exp(-t^2): the gap collapses at gaussian speed and the
# lower bound already grows like t^2 / 4.  The float gap underflows to 0
# long before t = -1000; the bound survives because a profile is stored as
# its exact logarithm.
profile = gaussian_profile()
print("\ngaussian profile, lower bound over t^2:")
for t, ratio in bound_ratio_series(profile, grid):
    print(f"  t = {t:>10.0f}   ratio = {ratio:.10f}")
print(f"  (float delta at t = -40 is already {math.exp(profile.log_delta(-40.0))})")

# The same machinery accepts measured gap tables, interpolated in log
# delta, with an exact piecewise integral for the upper bound.  Sixty
# geometrically spaced samples of the logrecip gap reproduce its bounds.
rows = [(-math.exp(1.0 + 8.3 * k / 59.0),
         1.0 / (1.0 + 8.3 * k / 59.0)) for k in range(60)]
table = profile_from_table(rows, t0=-math.e, d0=1.0)
t = -5000.0
print("\ntabulated version of the logrecip gap at t = -5000:")
print(f"  upper bound {upper_bound(table, t):12.4f}   "
      f"(closed form {upper_bound(logrecip_profile(), t):12.4f})")
print(f"  lower bound {lower_bound(table, t):12.4f}   "
      f"(closed form {lower_bound(logrecip_profile(), t):12.4f})")
