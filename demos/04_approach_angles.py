"""
Approach angles through harmonic measure
========================================

How does an orbit meet its boundary limit point?  Evaluating the harmonic
measure of an arc anchored at the limit point along the sequence, and
extrapolating, recovers the approach angle: pi/2 for a radial approach,
an interior angle for non-tangential convergence, 0 or pi for tangential
creep along the circle.
"""

import math

from petallab import Arc, approach_angle, by_name
from petallab.verify import ORBIT_KMAX, orbit_angle

# A radial sequence meets the boundary orthogonally.
a = 1.0 + 0j
radial = [(1.0 - 2.0 ** (-k)) * a for k in range(0, 21)]
report = approach_angle(radial, a, Arc(0.0, math.pi / 2))
print(f"radial sequence:     theta/pi = {report.theta / math.pi:.6f}")

# Backward orbit of the hyperbolic model, while the disk chart resolves it,
# read as verify and `petallab hmeasure` read it.
model = by_name("strip-slit")
petal = model.petal("upper")
_, report, _, _ = orbit_angle(model, petal, petal.base_default, ORBIT_KMAX)
print(f"hyperbolic orbit:    theta/pi = {report.theta / math.pi:.6f} "
      f"(tangential: {report.tangential})")

# The parabolic orbit creeps into its Denjoy-Wolff point along the circle.
model = by_name("sector-parabolic")
petal = model.petal("main")
_, report, _, _ = orbit_angle(model, petal, petal.base_default, 400)
print(f"parabolic orbit:     theta/pi = {report.theta / math.pi:.6f} "
      f"(tangential: {report.tangential})")

# A sequence that stalls in the interior is reported as inconclusive
# rather than assigned a fake angle.
stuck = [0.5 + 0j] * 10
report = approach_angle(stuck, a, Arc(0.0, math.pi / 2))
print(f"stalled sequence:    inconclusive = {report.inconclusive} "
      f"({report.reason})")
