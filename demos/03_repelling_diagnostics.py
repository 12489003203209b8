"""
Repelling-point diagnostics for the infinitesimal generator
===========================================================

The generator G of a semigroup with a repelling boundary fixed point sigma
of rate lam satisfies a Julia-type inequality on the whole disk, and the
ratio G(z)/(z - sigma) tends to -lam along the radius.  Both are checked
numerically here.  With |sigma| = 1 the Julia slack is also the real part
of the associated Herglotz-type function, so that positivity needs no
separate check.
"""

import random

from petallab import by_name, generator, repelling_diagnostics, sample_petal_omega

rng = random.Random(20260817)

for name, label in (("strip-slit", "upper"),
                    ("strip-slit", "lower"),
                    ("koebe-elliptic", "main")):
    model = by_name(name)
    petal = model.petal(label)
    samples = sample_petal_omega(model, petal, 500, rng)
    report = repelling_diagnostics(model, petal, samples)
    print(f"{name}/{label}: sigma in disk coordinates = {report.sigma_disk}")
    print(f"  min Julia residual    {report.min_julia_residual:+.3e}  (>= 0)")
    print(f"  radial ratio estimate {report.ratio_estimate:.12f}")
    print(f"  expected -lam         {-petal.lam:.12f}")
    print()

# The elliptic model has a rational generator, so the radial ratio has a
# closed form: G(z)/(z - 1) = z/(1 + z), which tends to 1/2.
model = by_name("koebe-elliptic")
for r in (0.9, 0.99, 0.999):
    z = complex(r, 0.0)
    ratio = generator(model, z) / (z - 1.0)
    print(f"G({r})/({r} - 1) = {ratio.real:.9f}   "
          f"closed form z/(1+z) = {r / (1 + r):.9f}")
