"""
Repelling-point diagnostics for the infinitesimal generator
===========================================================

The generator G of a semigroup with a repelling boundary fixed point sigma
of rate lam satisfies a Julia-type inequality on the whole disk, and the
ratio G(z)/(z - sigma) tends to -lam along the radius.  Both are checked
numerically here.  With |sigma| = 1 the Julia slack is also the real part
of the associated Herglotz-type function, so that positivity needs no
separate check.  The radial ratios are read to full relative precision at
z_k = sigma (1 - 2^-k) for k = 4 .. 39, so the last one reads -lam within
about 2^-39, with no extrapolation.
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
    print(f"  radial ratio at k = 39 {report.ratios[-1]:.15f}")
    print(f"  expected -lam          {-petal.lam:.15f}")
    print()

# Both generators are rational, so the radial ratios have closed forms.
# The elliptic model's is G(z)/(z - 1) = z/(1 + z), which tends to 1/2; the
# strip-slit's is G(z)/(z - sigma) = (1 - z)(z - conj(sigma))/(1 + z), from
# G = (1 - z)(1 + z^2)/(1 + z), which tends to 2 at sigma = +-i.
model = by_name("koebe-elliptic")
for r in (0.9, 0.99, 0.999):
    z = complex(r, 0.0)
    ratio = generator(model, z) / (z - 1.0)
    print(f"G({r})/({r} - 1) = {ratio.real:.9f}   "
          f"closed form z/(1+z) = {r / (1 + r):.9f}")
model = by_name("strip-slit")
sigma = 1j
for r in (0.9, 0.99, 0.999):
    z = complex(0.0, r)
    ratio = generator(model, z, sigma) / (z - sigma)
    form = (1.0 - z) * (z - sigma.conjugate()) / (1.0 + z)
    print(f"G({r}i)/({r}i - i) = {ratio:.12f}   "
          f"closed form (1-z)(z+i)/(1+z) = {form:.12f}")
