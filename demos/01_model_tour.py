"""
Tour of the closed-form model catalog
=====================================

Each model is a simply connected flow domain Omega on which the semigroup
acts by translation (or scaling, in the elliptic case), mapped onto the
upper half-plane by an explicit conformal chain.  Petals are the maximal
subdomains that backward orbits never leave.
"""

import random

from petallab import by_name, catalog, sample_petal_omega

for model in catalog():
    print(f"{model.name}: {model.kind} semigroup, mu = {model.mu}")
    # An elliptic flow fixes an interior point, 0 in Omega; the others'
    # Denjoy-Wolff point is the boundary point at infinity.
    dw = model.chain.eval(0j) if model.kind == "elliptic" else "infinity"
    print(f"  Denjoy-Wolff image: {dw}")
    for petal in model.petals:
        rate = "parabolic" if petal.lam is None else f"lam = {petal.lam}"
        print(f"  petal {petal.label!r}: {petal.kind}, {rate}, "
              f"base {petal.base_default}")
    print()

# The chains are numerically exact inverses of each other.  Transport a
# cloud of petal points to the canonical domain and back.
rng = random.Random(20260817)
model = by_name("strip-slit")
petal = model.petal("upper")
worst = 0.0
for w in sample_petal_omega(model, petal, 200, rng):
    q = model.chain.eval(w)
    worst = max(worst, abs(model.chain.eval_inverse(q) - w))
print(f"round-trip error over 200 points of {model.name}: {worst:.2e}")

# Forward flow obeys the semigroup law in Omega coordinates.
w = petal.base_default
one = model.flow_omega(model.flow_omega(w, 0.75), 1.25)
two = model.flow_omega(w, 2.0)
print(f"semigroup law residual at t = 0.75 + 1.25: {abs(one - two):.2e}")

# Petal membership is a sharp geometric predicate: the upper petal of the
# strip-slit model is the horizontal substrip above the slit.
print("1 + 0.5j in upper petal:", petal.contains(1 + 0.5j))
print("1 - 0.5j in upper petal:", petal.contains(1 - 0.5j))
