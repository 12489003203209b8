"""Flow evaluation, the infinitesimal generator, and repelling-point
diagnostics.

The flow is exact in Omega coordinates (translation or scaling), so all
semigroup quantities reduce to coordinate transport.  Orbit points are
reported in every chart that can still hold them as floats: deep
backward orbits leave the disk chart first, then the canonical chart (the
upper half-plane, for every model), while the logarithmic canonical form
of ``KoenigsModel.uhp_orbit``, the chain walked in log space, survives
arbitrarily far.
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple, Optional, Sequence

from .confmap import MapDomainError
from .hypcore import (
    CAYLEY_DISK_TO_UHP,
    CAYLEY_UHP_TO_DISK,
    DomainError,
    UhpLogPoint,
    uhp_log_distance,
)
from .models import KoenigsModel, Petal

LOG4 = math.log(4.0)
MIN_DISK_GAP = 1e-250
# Coefficients and determinant of CAYLEY_DISK_TO_UHP, C(z) = (a z + b)/(c z + d)
# with C'(z) = det/(c z + d)^2, for the generator's hot path.
_CAYLEY = (CAYLEY_DISK_TO_UHP.a, CAYLEY_DISK_TO_UHP.b, CAYLEY_DISK_TO_UHP.c,
           CAYLEY_DISK_TO_UHP.d, CAYLEY_DISK_TO_UHP.det)


class PetalRequiredError(DomainError):
    """Backward flow requested from a point outside every petal."""


class DiagnosticError(DomainError):
    """Repelling-point diagnostics requested where they are undefined."""


class OrbitPoint(NamedTuple):
    """One trajectory point in every chart that can still represent it.

    ``omega_w`` is None when elliptic scaling overflows floats;
    ``canonical_q`` is the upper half-plane image, for every model, and
    None when it stops being a finite interior float; ``disk_z`` is None
    once the disk image rounds onto the unit circle or its gap drops below
    1e-250.  ``disk_gap`` carries 1 - |disk_z|^2 computed in log space,
    which stays accurate long after disk_z itself degrades.
    """

    t: float
    omega_w: Optional[complex]
    canonical_q: Optional[complex]
    disk_z: Optional[complex]
    disk_gap: float


def _disk_view(p: UhpLogPoint) -> tuple[Optional[complex], float]:
    """Disk image and boundary gap of an upper-half-plane log point."""
    # gap = 1 - |z|^2 = 4 Im q / |q + i|^2; assemble it from logarithms.
    scale = max(p.L.real, 0.0)
    base = (0j if p.anchor is None else complex(p.anchor)) + 1j
    v = base * math.exp(-scale) + cmath.exp(p.L - scale)
    log_abs_qpi = scale + math.log(abs(v))
    log_gap = LOG4 + p.log_im() - 2.0 * log_abs_qpi
    disk_gap = math.exp(log_gap) if log_gap > -744.0 else 0.0
    q = p.value()
    if q is None:
        return None, disk_gap
    z = CAYLEY_UHP_TO_DISK.apply(q)
    if z is None or abs(z) >= 1.0 or disk_gap <= MIN_DISK_GAP:
        return None, disk_gap
    return z, disk_gap


def flow(model: KoenigsModel, z0: complex, t: float) -> OrbitPoint:
    """Time-t flow image of the Omega-coordinate point z0.

    Forward flow (t >= 0) is defined on all of Omega; backward flow only
    on petals, where orbits are regular.
    """
    w0 = complex(z0)
    if not model.contains(w0):
        raise DomainError(f"{w0} is not in the domain of {model.name}")
    if t < 0 and model.petal_of(w0) is None:
        raise PetalRequiredError(
            f"backward flow from {w0} needs a petal; none contains it"
        )
    if model.kind == "elliptic" and w0 == 0:
        return OrbitPoint(t=t, omega_w=0j, canonical_q=model.dw_point, disk_z=0j, disk_gap=1.0)
    p = model.uhp_orbit(w0, t)
    disk_z, disk_gap = _disk_view(p)
    return OrbitPoint(t=t, omega_w=model.flow_omega(w0, t), canonical_q=p.value(),
                      disk_z=disk_z, disk_gap=disk_gap)


def generator(model: KoenigsModel, z: complex) -> complex:
    """Infinitesimal generator of the disk semigroup at the disk point z.

    Differentiating the linearizing equation at t = 0 gives G = 1/h'
    for translation models and G = -mu h / h' for the scaling model,
    with h the Omega-coordinate chart of the disk.  Here h = F^-1 o C,
    with C the Cayley map onto the upper half-plane and F the model's
    chain, so h' = (F^-1)'(q) C'(z) at q = C(z); one walk of the chain's
    inverse plan gives both h(z) and (F^-1)'(q).
    """
    z = complex(z)
    a, b, c, d, det = _CAYLEY
    den = c * z + d
    if den == 0:
        raise DomainError("point maps to the Cayley pole")
    w, dw = model.chain.inverse_and_derivative((a * z + b) / den)
    dh = dw * (det / den**2)
    try:
        g = (-model.mu * w if model.kind == "elliptic" else 1.0) / dh
    except ZeroDivisionError as exc:
        raise MapDomainError(f"generator failed: {exc}") from exc
    if not cmath.isfinite(g):
        raise MapDomainError("generator left float range")
    return g


class RepellingReport(NamedTuple):
    """Numerical evidence that a boundary point repels with rate lam.

    ``min_julia_residual`` is the worst slack in the Julia-type lower
    bound Re(sigma G(z)/(sigma - z)^2) >= (lam/2)(1-|z|^2)/|sigma - z|^2.
    ``ratios`` tracks G(z_k)/(z_k - sigma) along a radial approach and
    ``ratio_estimate`` its extrapolated limit, which should equal -lam.
    ``min_herglotz_real`` is the worst real part of the associated
    Herglotz-type function, which should be nonnegative.
    ``radial_stop`` is the k at which a ``MapDomainError`` ended the radial
    approach z_k = sigma (1 - 2^-k), None if it ran to k = 40; ``plateau``
    is the index i of the Richardson accelerant 2 r_{i+1} - r_i picked as
    ``ratio_estimate``, with r_i = ``ratios[i]``.
    """

    lam: float
    sigma_disk: complex
    min_julia_residual: float
    ratios: tuple[complex, ...]
    ratio_estimate: complex
    min_herglotz_real: float
    radial_stop: Optional[int]
    plateau: int


def repelling_diagnostics(
    model: KoenigsModel, petal: Petal, samples: Sequence[complex]
) -> RepellingReport:
    """Evaluate the three repelling-point criteria at disk-coordinate samples."""
    if petal.kind != "hyperbolic" or petal.lam is None:
        raise DiagnosticError("diagnostics need a hyperbolic petal")
    sigma_bp = model.disk_sigma(petal)
    if sigma_bp.is_infinity:
        raise DiagnosticError("sigma did not transport to a finite disk point")
    sigma = sigma_bp.value
    lam = petal.lam
    min_julia = math.inf
    min_herglotz = math.inf
    for z in samples:
        z = complex(z)
        g = generator(model, z)
        julia = (sigma * g / (sigma - z) ** 2).real
        julia -= 0.5 * lam * (1.0 - abs(z) ** 2) / abs(sigma - z) ** 2
        herglotz = g / ((sigma.conjugate() * z - 1.0) * (z - sigma))
        herglotz -= 0.5 * lam * (sigma + z) / (sigma - z)
        min_julia = min(min_julia, julia)
        min_herglotz = min(min_herglotz, herglotz.real)
    ratios = []
    radial_stop = None
    for k in range(4, 41):
        zk = sigma * (1.0 - 2.0 ** -k)
        try:
            g = generator(model, zk)
        except MapDomainError:
            # The chain's branch-cut guard refuses points this close to
            # sigma; the plateau has long stabilized by then.
            radial_stop = k
            break
        ratios.append(g / (zk - sigma))
    if len(ratios) < 10:
        raise DiagnosticError("radial approach to sigma failed too early")
    # First-order Richardson step for a sequence with error ~ 2^{-k},
    # then pick the plateau where consecutive accelerants agree best.
    rich = [2.0 * ratios[i + 1] - ratios[i] for i in range(len(ratios) - 1)]
    best = min(range(len(rich) - 1), key=lambda i: abs(rich[i + 1] - rich[i]))
    return RepellingReport(
        lam=lam,
        sigma_disk=sigma,
        min_julia_residual=min_julia,
        ratios=tuple(ratios),
        ratio_estimate=rich[best + 1],
        min_herglotz_real=min_herglotz,
        radial_stop=radial_stop,
        plateau=best + 1,
    )


def regularity_gap(
    model: KoenigsModel, petal: Petal, z0: complex, t_grid: Sequence[float]
) -> list[float]:
    """Hyperbolic distances d(orbit(t), orbit(t-1)) along a backward orbit.

    Bounded values certify a regular orbit; computed in canonical
    coordinates, which the distances do not depend on.
    """
    w0 = complex(z0)
    if not (model.contains(w0) and petal.contains(w0)):
        raise PetalRequiredError(f"{w0} is not in the requested petal")
    gaps = []
    for t in t_grid:
        a = model.uhp_orbit(w0, float(t) - 1.0)
        b = model.uhp_orbit(w0, float(t))
        gaps.append(uhp_log_distance(a, b))
    return gaps
