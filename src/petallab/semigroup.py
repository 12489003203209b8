"""Flow evaluation, the infinitesimal generator, and repelling-point
diagnostics.

The flow is exact in Omega coordinates (translation or scaling), so all
semigroup quantities reduce to coordinate transport.  ``flow`` reports an
orbit point in the disk chart while that chart can still hold it as a
float: it reads the point from the logarithmic canonical form of
``KoenigsModel.uhp_orbit``, the chain walked in log space.  Only a point
whose float modulus lies within ``_GAP_BAND`` of the unit circle has its
exact gap 1 - |z|^2 read from ``hypcore.uhp_log_disk_gap``; one farther in
has a gap far above ``MIN_DISK_GAP``.  So a deep backward orbit loses the
disk chart before the log form fails.
"""

from __future__ import annotations

import cmath
import functools
import math
from typing import NamedTuple, Optional, Sequence

from .confmap import MapDomainError
from .hypcore import (
    CAYLEY,
    CAYLEY_INVERSE,
    DomainError,
    disk_of_uhp,
    uhp_log_disk_gap,
    uhp_log_distance,
)
from .models import KoenigsModel, Petal

MIN_DISK_GAP = 1e-250
# The float abs(z) lies within a few ulps of the true modulus, so a point
# with abs(z) <= 1 - _GAP_BAND has an exact gap 1 - |z|^2 above about 1e-12,
# far above MIN_DISK_GAP: only points inside the band need the log gap.
_GAP_BAND = 1e-12


class PetalRequiredError(DomainError):
    """Backward flow requested from a point outside every petal."""


def require_petal(model: KoenigsModel, petal: Petal, w: complex) -> complex:
    """``w`` as a complex number; ``PetalRequiredError`` unless it lies in
    ``petal`` of ``model``."""
    w = complex(w)
    if not (model.contains(w) and petal.contains(w)):
        raise PetalRequiredError(f"{w} is not in petal {petal.label!r} of {model.name}")
    return w


class DiagnosticError(DomainError):
    """Repelling-point diagnostics requested where they are undefined."""


class OrbitPoint(NamedTuple):
    """One trajectory point at time ``t``.

    ``disk_z`` is its unit-disk image, None once the canonical point
    leaves float range, the disk image rounds onto the unit circle, or its
    gap 1 - |z|^2 drops below ``MIN_DISK_GAP``.
    """

    t: float
    disk_z: Optional[complex]


# OrbitPoint from a tuple of its two fields, in C: the class call runs the
# NamedTuple's Python __new__.
_new_point = functools.partial(tuple.__new__, OrbitPoint)


def flow(model: KoenigsModel, z0: complex, t: float) -> OrbitPoint:
    """Time-t flow image of the Omega-coordinate point z0.

    Forward flow (t >= 0) is defined on all of Omega; backward flow only
    on petals, where orbits are regular.  ``disk_z`` is None where the
    float disk point has modulus 1 or more, or, for a point whose modulus
    lies within ``_GAP_BAND`` of 1, where the exact log-space gap
    1 - |z|^2 is at most ``MIN_DISK_GAP``.
    """
    w0 = complex(z0)
    if not model.contains(w0):
        raise DomainError(f"{w0} is not in the domain of {model.name}")
    if t < 0:
        # petal.contains(w0), for a point already complex.
        for petal in model.petals:
            if petal.image.contains(w0):
                break
        else:
            raise PetalRequiredError(
                f"backward flow from {w0} needs a petal; none contains it"
            )
    if w0 == 0 and model.kind == "elliptic":
        return _new_point((t, 0j))
    p = model.uhp_orbit(w0, t)
    q = p.value()
    if q is None:
        return _new_point((t, None))
    disk_z = disk_of_uhp(q)
    r = abs(disk_z)
    if r >= 1.0 or (r > 1.0 - _GAP_BAND and uhp_log_disk_gap(p) <= MIN_DISK_GAP):
        disk_z = None
    return _new_point((t, disk_z))


def _generator_from_chart(model: KoenigsModel, ws: Sequence[complex],
                          dhs: Sequence[complex]) -> list[complex]:
    """The generator at disk points z from the Omega chart h of the disk,
    given each w = h(z) and dh = h'(z): G = 1/h' for translation models and
    G = -mu h / h' for the scaling model.  A division by zero raises
    ``MapDomainError`` at the first point it fails, and otherwise the first
    non-finite G does."""
    try:
        if model.kind == "elliptic":
            neg_mu = -model.mu
            gs = [neg_mu * w / dh for w, dh in zip(ws, dhs)]
        else:
            gs = [1.0 / dh for dh in dhs]
    except ZeroDivisionError as exc:
        raise MapDomainError(f"generator failed: {exc}") from exc
    if not all(map(cmath.isfinite, gs)):
        raise MapDomainError("generator left float range")
    return gs


def generator(model: KoenigsModel, z: complex) -> complex:
    """Infinitesimal generator of the disk semigroup at the disk point z.

    Differentiating the linearizing equation at t = 0 gives G = 1/h'
    for translation models and G = -mu h / h' for the scaling model,
    with h the Omega-coordinate chart of the disk.  Here h = F^-1 o C,
    with C the Cayley map onto the upper half-plane and F the model's
    chain, so h' = (F^-1)'(q) C'(z) at q = C(z); one inverse walk of the
    chain gives both h(z) and (F^-1)'(q).  A point that is not finite
    raises ``MapDomainError``, and so does a finite one off the open disk,
    after the Cayley pole z = 1 is refused.
    """
    z = complex(z)
    if not cmath.isfinite(z):
        raise MapDomainError(f"{z!r} is outside the unit disk")
    a, b, c, d, det = CAYLEY
    den = c * z + d
    if den == 0:
        raise DomainError("point maps to the Cayley pole")
    if abs(z) >= 1.0:
        raise MapDomainError(f"{z!r} is outside the unit disk")
    w, dw = model.chain.inverse_and_derivative((a * z + b) / den)
    return _generator_from_chart(model, (w,), (dw * (det / den**2),))[0]


class RepellingReport(NamedTuple):
    """Numerical evidence that a boundary point repels with rate lam, the
    petal's ``lam``.

    ``min_julia_residual`` is the worst slack in the Julia-type lower
    bound Re(sigma G(z)/(sigma - z)^2) >= (lam/2)(1-|z|^2)/|sigma - z|^2.
    At |sigma| = 1 it is also the real part of the Herglotz-type function
    G(z)/((conj(sigma) z - 1)(z - sigma)) - (lam/2)(sigma + z)/(sigma - z),
    as (conj(sigma) z - 1)(z - sigma) = conj(sigma)(sigma - z)^2 and
    Re((sigma + z)/(sigma - z)) = (1 - |z|^2)/|sigma - z|^2.
    ``ratios`` tracks G(z_k)/(z_k - sigma) at the points ``radial_points``
    of the radial approach z_k = sigma (1 - 2^-k), k = 4, 5, .., and
    ``ratio_estimate`` its extrapolated limit, which should equal -lam, or
    NaN when a ratio is NaN.
    ``radial_stop`` is the k at which a ``MapDomainError`` ended the radial
    approach, None if it ran to k = 40; ``plateau`` is the index i of the
    Richardson accelerant 2 r_{i+1} - r_i picked as ``ratio_estimate``,
    with r_i = ``ratios[i]``.
    """

    sigma_disk: complex
    min_julia_residual: float
    radial_points: tuple[complex, ...]
    ratios: tuple[complex, ...]
    ratio_estimate: complex
    radial_stop: Optional[int]
    plateau: int


def extreme_or_nan(pick, values: Sequence[float]) -> float:
    """``pick`` (``min`` or ``max``) of values, or NaN where one is NaN:
    ``min`` and ``max`` would skip it, and a NaN anywhere must fail the
    criteria."""
    return math.nan if any(map(math.isnan, values)) else pick(values)


def repelling_diagnostics(
    model: KoenigsModel, petal: Petal, samples: Sequence[complex]
) -> RepellingReport:
    """Evaluate the repelling-point criteria of ``petal``: the Julia-type
    inequality and the radial ratio.

    ``samples`` are Omega-coordinate points, at least one, for the
    inequality.  One forward list walk of the chain
    (``ConformalChain.eval_and_derivative_all``) gives each sample's
    canonical image q = F(w) and F'(w); the disk point is z = C^-1(q) and
    the generator is read from h = F^-1 o C at z, whose derivative is
    C'(z)/F'(w).  The disk points, their generators and the inequality's
    terms are read over the whole list of samples.  The radial approach
    takes ``generator`` point by point.
    """
    if petal.lam is None:
        raise DiagnosticError("diagnostics need a hyperbolic petal")
    ws = list(map(complex, samples))
    if not ws:
        raise DiagnosticError("diagnostics need at least one sample")
    sigma = model.disk_sigma(petal).value
    half_lam = 0.5 * petal.lam
    # z = C^-1(q) = (a q + b)/(c q + d), and C'(z) = (c q + d)^2/det.
    a, b, c, d, det = CAYLEY_INVERSE
    qs, dqs = model.chain.eval_and_derivative_all(ws)
    # c q + d = q + i, which no point of the upper half-plane zeroes.
    dens = [c * q + d for q in qs]
    zs = [(a * q + b) / den for q, den in zip(qs, dens)]
    gs = _generator_from_chart(model, ws, [den * den / det / dq for den, dq in zip(dens, dqs)])
    gaps = [sigma - z for z in zs]
    julias = [(sigma * g / gap ** 2).real - half_lam * (1.0 - abs(z) ** 2) / abs(gap) ** 2
              for z, g, gap in zip(zs, gs, gaps)]
    radial = []
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
        radial.append(zk)
        ratios.append(g / (zk - sigma))
    if len(ratios) < 10:
        raise DiagnosticError("radial approach to sigma failed too early")
    # First-order Richardson step for a sequence with error ~ 2^{-k},
    # then pick the plateau where consecutive accelerants agree best.
    rich = [2.0 * ratios[i + 1] - ratios[i] for i in range(len(ratios) - 1)]
    best = min(range(len(rich) - 1), key=lambda i: abs(rich[i + 1] - rich[i]))
    estimate = rich[best + 1]
    if any(r != r for r in ratios):
        # min skips NaN keys and would pick a plateau beside a NaN ratio.
        estimate = complex(math.nan, math.nan)
    return RepellingReport(
        sigma_disk=sigma,
        min_julia_residual=extreme_or_nan(min, julias),
        radial_points=tuple(radial),
        ratios=tuple(ratios),
        ratio_estimate=estimate,
        radial_stop=radial_stop,
        plateau=best + 1,
    )


def regularity_gap(
    model: KoenigsModel, petal: Petal, z0: complex, t_grid: Sequence[float]
) -> list[float]:
    """Hyperbolic distances d(orbit(t), orbit(t-1)) along a backward orbit.

    Bounded values certify a regular orbit; computed in canonical
    coordinates, which the distances do not depend on.  A time t whose
    float t - 1 is not one below it (|t| >= 2^53, where t - 1 rounds) raises
    ``DomainError`` instead of measuring a step of another length.
    """
    w0 = require_petal(model, petal, z0)
    gaps = []
    for t in t_grid:
        try:
            t = float(t)
        except OverflowError:
            raise DomainError("semigroup.regularity_gap: a time is past float range") from None
        if math.isfinite(t) and (t - 1.0) - t != -1.0:
            raise DomainError(
                f"semigroup.regularity_gap: t - 1 is not one below t = {t!r} in floats")
        a = model.uhp_orbit(w0, t - 1.0)
        b = model.uhp_orbit(w0, t)
        gaps.append(uhp_log_distance(a, b))
    return gaps
