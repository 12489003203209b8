"""Reference machinery that the tests check petallab against.

Only the tests use these, so they live here rather than in the package:

- the three canonical domains (``CanonicalDomain``), a Moebius chain
  step (``MobiusStep``), and the general distance to a segment
  (``segment_distance``) that the slit steps' closed forms replace;
- geodesics and closest-point projection in the three canonical domains,
  which cross-check the closed-form orthogonal/tangential split of
  ``petallab.speeds``;
- boundary-point transport through a conformal chain along an interior
  approach ray, which re-derives each petal's ``sigma_canonical``;
- the euclidean distance from a point of a model's domain Omega to its
  boundary;
- a step-by-step chain walk (``reference_eval``, ``reference_eval_inverse``,
  ``reference_derivative``, ``reference_generator``) that calls each
  step's ``cut_distance`` and then its ``apply`` (``value_and_derivative``
  in the derivative walk) in turn, against which the chains' precomputed
  walk plans are checked for identical values and errors, and the disk
  chart ``omega_of_disk`` of a model;
- the hand-derived log-space orbit of each catalog model
  (``reference_orbit``), against which ``KoenigsModel.uhp_orbit`` and its
  walk of the chain in log space are checked bit for bit;
- the complement of a circular arc (``arc_complement``), against which
  harmonic measures are checked to add up to one.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum

from petallab.confmap import EPS_CUT, ConformalChain, MapDomainError, MapStep
from petallab.hypcore import (
    CAYLEY_DISK_TO_UHP,
    CAYLEY_UHP_TO_DISK,
    INFINITY,
    BoundaryPoint,
    DomainError,
    Mobius,
    UhpLogPoint,
    axis_distance,
    disk_distance,
    strip_distance,
    uhp_distance,
)
from petallab.hmeasure import Arc
from petallab.models import KoenigsModel

_HALF_PI = 0.5 * math.pi

EPS_BOUNDARY = 1e-12


def arc_complement(arc: Arc) -> Arc:
    """The complementary arc, traversed from ``beta`` back to ``alpha``."""
    return Arc(arc.beta, arc.alpha + 2.0 * math.pi)


# ---------------------------------------------------------------------------
# Canonical domains and a Moebius step


class CanonicalDomain(Enum):
    DISK = "disk"
    UPPER_HALF_PLANE = "upper_half_plane"
    STRIP_PI = "strip_pi"

    def contains(self, z: complex) -> bool:
        z = complex(z)
        if self is CanonicalDomain.DISK:
            return abs(z) < 1.0
        if self is CanonicalDomain.UPPER_HALF_PLANE:
            return z.imag > 0.0
        return abs(z.imag) < _HALF_PI


@dataclass(frozen=True)
class MobiusStep(MapStep):
    """Fractional linear step wrapping a hypcore Mobius map."""

    m: Mobius

    def apply(self, z: complex) -> complex:
        w = self.m.apply(z)
        if w is None:
            raise ZeroDivisionError("Mobius pole")
        return w

    def value_and_derivative(self, z: complex) -> tuple[complex, complex]:
        den = self.m.c * z + self.m.d
        if den == 0:
            raise ZeroDivisionError("Mobius pole")
        return (self.m.a * z + self.m.b) / den, self.m.det / (den * den)

    def inverted(self) -> "MobiusStep":
        return MobiusStep(self.m.inverse())


def segment_distance(z: complex, a: complex, b: complex) -> float:
    """Euclidean distance from z to the closed segment [a, b]."""
    d = b - a
    den = d.real * d.real + d.imag * d.imag
    t = ((z - a).real * d.real + (z - a).imag * d.imag) / den
    t = min(1.0, max(0.0, t))
    return abs(z - (a + t * d))


def ray_distance(z: complex, angle: float) -> float:
    """Euclidean distance from z to the ray {r e^{i angle} : r >= 0}."""
    v = z * cmath.exp(-1j * angle)
    if v.real <= 0.0:
        return abs(v)
    return abs(v.imag)


# ---------------------------------------------------------------------------
# Geodesics and projection


def strip_to_uhp(z: complex) -> complex:
    """Conformal map of the strip {|Im z| < pi/2} onto the upper half-plane."""
    return 1j * cmath.exp(z)


def uhp_to_strip(q: complex) -> complex:
    """Inverse of :func:`strip_to_uhp` (principal branch)."""
    return cmath.log(q) - 1j * _HALF_PI


def compose(m: Mobius, other: Mobius) -> Mobius:
    """The Mobius map applying ``other`` first, then ``m``."""
    return Mobius(
        m.a * other.a + m.b * other.c,
        m.a * other.b + m.b * other.d,
        m.c * other.a + m.d * other.c,
        m.c * other.b + m.d * other.d,
    )


def domain_distance(domain: CanonicalDomain, z: complex, w: complex) -> float:
    if domain is CanonicalDomain.DISK:
        return disk_distance(z, w)
    if domain is CanonicalDomain.UPPER_HALF_PLANE:
        return uhp_distance(z, w)
    return strip_distance(z, w)


def on_boundary(domain: CanonicalDomain, b: BoundaryPoint,
                tol: float = EPS_BOUNDARY) -> bool:
    """True when ``b`` lies on the boundary of ``domain`` within ``tol``.

    Infinity counts as boundary for the half-plane and the strip (where it
    stands for the right end ``Re -> +inf``), never for the disk.
    """
    if domain is CanonicalDomain.DISK:
        return (not b.is_infinity) and abs(abs(b.value) - 1.0) <= tol
    if b.is_infinity:
        return True
    if domain is CanonicalDomain.UPPER_HALF_PLANE:
        return abs(b.value.imag) <= tol
    return abs(abs(b.value.imag) - _HALF_PI) <= tol


@dataclass(frozen=True)
class Geodesic:
    """A complete geodesic in normalized form.

    Working coordinates are the domain itself for the disk and half-plane,
    and the half-plane image under z -> i e^z for the strip (so the strip's
    right end Re -> +inf is the half-plane point at infinity and its left
    end is 0).  ``endpoints`` holds (given endpoint, far endpoint) in
    working coordinates.  ``normalizer`` is a Mobius self-map of the working
    domain carrying the endpoint pair onto {0, inf} (half-plane working
    coordinates) or {-1, +1} (disk).
    """

    domain: CanonicalDomain
    endpoints: tuple[BoundaryPoint, BoundaryPoint]
    normalizer: Mobius

    def __post_init__(self) -> None:
        e0, e1 = self.endpoints
        if e0.is_infinity and e1.is_infinity:
            raise DomainError("geodesic endpoints must be distinct")
        if not e0.is_infinity and not e1.is_infinity and e0.value == e1.value:
            raise DomainError("geodesic endpoints must be distinct")


def _uhp_geodesic(u: complex, end: BoundaryPoint,
                  ) -> tuple[tuple[BoundaryPoint, BoundaryPoint], Mobius]:
    """Endpoints (given, far) and normalizer of the half-plane geodesic
    through interior point u with prescribed boundary endpoint."""
    if end.is_infinity:
        foot = BoundaryPoint(complex(u.real, 0.0))
        return (INFINITY, foot), Mobius(1.0, -u.real, 0.0, 1.0)
    s0 = end.value.real
    if u.real == s0:
        # vertical line: the second endpoint is infinity
        return (BoundaryPoint(complex(s0, 0.0)), INFINITY), Mobius(1.0, -s0, 0.0, 1.0)
    # half-circle orthogonal to the real axis through u and s0
    c = (u.real * u.real + u.imag * u.imag - s0 * s0) / (2.0 * (u.real - s0))
    e = 2.0 * c - s0
    sign = 1.0 if s0 > e else -1.0
    # real coefficients with positive determinant sign*(s0-e) preserve the
    # half-plane; s0 -> 0 and e -> infinity
    norm = Mobius(sign, -sign * s0, 1.0, -e)
    return (BoundaryPoint(complex(s0, 0.0)), BoundaryPoint(complex(e, 0.0))), norm


def geodesic_through(domain: CanonicalDomain, interior: complex,
                     endpoint: BoundaryPoint,
                     tol: float = EPS_BOUNDARY) -> Geodesic:
    """The geodesic of ``domain`` through ``interior`` with the prescribed
    boundary ``endpoint``.

    In the half-plane with endpoint infinity (and in the strip with the
    right-end datum) the geodesic is the vertical line through the interior
    point.  Boundary values are snapped exactly onto the boundary before
    use; values farther than ``tol`` from the boundary raise
    :class:`DomainError`.
    """
    interior = complex(interior)
    if not domain.contains(interior):
        raise DomainError(f"{interior!r} is not interior to {domain.value}")
    if not on_boundary(domain, endpoint, tol):
        raise DomainError(f"{endpoint!r} is not on the boundary of {domain.value}")

    if domain is CanonicalDomain.UPPER_HALF_PLANE:
        end = endpoint if endpoint.is_infinity else BoundaryPoint(
            complex(endpoint.value.real, 0.0))
        endpoints, norm = _uhp_geodesic(interior, end)
        return Geodesic(domain, endpoints, norm)

    if domain is CanonicalDomain.STRIP_PI:
        u = strip_to_uhp(interior)
        if endpoint.is_infinity:
            end = INFINITY
        else:
            v = endpoint.value
            wall = math.copysign(_HALF_PI, v.imag)
            # i e^(x +- i pi/2) = -+ e^x, exactly real
            end = BoundaryPoint(complex(-math.copysign(math.exp(v.real), wall), 0.0))
        endpoints, norm = _uhp_geodesic(u, end)
        return Geodesic(domain, endpoints, norm)

    # disk: transport to the half-plane, build there, conjugate back
    val = endpoint.value / abs(endpoint.value)
    u = CAYLEY_DISK_TO_UHP.apply(interior)
    bu = CAYLEY_DISK_TO_UHP.apply_boundary(BoundaryPoint(val))
    if not bu.is_infinity:
        bu = BoundaryPoint(complex(bu.value.real, 0.0))
    (_, far_u), n_u = _uhp_geodesic(u, bu)
    norm = compose(compose(CAYLEY_UHP_TO_DISK, n_u), CAYLEY_DISK_TO_UHP)
    far = CAYLEY_UHP_TO_DISK.apply_boundary(far_u)
    if not far.is_infinity:
        far = BoundaryPoint(far.value / abs(far.value))
    return Geodesic(domain, (BoundaryPoint(val), far), norm)


def _to_working(g: Geodesic, w: complex) -> complex:
    """Map a domain point of g into normalized half-plane coordinates."""
    if g.domain is CanonicalDomain.DISK:
        v = g.normalizer.apply(w)
        u = None if v is None else CAYLEY_DISK_TO_UHP.apply(v)
    elif g.domain is CanonicalDomain.STRIP_PI:
        u = g.normalizer.apply(strip_to_uhp(w))
    else:
        u = g.normalizer.apply(w)
    if u is None or u.imag <= 0.0:
        raise DomainError("point does not normalize into the half-plane")
    return u


def _from_working(g: Geodesic, u: complex) -> complex:
    """Inverse of :func:`_to_working`."""
    inv = g.normalizer.inverse()
    if g.domain is CanonicalDomain.DISK:
        return inv.apply(CAYLEY_UHP_TO_DISK.apply(u))
    if g.domain is CanonicalDomain.STRIP_PI:
        return uhp_to_strip(inv.apply(u))
    return inv.apply(u)


def project_to_geodesic(w: complex, g: Geodesic) -> tuple[complex, float]:
    """Closest-point projection of ``w`` onto the geodesic ``g``.

    Returns (foot, dist).  In normalized half-plane coordinates the foot of
    u is i|u| and the distance is |log tan(arg(u)/2)| / 2; both are mapped
    back through the normalizer.
    """
    w = complex(w)
    if not g.domain.contains(w):
        raise DomainError(f"{w!r} is not interior to {g.domain.value}")
    u = _to_working(g, w)
    dist = axis_distance(math.atan2(u.imag, u.real))
    return _from_working(g, 1j * abs(u)), dist


def geodesic_point(g: Geodesic, s: float) -> complex:
    """Point of g at arc parameter s: preimage of i e^s."""
    return _from_working(g, 1j * math.exp(s))


def project_by_search(w: complex, g: Geodesic) -> tuple[complex, float]:
    """Brute-force projection: bounded 1-D minimization of the distance
    along the geodesic parameter, tolerance 1e-12 in the parameter."""
    from scipy.optimize import minimize_scalar

    def dist_at(s: float) -> float:
        return domain_distance(g.domain, w, geodesic_point(g, s))

    res = minimize_scalar(dist_at, bounds=(-40.0, 40.0), method="bounded",
                          options={"xatol": 1e-12})
    return geodesic_point(g, float(res.x)), float(res.fun)


# ---------------------------------------------------------------------------
# Boundary transport


@dataclass(frozen=True)
class ApproachRay:
    """Interior ray describing how a boundary datum is approached.

    Inward rays sample origin + direction * 2^-k and describe the prime end
    at the origin; outward rays sample origin + direction * 2^k and describe
    an end at infinity.
    """

    origin: complex
    direction: complex
    outward: bool = False
    k_start: int = 0

    def point(self, k: int) -> complex:
        scale = 2.0 ** k if self.outward else 2.0 ** (-k)
        return self.origin + self.direction * scale


def push_boundary_point(chain: ConformalChain, b: BoundaryPoint, ray: ApproachRay,
                        tol: float = 1e-8) -> BoundaryPoint:
    """Transport a boundary/prime-end datum through ``chain`` along an
    interior approach ray.

    Evaluates the chain along the ray and extrapolates (Aitken).  A
    sequence escaping past 1e8 with persistent geometric growth is
    declared the point at infinity.  A sequence that neither stabilizes
    within ``tol`` nor escapes raises :class:`MapDomainError`.
    """
    if ray.outward and not b.is_infinity:
        raise MapDomainError("outward rays describe ends at infinity")
    if not ray.outward and (b.is_infinity or abs(b.value - ray.origin) > 1e-9):
        raise MapDomainError("inward ray origin must match the boundary datum")
    vals: list[complex] = []
    for k in range(ray.k_start, ray.k_start + 80):
        p = ray.point(k)
        if not chain.source_contains(p):
            continue
        try:
            v = chain.eval(p)
        except MapDomainError:
            if _escaping(vals):
                return INFINITY
            # the ray may leave the evaluable region (cut guards,
            # underflow) after the images have already stabilized
            if len(vals) >= 2 and abs(vals[-1] - vals[-2]) < tol:
                return BoundaryPoint(_aitken_tail(vals))
            continue
        vals.append(v)
        if _escaping(vals):
            return INFINITY
        if len(vals) >= 3 and abs(vals[-1] - vals[-2]) < tol:
            extrap = _aitken_tail(vals)
            if abs(extrap - vals[-1]) <= max(abs(vals[-1] - vals[-2]), tol):
                return BoundaryPoint(extrap)
    raise MapDomainError(f"boundary transport along {ray!r} did not stabilize")


def _aitken_tail(vals: list[complex]) -> complex:
    """Aitken acceleration of the last three values (last value if fewer)."""
    if len(vals) < 3:
        return vals[-1]
    x0, x1, x2 = vals[-3], vals[-2], vals[-1]
    denom = (x2 - x1) - (x1 - x0)
    return x2 if denom == 0 else x2 - (x2 - x1) ** 2 / denom


def _escaping(vals: list[complex]) -> bool:
    """Persistent geometric growth past 1e8 marks an end at infinity."""
    if len(vals) < 4:
        return False
    mags = [abs(v) for v in vals[-4:]]
    return mags[-1] > 1e8 and all(mags[i + 1] > 1.2 * mags[i] for i in range(3))


# ---------------------------------------------------------------------------
# Boundary distance in Omega


def _strip_slit_boundary_distance(w: complex) -> float:
    wall = _HALF_PI - abs(w.imag)
    if w.real <= 0.0:
        slit = abs(w.imag)
    else:
        slit = abs(w)
    return min(wall, slit)


def _sector_parabolic_boundary_distance(w: complex) -> float:
    left = ray_distance(w, math.pi)
    down = ray_distance(w, -_HALF_PI)
    return min(left, down)


def _koebe_elliptic_boundary_distance(w: complex) -> float:
    if w.real >= -1.0:
        return abs(w + 1.0)
    return abs(w.imag)


_BOUNDARY_DISTANCE = {
    "strip-slit": _strip_slit_boundary_distance,
    "sector-parabolic": _sector_parabolic_boundary_distance,
    "koebe-elliptic": _koebe_elliptic_boundary_distance,
}


def boundary_distance(model: KoenigsModel, w: complex) -> float:
    """Euclidean distance from w to the boundary of the model's Omega."""
    w = complex(w)
    if not model.contains(w):
        raise DomainError(f"{w} is not in the domain of {model.name}")
    return _BOUNDARY_DISTANCE[model.name](w)


# ---------------------------------------------------------------------------
# Step-by-step chain walk


def _check_cut(step: MapStep, z: complex, i: int) -> None:
    try:
        near = step.cut_distance(z) <= EPS_CUT
    except OverflowError as exc:
        raise MapDomainError(f"cut check failed: {exc}", step_index=i) from exc
    if near:
        raise MapDomainError(f"{z!r} is within {EPS_CUT} of a branch cut", step_index=i)


def _apply(step: MapStep, z: complex, i: int) -> complex:
    try:
        z = step.apply(z)
    except (OverflowError, ZeroDivisionError) as exc:
        raise MapDomainError(f"evaluation failed: {exc}", step_index=i) from exc
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise MapDomainError("evaluation left float range", step_index=i)
    return z


def reference_eval(chain: ConformalChain, w: complex) -> complex:
    """``chain.eval(w)``, one step call at a time."""
    z = complex(w)
    if not chain.source_contains(z):
        raise MapDomainError(f"{z!r} is outside the source region of {chain.name or 'chain'}")
    for i, step in enumerate(chain.steps):
        _check_cut(step, z, i)
        z = _apply(step, z, i)
    return z


def reference_eval_inverse(chain: ConformalChain, q: complex) -> complex:
    """``chain.eval_inverse(q)``, inverting each step as it is reached."""
    z = complex(q)
    if not z.imag > 0.0:
        raise MapDomainError(f"{z!r} is outside the upper half-plane")
    for i in reversed(range(len(chain.steps))):
        step = chain.steps[i].inverted()
        _check_cut(step, z, i)
        z = _apply(step, z, i)
    if not chain.source_contains(z):
        raise MapDomainError(f"{q!r} has no preimage in the source region")
    return z


def reference_derivative(chain: ConformalChain, w: complex) -> complex:
    """``chain.derivative(w)``: each step's cut check, then its
    ``value_and_derivative``, then the finiteness of its image; the
    product is checked once, after the last step."""
    z = complex(w)
    if not chain.source_contains(z):
        raise MapDomainError(f"{z!r} is outside the source region of {chain.name or 'chain'}")
    acc = 1.0 + 0j
    for i, step in enumerate(chain.steps):
        _check_cut(step, z, i)
        try:
            z, d = step.value_and_derivative(z)
        except (OverflowError, ZeroDivisionError) as exc:
            raise MapDomainError(f"evaluation failed: {exc}", step_index=i) from exc
        if not (math.isfinite(z.real) and math.isfinite(z.imag)):
            raise MapDomainError("evaluation left float range", step_index=i)
        acc *= d
    if acc == 0 or not (math.isfinite(acc.real) and math.isfinite(acc.imag)):
        raise MapDomainError("derivative vanished or left float range")
    return acc


def omega_of_disk(model: KoenigsModel, z: complex) -> complex:
    """Omega coordinate of a unit-disk point: Cayley, then the inverse chain."""
    q = CAYLEY_DISK_TO_UHP.apply(complex(z))
    if q is None:
        raise DomainError("point maps to the Cayley pole")
    return model.chain.eval_inverse(q)


def reference_generator(model: KoenigsModel, z: complex) -> complex:
    """``semigroup.generator`` on the reference walk."""
    z = complex(z)
    q = CAYLEY_DISK_TO_UHP.apply(z)
    if q is None:
        raise DomainError("point maps to the Cayley pole")
    w = reference_eval_inverse(model.chain, q)
    df = reference_derivative(model.chain, w)
    cay = CAYLEY_DISK_TO_UHP
    dc = cay.det / (cay.c * z + cay.d) ** 2
    if model.kind == "elliptic":
        return -model.mu * w * df / dc
    return df / dc


# ---------------------------------------------------------------------------
# Hand-derived log-space orbits


def _strip_slit_orbit(w0: complex, t: float) -> UhpLogPoint:
    w = w0 + t
    if abs(w.imag) >= _HALF_PI or (w.imag == 0.0 and w.real <= 0.0):
        raise DomainError(f"orbit point {w} left the domain")
    tw = 2.0 * w
    if tw.real > 0.0:
        # Far from the slit tip the image grows like i e^w.
        l_val = w + 1j * _HALF_PI + 0.5 * cmath.log(1.0 - cmath.exp(-tw))
        return UhpLogPoint(None, l_val)
    u = cmath.exp(tw)  # |u| <= 1; underflow to 0 is harmless
    root = cmath.sqrt(1.0 - u)
    if w.imag > 0.0:
        # Upper petal: the image hugs the canonical point -1.
        return UhpLogPoint(-1.0, tw - cmath.log(1.0 + root))
    # Lower petal: the image hugs +1.
    return UhpLogPoint(1.0, tw + 1j * math.pi - cmath.log(1.0 + root))


def _sector_parabolic_orbit(w0: complex, t: float) -> UhpLogPoint:
    w = w0 + t
    if w.real <= 0.0 and w.imag <= 0.0:
        raise DomainError(f"orbit point {w} left the domain")
    # Image is (i w)^(2/3) with the argument of i w taken in (0, 3 pi / 2).
    phi = cmath.phase(1j * w)
    if phi <= 0.0:
        phi += 2.0 * math.pi
    l_val = (2.0 / 3.0) * complex(math.log(abs(w)), phi)
    return UhpLogPoint(None, l_val)


def _koebe_elliptic_orbit(w0: complex, t: float) -> UhpLogPoint:
    if w0 == 0:
        raise DomainError("the fixed point has no canonical orbit chart")
    a = cmath.log(w0) - t  # log of w_t; the orbit ray has constant argument
    if w0.imag == 0.0 and w0.real < 0.0 and a.real >= 0.0:
        raise DomainError(f"orbit point exp({a}) left the domain")
    # Image is i sqrt(w_t + 1); pick the stable form for log(w_t + 1).
    if a.real > 36.0:
        log_w1 = a + cmath.log(1.0 + cmath.exp(-a))
    elif a.real < -36.0:
        log_w1 = cmath.log(1.0 + cmath.exp(a))
    else:
        log_w1 = cmath.log(cmath.exp(a) + 1.0)
    return UhpLogPoint(None, 1j * _HALF_PI + 0.5 * log_w1)


_ORBIT = {
    "strip-slit": _strip_slit_orbit,
    "sector-parabolic": _sector_parabolic_orbit,
    "koebe-elliptic": _koebe_elliptic_orbit,
}


def reference_orbit(model: KoenigsModel, w0: complex, t: float) -> UhpLogPoint:
    """``model.uhp_orbit(w0, t)`` from the model's hand-derived formula."""
    return _ORBIT[model.name](complex(w0), t)
