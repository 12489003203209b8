"""Reference machinery that the tests check petallab against.

Only the tests use these, so they live here rather than in the package:

- the boundary datum that can be infinite (``BoundaryPoint``, with
  ``INFINITY`` for the point at infinity), which the package keeps only
  as a float or None;
- the general Moebius map (``Mobius``), with the Cayley pair stated
  through it (``CAYLEY_DISK_TO_UHP``, ``CAYLEY_UHP_TO_DISK``), against
  which ``hypcore``'s Cayley coefficients and ``disk_of_uhp`` are checked
  bit for bit, and which the chain step ``MobiusStep``, ``compose`` and the
  geodesic normalizers use;
- the three canonical domains (``CanonicalDomain``) with their distances
  (``domain_distance``), the strip's (``strip_distance``) stated here
  because no petal of the package measures in the strip itself: a petal
  reads its distance through a log chart into the half-plane;
- the general distance to a segment (``segment_distance``) that the slit
  steps' closed forms replace;
- the disk distance with the gaps 1 - |z|^2 supplied exactly
  (``disk_distance_from_gaps``), which measures to points whose float
  value has rounded onto the unit circle;
- the cut distance kernels in their ``min``/``max`` form
  (``slit_close_cut_distance``, ``slit_open_cut_distance``,
  ``rotated_ray_distance``), which the steps' ``cut_distances`` must match
  bit for bit, overflow included;
- each package step's map as a formula for one point (``reference_apply``,
  ``reference_value_and_derivative``, ``reference_cut_distance``), which
  the steps' list kernels and derivative rules, run in a walk's order by
  ``value_and_derivative_all``, must match bit for bit, errors included;
- geodesics and closest-point projection in the three canonical domains,
  which cross-check the closed-form orthogonal/tangential split of
  ``petallab.speeds``;
- boundary-point transport through a conformal chain along an interior
  approach ray, which re-derives each petal's ``sigma_canonical``;
- the euclidean distance from a point of a model's domain Omega to its
  boundary;
- the orbit point in the disk chart by the rule that reads the exact log
  gap of every point (``reference_flow``), against which ``semigroup.flow``,
  which reads it only next to the unit circle, is checked bit for bit;
- a step-by-step chain walk (``reference_eval``, ``reference_eval_inverse``,
  ``reference_derivative``, ``reference_generator``) that takes each
  step's one-point formulas above, its cut distance (where the step has a
  cut) and then its image (with its derivative in the derivative walk) in
  turn, against which the chains' list walks are checked for identical
  values and errors, and the disk chart ``omega_of_disk`` of a model;
- the catalog chains' steps walked in mpmath at 330 digits, each power
  step with its exact exponent p / q (``mp_eval``, ``mp_canonical``,
  ``mp_orbit_reading``), against which the orbits' log Im q and angular
  gap and the three speeds are checked out to |t| = 1e300, and on which
  the edges of each catalog domain must land on the real axis;
- the complement of a circular arc (``arc_complement``), against which
  harmonic measures are checked to add up to one;
- the tanh-sinh upper bound over the same geometric panels
  (``reference_panels``) with every node's integrand evaluated and every
  node's term added (``reference_upper_bound``), against which
  ``bounds.upper_bound``, which reuses the integrand at nodes that round
  onto a panel's end and ends a level once such a term adds nothing, is
  checked bit for bit;
- Aitken's delta-squared run over every consecutive triple of the last
  eight values, keeping the last triple's result
  (``reference_aitken_limit``), against which ``hmeasure._aitken_limit``,
  which computes only that last triple, is checked bit for bit.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import mpmath

from petallab.bounds import (
    _PANEL_RATIO,
    _QUAD_ABS_TOL,
    _QUAD_MAX_LEVEL,
    _QUAD_REL_TOL,
    BoundaryProfile,
    _tanh_sinh_levels,
)
from petallab.confmap import (
    EPS_CUT,
    Affine,
    ConformalChain,
    ExpStep,
    LogStep,
    MapDomainError,
    MapStep,
    PowerStep,
    SlitCloseStep,
    SlitOpenStep,
    _branch_log,
)
from petallab.hypcore import (
    DomainError,
    disk_distance,
    disk_of_uhp,
    uhp_distance,
    uhp_log_disk_gap,
)
from petallab.hmeasure import Arc
from petallab.models import HalfPlaneImage, KoenigsModel, Petal, StripImage
from petallab.semigroup import MIN_DISK_GAP, OrbitPoint, PetalRequiredError
from petallab.speeds import EstimationError

_HALF_PI = 0.5 * math.pi

EPS_BOUNDARY = 1e-12


def arc_complement(arc: Arc) -> Arc:
    """The complementary arc, traversed from ``beta`` back to ``alpha``."""
    return Arc(arc.beta, arc.alpha + 2.0 * math.pi)


# ---------------------------------------------------------------------------
# Boundary data, Moebius maps, canonical domains and a Moebius step


class BoundaryPoint(NamedTuple):
    """A boundary datum: a finite complex value, or None for infinity."""

    value: complex | None = None

    @property
    def is_infinity(self) -> bool:
        return self.value is None

    def __repr__(self) -> str:
        if self.value is None:
            return "BoundaryPoint(infinity)"
        return f"BoundaryPoint({self.value!r})"


INFINITY = BoundaryPoint(None)


def boundary_of(sigma: float | None) -> BoundaryPoint:
    """A petal's ``sigma_canonical``, a real float or None for infinity, as
    a boundary datum."""
    return INFINITY if sigma is None else BoundaryPoint(complex(sigma, 0.0))


class Mobius:
    """Fractional linear map ``z -> (a z + b) / (c z + d)`` with ad - bc != 0."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: complex, b: complex, c: complex, d: complex) -> None:
        if a * d - b * c == 0:
            raise ValueError("singular Mobius coefficients")
        self.a = a
        self.b = b
        self.c = c
        self.d = d

    @property
    def det(self) -> complex:
        return self.a * self.d - self.b * self.c

    def apply(self, z: complex) -> complex | None:
        """Image of a finite point; None means the image is infinity."""
        den = self.c * z + self.d
        if den == 0:
            return None
        return (self.a * z + self.b) / den

    def apply_boundary(self, b: BoundaryPoint) -> BoundaryPoint:
        if b.is_infinity:
            if self.c == 0:
                return INFINITY
            return BoundaryPoint(self.a / self.c)
        w = self.apply(b.value)
        return INFINITY if w is None else BoundaryPoint(w)

    def inverse(self) -> "Mobius":
        return Mobius(self.d, -self.b, -self.c, self.a)


# The Cayley pair: 0 -> i, 1 -> infinity, -1 -> 0, the real diameter to the
# imaginary axis.
CAYLEY_DISK_TO_UHP = Mobius(1j, 1j, -1.0 + 0j, 1.0 + 0j)
CAYLEY_UHP_TO_DISK = CAYLEY_DISK_TO_UHP.inverse()


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
    """Fractional linear step wrapping a Mobius map; a pole raises
    ZeroDivisionError."""

    m: Mobius

    def apply_all(self, zs):
        values = []
        for z in zs:
            w = self.m.apply(z)
            if w is None:
                raise ZeroDivisionError("Mobius pole")
            values.append(w)
        return values

    def derivatives(self, zs, ws):
        m = self.m
        dens = [m.c * z + m.d for z in zs]
        return [m.det / (den * den) for den in dens]

    def inverted(self) -> "MobiusStep":
        return MobiusStep(self.m.inverse())


class ForwardLogStep(LogStep):
    """A ``LogStep`` that a chain may hold as a forward step.  The catalog
    reaches ``LogStep`` only as the inverse of ``ExpStep``, so the package
    gives it no inverse of its own."""

    __slots__ = ()

    def inverted(self) -> ExpStep:
        return ExpStep()


def segment_distance(z: complex, a: complex, b: complex) -> float:
    """Euclidean distance from z to the closed segment [a, b]."""
    d = b - a
    den = d.real * d.real + d.imag * d.imag
    t = ((z - a).real * d.real + (z - a).imag * d.imag) / den
    t = min(1.0, max(0.0, t))
    return abs(z - (a + t * d))


def slit_close_cut_distance(z: complex) -> float:
    """Distance from z to the segment [0, i], clamping with min and max."""
    return abs(complex(z.real, z.imag - min(1.0, max(0.0, z.imag))))


def slit_open_cut_distance(z: complex) -> float:
    """Distance from z to the segment [-1, 1], clamping with min and max."""
    return abs(complex(z.real - min(1.0, max(-1.0, z.real)), z.imag))


def rotated_ray_distance(z: complex, rot: complex) -> float:
    """Distance from z to the ray at angle a, given rot = e^{-i a}."""
    v = z * rot
    if v.real <= 0.0:
        return abs(v)
    return abs(v.imag)


def ray_distance(z: complex, angle: float) -> float:
    """Euclidean distance from z to the ray {r e^{i angle} : r >= 0}."""
    v = z * cmath.exp(-1j * angle)
    if v.real <= 0.0:
        return abs(v)
    return abs(v.imag)


# ---------------------------------------------------------------------------
# Each package step's map, one point at a time


def _uhp_sqrt(v: complex) -> complex:
    """The square root branch with values in the closed upper half-plane."""
    s = cmath.sqrt(v)
    return -s if s.imag < 0.0 else s


def _power_value_and_derivative(step: PowerStep, z: complex) -> tuple[complex, complex]:
    w = cmath.exp(step.alpha * _branch_log(z, step.cut))
    r = abs(z)
    return w, step.alpha * (w / r) * (z.conjugate() / r)


def _exp_value_and_derivative(step: ExpStep, z: complex) -> tuple[complex, complex]:
    w = cmath.exp(z)
    return w, w


def _slit_value_and_derivative(v: complex, z: complex) -> tuple[complex, complex]:
    w = _uhp_sqrt(v)
    return w, z / w


# type: (image of z, (image, derivative) at z), each for one point.
_FORMULAS = {
    Affine: (lambda s, z: s.a * z + s.b, lambda s, z: (s.a * z + s.b, s.a)),
    ExpStep: (lambda s, z: cmath.exp(z), _exp_value_and_derivative),
    LogStep: (lambda s, z: _branch_log(z, s.cut), lambda s, z: (_branch_log(z, s.cut), 1.0 / z)),
    PowerStep: (lambda s, z: cmath.exp(s.alpha * _branch_log(z, s.cut)),
                _power_value_and_derivative),
    SlitCloseStep: (lambda s, z: _uhp_sqrt(z * z + 1.0),
                    lambda s, z: _slit_value_and_derivative(z * z + 1.0, z)),
    SlitOpenStep: (lambda s, z: _uhp_sqrt(z * z - 1.0),
                   lambda s, z: _slit_value_and_derivative(z * z - 1.0, z)),
}

# type: distance from z to the cut, or None for a cut-free step.
_CUT_DISTANCES = {
    Affine: lambda s, z: None,
    ExpStep: lambda s, z: None,
    LogStep: lambda s, z: rotated_ray_distance(z, cmath.exp(-1j * s.cut)),
    PowerStep: lambda s, z: rotated_ray_distance(z, cmath.exp(-1j * s.cut)),
    SlitCloseStep: lambda s, z: slit_close_cut_distance(z),
    SlitOpenStep: lambda s, z: slit_open_cut_distance(z),
}


# The forward log step reads the formulas of the package step it extends.
_FORMULAS[ForwardLogStep] = _FORMULAS[LogStep]
_CUT_DISTANCES[ForwardLogStep] = _CUT_DISTANCES[LogStep]


def apply_one(step: MapStep, z: complex) -> complex:
    """The image of z under step: the step's list kernel on a list of one."""
    return step.apply_all((z,))[0]


def value_and_derivative_all(step: MapStep, zs) -> tuple[list[complex], list[complex]]:
    """The images of zs under step and the step's derivatives there, in the
    order a chain's walk takes them: ``apply_all``, then ``derivatives``."""
    ws = step.apply_all(zs)
    return ws, step.derivatives(zs, ws)


def reference_apply(step: MapStep, z: complex) -> complex:
    """The image of z under step, by the formula above for a package step
    and by the step's own list kernel for a test-only one."""
    formulas = _FORMULAS.get(type(step))
    return apply_one(step, z) if formulas is None else formulas[0](step, z)


def reference_value_and_derivative(step: MapStep, z: complex) -> tuple[complex, complex]:
    """The image of z under step and the step's derivative there."""
    formulas = _FORMULAS.get(type(step))
    if formulas is None:
        values, derivatives = value_and_derivative_all(step, (z,))
        return values[0], derivatives[0]
    return formulas[1](step, z)


def reference_cut_distance(step: MapStep, z: complex) -> float | None:
    """The distance from z to the cut of step, None for a cut-free step."""
    distance = _CUT_DISTANCES.get(type(step))
    if distance is not None:
        return distance(step, z)
    return None if step.cut_distances is None else step.cut_distance(z)


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


def disk_distance_from_gaps(z: complex, w: complex, gap_z: float, gap_w: float) -> float:
    """``hypcore.disk_distance`` with 1 - |z|^2 and 1 - |w|^2 supplied
    exactly as ``gap_z`` and ``gap_w``, so that it measures to points whose
    float value has already rounded onto the unit circle."""
    z, w = complex(z), complex(w)
    num = abs(1.0 - z.conjugate() * w) + abs(z - w)
    return max(0.0, math.log(num) - 0.5 * (math.log(gap_z) + math.log(gap_w)))


def strip_distance(z: complex, w: complex) -> float:
    """Hyperbolic distance in the strip {|Im z| < pi/2}, density
    |dz|/(2 cos(Im z)).

    Pushed through z -> i e^z into the half-plane formula, with exponentials
    scaled by m = max(Re z, Re w) so that widely separated arguments neither
    overflow nor lose the leading term: for real z, w the value is exactly
    |Re z - Re w| / 2 in the large-separation limit.
    """
    z, w = complex(z), complex(w)
    if not (cmath.isfinite(z) and cmath.isfinite(w)):
        raise DomainError(f"non-finite point {z!r} or {w!r}")
    if abs(z.imag) >= _HALF_PI or abs(w.imag) >= _HALF_PI:
        raise DomainError("strip points must satisfy |Im z| < pi/2")
    m = max(z.real, w.real)
    a = cmath.exp(z - m)
    b = cmath.exp(w - m)
    num = abs(a + b.conjugate()) + abs(a - b)
    tz = z.real + math.log(math.cos(z.imag))
    tw = w.real + math.log(math.cos(w.imag))
    return max(0.0, (m + math.log(num / 2.0)) - 0.5 * (tz + tw))


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


def axis_distance(theta: float) -> float:
    """Distance from a half-plane point with argument ``theta`` to the
    imaginary-axis geodesic: |log tan(theta/2)| / 2, with foot at i|q|."""
    if not 0.0 < theta < math.pi:
        raise DomainError(f"argument must lie in (0, pi), got {theta!r}")
    return 0.5 * math.log((1.0 + abs(math.cos(theta))) / math.sin(theta))


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
    """Brute-force projection: golden-section search of the distance over
    the geodesic parameter in [-40, 40], tolerance 1e-12 in the parameter.
    The distance to a point is convex along a geodesic, so each step keeps
    its one minimum inside the bracket."""

    def dist_at(s: float) -> float:
        return domain_distance(g.domain, w, geodesic_point(g, s))

    shrink = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = -40.0, 40.0
    c, d = b - shrink * (b - a), a + shrink * (b - a)
    fc, fd = dist_at(c), dist_at(d)
    while b - a > 1e-12:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - shrink * (b - a)
            fc = dist_at(c)
        else:
            a, c, fc = c, d, fd
            d = a + shrink * (b - a)
            fd = dist_at(d)
    s = 0.5 * (a + b)
    return geodesic_point(g, s), dist_at(s)


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
        distance = reference_cut_distance(step, z)
    except OverflowError as exc:
        raise MapDomainError(f"cut check failed: {exc}", step_index=i) from exc
    if distance is not None and distance <= EPS_CUT:
        raise MapDomainError(f"{z!r} is within {EPS_CUT} of a branch cut", step_index=i)


def _apply(step: MapStep, z: complex, i: int) -> complex:
    try:
        z = reference_apply(step, z)
    except (OverflowError, ZeroDivisionError) as exc:
        raise MapDomainError(f"evaluation failed: {exc}", step_index=i) from exc
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise MapDomainError("evaluation left float range", step_index=i)
    return z


def _source(chain: ConformalChain, w: complex) -> complex:
    z = complex(w)
    if not (cmath.isfinite(z) and chain.source_contains(z)):
        raise MapDomainError(f"{z!r} is outside the source region of {chain.name or 'chain'}")
    return z


def reference_eval(chain: ConformalChain, w: complex) -> complex:
    """``chain.eval(w)``, one step call at a time."""
    z = _source(chain, w)
    for i, step in enumerate(chain.steps):
        _check_cut(step, z, i)
        z = _apply(step, z, i)
    return z


def reference_eval_inverse(chain: ConformalChain, q: complex) -> complex:
    """``chain.eval_inverse(q)``, inverting each step as it is reached and
    checking each image against the cut of the step it inverts."""
    z = complex(q)
    if not (z.imag > 0.0 and cmath.isfinite(z)):
        raise MapDomainError(f"{z!r} is outside the upper half-plane")
    for i in reversed(range(len(chain.steps))):
        step = chain.steps[i].inverted()
        _check_cut(step, z, i)
        z = _apply(step, z, i)
        _check_cut(chain.steps[i], z, i)
    if not chain.source_contains(z):
        raise MapDomainError(f"{q!r} has no preimage in the source region")
    return z


def reference_derivative(chain: ConformalChain, w: complex) -> complex:
    """``chain.derivative(w)``: each step's cut check, then its
    image and derivative, then the finiteness of its image; the product is
    checked once, after the last step."""
    z = _source(chain, w)
    acc = 1.0 + 0j
    for i, step in enumerate(chain.steps):
        _check_cut(step, z, i)
        try:
            z, d = reference_value_and_derivative(step, z)
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
    if not cmath.isfinite(z):
        raise MapDomainError(f"{z!r} is outside the unit disk")
    q = CAYLEY_DISK_TO_UHP.apply(z)
    if q is None:
        raise DomainError("point maps to the Cayley pole")
    if abs(z) >= 1.0:
        raise MapDomainError(f"{z!r} is outside the unit disk")
    w = reference_eval_inverse(model.chain, q)
    df = reference_derivative(model.chain, w)
    cay = CAYLEY_DISK_TO_UHP
    dc = cay.det / (cay.c * z + cay.d) ** 2
    if model.kind == "elliptic":
        return -model.mu * w * df / dc
    return df / dc


def reference_herglotz_real(sigma: complex, lam: float, z: complex, g: complex) -> float:
    """Re(G(z)/((conj(sigma) z - 1)(z - sigma)) - (lam/2)(sigma + z)/(sigma - z)),
    the real part of the Herglotz-type function of a generator value
    ``g = G(z)`` at a repelling point sigma of rate lam, which is nonnegative
    on the disk."""
    return (g / ((sigma.conjugate() * z - 1.0) * (z - sigma))
            - 0.5 * lam * (sigma + z) / (sigma - z)).real


def reference_flow(model: KoenigsModel, z0: complex, t: float) -> OrbitPoint:
    """``semigroup.flow`` by the rule that reads the exact log gap of every
    orbit point: ``disk_z`` is None where abs(z) >= 1 or
    ``uhp_log_disk_gap(p) <= MIN_DISK_GAP``."""
    w0 = complex(z0)
    if not model.contains(w0):
        raise DomainError(f"{w0} is not in the domain of {model.name}")
    if t < 0 and not any(petal.contains(w0) for petal in model.petals):
        raise PetalRequiredError(f"backward flow from {w0} needs a petal; none contains it")
    if model.kind == "elliptic" and w0 == 0:
        return OrbitPoint(t, 0j)
    p = model.uhp_orbit(w0, t)
    q = p.value()
    if q is None:
        return OrbitPoint(t, None)
    disk_z = disk_of_uhp(q)
    if abs(disk_z) >= 1.0 or uhp_log_disk_gap(p) <= MIN_DISK_GAP:
        disk_z = None
    return OrbitPoint(t, disk_z)


# ---------------------------------------------------------------------------
# High-precision orbits: the chain's steps walked in mpmath

# Digits of the mpmath walk: a 1e-300 gap next to pi, as the parabolic
# orbit's angle has at |t| = 1e300, keeps 30 of them.
MP_DPS = 330


def _mp_branch_log(z, cut):
    """log z in mpmath with the argument taken in [cut - 2 pi, cut)."""
    a = mpmath.arg(z)
    two_pi = 2 * mpmath.pi
    while a >= cut:
        a -= two_pi
    while a < cut - two_pi:
        a += two_pi
    return mpmath.mpc(mpmath.log(abs(z)), a)


def _mp_quarters(x: float):
    """The exact multiple of pi/2 that the float x stands for: the float pi
    lies 1.2e-16 below pi, which would move a point next to a cut or a wall
    at x to its other side."""
    quarters = round(x / _HALF_PI)
    assert quarters * _HALF_PI == x, x
    return quarters * mpmath.pi / 2


def _mp_step(step: MapStep, anchor, delta):
    """One catalog chain step in mpmath on the point anchor + delta, with
    its image in the same form.  Only ``SlitCloseStep`` returns a nonzero
    anchor: its image near +-1 is s + s z^2/(1 + r), r = sqrt(1 + z^2) and
    s = +-1, which keeps the offset that s + (s r - s) would round away."""
    z = anchor + delta
    if isinstance(step, Affine):
        return 0, mpmath.mpc(step.a) * z + mpmath.mpc(step.b)
    if isinstance(step, ExpStep):
        return 0, mpmath.exp(z)
    if isinstance(step, PowerStep):
        alpha = mpmath.mpf(step.p) / step.q
        return 0, mpmath.exp(alpha * _mp_branch_log(z, _mp_quarters(step.cut)))
    if isinstance(step, SlitCloseStep):
        r = mpmath.sqrt(1 + z * z)
        s = -1 if r.imag < 0 else 1
        if abs(z) >= 1:
            return 0, s * r
        return s, s * z * z / (1 + r)
    raise TypeError(f"no mpmath form for {type(step).__name__}")


def mp_eval(chain: ConformalChain, w):
    """The image of the mpmath point w under the chain's steps as
    (anchor, delta), image = anchor + delta, at the current mpmath
    precision."""
    anchor, delta = 0, w
    for step in chain.steps:
        anchor, delta = _mp_step(step, anchor, delta)
    return anchor, delta


def mp_chart(image, w):
    """The chart of a petal image onto the upper half-plane in mpmath, at
    the current precision: a strip's exp(pi (w - i lo) / width), its walls
    at exact multiples of pi/2, not at the floats; the half-plane itself;
    and the slit plane's i sqrt(w)."""
    w = mpmath.mpc(complex(w))
    if isinstance(image, StripImage):
        lo, hi = _mp_quarters(image.lo), _mp_quarters(image.hi)
        return mpmath.exp(mpmath.pi * (w - 1j * lo) / (hi - lo))
    if isinstance(image, HalfPlaneImage):
        return w
    return 1j * mpmath.sqrt(w)


def mp_petal_distance(petal: Petal, w1: complex, w2: complex):
    """The petal's hyperbolic distance from w1 to w2, asinh(|p - q| /
    (2 sqrt(Im p Im q))) of their ``mp_chart`` points, at 400 digits."""
    with mpmath.workdps(400):
        p, q = mp_chart(petal.image, w1), mp_chart(petal.image, w2)
        return mpmath.asinh(abs(p - q) / (2 * mpmath.sqrt(p.imag * q.imag)))


def mp_canonical(model: KoenigsModel, w0: complex, t: float):
    """The canonical orbit point q = F(w_t) as (anchor, delta), q = anchor
    + delta, from mpmath closed forms of the chain's steps at the current
    mpmath precision (``mp_orbit_reading`` sets ``MP_DPS`` digits)."""
    w0 = mpmath.mpc(complex(w0))
    if model.kind == "elliptic":
        w = mpmath.exp(mpmath.log(w0) - model.mu * mpmath.mpf(t))
    else:
        w = w0 + mpmath.mpf(t)
    return mp_eval(model.chain, w)


def mp_orbit_reading(model: KoenigsModel, petal, w0: complex, t: float):
    """(log Im q, gap, (v, v_o, v_T)) of the backward orbit point q at time
    t of the petal orbit from w0, as mpf at ``MP_DPS`` digits.

    ``gap`` is min(arg, pi - arg) for the argument arg of q - sigma, or of
    q when the petal's boundary point sigma is infinite: the angle to the
    nearer side of the real axis, formed at full precision.  The distances
    are half the curvature -1 distances, as ``speeds.speed_sample`` reports
    them: v from the base image p to q; v_o along the geodesic eta from p
    to sigma, between the feet of p and q; v_T from q to eta.  A finite
    sigma is first sent to infinity by n(q) = -1/(q - sigma), formed from
    each point's (anchor, delta) as -1/((anchor - sigma) + delta), so that
    no sum next to sigma loses digits; then eta is the vertical line
    through n(p), and the translation by -Re n(p) carries it onto the
    imaginary axis, where the foot of a point u is i|u| and its distance to
    the axis asinh(|Re u| / Im u)."""
    with mpmath.workdps(MP_DPS):
        anchor0, delta0 = mp_canonical(model, w0, 0.0)
        p = anchor0 + delta0
        anchor, delta = mp_canonical(model, w0, t)
        im_q = delta.imag
        v = mpmath.log((abs(anchor - p.conjugate() + delta) + abs(anchor - p + delta))
                       / (2 * mpmath.sqrt(p.imag * im_q)))
        if petal.sigma_canonical is None:
            arg = mpmath.arg(anchor + delta)
            x0 = p.real
            n_p, n_q = p - x0, anchor - x0 + delta
        else:
            sigma = mpmath.mpf(petal.sigma_canonical)
            arg = mpmath.arg(anchor - sigma + delta)
            n_p = -1 / ((anchor0 - sigma) + delta0)
            x0 = n_p.real
            n_p, n_q = n_p - x0, -1 / ((anchor - sigma) + delta) - x0
        v_o = abs(mpmath.log(abs(n_q)) - mpmath.log(abs(n_p))) / 2
        v_t = mpmath.asinh(abs(n_q.real) / abs(n_q.imag)) / 2
        return mpmath.log(im_q), min(arg, mpmath.pi - arg), (v, v_o, v_t)


def reference_panels(t: float, t0: float) -> list[tuple[float, float]]:
    """The geometric panels of ``[t, t0]`` that ``bounds.upper_bound``
    integrates, from ``t0`` outward: ``(R b, b)`` with ``R = 1e6`` while
    ``R b`` lies above ``t``, each ``b`` the ``R b`` before it, and then
    ``(t, b)``."""
    panels = []
    b = t0
    while b * _PANEL_RATIO > t:
        panels.append((b * _PANEL_RATIO, b))
        b *= _PANEL_RATIO
    panels.append((t, b))
    return panels


def _reference_tanh_sinh(log_delta, a: float, b: float) -> float:
    """``integral_a^b exp(-log_delta(s)) ds`` by the package's tanh-sinh
    rule, calling ``log_delta`` at every node, ends included."""
    half = 0.5 * (b - a)
    total = 0.5 * math.pi * math.exp(-log_delta(a + half))
    step = 1.0
    previous = math.nan
    for level, nodes in enumerate(_tanh_sinh_levels()):
        fresh = 0.0
        for gap, weight in nodes:
            r = half * gap
            fresh += weight * (math.exp(-log_delta(a + r)) + math.exp(-log_delta(b - r)))
        if level == 0:
            total += fresh
        else:
            step *= 0.5
            total = 0.5 * total + step * fresh
        estimate = half * total
        if estimate == math.inf:
            return math.inf
        change = abs(estimate - previous)
        if level >= 3 and change <= max(_QUAD_ABS_TOL, _QUAD_REL_TOL * abs(estimate)):
            return estimate
        previous = estimate
    raise EstimationError(
        f"bounds.upper_bound: tanh-sinh quadrature on [{a}, {b}] still moved "
        f"by {change:.3e} at level {_QUAD_MAX_LEVEL}; 1/delta may not be "
        "integrable there"
    )


def reference_upper_bound(profile: BoundaryProfile, t: float) -> float:
    """``d0 + integral_t^{t0} exp(-log_delta(s)) ds`` by the package's
    tanh-sinh rule on each of ``reference_panels``, the panels added by
    ``math.fsum``, calling ``log_delta`` at every node, ends included,
    with the same nodes, sum order, stopping rule, ``inf`` on overflow and
    ``EstimationError`` text as ``bounds.upper_bound``."""
    a, b = float(t), profile.t0
    if a == b:
        return profile.d0
    try:
        return profile.d0 + math.fsum([_reference_tanh_sinh(profile.log_delta, lo, hi)
                                       for lo, hi in reference_panels(a, b)])
    except OverflowError:
        return math.inf


def reference_aitken_limit(values) -> float:
    """Aitken delta-squared over every consecutive triple of the last eight
    values, each triple's result (or its last value, where the second
    difference is 0) replacing the one before; the last value when fewer
    than three are given."""
    tail = list(values[-8:])
    best = tail[-1]
    for i in range(len(tail) - 2):
        d1 = tail[i + 1] - tail[i]
        d2 = tail[i + 2] - 2.0 * tail[i + 1] + tail[i]
        if d2 != 0.0:
            best = tail[i] - d1 * d1 / d2
        else:
            best = tail[i + 2]
    return best
