"""Numerically stable hyperbolic geometry in the three canonical domains.

Points are plain ``complex`` numbers; the point at infinity is expressed
only through :class:`BoundaryPoint`.  All lengths use the arctanh
normalization: the disk density is ``|dz|/(1-|z|^2)``, the upper half-plane
density ``|dz|/(2 Im z)``, the strip density ``|dz|/(2 cos(Im z))``.  Under
this convention ``disk_distance(0, r) = arctanh(r)`` and vertical motion in
the half-plane costs half the log of the height ratio.

Every distance is evaluated in a subtraction-free log form, so separations
of thousands of hyperbolic units remain accurate although the underlying
cross ratios would overflow or round to 1.  For work at extreme separations
the half-plane additionally gets an anchored logarithmic representation
(:class:`UhpLogPoint`) storing ``q = anchor + e^L``; distances between such
points never materialize ``q`` itself.
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple

_HALF_PI = 0.5 * math.pi


class DomainError(ValueError):
    """A point or boundary datum violates a domain membership precondition."""


class BoundaryPoint(NamedTuple):
    """A boundary datum: a finite complex value, or None for infinity."""

    value: complex | None = None

    @property
    def is_infinity(self) -> bool:
        return self.value is None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if self.value is None:
            return "BoundaryPoint(infinity)"
        return f"BoundaryPoint({self.value!r})"


INFINITY = BoundaryPoint(None)


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


# Standard transports between the canonical domains.  CAYLEY_DISK_TO_UHP
# sends 0 -> i, 1 -> infinity, -1 -> 0, the real diameter to the imaginary
# axis.
CAYLEY_DISK_TO_UHP = Mobius(1j, 1j, -1.0 + 0j, 1.0 + 0j)
CAYLEY_UHP_TO_DISK = CAYLEY_DISK_TO_UHP.inverse()


def _require_finite(*points: complex) -> None:
    for z in points:
        if not (math.isfinite(z.real) and math.isfinite(z.imag)):
            raise DomainError(f"non-finite point {z!r}")


def disk_distance(z: complex, w: complex,
                  gap_z: float | None = None,
                  gap_w: float | None = None) -> float:
    """Hyperbolic distance in the unit disk.

    Equals arctanh of the pseudo-hyperbolic ratio, computed via the
    cancellation-free form

        log(|1 - conj(z) w| + |z - w|) - (log(1-|z|^2) + log(1-|w|^2)) / 2.

    ``gap_z`` and ``gap_w`` optionally supply ``1 - |z|^2`` and ``1 - |w|^2``
    exactly.  Supplying a gap overrides the interior check for that argument,
    which lets callers measure to points whose float value has already
    rounded onto the boundary circle while the true gap is still known.
    """
    z, w = complex(z), complex(w)
    _require_finite(z, w)
    if gap_z is None:
        gap_z = 1.0 - (z.real * z.real + z.imag * z.imag)
        if gap_z <= 0.0:
            raise DomainError(f"{z!r} is not interior to the unit disk")
    if gap_w is None:
        gap_w = 1.0 - (w.real * w.real + w.imag * w.imag)
        if gap_w <= 0.0:
            raise DomainError(f"{w!r} is not interior to the unit disk")
    if gap_z <= 0.0 or gap_w <= 0.0:
        raise DomainError("boundary gaps must be positive")
    num = abs(1.0 - z.conjugate() * w) + abs(z - w)
    # max guards the tiny negative rounding residue of near-identical points
    return max(0.0, math.log(num) - 0.5 * (math.log(gap_z) + math.log(gap_w)))


def uhp_distance(x: complex, y: complex) -> float:
    """Hyperbolic distance in the upper half-plane (density |dz|/(2 Im z)).

    Uses the identity |x - conj(y)|^2 - |x - y|^2 = 4 Im x Im y to avoid the
    subtractive cancellation of the textbook cross-ratio form:

        d = log((|x - conj(y)| + |x - y|) / 2) - (log Im x + log Im y) / 2.
    """
    x, y = complex(x), complex(y)
    _require_finite(x, y)
    if x.imag <= 0.0 or y.imag <= 0.0:
        raise DomainError("half-plane points must have positive imaginary part")
    num = abs(x - y.conjugate()) + abs(x - y)
    return max(0.0, math.log(num / 2.0) - 0.5 * (math.log(x.imag) + math.log(y.imag)))


def strip_distance(z: complex, w: complex) -> float:
    """Hyperbolic distance in the strip {|Im z| < pi/2}.

    Pushed through z -> i e^z into the half-plane formula, with exponentials
    scaled by m = max(Re z, Re w) so that widely separated arguments neither
    overflow nor lose the leading term: for real z, w the value is exactly
    |Re z - Re w| / 2 in the large-separation limit.
    """
    z, w = complex(z), complex(w)
    _require_finite(z, w)
    if abs(z.imag) >= _HALF_PI or abs(w.imag) >= _HALF_PI:
        raise DomainError("strip points must satisfy |Im z| < pi/2")
    m = max(z.real, w.real)
    a = cmath.exp(z - m)
    b = cmath.exp(w - m)
    num = abs(a + b.conjugate()) + abs(a - b)
    tz = z.real + math.log(math.cos(z.imag))
    tw = w.real + math.log(math.cos(w.imag))
    return max(0.0, (m + math.log(num / 2.0)) - 0.5 * (tz + tw))


class UhpLogPoint:
    """Upper half-plane point in anchored log form: q = anchor + e^L.

    ``anchor`` is a finite real number, or None for q = e^L.  Im L must lie
    in (0, pi) so that q is interior.  The representation survives offsets
    far below the float underflow threshold and radii far above overflow;
    ``log Im q`` is available exactly through :meth:`log_im`.
    """

    __slots__ = ("anchor", "L")

    def __init__(self, anchor: float | None, L: complex) -> None:
        if not 0.0 < L.imag < math.pi:
            raise DomainError(f"log offset needs Im in (0, pi), got {L.imag!r}")
        if not math.isfinite(L.real):
            raise DomainError("log offset must have finite real part")
        if anchor is not None and not math.isfinite(anchor):
            raise DomainError("anchor must be finite or None")
        self.anchor = anchor
        self.L = L

    def log_im(self) -> float:
        """log Im q = Re L + log sin Im L, exact in the log representation."""
        return self.L.real + math.log(math.sin(self.L.imag))

    def value(self) -> complex | None:
        """Plain complex value, or None when floats cannot represent it as an
        interior point (offset overflow, or an offset so small that the sum
        rounds onto the real anchor)."""
        if self.L.real > 700.0:
            return None
        q = cmath.exp(self.L)
        if self.anchor is not None:
            q += self.anchor
        return q if q.imag > 0.0 else None


def uhp_log_distance(p: UhpLogPoint, q: UhpLogPoint) -> float:
    """Hyperbolic half-plane distance between anchored log points.

    All magnitudes are rescaled by e^{-M}, M the largest exponent in play,
    keeping the arithmetic inside float range for hyperbolic separations of
    order 1e8 and far beyond.  Identical points return exactly 0.
    """
    shared = (p.anchor is None and q.anchor is None) or (
        p.anchor is not None and q.anchor is not None and p.anchor == q.anchor)
    if shared:
        # The common anchor cancels from both |q1 - conj(q2)| and |q1 - q2|.
        m = max(p.L.real, q.L.real)
        a = cmath.exp(p.L - m)
        b = cmath.exp(q.L - m)
        num = abs(a - b.conjugate()) + abs(a - b)
        return max(0.0, (m + math.log(num / 2.0)) - 0.5 * (p.log_im() + q.log_im()))
    m = max(0.0, p.L.real, q.L.real)
    scale = math.exp(-m)
    pa = 0.0 if p.anchor is None else p.anchor * scale
    qa = 0.0 if q.anchor is None else q.anchor * scale
    v1 = pa + cmath.exp(p.L - m)
    v2 = qa + cmath.exp(q.L - m)
    cv2 = qa + cmath.exp(q.L.conjugate() - m)
    num = abs(v1 - cv2) + abs(v1 - v2)
    return max(0.0, (m + math.log(num / 2.0)) - 0.5 * (p.log_im() + q.log_im()))


def axis_distance(theta: float) -> float:
    """Distance from a half-plane point with argument ``theta`` to the
    imaginary-axis geodesic: |log tan(theta/2)| / 2, with foot at i|q|."""
    if not 0.0 < theta < math.pi:
        raise DomainError(f"argument must lie in (0, pi), got {theta!r}")
    return 0.5 * math.log((1.0 + abs(math.cos(theta))) / math.sin(theta))
