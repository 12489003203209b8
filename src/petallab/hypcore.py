"""Numerically stable hyperbolic geometry in the disk and the upper half-plane.

Points are plain ``complex`` numbers; a boundary point of the half-plane
is a real ``float``, or None for infinity.  All lengths use the arctanh
normalization: the disk density is ``|dz|/(1-|z|^2)`` and the upper
half-plane density ``|dz|/(2 Im z)``.  Under this convention
``disk_distance(0, r) = arctanh(r)`` and vertical motion in the half-plane
costs half the log of the height ratio.  Other domains, a catalog petal
among them, reach these through a chart into the half-plane.

Every distance is evaluated in a subtraction-free log form, so separations
of thousands of hyperbolic units remain accurate although the underlying
cross ratios would overflow or round to 1.  For work at extreme separations
the half-plane additionally gets an anchored logarithmic representation
(:class:`UhpLogPoint`) storing ``q = anchor +- e^L``, the sign holding an
offset next to the negative axis by its small angle; distances between
such points never materialize ``q`` itself.  Their framed logs are read
modulo ``i pi``: a shift x with Re x < 0 has the log of -x taken, so that
no angle is formed next to pi.  ``uhp_log_inverted`` sends a finite
boundary point sigma to infinity, -1/(q - sigma), in the same form, exact
for a point anchored at sigma.  Where a quarter or half turn must enter
an angle, pi/2 and pi are held in two parts (``HALF_PI_LO``, ``PI_LO``),
so that the angle's gap to 0 keeps its bits.

The Cayley map between the disk and the half-plane is stated here once,
as the coefficients ``CAYLEY`` and ``CAYLEY_INVERSE`` and as
``disk_of_uhp`` with its boundary form.
"""

from __future__ import annotations

import cmath
import math

_LOG4 = math.log(4.0)
# pi = math.pi + PI_LO and pi/2 = math.pi/2 + HALF_PI_LO to twice float
# precision: x - math.pi is exact for x in [pi/2, 2 pi], and subtracting
# PI_LO then gives x's gap to the true pi.
PI_LO = 1.2246467991473532e-16
HALF_PI_LO = 6.123233995736766e-17


class DomainError(ValueError):
    """A point or boundary datum violates a domain membership precondition."""


class PrecisionError(DomainError):
    """The floats cannot hold what a valid input defines: a reading that
    ran out of range or of bits refuses instead of rounding."""


# The Cayley map C(z) = (a z + b)/(c z + d) of the unit disk onto the upper
# half-plane, 0 -> i, 1 -> infinity, -1 -> 0 (the real diameter onto the
# imaginary axis), as (a, b, c, d, a d - b c).  Its inverse
# C^-1(q) = (d q - b)/(-c q + a) has the same determinant.
_A, _B, _C, _D = 1j, 1j, -1.0 + 0j, 1.0 + 0j
CAYLEY = (_A, _B, _C, _D, _A * _D - _B * _C)
CAYLEY_INVERSE = (_D, -_B, -_C, _A, CAYLEY[4])


def disk_of_uhp(q: complex) -> complex:
    """Unit-disk point C^-1(q) of a half-plane point; ``DomainError`` at the
    pole q = -i."""
    a, b, c, d, _ = CAYLEY_INVERSE
    den = c * q + d
    if den == 0:
        raise DomainError("point maps to the Cayley pole")
    return (a * q + b) / den


def disk_of_uhp_boundary(sigma: float | None) -> complex:
    """Unit-circle point C^-1(sigma) of a boundary point of the half-plane:
    a real sigma, or None for infinity, which goes to a / c = 1."""
    if sigma is None:
        return CAYLEY_INVERSE[0] / CAYLEY_INVERSE[2]
    return disk_of_uhp(complex(sigma))


def _require_finite(*points: complex) -> None:
    for z in points:
        if not (math.isfinite(z.real) and math.isfinite(z.imag)):
            raise DomainError(f"non-finite point {z!r}")


def disk_distance(z: complex, w: complex) -> float:
    """Hyperbolic distance in the unit disk.

    Equals arctanh of the pseudo-hyperbolic ratio, computed via the
    cancellation-free form

        log(|1 - conj(z) w| + |z - w|) - (log(1-|z|^2) + log(1-|w|^2)) / 2.
    """
    z, w = complex(z), complex(w)
    _require_finite(z, w)
    gap_z = 1.0 - (z.real * z.real + z.imag * z.imag)
    if gap_z <= 0.0:
        raise DomainError(f"{z!r} is not interior to the unit disk")
    gap_w = 1.0 - (w.real * w.real + w.imag * w.imag)
    if gap_w <= 0.0:
        raise DomainError(f"{w!r} is not interior to the unit disk")
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


class UhpLogPoint:
    """Upper half-plane point in anchored log form: q = anchor + e^L, or
    q = anchor - e^L when ``neg``.

    ``anchor`` is a finite real number, or None for q = +-e^L.  Im L must lie
    in (0, pi), or in (-pi, 0) when ``neg``, so that q is interior: the sign
    holds a point next to the negative axis by its small angle, which an
    angle next to pi would lose.  ``KoenigsModel.uhp_orbit`` emits both
    forms, and so do the petal charts: an angle's gap to 0 or pi is always
    Im L itself, never a difference formed next to pi.  The representation
    survives offsets far below the float underflow threshold and radii far
    above overflow; ``log Im q`` is available exactly through
    :meth:`log_im`.
    """

    __slots__ = ("anchor", "L", "neg")
    # log Im q where the point stores it (``UhpLogBase``); a plain point
    # reads it from L.
    stored_log_im = None

    def __init__(self, anchor: float | None, L: complex, neg: bool = False) -> None:
        if neg:
            if not -math.pi < L.imag < 0.0:
                raise DomainError(f"signed log offset needs Im in (-pi, 0), got {L.imag!r}")
        elif not 0.0 < L.imag < math.pi:
            raise DomainError(f"log offset needs Im in (0, pi), got {L.imag!r}")
        if not math.isfinite(L.real):
            raise DomainError("log offset must have finite real part")
        if anchor is not None and not math.isfinite(anchor):
            raise DomainError("anchor must be finite or None")
        self.anchor = anchor
        self.L = L
        self.neg = neg

    def log_im(self) -> float:
        """log Im q = Re L + log|sin Im L|, exact in the log representation."""
        return self.L.real + math.log(abs(math.sin(self.L.imag)))

    def value(self) -> complex | None:
        """Plain complex value, or None when floats cannot represent it as an
        interior point (offset overflow, or an offset so small that the sum
        rounds onto the real anchor)."""
        if self.L.real > 700.0:
            return None
        q = -cmath.exp(self.L) if self.neg else cmath.exp(self.L)
        if self.anchor is not None:
            q += self.anchor
        return q if q.imag > 0.0 else None


class UhpLogBase(UhpLogPoint):
    """A point that other points are measured from many times, as a speed
    sample's base point is: its ``log_im()`` is read once, here, and
    ``log_im()`` and ``uhp_log_distance`` (as its first point's) return
    it without reading it again."""

    __slots__ = ("stored_log_im",)

    def __init__(self, p: UhpLogPoint) -> None:
        self.anchor, self.L, self.neg = p.anchor, p.L, p.neg
        self.stored_log_im = p.log_im()

    def log_im(self) -> float:
        return self.stored_log_im


def uhp_log_distance(p: UhpLogPoint, q: UhpLogPoint) -> float:
    """Hyperbolic half-plane distance between anchored log points.

    All magnitudes are rescaled by e^{-M}, M the largest exponent in play,
    keeping the arithmetic inside float range for hyperbolic separations of
    order 1e8 and far beyond.  Identical points return exactly 0.  A p that
    stores its log Im q (``UhpLogBase``) gives it; any other p's is read
    from its L, bit for bit the same.
    """
    pL = p.L
    qL = q.L
    pr, qr = pL.real, qL.real
    # Conditionals in place of max(), a builtin call, on the per-sample path.
    same = p.anchor == q.anchor
    if same:
        # The common anchor (or none) cancels from both |q1 - conj(q2)| and |q1 - q2|.
        m = qr if qr > pr else pr
    else:
        m = max(0.0, pr, qr)
    a = cmath.exp(pL - m)
    b = cmath.exp(qL - m)
    if p.neg:
        a = -a
    if q.neg:
        b = -b
    if not same:
        scale = math.exp(-m)
        if p.anchor is not None:
            a += p.anchor * scale
        if q.anchor is not None:
            b += q.anchor * scale
    num = abs(a - b.conjugate()) + abs(a - b)
    # Minus the mean of p.log_im() and q.log_im(), read inline.
    log_im_p = p.stored_log_im
    if log_im_p is None:
        log_im_p = pr + math.log(abs(math.sin(pL.imag)))
    d = (m + math.log(num / 2.0)) - 0.5 * (log_im_p + (qr + math.log(abs(math.sin(qL.imag)))))
    return d if d > 0.0 else 0.0


def uhp_log_framed(p: UhpLogPoint, c: complex) -> complex:
    """log(q - c) modulo i pi for q = anchor +- e^L, at the scale of L.  The
    shift x = q - c has its log taken of x, or of -x when Re x < 0, so that
    its Im lies in [-pi/2, pi/2] and an angle next to pi is read by its
    gap; a point on its anchor c reads L itself.  Callers read Im modulo
    pi."""
    L = p.L
    anchor = 0.0 if p.anchor is None else p.anchor
    a = anchor - c
    if a == 0.0:
        return L
    scale = L.real if L.real > 0.0 else 0.0
    e = cmath.exp(L - scale)
    x = a * math.exp(-scale) + (-e if p.neg else e)
    return scale + cmath.log(-x if x.real < 0.0 else x)


def uhp_log_inverted(p: UhpLogPoint, sigma: float) -> UhpLogPoint:
    """The point -1/(q - sigma), which sends the boundary point sigma to
    infinity, in log form: q - sigma is e^l, or -e^l where Im l < 0, for l
    the framed log, so the image is -+e^(-l).  A point anchored at sigma
    reads its own L, with no float that could lose q - sigma."""
    l = uhp_log_framed(p, sigma)
    return UhpLogPoint(None, -l, l.imag > 0.0)


def uhp_log_disk_gap(p: UhpLogPoint) -> float:
    """1 - |z|^2 of the disk point z = (q - i)/(q + i), as 4 Im q / |q + i|^2
    in logarithms: exact long after z rounds onto the circle; 0 on underflow."""
    log_gap = _LOG4 + p.log_im() - 2.0 * uhp_log_framed(p, -1j).real
    return math.exp(log_gap) if log_gap > -744.0 else 0.0
