"""Harmonic measure of circular arcs and the boundary approach-angle probe.

Harmonic measure is computed in closed form on the unit disk: the measure of
an arc seen from ``z`` is the normalized angular length of its image under
the disk automorphism sending ``z`` to the origin.  The approach-angle probe
feeds a sequence of interior points converging to a boundary point into that
formula and extrapolates the limit, which recovers the angle between the
approach direction and the boundary.
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple, Optional, Sequence

from .hypcore import DomainError

__all__ = [
    "Arc",
    "ApproachReport",
    "harmonic_measure",
    "approach_angle",
]

_TWO_PI = 2.0 * math.pi

# An approach sequence shorter than this cannot support the spread check.
_MIN_POINTS = 5
# Raw-measure spread over the last window beyond this is flagged inconclusive.
_SPREAD_TOL = 0.05
# Extrapolation window for the limiting measure.
_TAIL_LEN = 8
# Angles this close to 0 or pi (radians) count as tangential.
_TANGENT_TOL = 1e-2
# Closest approach to ``a`` at which a point still counts.  Points near the
# unit circle are rounded at about 2^-52, so the direction of p - a, which
# the measure of an arc ending at ``a`` reads, is off by about
# 2^-52 / |p - a| radians.  Points closer than 2^-52 * 1e8 (about 2.2e-8)
# would let rounding move that direction by more than 1e-8 rad.
ROUNDING_FLOOR = 2.0 ** -52 * 1e8


class Arc:
    """Open arc of the unit circle, counterclockwise from ``alpha`` to ``beta``.

    Angles are normalized on construction: ``alpha`` lands in ``[0, 2*pi)``
    and ``beta - alpha`` in ``(0, 2*pi)``.  A full circle or an empty arc is
    rejected; use measure 1 or 0 directly for those.
    """

    __slots__ = ("alpha", "beta")

    def __init__(self, alpha: float, beta: float) -> None:
        alpha = float(alpha)
        beta = float(beta)
        if not (math.isfinite(alpha) and math.isfinite(beta)):
            raise DomainError("arc endpoints must be finite angles")
        span = (beta - alpha) % _TWO_PI
        if span == 0.0:
            raise DomainError(
                "arc endpoints coincide modulo 2*pi; an arc must have "
                "length strictly between 0 and 2*pi"
            )
        self.alpha = alpha % _TWO_PI
        self.beta = self.alpha + span

    @property
    def length(self) -> float:
        """Angular length, in (0, 2*pi)."""
        return self.beta - self.alpha

    @property
    def start(self) -> complex:
        """Endpoint ``exp(i*alpha)`` on the unit circle."""
        return cmath.exp(1j * self.alpha)

    @property
    def end(self) -> complex:
        """Endpoint ``exp(i*beta)`` on the unit circle."""
        return cmath.exp(1j * self.beta)

    def has_endpoint(self, a: complex, tol: float = 1e-9) -> bool:
        """Whether ``a`` coincides with one of the two endpoints."""
        a = complex(a)
        return abs(a - self.start) <= tol or abs(a - self.end) <= tol


def harmonic_measure(z: complex, arc: Arc) -> float:
    """Harmonic measure of ``arc`` at the interior point ``z``.

    Equals the probability that Brownian motion from ``z`` first exits the
    disk through the arc.  Computed as the normalized angular length of the
    arc's image under ``w -> (w - z) / (1 - conj(z) * w)``.
    """
    z = complex(z)
    if abs(z) >= 1.0:
        raise DomainError(f"harmonic measure needs an interior point, got {z!r}")

    def moved(w: complex) -> complex:
        return (w - z) / (1.0 - z.conjugate() * w)

    phase_a = cmath.phase(moved(arc.start))
    phase_b = cmath.phase(moved(arc.end))
    return ((phase_b - phase_a) % _TWO_PI) / _TWO_PI


class ApproachReport(NamedTuple):
    """Outcome of the approach-angle probe.

    ``theta`` is the estimated angle in ``[0, pi]`` between the incoming
    direction and the tangent ray at the endpoint that points away from the
    arc: a radial approach gives pi/2, creeping along the boundary inside
    the arc gives pi, creeping along the complement gives 0.  ``None`` when
    the probe is inconclusive.
    ``measures`` records the raw harmonic measures along the sequence.
    ``tangential`` is ``True`` when ``theta`` is within 1e-2 of 0 or pi,
    ``None`` when inconclusive.  ``used`` counts the leading points the
    probe kept, and ``stop`` says why it kept no more: the sequence ended,
    or the next point lies within ``ROUNDING_FLOOR`` of ``a``.
    """

    theta: Optional[float]
    measures: tuple
    inconclusive: bool
    tangential: Optional[bool]
    reason: str = ""
    used: int = 0
    stop: str = ""


def _aitken_limit(values: Sequence[float]) -> float:
    # Aitken delta-squared on the trailing window; falls back to the last
    # raw value when every second difference vanishes.
    tail = list(values[-_TAIL_LEN:])
    best = tail[-1]
    for i in range(len(tail) - 2):
        d1 = tail[i + 1] - tail[i]
        d2 = tail[i + 2] - 2.0 * tail[i + 1] + tail[i]
        if d2 != 0.0:
            best = tail[i] - d1 * d1 / d2
        else:
            best = tail[i + 2]
    return best


def approach_angle(points: Sequence[complex], a: complex, arc: Arc) -> ApproachReport:
    """Estimate the angle at which ``points`` approach the boundary point ``a``.

    ``a`` must be an endpoint of ``arc``.  The sequence is cut before its
    first point within ``ROUNDING_FLOOR`` of ``a``.  The harmonic measure
    of the arc is evaluated along the rest and its limit ``omega``
    extrapolated; the approach angle is ``pi * omega``.  A sequence whose
    trailing measures spread by more than 0.05, or which does not tend to
    ``a``, yields an inconclusive report instead of a number.
    """
    a = complex(a)
    if abs(abs(a) - 1.0) > 1e-9:
        raise DomainError(f"approach point must lie on the unit circle, got {a!r}")
    if not arc.has_endpoint(a):
        raise DomainError("approach point must be an endpoint of the arc")

    pts = []
    stop = "sequence ended"
    for p in points:
        p = complex(p)
        if abs(p - a) < ROUNDING_FLOOR:
            stop = f"point {len(pts)} within {ROUNDING_FLOOR:.3g} of the approach point"
            break
        pts.append(p)
    measures = tuple(harmonic_measure(p, arc) for p in pts)

    def inconclusive(reason: str) -> ApproachReport:
        return ApproachReport(
            theta=None,
            measures=measures,
            inconclusive=True,
            tangential=None,
            reason=reason,
            used=len(pts),
            stop=stop,
        )

    if len(pts) < _MIN_POINTS:
        return inconclusive(f"need at least {_MIN_POINTS} points, got {len(pts)}")

    gap_last = abs(pts[-1] - a)
    gap_first = abs(pts[0] - a)
    if gap_last > 0.05 or gap_last > gap_first + 1e-12:
        return inconclusive("sequence does not converge to the approach point")

    window = measures[-_MIN_POINTS:]
    spread = max(window) - min(window)
    if spread > _SPREAD_TOL:
        return inconclusive(
            f"trailing measures spread {spread:.3g} exceeds {_SPREAD_TOL}"
        )

    omega = _aitken_limit(measures)
    omega = min(1.0, max(0.0, omega))
    theta = math.pi * omega
    tangential = theta <= _TANGENT_TOL or theta >= math.pi - _TANGENT_TOL
    return ApproachReport(
        theta=theta,
        measures=measures,
        inconclusive=False,
        tangential=tangential,
        used=len(pts),
        stop=stop,
    )
