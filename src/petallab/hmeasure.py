"""Harmonic measure of circular arcs and the boundary approach-angle probe.

Harmonic measure is computed in closed form on the unit disk: the measure of
an arc seen from ``z`` is the normalized angular length of its image under
the disk automorphism sending ``z`` to the origin.  The approach-angle probe
feeds a sequence of interior points converging to a boundary point into that
formula and extrapolates the limit by one Aitken delta-squared step on the
last three measures, which recovers the angle between the approach
direction and the boundary.
"""

from __future__ import annotations

import cmath
import math
from itertools import repeat
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
MIN_POINTS = 5
# Raw-measure spread over the last window beyond this is flagged inconclusive.
_SPREAD_TOL = 0.05
# Angles this close to 0 or pi (radians) count as tangential.
_TANGENT_TOL = 1e-2
# Closest approach to ``a`` at which a point still counts.  Points near the
# unit circle are rounded at about 2^-52, so the direction of p - a, which
# the measure of an arc ending at ``a`` reads, is off by about
# 2^-52 / |p - a| radians.  Points closer than 2^-52 * 1e8 (about 2.2e-8)
# would let rounding move that direction by more than 1e-8 rad.
ROUNDING_FLOOR = 2.0 ** -52 * 1e8
# A point this close to an arc's endpoint counts as that endpoint.
ENDPOINT_TOL = 1e-9


class Arc:
    """Open arc of the unit circle, counterclockwise from ``alpha`` to ``beta``.

    Angles are normalized on construction: ``alpha`` lands in ``[0, 2*pi)``
    and ``beta - alpha`` in ``(0, 2*pi)``.  A full circle or an empty arc is
    rejected; use measure 1 or 0 directly for those.  The endpoints
    ``start = exp(i*alpha)`` and ``end = exp(i*beta)`` are computed once
    here, since every harmonic measure of the arc reads both.
    """

    __slots__ = ("alpha", "beta", "start", "end")

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
        self.start = cmath.exp(1j * self.alpha)
        self.end = cmath.exp(1j * self.beta)

    def has_endpoint(self, a: complex) -> bool:
        """Whether ``a`` lies within ``ENDPOINT_TOL`` of one of the two
        endpoints."""
        a = complex(a)
        return abs(a - self.start) <= ENDPOINT_TOL or abs(a - self.end) <= ENDPOINT_TOL


def harmonic_measure(z: complex, arc: Arc) -> float:
    """Harmonic measure of ``arc`` at the interior point ``z``.

    Equals the probability that Brownian motion from ``z`` first exits the
    disk through the arc.  Computed as the normalized angular length of the
    arc's image under ``w -> (w - z) / (1 - conj(z) * w)``.
    """
    z = complex(z)
    # Written so that a NaN point fails it too.
    if not abs(z) < 1.0:
        raise DomainError(f"harmonic measure needs an interior point, got {z!r}")

    zc = z.conjugate()
    start = arc.start
    end = arc.end
    phase_a = cmath.phase((start - z) / (1.0 - zc * start))
    phase_b = cmath.phase((end - z) / (1.0 - zc * end))
    return ((phase_b - phase_a) % _TWO_PI) / _TWO_PI


class ApproachReport(NamedTuple):
    """Outcome of the approach-angle probe.

    ``theta`` is the estimated angle in ``[0, pi]`` between the incoming
    direction and the tangent ray at the endpoint that points away from the
    arc: a radial approach gives pi/2, creeping along the boundary inside
    the arc gives pi, creeping along the complement gives 0.  ``None`` when
    the probe is inconclusive, and ``reason`` then says why.
    ``measures`` records the raw harmonic measures at the leading points
    the probe kept, and ``stop`` says why it kept no more: the sequence
    ended, or the next point lies within ``ROUNDING_FLOOR`` of ``a``.
    """

    theta: Optional[float]
    measures: tuple
    reason: str
    stop: str

    @property
    def used(self) -> int:
        """How many leading points the probe kept."""
        return len(self.measures)

    @property
    def inconclusive(self) -> bool:
        return self.theta is None

    @property
    def tangential(self) -> Optional[bool]:
        """Whether ``theta`` is within 1e-2 of 0 or pi; ``None`` when
        inconclusive."""
        if self.theta is None:
            return None
        return self.theta <= _TANGENT_TOL or self.theta >= math.pi - _TANGENT_TOL


def _aitken_limit(values: Sequence[float]) -> float:
    # Aitken delta-squared on the last three values; the last value itself
    # when their second difference vanishes or fewer than three are given.
    if len(values) < 3:
        return values[-1]
    x0, x1, x2 = values[-3:]
    d2 = x2 - 2.0 * x1 + x0
    if d2 == 0.0:
        return x2
    d1 = x1 - x0
    return x0 - d1 * d1 / d2


def approach_angle(points: Sequence[complex], a: complex, arc: Arc) -> ApproachReport:
    """Estimate the angle at which ``points`` approach the boundary point ``a``.

    ``a`` must be an endpoint of ``arc``.  The sequence is cut before its
    first point within ``ROUNDING_FLOOR`` of ``a``.  The harmonic measure
    of the arc is evaluated along the rest and its limit ``omega``
    extrapolated by Aitken's delta-squared on the last three measures;
    the approach angle is ``pi * omega``.  A sequence whose
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
    measures = tuple(map(harmonic_measure, pts, repeat(arc)))

    reason = ""
    if len(pts) < MIN_POINTS:
        reason = f"need at least {MIN_POINTS} points, got {len(pts)}"
    elif abs(pts[-1] - a) > 0.05 or abs(pts[-1] - a) > abs(pts[0] - a) + 1e-12:
        reason = "sequence does not converge to the approach point"
    else:
        window = measures[-MIN_POINTS:]
        spread = max(window) - min(window)
        if spread > _SPREAD_TOL:
            reason = f"trailing measures spread {spread:.3g} exceeds {_SPREAD_TOL}"
    theta = None if reason else math.pi * min(1.0, max(0.0, _aitken_limit(measures)))
    return ApproachReport(theta, measures, reason, stop)
