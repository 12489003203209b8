"""Composable, invertible elementary conformal map steps and chains.

A chain carries an ordered list of elementary steps linking a model domain
to one of the canonical domains, together with analytic derivatives.
Branch-carrying steps (Log, Power, the slit closure pair) store the
half-line or segment their cut occupies; chains are built so cuts stay
outside the source region, and evaluation refuses points within
``EPS_CUT`` of a cut instead of guessing a branch.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Callable

from .hypcore import CanonicalDomain, Mobius

EPS_CUT = 1e-12
_TWO_PI = 2.0 * math.pi


class MapDomainError(ValueError):
    """A point left the domain of validity of a chain or one of its steps."""

    def __init__(self, message: str, step_index: int | None = None):
        if step_index is not None:
            message = f"step {step_index}: {message}"
        super().__init__(message)
        self.step_index = step_index


def ray_distance(z: complex, angle: float) -> float:
    """Euclidean distance from z to the ray {r e^{i angle} : r >= 0}."""
    v = z * cmath.exp(-1j * angle)
    if v.real <= 0.0:
        return abs(v)
    return abs(v.imag)


def segment_distance(z: complex, a: complex, b: complex) -> float:
    """Euclidean distance from z to the closed segment [a, b]."""
    d = b - a
    den = d.real * d.real + d.imag * d.imag
    t = ((z - a).real * d.real + (z - a).imag * d.imag) / den
    t = min(1.0, max(0.0, t))
    return abs(z - (a + t * d))


def _near_cut(z: complex, i: int) -> MapDomainError:
    return MapDomainError(f"{z!r} is within {EPS_CUT} of a branch cut", step_index=i)


def _branch_log(z: complex, cut: float) -> complex:
    """log z with the argument taken in [cut - 2 pi, cut)."""
    a = cmath.phase(z)
    a = (cut - _TWO_PI) + (a - (cut - _TWO_PI)) % _TWO_PI
    return complex(math.log(abs(z)), a)


class MapStep:
    """Base class for elementary invertible conformal map steps."""

    def apply(self, z: complex) -> complex:
        raise NotImplementedError

    def derivative(self, z: complex) -> complex:
        raise NotImplementedError

    def inverted(self) -> "MapStep":
        raise NotImplementedError

    def cut_distance(self, z: complex) -> float:
        """Distance from z to this step's branch cut; inf when cut-free."""
        return math.inf


@dataclass(frozen=True)
class Affine(MapStep):
    """z -> a z + b with a != 0."""

    a: complex
    b: complex = 0j

    def __post_init__(self) -> None:
        if self.a == 0:
            raise ValueError("affine step requires a != 0")

    def apply(self, z: complex) -> complex:
        return self.a * z + self.b

    def derivative(self, z: complex) -> complex:
        return self.a

    def inverted(self) -> "Affine":
        return Affine(1.0 / self.a, -self.b / self.a)


@dataclass(frozen=True)
class ExpStep(MapStep):
    """z -> e^z."""

    def apply(self, z: complex) -> complex:
        return cmath.exp(z)

    def derivative(self, z: complex) -> complex:
        return cmath.exp(z)

    def inverted(self) -> "LogStep":
        return LogStep(math.pi)


@dataclass(frozen=True)
class LogStep(MapStep):
    """Branch of log with argument in [cut - 2 pi, cut).

    The branch cut is the ray at angle ``cut`` from the origin.
    """

    cut: float = math.pi

    def apply(self, z: complex) -> complex:
        return _branch_log(z, self.cut)

    def derivative(self, z: complex) -> complex:
        return 1.0 / z

    def inverted(self) -> ExpStep:
        return ExpStep()

    def cut_distance(self, z: complex) -> float:
        return ray_distance(z, self.cut)


@dataclass(frozen=True)
class PowerStep(MapStep):
    """z -> z^alpha on the log branch with argument in [cut - 2 pi, cut).

    alpha > 0.  The inverse step reuses the same cut; chain authors must
    arrange source regions so the image sector stays inside that branch.
    """

    alpha: float
    cut: float = math.pi

    def __post_init__(self) -> None:
        if not self.alpha > 0:
            raise ValueError("power step requires alpha > 0")

    def apply(self, z: complex) -> complex:
        return cmath.exp(self.alpha * _branch_log(z, self.cut))

    def derivative(self, z: complex) -> complex:
        return self.alpha * cmath.exp((self.alpha - 1.0) * _branch_log(z, self.cut))

    def inverted(self) -> "PowerStep":
        return PowerStep(1.0 / self.alpha, self.cut)

    def cut_distance(self, z: complex) -> float:
        return ray_distance(z, self.cut)


@dataclass(frozen=True)
class MobiusStep(MapStep):
    """Fractional linear step wrapping a hypcore Mobius map."""

    m: Mobius

    def apply(self, z: complex) -> complex:
        w = self.m.apply(z)
        if w is None:
            raise ZeroDivisionError("Mobius pole")
        return w

    def derivative(self, z: complex) -> complex:
        den = self.m.c * z + self.m.d
        if den == 0:
            raise ZeroDivisionError("Mobius pole")
        return self.m.det / (den * den)

    def inverted(self) -> "MobiusStep":
        return MobiusStep(self.m.inverse())


def _uhp_sqrt(v: complex) -> complex:
    """The square root branch with values in the closed upper half-plane."""
    s = cmath.sqrt(v)
    return -s if s.imag < 0.0 else s


@dataclass(frozen=True)
class SlitCloseStep(MapStep):
    """z -> sqrt(z^2 + 1) mapping the upper half-plane minus the segment
    (0, i] onto the upper half-plane.  The right side of the slit lands on
    (0, 1], the left side on [-1, 0), the tip i on 0."""

    def apply(self, z: complex) -> complex:
        return _uhp_sqrt(z * z + 1.0)

    def derivative(self, z: complex) -> complex:
        return z / self.apply(z)

    def inverted(self) -> "SlitOpenStep":
        return SlitOpenStep()

    def cut_distance(self, z: complex) -> float:
        return segment_distance(z, 0j, 1j)


@dataclass(frozen=True)
class SlitOpenStep(MapStep):
    """w -> sqrt(w^2 - 1), inverse of :class:`SlitCloseStep`."""

    def apply(self, z: complex) -> complex:
        return _uhp_sqrt(z * z - 1.0)

    def derivative(self, z: complex) -> complex:
        return z / self.apply(z)

    def inverted(self) -> SlitCloseStep:
        return SlitCloseStep()

    def cut_distance(self, z: complex) -> float:
        return segment_distance(z, -1.0 + 0j, 1.0 + 0j)


@dataclass(frozen=True)
class ConformalChain:
    """Ordered composition of elementary steps from a source region onto a
    canonical domain."""

    steps: tuple[MapStep, ...]
    target: CanonicalDomain
    source_contains: Callable[[complex], bool] = field(repr=False)
    name: str = ""
    # (index, inverted step) pairs in the order eval_inverse applies them.
    _inverse_steps: tuple[tuple[int, MapStep], ...] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        inverse = tuple((i, step.inverted()) for i, step in enumerate(self.steps))[::-1]
        object.__setattr__(self, "_inverse_steps", inverse)

    def eval(self, w: complex) -> complex:
        """Forward image of an interior source point."""
        z = complex(w)
        if not self.source_contains(z):
            raise MapDomainError(f"{z!r} is outside the source region of {self.name or 'chain'}")
        for i, step in enumerate(self.steps):
            if step.cut_distance(z) <= EPS_CUT:
                raise _near_cut(z, i)
            z = self._apply_step(step, z, i)
        return z

    def eval_inverse(self, q: complex) -> complex:
        """Preimage of an interior target point under the inverted steps."""
        z = complex(q)
        if not self.target.contains(z):
            raise MapDomainError(f"{z!r} is outside the target domain {self.target.value}")
        for i, step in self._inverse_steps:
            if step.cut_distance(z) <= EPS_CUT:
                raise _near_cut(z, i)
            z = self._apply_step(step, z, i)
        if not self.source_contains(z):
            raise MapDomainError(f"{q!r} has no preimage in the source region")
        return z

    def derivative(self, w: complex) -> complex:
        """Complex derivative of the composed map (chain rule product)."""
        z = complex(w)
        if not self.source_contains(z):
            raise MapDomainError(f"{z!r} is outside the source region of {self.name or 'chain'}")
        acc = 1.0 + 0j
        for i, step in enumerate(self.steps):
            if step.cut_distance(z) <= EPS_CUT:
                raise _near_cut(z, i)
            try:
                acc *= step.derivative(z)
            except (OverflowError, ZeroDivisionError) as exc:
                raise MapDomainError(f"derivative failed: {exc}", step_index=i) from exc
            z = self._apply_step(step, z, i)
            if not (math.isfinite(acc.real) and math.isfinite(acc.imag)):
                raise MapDomainError("derivative left float range", step_index=i)
        return acc

    @staticmethod
    def _apply_step(step: MapStep, z: complex, i: int) -> complex:
        """``step.apply(z)``; the caller has checked z against the step's cut."""
        try:
            z = step.apply(z)
        except (OverflowError, ZeroDivisionError) as exc:
            raise MapDomainError(f"evaluation failed: {exc}", step_index=i) from exc
        if not (math.isfinite(z.real) and math.isfinite(z.imag)):
            raise MapDomainError("evaluation left float range", step_index=i)
        return z
