"""Composable, invertible elementary conformal map steps and chains.

A chain carries an ordered list of elementary steps linking a model domain
to one of the canonical domains, together with analytic derivatives.
Branch-carrying steps (Log, Power, the slit closure pair) store the
half-line or segment their cut occupies; chains are built so cuts stay
outside the source region, and evaluation refuses points within
``EPS_CUT`` of a cut instead of guessing a branch.

Each chain builds two plans once, at construction: the forward plan for
its steps and the inverse plan for their inverses in reverse order.  A
plan entry holds a step's index and its bound ``apply``, ``cut_distance``
(None for a step with no cut, whose check is skipped) and
``value_and_derivative``.  ``eval`` and ``eval_inverse`` walk a plan with
``apply``; ``derivative`` walks the forward plan with
``value_and_derivative``, which evaluates a step's shared transcendental
once for both its image and its derivative.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

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
    return _rotated_ray_distance(z, cmath.exp(-1j * angle))


def _rotated_ray_distance(z: complex, rot: complex) -> float:
    """Distance from z to the ray at angle a, given rot = e^{-i a}."""
    v = z * rot
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

    def value_and_derivative(self, z: complex) -> tuple[complex, complex]:
        """``(apply(z), derivative(z))``; steps whose image and derivative
        share work override it to do that work once."""
        # The derivative goes first, as the chain rule loop always took it,
        # so that a point where both fail raises the derivative's error.
        d = self.derivative(z)
        return self.apply(z), d

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

    def value_and_derivative(self, z: complex) -> tuple[complex, complex]:
        w = cmath.exp(z)
        return w, w

    def inverted(self) -> "LogStep":
        return LogStep(math.pi)


@dataclass(frozen=True)
class LogStep(MapStep):
    """Branch of log with argument in [cut - 2 pi, cut).

    The branch cut is the ray at angle ``cut`` from the origin.
    """

    cut: float = math.pi
    # e^{-i cut}, which turns the cut onto the positive real axis.
    _rot: complex = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_rot", cmath.exp(-1j * self.cut))

    def apply(self, z: complex) -> complex:
        return _branch_log(z, self.cut)

    def derivative(self, z: complex) -> complex:
        return 1.0 / z

    def inverted(self) -> ExpStep:
        return ExpStep()

    def cut_distance(self, z: complex) -> float:
        return _rotated_ray_distance(z, self._rot)


@dataclass(frozen=True)
class PowerStep(MapStep):
    """z -> z^alpha on the log branch with argument in [cut - 2 pi, cut).

    alpha > 0.  The inverse step reuses the same cut; chain authors must
    arrange source regions so the image sector stays inside that branch.
    """

    alpha: float
    cut: float = math.pi
    # e^{-i cut}, which turns the cut onto the positive real axis.
    _rot: complex = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.alpha > 0:
            raise ValueError("power step requires alpha > 0")
        object.__setattr__(self, "_rot", cmath.exp(-1j * self.cut))

    def apply(self, z: complex) -> complex:
        return cmath.exp(self.alpha * _branch_log(z, self.cut))

    def derivative(self, z: complex) -> complex:
        return self.alpha * cmath.exp((self.alpha - 1.0) * _branch_log(z, self.cut))

    def value_and_derivative(self, z: complex) -> tuple[complex, complex]:
        log_z = _branch_log(z, self.cut)
        d = self.alpha * cmath.exp((self.alpha - 1.0) * log_z)
        return cmath.exp(self.alpha * log_z), d

    def inverted(self) -> "PowerStep":
        return PowerStep(1.0 / self.alpha, self.cut)

    def cut_distance(self, z: complex) -> float:
        return _rotated_ray_distance(z, self._rot)


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

    def value_and_derivative(self, z: complex) -> tuple[complex, complex]:
        w = _uhp_sqrt(z * z + 1.0)
        return w, z / w

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

    def value_and_derivative(self, z: complex) -> tuple[complex, complex]:
        w = _uhp_sqrt(z * z - 1.0)
        return w, z / w

    def inverted(self) -> SlitCloseStep:
        return SlitCloseStep()

    def cut_distance(self, z: complex) -> float:
        return segment_distance(z, -1.0 + 0j, 1.0 + 0j)


# One entry of a chain's walk: (step index, apply, cut_distance or None for
# a cut-free step, value_and_derivative), all bound to the step.
_PlanEntry = tuple[
    int,
    Callable[[complex], complex],
    Optional[Callable[[complex], float]],
    Callable[[complex], tuple[complex, complex]],
]


def _plan(indexed_steps) -> tuple[_PlanEntry, ...]:
    plan = []
    for i, step in indexed_steps:
        has_cut = type(step).cut_distance is not MapStep.cut_distance
        plan.append((i, step.apply, step.cut_distance if has_cut else None,
                     step.value_and_derivative))
    return tuple(plan)


def _fused_failure(step: MapStep, z: complex, i: int, exc: ArithmeticError) -> MapDomainError:
    """The error of a failed ``value_and_derivative`` at z, named as the
    derivative-then-apply order names it: the derivative's failure if
    ``derivative`` fails at z, else the image's."""
    try:
        step.derivative(z)
    except (OverflowError, ZeroDivisionError) as d_exc:
        return MapDomainError(f"derivative failed: {d_exc}", step_index=i)
    return MapDomainError(f"evaluation failed: {exc}", step_index=i)


@dataclass(frozen=True)
class ConformalChain:
    """Ordered composition of elementary steps from a source region onto a
    canonical domain."""

    steps: tuple[MapStep, ...]
    target: CanonicalDomain
    source_contains: Callable[[complex], bool] = field(repr=False)
    name: str = ""
    # The walks of eval/derivative and of eval_inverse, built once.
    _forward_plan: tuple[_PlanEntry, ...] = field(init=False, repr=False, compare=False)
    _inverse_plan: tuple[_PlanEntry, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        forward = _plan(enumerate(self.steps))
        inverse = _plan((i, self.steps[i].inverted()) for i in reversed(range(len(self.steps))))
        object.__setattr__(self, "_forward_plan", forward)
        object.__setattr__(self, "_inverse_plan", inverse)

    def eval(self, w: complex) -> complex:
        """Forward image of an interior source point."""
        z = complex(w)
        if not self.source_contains(z):
            raise MapDomainError(f"{z!r} is outside the source region of {self.name or 'chain'}")
        return _walk(self._forward_plan, z)

    def eval_inverse(self, q: complex) -> complex:
        """Preimage of an interior target point under the inverted steps."""
        z = complex(q)
        if not self.target.contains(z):
            raise MapDomainError(f"{z!r} is outside the target domain {self.target.value}")
        z = _walk(self._inverse_plan, z)
        if not self.source_contains(z):
            raise MapDomainError(f"{q!r} has no preimage in the source region")
        return z

    def derivative(self, w: complex) -> complex:
        """Complex derivative of the composed map (chain rule product)."""
        z = complex(w)
        if not self.source_contains(z):
            raise MapDomainError(f"{z!r} is outside the source region of {self.name or 'chain'}")
        acc = 1.0 + 0j
        for i, _, cut_distance, value_and_derivative in self._forward_plan:
            if cut_distance is not None and cut_distance(z) <= EPS_CUT:
                raise _near_cut(z, i)
            try:
                image, d = value_and_derivative(z)
            except (OverflowError, ZeroDivisionError) as exc:
                raise _fused_failure(self.steps[i], z, i, exc) from exc
            acc *= d
            if not cmath.isfinite(image):
                raise MapDomainError("evaluation left float range", step_index=i)
            if not cmath.isfinite(acc):
                raise MapDomainError("derivative left float range", step_index=i)
            z = image
        return acc


def _walk(plan: tuple[_PlanEntry, ...], z: complex) -> complex:
    """Image of z under the steps of a plan, each checked against its cut
    and its image checked to be a finite float."""
    for i, apply, cut_distance, _ in plan:
        if cut_distance is not None and cut_distance(z) <= EPS_CUT:
            raise _near_cut(z, i)
        try:
            z = apply(z)
        except (OverflowError, ZeroDivisionError) as exc:
            raise MapDomainError(f"evaluation failed: {exc}", step_index=i) from exc
        if not cmath.isfinite(z):
            raise MapDomainError("evaluation left float range", step_index=i)
    return z
