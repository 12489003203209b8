"""Composable, invertible elementary conformal map steps and chains.

A chain carries an ordered list of elementary steps from a model domain
onto the upper half-plane, together with analytic derivatives.
Branch-carrying steps (Log, Power, the slit closure pair) store the
half-line or segment their cut occupies; chains are built so cuts stay
outside the source region, and evaluation refuses points within
``EPS_CUT`` of a cut instead of guessing a branch.

Each step has one derivative, ``value_and_derivative``, which evaluates
what its image and derivative share once.  Each chain builds its plans at
construction: the forward plan for its steps, the inverse plan for their
inverses in reverse order, and the log plan of the steps' ``apply_log``
(see ``_PlanEntry``).  ``eval`` and ``eval_inverse`` walk a plan with
``apply`` (``_walk``); ``derivative`` and ``inverse_and_derivative`` walk
one with ``value_and_derivative`` (``_walk_with_derivative``), the latter
giving a target point's preimage and the derivative of the inverse map at
once.

Every walk follows one failure rule: it raises ``MapDomainError`` at the
first check that fails, in walk order.  Per step these are its cut check,
its evaluation ("evaluation failed: <exc>"), the finiteness of its image
and, on an inverse walk, the forward step's cut check of that image.  A
derivative walk then checks the product once: one that vanished or left
float range raises.  The source or target region is checked before the
walk that starts there and after the walk that ends there.

``eval_log`` walks the log plan on a point held as q = anchor + i^turns
e^L, which keeps every bit of orbits far beyond float range: a quarter
turn is counted, not added to Im L where small angles would round away.
"""

from __future__ import annotations

import cmath
import math
from typing import Callable, Optional

from .hypcore import DomainError

EPS_CUT = 1e-12
_TWO_PI = 2.0 * math.pi
_HALF_PI = 0.5 * math.pi
# Quarter turns of the multipliers 1, i, -1, -i.
_QUARTERS = {1: 0, 1j: 1, -1: 2, -1j: 3}


class MapDomainError(DomainError):
    """A point left the domain of validity of a chain or one of its steps."""

    def __init__(self, message: str, step_index: int | None = None):
        if step_index is not None:
            message = f"step {step_index}: {message}"
        super().__init__(message)
        self.step_index = step_index


def _rotated_ray_distance(z: complex, rot: complex) -> float:
    """Distance from z to the ray at angle a, given rot = e^{-i a}."""
    v = z * rot
    if v.real <= 0.0:
        return abs(v)
    return abs(v.imag)


def _branch_log(z: complex, cut: float) -> complex:
    """log z with the argument taken in [cut - 2 pi, cut)."""
    a = cmath.phase(z)
    a = (cut - _TWO_PI) + (a - (cut - _TWO_PI)) % _TWO_PI
    return complex(math.log(abs(z)), a)


def _value(anchor: Optional[complex], L: Optional[complex], turns: int) -> complex:
    """The float value of the log-walk point anchor + i^turns e^L."""
    q = 0j if anchor is None else anchor
    return q if L is None else q + 1j ** (turns % 4) * cmath.exp(L)


def _turned(L: complex, turns: int) -> complex:
    """L + i (pi/2) turns, with turns taken in {-1, 0, 1, 2}."""
    k = (turns + 1) % 4 - 1
    return L + 1j * (_HALF_PI * k) if k else L


def _log_anchored(c: complex, L: complex) -> complex:
    """Principal log(c + e^L), c != 0, with no e^L that could overflow."""
    if L.real > 36.0:
        return L + cmath.log(1.0 + c * cmath.exp(-L))
    return cmath.log(cmath.exp(L) + c)


class MapStep:
    """Base class for elementary invertible conformal map steps."""

    __slots__ = ()

    def apply(self, z: complex) -> complex:
        raise NotImplementedError

    def value_and_derivative(self, z: complex) -> tuple[complex, complex]:
        """``apply(z)`` and the step's derivative at z, from one evaluation
        of what the two share."""
        raise NotImplementedError

    def inverted(self) -> "MapStep":
        raise NotImplementedError

    def apply_log(self, anchor, L, turns):
        """Image of the log-walk point q = anchor + i^turns e^L, as a triple
        ``(anchor, L, turns)`` of the same form; anchor None stands for 0
        and L None for e^L = 0, so (z, None, 0) is the plain point z.  By
        default q is formed as a float and ``apply`` taken of it."""
        return self.apply(_value(anchor, L, turns)), None, 0

    def cut_distance(self, z: complex) -> float:
        """Distance from z to this step's branch cut; inf when cut-free."""
        return math.inf


class Affine(MapStep):
    """z -> a z + b with a != 0."""

    __slots__ = ("a", "b", "_quarter")

    def __init__(self, a: complex, b: complex = 0j) -> None:
        if a == 0:
            raise ValueError("affine step requires a != 0")
        self.a = a
        self.b = b
        # j with a = i^j, None for any other multiplier.
        self._quarter = _QUARTERS.get(a)

    def apply(self, z: complex) -> complex:
        return self.a * z + self.b

    def value_and_derivative(self, z: complex) -> tuple[complex, complex]:
        return self.a * z + self.b, self.a

    def apply_log(self, anchor, L, turns):
        if L is None:
            return self.a * anchor + self.b, None, 0
        # a (c + i^k e^L) + b = (a c + b) + i^(k + j) e^L for a = i^j, and
        # (a c + b) + i^k e^(L + log a) for any other a.
        anchor = self.b if anchor is None else self.a * anchor + self.b
        if self._quarter is None:
            return anchor or None, L + cmath.log(self.a), turns
        return anchor or None, L, turns + self._quarter

    def inverted(self) -> "Affine":
        return Affine(1.0 / self.a, -self.b / self.a)


class ExpStep(MapStep):
    """z -> e^z."""

    __slots__ = ()

    def apply(self, z: complex) -> complex:
        return cmath.exp(z)

    def value_and_derivative(self, z: complex) -> tuple[complex, complex]:
        w = cmath.exp(z)
        return w, w

    def apply_log(self, anchor, L, turns):
        # e^q is held by its log, q itself.
        return None, anchor if L is None else _value(anchor, L, turns), 0

    def inverted(self) -> "LogStep":
        return LogStep(math.pi)


class LogStep(MapStep):
    """Branch of log with argument in [cut - 2 pi, cut).

    The branch cut is the ray at angle ``cut`` from the origin.
    """

    __slots__ = ("cut", "_rot")

    def __init__(self, cut: float = math.pi) -> None:
        self.cut = cut
        # e^{-i cut}, which turns the cut onto the positive real axis.
        self._rot = cmath.exp(-1j * cut)

    def apply(self, z: complex) -> complex:
        return _branch_log(z, self.cut)

    def value_and_derivative(self, z: complex) -> tuple[complex, complex]:
        return _branch_log(z, self.cut), 1.0 / z

    def inverted(self) -> ExpStep:
        return ExpStep()

    def cut_distance(self, z: complex) -> float:
        return _rotated_ray_distance(z, self._rot)


class PowerStep(MapStep):
    """z -> z^alpha on the log branch with argument in [cut - 2 pi, cut).

    alpha > 0.  The inverse step reuses the same cut; chain authors must
    arrange source regions so the image sector stays inside that branch.
    """

    __slots__ = ("alpha", "cut", "_rot")

    def __init__(self, alpha: float, cut: float = math.pi) -> None:
        if not alpha > 0:
            raise ValueError("power step requires alpha > 0")
        self.alpha = alpha
        self.cut = cut
        # e^{-i cut}, which turns the cut onto the positive real axis.
        self._rot = cmath.exp(-1j * cut)

    def apply(self, z: complex) -> complex:
        return cmath.exp(self.alpha * _branch_log(z, self.cut))

    def value_and_derivative(self, z: complex) -> tuple[complex, complex]:
        log_z = _branch_log(z, self.cut)
        d = self.alpha * cmath.exp((self.alpha - 1.0) * log_z)
        return cmath.exp(self.alpha * log_z), d

    def apply_log(self, anchor, L, turns):
        if L is None:
            log_q = _branch_log(anchor, self.cut)
        else:
            L = _turned(L, turns)
            log_q = L if anchor is None else _log_anchored(anchor, L)
            low = self.cut - _TWO_PI
            if not low <= log_q.imag < self.cut:
                log_q = complex(log_q.real, low + (log_q.imag - low) % _TWO_PI)
        return None, self.alpha * log_q, 0

    def inverted(self) -> "PowerStep":
        return PowerStep(1.0 / self.alpha, self.cut)

    def cut_distance(self, z: complex) -> float:
        return _rotated_ray_distance(z, self._rot)


def _uhp_sqrt(v: complex) -> complex:
    """The square root branch with values in the closed upper half-plane."""
    s = cmath.sqrt(v)
    return -s if s.imag < 0.0 else s


class SlitCloseStep(MapStep):
    """z -> sqrt(z^2 + 1) mapping the upper half-plane minus the segment
    (0, i] onto the upper half-plane.  The right side of the slit lands on
    (0, 1], the left side on [-1, 0), the tip i on 0."""

    __slots__ = ()

    def apply(self, z: complex) -> complex:
        return _uhp_sqrt(z * z + 1.0)

    def value_and_derivative(self, z: complex) -> tuple[complex, complex]:
        w = _uhp_sqrt(z * z + 1.0)
        return w, z / w

    def apply_log(self, anchor, L, turns):
        if anchor is not None or L is None or turns % 2 == 0 or abs(L.imag) >= _HALF_PI:
            return super().apply_log(anchor, L, turns)
        # z = +-i e^L with |Im L| < pi/2, so z^2 + 1 = 1 - e^{2L}.
        tw = 2.0 * L
        if tw.real > 0.0:
            # Far from the slit tip the image grows like i e^L.
            return None, L + 1j * _HALF_PI + 0.5 * cmath.log(1.0 - cmath.exp(-tw)), 0
        root = cmath.sqrt(1.0 - cmath.exp(tw))  # exp(tw) underflowing to 0 is harmless
        if L.imag > 0.0:
            # Left of the slit: the image hugs -1.
            return -1.0, tw - cmath.log(1.0 + root), 0
        # Right of the slit: the image hugs +1.
        return 1.0, tw + 1j * math.pi - cmath.log(1.0 + root), 0

    def inverted(self) -> "SlitOpenStep":
        return SlitOpenStep()

    def cut_distance(self, z: complex) -> float:
        # Distance to the segment [0, i]: clamp Im z onto [0, 1].
        return abs(complex(z.real, z.imag - min(1.0, max(0.0, z.imag))))


class SlitOpenStep(MapStep):
    """w -> sqrt(w^2 - 1), inverse of :class:`SlitCloseStep`."""

    __slots__ = ()

    def apply(self, z: complex) -> complex:
        return _uhp_sqrt(z * z - 1.0)

    def value_and_derivative(self, z: complex) -> tuple[complex, complex]:
        w = _uhp_sqrt(z * z - 1.0)
        return w, z / w

    def inverted(self) -> SlitCloseStep:
        return SlitCloseStep()

    def cut_distance(self, z: complex) -> float:
        # Distance to the segment [-1, 1]: clamp Re z onto [-1, 1].
        return abs(complex(z.real - min(1.0, max(-1.0, z.real)), z.imag))


# One entry of a chain's walk: (step index, apply, cut_distance or None for
# a cut-free step, value_and_derivative, forward cut), all bound to the step.
# The forward cut of an inverse plan entry is the cut_distance of the step
# it inverts (None when that step is cut-free); forward plan entries hold None.
_PlanEntry = tuple[
    int,
    Callable[[complex], complex],
    Optional[Callable[[complex], float]],
    Callable[[complex], tuple[complex, complex]],
    Optional[Callable[[complex], float]],
]


def _cut_of(step: MapStep) -> Optional[Callable[[complex], float]]:
    """A step's bound ``cut_distance``, or None for a cut-free step."""
    has_cut = type(step).cut_distance is not MapStep.cut_distance
    return step.cut_distance if has_cut else None


def _plan(walked) -> tuple[_PlanEntry, ...]:
    """Plan entries of (index, step walked, forward step or None) triples."""
    return tuple((i, step.apply, _cut_of(step), step.value_and_derivative,
                  None if forward is None else _cut_of(forward))
                 for i, step, forward in walked)


def _check_cut(cut_distance: Callable[[complex], float], z: complex, i: int) -> None:
    """Refuse z within EPS_CUT of step i's cut, or past float range."""
    try:
        near = cut_distance(z) <= EPS_CUT
    except OverflowError as exc:
        raise MapDomainError(f"cut check failed: {exc}", step_index=i) from exc
    if near:
        raise MapDomainError(f"{z!r} is within {EPS_CUT} of a branch cut", step_index=i)


class ConformalChain:
    """Ordered composition of elementary steps from a source region onto
    the upper half-plane."""

    __slots__ = ("steps", "source_contains", "name",
                 "_forward_plan", "_inverse_plan", "_log_plan")

    def __init__(self, steps: tuple[MapStep, ...],
                 source_contains: Callable[[complex], bool], name: str = "") -> None:
        self.steps = steps
        self.source_contains = source_contains
        self.name = name
        # The walks of eval/derivative, of eval_inverse and of eval_log, built once.
        self._forward_plan = _plan((i, step, None) for i, step in enumerate(steps))
        self._inverse_plan = _plan((i, steps[i].inverted(), steps[i])
                                   for i in reversed(range(len(steps))))
        self._log_plan = tuple((i, step.apply_log) for i, step in enumerate(steps))

    def eval(self, w: complex) -> complex:
        """Forward image of an interior source point."""
        z = complex(w)
        if not self.source_contains(z):
            raise MapDomainError(f"{z!r} is outside the source region of {self.name or 'chain'}")
        return _walk(self._forward_plan, z)

    def eval_inverse(self, q: complex) -> complex:
        """Preimage of an interior target point under the inverted steps."""
        z = complex(q)
        if not z.imag > 0.0:
            raise MapDomainError(f"{z!r} is outside the upper half-plane")
        z = _walk(self._inverse_plan, z)
        if not self.source_contains(z):
            raise MapDomainError(f"{q!r} has no preimage in the source region")
        return z

    def derivative(self, w: complex) -> complex:
        """Complex derivative of the composed map (chain rule product).

        The package itself takes ``inverse_and_derivative``; this stays only
        because perfbench's tracer wraps it by name."""
        z = complex(w)
        if not self.source_contains(z):
            raise MapDomainError(f"{z!r} is outside the source region of {self.name or 'chain'}")
        return _walk_with_derivative(self._forward_plan, z)[1]

    def inverse_and_derivative(self, q: complex) -> tuple[complex, complex]:
        """Preimage w of an interior target point q and the derivative
        dw/dq of the inverse map there, from one walk of the inverse plan,
        which also checks each preimage against its forward step's cut."""
        z = complex(q)
        if not z.imag > 0.0:
            raise MapDomainError(f"{z!r} is outside the upper half-plane")
        z, dw = _walk_with_derivative(self._inverse_plan, z)
        if not self.source_contains(z):
            raise MapDomainError(f"{q!r} has no preimage in the source region")
        return z, dw

    def eval_log(self, anchor: complex, L: Optional[complex] = None) -> tuple:
        """The image of the source point anchor + e^L (L None: the point
        ``anchor``) as the upper half-plane point anchor + e^L, returned as
        ``(anchor, L)``.  Branches follow from the exact log form, so no cut
        is checked; the caller checks the source point."""
        turns = 0
        for i, apply_log in self._log_plan:
            try:
                anchor, L, turns = apply_log(anchor, L, turns)
            except (OverflowError, ZeroDivisionError) as exc:
                raise MapDomainError(f"evaluation failed: {exc}", step_index=i) from exc
        if L is None:
            return None, cmath.log(anchor)
        return anchor, _turned(L, turns) if turns else L


def _walk(plan: tuple[_PlanEntry, ...], z: complex) -> complex:
    """Image of z under the steps of a plan, each checked against its cut
    and its image checked to be a finite float."""
    for i, apply, cut_distance, _, _ in plan:
        if cut_distance is not None:
            _check_cut(cut_distance, z, i)
        try:
            z = apply(z)
        except (OverflowError, ZeroDivisionError) as exc:
            raise MapDomainError(f"evaluation failed: {exc}", step_index=i) from exc
        if not cmath.isfinite(z):
            raise MapDomainError("evaluation left float range", step_index=i)
    return z


def _walk_with_derivative(plan: tuple[_PlanEntry, ...], z: complex) -> tuple[complex, complex]:
    """``_walk`` with each step's ``value_and_derivative``: the image of z
    and the chain rule product of the steps' derivatives.  An inverse plan
    entry's image is also checked against its forward step's cut."""
    acc = 1.0 + 0j
    for i, _, cut_distance, value_and_derivative, forward_cut in plan:
        if cut_distance is not None:
            _check_cut(cut_distance, z, i)
        try:
            z, d = value_and_derivative(z)
        except (OverflowError, ZeroDivisionError) as exc:
            raise MapDomainError(f"evaluation failed: {exc}", step_index=i) from exc
        if not cmath.isfinite(z):
            raise MapDomainError("evaluation left float range", step_index=i)
        if forward_cut is not None:
            _check_cut(forward_cut, z, i)
        acc *= d
    if not (acc and cmath.isfinite(acc)):
        raise MapDomainError("derivative vanished or left float range")
    return z, acc
