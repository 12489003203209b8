"""Composable, invertible elementary conformal map steps and chains.

A chain carries an ordered list of elementary steps from a model domain
onto the upper half-plane, together with analytic derivatives.
Branch-carrying steps (Log, Power, the slit closure pair) store the
half-line or segment their cut occupies and measure points' distances to
it, ``cut_distances``; a cut-free step has ``cut_distances = None``.
Chains are built so cuts stay outside the source region, and evaluation
refuses points within ``EPS_CUT`` of a cut instead of guessing a branch.

Each step states its map once, as the list kernel ``apply_all``, beside
a derivative rule, ``derivatives(zs, ws)``, read from the points zs and
the images ws that ``apply_all`` gave them, and, on a step with a branch
cut, ``cut_distances``.  A kernel maps each point on its own, in list
order, so it raises the error that its first failing point raises alone.
The one-point ``cut_distance`` runs its kernel on a list of one.

A chain walks its steps directly: forward in order, and inverse through
the steps' inverses in reverse order, each inverse step paired with the
step it inverts.  There is one walk, ``_walk_all``, which runs one step
over a whole list of points before the next.  Handed running chain rule
products it is a derivative walk, which multiplies in each step's
``derivatives`` as part of that step's evaluation.

Both walks follow one failure rule: they raise ``MapDomainError`` at the
first check that fails, in walk order.  Per step these are its cut check,
its evaluation ("evaluation failed: <exc>"), the finiteness of its images
and, on an inverse walk, the forward step's cut check of them.  The
derivative walk then checks the products once: one that vanished or left
float range raises.  The source or target region, which holds finite
points only, is checked before the walk that starts there and after the
walk that ends there.

``eval``, ``eval_inverse``, ``derivative`` and ``inverse_and_derivative``
walk a list of one point.  The list forms ``eval_all``, ``eval_inverse_all``
and ``eval_and_derivative_all`` walk their whole list once and raise that
walk's error.  Each step maps each point on its own, so a list form
returns the per-point values bit for bit; where points fail, its error is
one that a point with the earliest failing check in walk order raises
alone, which need not be the list's first failing point.

``eval_log`` walks the steps' ``apply_log`` on a point held as
q = anchor + i^turns e^L, which keeps every bit of orbits far beyond float
range.  A quarter or half turn is counted, not added to Im L where an
angle's gap to 0 or pi would round away: a log is taken of a point turned
back by whole quarter turns, exactly, so that its Im is small; a power
step carries alpha times the turns where that is whole; and where a turn
must enter Im L, pi/2 and pi are added in two parts (``hypcore.PI_LO``).
The walk ends on ``(anchor, L, neg)``, q = anchor +- e^L.  A step holds
no rounding fallback: a point that its exact log form cannot take raises
``MapDomainError`` naming the step.
"""

from __future__ import annotations

import cmath
import math
from operator import mul
from typing import Callable, Optional, Sequence

from .hypcore import HALF_PI_LO, PI_LO, DomainError, PrecisionError

EPS_CUT = 1e-12
_TWO_PI = 2.0 * math.pi
_HALF_PI = 0.5 * math.pi
# Quarter turns of the multipliers 1, i, -1, -i, and i^-k for k = 0 ... 3.
_QUARTERS = {1: 0, 1j: 1, -1: 2, -1j: 3}
_UNTURN = (1.0, -1j, -1.0, 1j)


class MapDomainError(DomainError):
    """A point left the domain of validity of a chain or one of its steps."""

    def __init__(self, message: str, step_index: int | None = None):
        if step_index is not None:
            message = f"step {step_index}: {message}"
        super().__init__(message)
        self.step_index = step_index


def _branch_log(z: complex, cut: float) -> complex:
    """log z with the argument taken in [cut - 2 pi, cut).

    The principal argument is kept as it is when it already lies there:
    wrapping it anyway would round a small angle against cut - 2 pi."""
    a = cmath.phase(z)
    low = cut - _TWO_PI
    if not low <= a < cut:
        a = low + (a - low) % _TWO_PI
    return complex(math.log(abs(z)), a)


def _quarter_off(L: complex, turns: int) -> tuple[complex, int]:
    """(L', turns') with i^turns e^L = i^turns' e^L' for an odd ``turns``
    and an even turns': a quarter turn taken into Im L, by -pi/2 when
    Im L > pi/4 and else by pi/2, in two parts, so that Im L' lies within
    3 pi/4 of 0 and a gap to 0 or pi of the angle is formed exactly."""
    if L.imag > 0.25 * math.pi:
        return complex(L.real, (L.imag - _HALF_PI) - HALF_PI_LO), turns + 1
    return complex(L.real, (L.imag + _HALF_PI) + HALF_PI_LO), turns - 1


def _log_turned(z: complex) -> tuple[int, complex]:
    """(k, l) with z = i^k e^l and |Im l| <= pi/4: z turned back by i^-k,
    which is exact, before its log, so that an angle next to a multiple of
    pi/2 keeps its gap."""
    x, y = z.real, z.imag
    if abs(y) <= abs(x):
        return (0, cmath.log(z)) if x > 0.0 else (2, cmath.log(-z))
    return (1, cmath.log(complex(y, -x))) if y > 0.0 else (3, cmath.log(complex(-y, x)))


def _log_anchored(c: complex, L: complex) -> tuple[int, complex]:
    """(k, l) with c + e^L = i^k e^l, c != 0 and k 0 or 2: log(c + e^L), or
    log(-(c + e^L)) when its real part is negative, with no e^L that could
    overflow."""
    if L.real > 36.0:
        return 0, L + cmath.log(1.0 + c * cmath.exp(-L))
    x = cmath.exp(L) + c
    return (2, cmath.log(-x)) if x.real < 0.0 else (0, cmath.log(x))


def _no_log_form(step: "MapStep", why: str) -> MapDomainError:
    return MapDomainError(f"confmap.{type(step).__name__}.apply_log: {why}")


class MapStep:
    """Base class for elementary invertible conformal map steps.

    A step states its map once, as the list kernel ``apply_all``, with a
    derivative rule ``derivatives`` read from its images and, on a step
    with a branch cut, ``cut_distances``.  ``cut_distance`` runs the last
    on a list of one."""

    __slots__ = ()

    # The distances from points to the step's branch cut, a method of each
    # step that carries one; None for a cut-free step.
    cut_distances: Optional[Callable[[Sequence[complex]], list[float]]] = None

    def apply_all(self, zs: Sequence[complex]) -> list[complex]:
        """The images of the points zs."""
        raise NotImplementedError

    def derivatives(self, zs: Sequence[complex], ws: list[complex]) -> list[complex]:
        """The step's derivatives at the points zs, whose images
        ``apply_all(zs)`` are ws."""
        raise NotImplementedError

    def cut_distance(self, z: complex) -> float:
        """The distance from z to the branch cut of a step that has one."""
        return self.cut_distances((z,))[0]

    def inverted(self) -> "MapStep":
        raise NotImplementedError

    def apply_log(self, anchor, L, turns):
        """Image of the log-walk point q = anchor + i^turns e^L, as a triple
        ``(anchor, L, turns)`` of the same form; anchor None stands for 0
        and L None for e^L = 0, so (z, None, 0) is the plain point z.  A
        step with no exact log form refuses the point."""
        raise _no_log_form(self, "the step has no exact log form")


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

    def apply_all(self, zs: Sequence[complex]) -> list[complex]:
        a, b = self.a, self.b
        return [a * z + b for z in zs]

    def derivatives(self, zs: Sequence[complex], ws: list[complex]) -> list[complex]:
        return [self.a] * len(zs)

    def apply_log(self, anchor, L, turns):
        if L is None:
            return self.a * anchor + self.b, None, 0
        # a (c + i^k e^L) + b = (a c + b) + i^(k + j) e^L for a = i^j; any
        # other a would add its angle to Im L.
        if self._quarter is None:
            raise _no_log_form(self, f"multiplier {self.a!r} is no quarter turn")
        anchor = self.b if anchor is None else self.a * anchor + self.b
        return anchor or None, L, turns + self._quarter

    def inverted(self) -> "Affine":
        return Affine(1.0 / self.a, -self.b / self.a)


class ExpStep(MapStep):
    """z -> e^z."""

    __slots__ = ()

    def apply_all(self, zs: Sequence[complex]) -> list[complex]:
        return list(map(cmath.exp, zs))

    def derivatives(self, zs: Sequence[complex], ws: list[complex]) -> list[complex]:
        return ws

    def apply_log(self, anchor, L, turns):
        # e^q is held by its log, q itself.
        if L is not None:
            raise _no_log_form(self, "e^q of a log point has no exact log form")
        return None, anchor, 0

    def inverted(self) -> "LogStep":
        return LogStep(math.pi)


class _RayCutStep(MapStep):
    """A step whose branch cut is the ray at angle ``cut`` from the origin."""

    __slots__ = ("cut", "_rot")

    def __init__(self, cut: float = math.pi) -> None:
        self.cut = cut
        # e^{-i cut}, which turns the cut onto the positive real axis.
        self._rot = cmath.exp(-1j * cut)

    def cut_distances(self, zs: Sequence[complex]) -> list[float]:
        rot = self._rot
        return [abs(v) if v.real <= 0.0 else abs(v.imag) for v in map(rot.__mul__, zs)]


class LogStep(_RayCutStep):
    """Branch of log with argument in [cut - 2 pi, cut).

    The branch cut is the ray at angle ``cut`` from the origin.  A chain
    reaches this step only as the inverse of :class:`ExpStep`, so it has
    no inverse of its own.
    """

    __slots__ = ()

    def apply_all(self, zs: Sequence[complex]) -> list[complex]:
        cut = self.cut
        return [_branch_log(z, cut) for z in zs]

    def derivatives(self, zs: Sequence[complex], ws: list[complex]) -> list[complex]:
        # 1/z fails only at z = 0, where the log has failed first.
        return [1.0 / z for z in zs]


class PowerStep(_RayCutStep):
    """z -> z^alpha, alpha = p / q, on the log branch with argument in
    [cut - 2 pi, cut).

    p and q are positive integers, kept exact beside the float ``alpha``.
    The inverse step reuses the same cut; chain authors must arrange source
    regions so the image sector stays inside that branch.
    """

    __slots__ = ("p", "q", "alpha", "_turns")

    def __init__(self, p: int, q: int, cut: float = math.pi) -> None:
        if not (isinstance(p, int) and isinstance(q, int) and p > 0 and q > 0):
            raise ValueError(f"power step requires positive integers p and q, got {p!r}, {q!r}")
        super().__init__(cut)
        self.p = p
        self.q = q
        self.alpha = p / q
        # alpha k quarter turns, modulo 4, for the k mod 4 q where alpha k
        # is whole; None where it is not.
        self._turns = tuple((p * k // q) % 4 if p * k % q == 0 else None
                            for k in range(4 * q))

    def apply_all(self, zs: Sequence[complex]) -> list[complex]:
        alpha, cut = self.alpha, self.cut
        return [cmath.exp(alpha * _branch_log(z, cut)) for z in zs]

    def derivatives(self, zs: Sequence[complex], ws: list[complex]) -> list[complex]:
        alpha = self.alpha
        # alpha w / z, with |z| divided out of w and of z apart: the
        # quotient w / z sums w's parts, which overflows where |w| nears
        # the float limit although w and the derivative are finite.
        return [alpha * (w / r) * (z.conjugate() / r) for z, w, r in zip(zs, ws, map(abs, zs))]

    def apply_log(self, anchor, L, turns):
        # q = i^k e^l, with l's Im small where it can be.
        if L is None:
            k, l = _log_turned(anchor)
        elif anchor is None:
            k, l = turns, L
        else:
            # c + i^turns e^L = i^turns (c i^-turns + e^L), the turn exact.
            k, l = _log_anchored(anchor * _UNTURN[turns % 4], L)
            k += turns
        # The angle k pi/2 + Im l, placed on the branch [cut - 2 pi, cut)
        # by whole turns of k.  Its offset from the cut is formed with
        # k pi/2 - cut first, which is exact for a cut at a multiple of
        # pi/2, so that an angle next to the cut keeps its side.
        k -= 4 * (math.floor(((k * _HALF_PI - self.cut) + l.imag) / _TWO_PI) + 1)
        whole = self._turns[k % len(self._turns)]
        if whole is None:
            return None, complex(self.alpha * l.real, self.alpha * (k * _HALF_PI + l.imag)), 0
        return None, self.alpha * l, whole

    def inverted(self) -> "PowerStep":
        return PowerStep(self.q, self.p, self.cut)


def _uhp_sqrts(vs: Sequence[complex]) -> list[complex]:
    """The square roots of vs on the branch with values in the closed upper
    half-plane."""
    return [-s if s.imag < 0.0 else s for s in map(cmath.sqrt, vs)]


class SlitCloseStep(MapStep):
    """z -> sqrt(z^2 + 1) mapping the upper half-plane minus the segment
    (0, i] onto the upper half-plane.  The right side of the slit lands on
    (0, 1], the left side on [-1, 0), the tip i on 0."""

    __slots__ = ()

    def apply_all(self, zs: Sequence[complex]) -> list[complex]:
        return _uhp_sqrts([z * z + 1.0 for z in zs])

    def derivatives(self, zs: Sequence[complex], ws: list[complex]) -> list[complex]:
        # z / w fails at the slit tip, where w = 0.
        return [z / w for z, w in zip(zs, ws)]

    def apply_log(self, anchor, L, turns):
        if anchor is not None or L is None or turns % 4 != 1 or abs(L.imag) >= _HALF_PI:
            raise _no_log_form(self, "needs z = i e^L with |Im L| < pi/2")
        # z = i e^L, so z^2 + 1 = 1 - e^{2L}.
        tw = 2.0 * L
        if tw.real > 0.0:
            # Far from the slit tip the image grows like i e^L.
            L, turns = _quarter_off(L, turns)
            return None, L + 0.5 * cmath.log(1.0 - cmath.exp(-tw)), turns
        if tw.real == -math.inf:
            raise PrecisionError(
                f"confmap.SlitCloseStep.apply_log: 2 Re L is past float range at L = {L!r}")
        root = cmath.sqrt(1.0 - cmath.exp(tw))  # exp(tw) underflowing to 0 is harmless
        # Left of the slit the image hugs -1, -1 + e^(2L)/(1 + root); right
        # of it, +1, 1 - e^(2L)/(1 + root).  A half turn moves 2 Im L next
        # to +-pi onto its gap.
        anchor, turns = (-1.0, 0) if L.imag > 0.0 else (1.0, 2)
        if tw.imag > _HALF_PI:
            tw = complex(tw.real, (tw.imag - math.pi) - PI_LO)
            turns += 2
        elif tw.imag < -_HALF_PI:
            tw = complex(tw.real, (tw.imag + math.pi) + PI_LO)
            turns += 2
        return anchor, tw - cmath.log(1.0 + root), turns

    def inverted(self) -> "SlitOpenStep":
        return SlitOpenStep()

    def cut_distances(self, zs: Sequence[complex]) -> list[float]:
        # Distances to the segment [0, i]: Im z clamped onto [0, 1].  A NaN
        # passes through, and abs raises OverflowError past float range.
        return [abs(z - 1j) if z.imag > 1.0 else abs(z.real) if z.imag > 0.0 else abs(z)
                for z in zs]


class SlitOpenStep(MapStep):
    """w -> sqrt(w^2 - 1), inverse of :class:`SlitCloseStep`; a chain
    reaches it only as that inverse, so it has none of its own."""

    __slots__ = ()

    def apply_all(self, zs: Sequence[complex]) -> list[complex]:
        return _uhp_sqrts([z * z - 1.0 for z in zs])

    derivatives = SlitCloseStep.derivatives

    def cut_distances(self, zs: Sequence[complex]) -> list[float]:
        # Distances to the segment [-1, 1]: Re z clamped onto [-1, 1].  A NaN
        # passes through, and abs raises OverflowError past float range.
        return [abs(z - 1.0) if z.real > 1.0 else abs(z.imag) if z.real >= -1.0 else abs(z + 1.0)
                for z in zs]


# A chain's walk: (step index, step walked, forward step or None) triples;
# an inverse walk's forward step is the one its step inverts.
_Walk = tuple[tuple[int, MapStep, Optional[MapStep]], ...]


def _check_cuts(step: MapStep, zs: Sequence[complex], i: int) -> None:
    """Refuse the first point of zs within EPS_CUT of the cut of step (index
    i), or past float range; a cut-free step refuses none.  One pass over
    the whole list finds whether any point fails, and only then a scan
    point by point finds the first."""
    cut_distances = step.cut_distances
    if cut_distances is None:
        return
    try:
        if not any(map(EPS_CUT.__ge__, cut_distances(zs))):
            return
    except OverflowError:
        pass
    for z in zs:
        try:
            near = step.cut_distance(z) <= EPS_CUT
        except OverflowError as exc:
            raise MapDomainError(f"cut check failed: {exc}", step_index=i) from exc
        if near:
            raise MapDomainError(f"{z!r} is within {EPS_CUT} of a branch cut", step_index=i)


def _targets(qs: Sequence[complex]) -> list[complex]:
    """qs as complex numbers, the first outside the upper half-plane (or
    not finite) refused."""
    zs = list(map(complex, qs))
    isfinite = cmath.isfinite
    for z in zs:
        if not (z.imag > 0.0 and isfinite(z)):
            raise MapDomainError(f"{z!r} is outside the upper half-plane")
    return zs


class ConformalChain:
    """Ordered composition of elementary steps from a source region onto
    the upper half-plane."""

    __slots__ = ("steps", "source_contains", "name", "_forward", "_inverse", "_log_plan")

    def __init__(self, steps: tuple[MapStep, ...],
                 source_contains: Callable[[complex], bool], name: str = "") -> None:
        self.steps = steps
        self.source_contains = source_contains
        self.name = name
        # The walks of eval/derivative and of eval_inverse, built once.
        self._forward: _Walk = tuple((i, step, None) for i, step in enumerate(steps))
        self._inverse: _Walk = tuple((i, steps[i].inverted(), steps[i])
                                     for i in reversed(range(len(steps))))
        # eval_log's bound apply_log methods.  eval_log is the per-sample
        # path of deep orbits, where a loop over enumerate(steps) costs about
        # a tenth more a call (1.43 against 1.29 us on an Intel Xeon).
        self._log_plan = tuple((i, step.apply_log) for i, step in enumerate(steps))

    def _sources(self, ws: Sequence[complex]) -> list[complex]:
        """ws as complex numbers, the first outside the source region (or not
        finite) refused."""
        zs = list(map(complex, ws))
        isfinite, source_contains = cmath.isfinite, self.source_contains
        for z in zs:
            if not (isfinite(z) and source_contains(z)):
                raise MapDomainError(f"{z!r} is outside the source region of {self.name or 'chain'}")
        return zs

    def _preimages(self, qs: Sequence[complex], ws: Sequence[complex]) -> Sequence[complex]:
        """The preimages ws of the targets qs, the first outside the source
        region refused."""
        source_contains = self.source_contains
        for q, w in zip(qs, ws):
            if not source_contains(w):
                raise MapDomainError(f"{q!r} has no preimage in the source region")
        return ws

    def eval(self, w: complex) -> complex:
        """Forward image of an interior source point."""
        return _walk_all(self._forward, self._sources((w,)))[0]

    def eval_inverse(self, q: complex) -> complex:
        """Preimage of an interior target point under the inverted steps."""
        return self._preimages((q,), _walk_all(self._inverse, _targets((q,))))[0]

    def derivative(self, w: complex) -> complex:
        """Complex derivative of the composed map (chain rule product)."""
        accs = [1.0 + 0j]
        _walk_all(self._forward, self._sources((w,)), accs)
        return accs[0]

    def inverse_and_derivative(self, q: complex) -> tuple[complex, complex]:
        """Preimage w of an interior target point q and the derivative
        dw/dq of the inverse map there, from one inverse walk, which also
        checks each preimage against its forward step's cut."""
        accs = [1.0 + 0j]
        ws = _walk_all(self._inverse, _targets((q,)), accs)
        return self._preimages((q,), ws)[0], accs[0]

    def eval_all(self, ws: Sequence[complex]) -> list[complex]:
        """The values of ``[self.eval(w) for w in ws]`` from one list walk."""
        return _walk_all(self._forward, self._sources(ws))

    def eval_inverse_all(self, qs: Sequence[complex]) -> list[complex]:
        """The values of ``[self.eval_inverse(q) for q in qs]`` from one
        list walk."""
        return self._preimages(qs, _walk_all(self._inverse, _targets(qs)))

    def eval_and_derivative_all(
        self, ws: Sequence[complex]
    ) -> tuple[Sequence[complex], list[complex]]:
        """The lists ``[self.eval(w) for w in ws]`` and
        ``[self.derivative(w) for w in ws]``, as one ``(values,
        derivatives)`` pair from one forward list walk."""
        zs = self._sources(ws)
        accs = [1.0 + 0j] * len(zs)
        return _walk_all(self._forward, zs, accs), accs

    def eval_log(self, anchor: complex, L: Optional[complex] = None, turns: int = 0) -> tuple:
        """The image of the source point anchor + i^turns e^L (L None: the
        point ``anchor``) as the upper half-plane point anchor +- e^L,
        returned as ``(anchor, L, neg)``, minus when ``neg``: the turns the
        walk carried end as the sign, and an odd turn's quarter enters Im L
        in two parts.  Branches follow from the exact log form, so no cut
        is checked; the caller checks the source point."""
        for i, apply_log in self._log_plan:
            try:
                anchor, L, turns = apply_log(anchor, L, turns)
            except (OverflowError, ZeroDivisionError) as exc:
                raise MapDomainError(f"evaluation failed: {exc}", step_index=i) from exc
        if L is None:
            raise MapDomainError("confmap.ConformalChain.eval_log: the walk ends on a plain "
                                 "point, which has no log form")
        if turns % 2:
            L, turns = _quarter_off(L, turns)
        return anchor, L, turns % 4 == 2


def _walk_all(walk: _Walk, zs: list[complex],
              accs: Optional[list[complex]] = None) -> list[complex]:
    """Images of the points zs under the steps of a walk, one step over the
    whole list at a time: its cut check, its ``apply_all`` (and, given the
    running chain rule products accs, its ``derivatives``, multiplied into
    accs in place), the finiteness of its images and, on an inverse walk,
    the forward step's cut check of them, each over every point before the
    next.  Each product must end nonzero and finite."""
    for i, step, forward in walk:
        _check_cuts(step, zs, i)
        try:
            ws = step.apply_all(zs)
            if accs is not None:
                accs[:] = map(mul, accs, step.derivatives(zs, ws))
        except (OverflowError, ZeroDivisionError) as exc:
            raise MapDomainError(f"evaluation failed: {exc}", step_index=i) from exc
        if not all(map(cmath.isfinite, ws)):
            raise MapDomainError("evaluation left float range", step_index=i)
        if forward is not None:
            _check_cuts(forward, ws, i)
        zs = ws
    if accs is not None and not (all(accs) and all(map(cmath.isfinite, accs))):
        raise MapDomainError("derivative vanished or left float range")
    return zs
