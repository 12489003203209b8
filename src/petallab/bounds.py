"""Two-sided hyperbolic distance bounds from a boundary-distance profile.

A profile prescribes the euclidean distance ``delta(t)`` from a backward
trajectory to the domain boundary at time ``t <= t0``, together with the
hyperbolic distance ``d0`` already accumulated at ``t0``.  The upper bound
integrates ``1/delta`` along the trajectory; the lower bound is the
separation forced by the thinnest of the two endpoints' boundary gaps.

A profile stores only the logarithm ``log_delta`` of its gap, so that
bounds remain computable when ``delta`` itself underflows (the gaussian
profile's gap is float zero already near t = -27 while its logarithm stays
exact).

A profile without a closed-form antiderivative is integrated over
geometric panels ``[t0 R^(k+1), t0 R^k]``, ``k = 0, 1, ..``, with one
constant ratio ``R = _PANEL_RATIO = 1e6``; the last panel ends at ``t``, and
a range with ``t / t0 <= R`` is one panel.  One rule over all of
``[t, t0]`` would spread its nodes over ``|t|`` and miss the mass of
``1/delta`` next to ``t0`` once ``|t|`` is far larger; a panel only grows
with its distance from ``t0``.  ``math.fsum`` adds the panels.  Each
panel ``[a, b]`` is integrated by a fixed
tanh-sinh rule (Takahasi and Mori, 1974) on ``exp(-log_delta)``: nodes
``x = tanh(pi/2 sinh(j h))`` on steps ``h = 2^-k``, ``k = 0..8``, each level
halving the step of the one before.  The rule stops at the first ``k >= 3``
whose estimate moves by at most ``max(1e-10, 1e-12 |I_k|)`` and raises
``EstimationError`` when no level gets there, as happens when ``1/delta``
is not integrable.  Nodes close in on the endpoints down to gaps of 1e-300,
so about half of them round onto ``a`` or ``b`` exactly; those reuse the
endpoint's integrand, evaluated once per panel, and every node's term and
the order of the sum stay as they were.  Gaps fall strictly within a
level, so the nodes that round onto both endpoints are the level's last
ones, each adding ``weight * (f(a) + f(b))`` with the weights falling.  A
level ends once one of those terms leaves its sum unchanged: a later term
is no larger, so rounding to nearest leaves the sum unchanged by it too,
and the rule returns the bits it would return by adding every node.
"""

from __future__ import annotations

import bisect
import functools
import math
import sys
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

from .hypcore import DomainError
from .speeds import EstimationError

__all__ = [
    "BoundaryProfile",
    "logrecip_profile",
    "gaussian_profile",
    "custom_profile",
    "profile_from_table",
    "profile_from_file",
    "upper_bound",
    "lower_bound",
    "bound_ratio_series",
]

# Guard for the lower bound: once log(gap ratio) exceeds this, expanding
# log1p(exp(Y)) around Y avoids forming exp(Y) at all.
_LOG_GUARD = 23.0
# Absolute target of the quadrature for profiles without a closed-form
# integral; _QUAD_REL_TOL is the relative one.
_QUAD_ABS_TOL = 1e-10
_QUAD_REL_TOL = 1e-12
# The rule's finest level is h = 2^-_QUAD_MAX_LEVEL; every level stops
# where the node weight drops below _QUAD_MIN_WEIGHT.
_QUAD_MAX_LEVEL = 8
_QUAD_MIN_WEIGHT = 1e-300
# Ratio of the ends of each geometric panel of the quadrature.
_PANEL_RATIO = 1e6


@functools.cache
def _tanh_sinh_levels() -> Tuple[Tuple[Tuple[float, float], ...], ...]:
    """Nodes of the tanh-sinh rule on [-1, 1], one tuple per level, built on
    the first quadrature: only a profile without an antiderivative reads them.

    Level 0 holds the nodes ``u = j`` for ``j >= 1``; level ``k >= 1`` only
    the odd ``j`` of step ``2^-k``, which are new at that level.  A node is
    ``(gap, weight)``: ``gap = 1 - tanh(v) = 2/(e^{2v}+1)`` with
    ``v = pi/2 sinh u`` is its distance to the nearer endpoint, taken in
    this complementary form so that nodes next to an endpoint never round
    onto it, and ``weight = dx/du = pi/2 cosh(u) gap (2 - gap)``.  The
    centre node (gap 1, weight pi/2) is left to the caller.
    """
    levels = []
    for k in range(_QUAD_MAX_LEVEL + 1):
        h = 2.0**-k
        stride = 1 if k == 0 else 2
        nodes = []
        j = 1
        while True:
            u = j * h
            decay = math.exp(-math.pi * math.sinh(u))  # e^{-2v}
            gap = 2.0 * decay / (1.0 + decay)
            weight = 0.5 * math.pi * math.cosh(u) * gap * (2.0 - gap)
            if weight < _QUAD_MIN_WEIGHT:
                break
            nodes.append((gap, weight))
            j += stride
        levels.append(tuple(nodes))
    return tuple(levels)


class BoundaryProfile:
    """Boundary-distance profile ``delta`` on ``(-inf, t0]``, stored as its
    log gap.

    ``log_delta`` is the exact logarithm of the gap, which must be positive
    for every ``t <= t0``; the bounds read the gap only through it.
    ``inv_delta_antiderivative``, when present, is a closed-form
    antiderivative of ``1/delta`` used instead of quadrature.
    ``judged_by_lower`` marks the gaussian profile, whose upper bound is
    infinite almost at once: its bound ratios read the lower bound, held
    to the gaussian window.  ``gaussian_profile`` sets it; a name does not.
    """

    __slots__ = ("name", "t0", "d0", "log_delta", "inv_delta_antiderivative",
                 "judged_by_lower")

    def __init__(
        self,
        name: str,
        t0: float,
        d0: float,
        log_delta: Callable[[float], float],
        inv_delta_antiderivative: Optional[Callable[[float], float]] = None,
        judged_by_lower: bool = False,
    ) -> None:
        if not (math.isfinite(t0) and t0 < 0.0):
            raise DomainError(f"profile anchor time must be negative, got {t0}")
        if not (math.isfinite(d0) and d0 >= 0.0):
            raise DomainError(f"anchor distance must be nonnegative, got {d0}")
        if not math.isfinite(log_delta(t0)):
            raise DomainError("profile must have a positive gap at its anchor time")
        self.name = name
        self.t0 = t0
        self.d0 = d0
        self.log_delta = log_delta
        self.inv_delta_antiderivative = inv_delta_antiderivative
        self.judged_by_lower = judged_by_lower


def logrecip_profile(t0: float = -math.e, d0: float = 1.0) -> BoundaryProfile:
    """Profile ``delta(t) = 1 / log(-t)``, defined for ``t0 <= -e``."""
    if not t0 <= -math.e:
        raise DomainError(f"logrecip profile needs t0 <= -e, got {t0}")

    def log_delta(t: float) -> float:
        return -math.log(math.log(-t))

    def antiderivative(s: float) -> float:
        # integral of 1/delta = log(-s)
        return s * math.log(-s) - s

    return BoundaryProfile(
        name="logrecip",
        t0=float(t0),
        d0=float(d0),
        log_delta=log_delta,
        inv_delta_antiderivative=antiderivative,
    )


def gaussian_profile(t0: float = -1.0, d0: float = 1.0) -> BoundaryProfile:
    """Profile ``delta(t) = -t * exp(-t^2)``, defined for ``t0 < 0``."""
    if not t0 < 0.0:
        raise DomainError(f"gaussian profile needs t0 < 0, got {t0}")

    def log_delta(t: float) -> float:
        return math.log(-t) - t * t

    return BoundaryProfile(
        name="gaussian",
        t0=float(t0),
        d0=float(d0),
        log_delta=log_delta,
        judged_by_lower=True,
    )


def custom_profile(
    delta: Callable[[float], float],
    t0: float,
    d0: float = 1.0,
    log_delta: Optional[Callable[[float], float]] = None,
    name: str = "custom",
) -> BoundaryProfile:
    """Wrap an arbitrary positive gap function as a profile.

    The profile keeps only a log gap: ``log_delta`` when given, which
    leaves ``delta`` unread, else ``log(delta(t))``, which raises
    ``DomainError`` at a time where the gap is not positive and finite.
    """
    if log_delta is None:

        def log_delta(t: float) -> float:
            gap = delta(t)
            if not 0.0 < gap < math.inf:
                raise DomainError(
                    f"bounds: profile {name!r} has gap {gap!r} at t = {t!r}; "
                    "it must be positive and finite"
                )
            return math.log(gap)

    return BoundaryProfile(
        name=name,
        t0=float(t0),
        d0=float(d0),
        log_delta=log_delta,
    )


def profile_from_table(
    rows: Sequence[Tuple[float, float]],
    t0: Optional[float] = None,
    d0: float = 1.0,
) -> BoundaryProfile:
    """Custom profile from ``(t, delta)`` samples, interpolated in log delta."""
    if len(rows) < 2:
        raise DomainError("profile table needs at least two rows")
    pairs = sorted((float(t), float(d)) for t, d in rows)
    ts = [t for t, _ in pairs]
    deltas = [d for _, d in pairs]
    finite = all(math.isfinite(t) for t in ts)
    if not finite or any(b <= a for a, b in zip(ts, ts[1:])):
        raise DomainError("profile table times must be finite and distinct")
    if any(d <= 0.0 for d in deltas) or not all(math.isfinite(d) for d in deltas):
        raise DomainError("profile table gaps must be positive and finite")
    log_deltas = [math.log(d) for d in deltas]
    t_lo, t_hi = ts[0], ts[-1]
    last = len(ts) - 1
    if t0 is None:
        t0 = t_hi
    if not t_lo <= t0 <= t_hi:
        raise DomainError(f"anchor time {t0} outside tabulated range [{t_lo}, {t_hi}]")

    def _segment(t: float) -> int:
        """Index i of the segment [ts[i], ts[i+1]) holding t; ``last`` at t_hi."""
        if not t_lo <= t <= t_hi:
            raise DomainError(f"time {t} outside tabulated range [{t_lo}, {t_hi}]")
        return bisect.bisect_right(ts, t) - 1

    def log_delta(t: float) -> float:
        # Linear on each segment; a node returns its own value exactly.
        i = _segment(t)
        if i == last or ts[i] == t:
            return log_deltas[i]
        slope = (log_deltas[i + 1] - log_deltas[i]) / (ts[i + 1] - ts[i])
        return slope * (t - ts[i]) + log_deltas[i]

    # 1/delta = exp(-L) with L piecewise linear, so each segment integrates
    # in closed form; accumulate those to get an exact antiderivative.
    def _segment_integral(i: int, s: float) -> float:
        li = log_deltas[i]
        slope = (log_deltas[i + 1] - li) / (ts[i + 1] - ts[i])
        if abs(slope) < 1e-300:
            return math.exp(-li) * (s - ts[i])
        return (math.exp(-li) - math.exp(-(li + slope * (s - ts[i])))) / slope

    cumulative = [0.0]
    for i in range(last):
        cumulative.append(cumulative[-1] + _segment_integral(i, ts[i + 1]))

    def antiderivative(s: float) -> float:
        i = min(_segment(s), last - 1)
        return cumulative[i] + _segment_integral(i, s)

    return BoundaryProfile(
        name="custom",
        t0=float(t0),
        d0=float(d0),
        log_delta=log_delta,
        inv_delta_antiderivative=antiderivative,
    )


def profile_from_file(
    path: str,
    t0: Optional[float] = None,
    d0: float = 1.0,
) -> BoundaryProfile:
    """Custom profile from a two-column text file of ``t  delta`` rows.

    Blank lines and lines starting with ``#`` are ignored; columns may be
    separated by whitespace or commas.
    """
    rows: List[Tuple[float, float]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.replace(",", " ").split()
            if len(parts) != 2:
                raise DomainError(f"{path}:{lineno}: expected two columns, got {raw!r}")
            try:
                rows.append((float(parts[0]), float(parts[1])))
            except ValueError as exc:
                raise DomainError(f"{path}:{lineno}: {exc}") from exc
    return profile_from_table(rows, t0=t0, d0=d0)


def _require_in_range(profile: BoundaryProfile, t: float) -> float:
    try:
        t = float(t)
    except OverflowError:
        raise DomainError("bounds: a time is past float range") from None
    if not math.isfinite(t) or t > profile.t0:
        raise DomainError(
            f"bounds are defined for t <= {profile.t0}, got {t}"
        )
    return t


def upper_bound(profile: BoundaryProfile, t: float) -> float:
    """Upper distance bound ``d0 + integral_t^{t0} ds / delta(s)``.

    The integral is the profile's antiderivative when it has one, else the
    tanh-sinh rule of the module docstring on each geometric panel
    ``[t0 R^(k+1), t0 R^k]``, ``R = 1e6``, the last one ending at ``t``,
    the panels added by ``math.fsum``; for ``t / t0 <= R`` that is the
    rule on ``[t, t0]`` alone.  A gap that underflows so hard the
    integrand overflows yields ``inf``.

    On a panel ``[a, b]``, the rule returns the first level ``k >= 3``
    whose estimate ``I_k`` differs from ``I_{k-1}`` by at most
    ``max(1e-10, 1e-12 |I_k|)``, and raises ``EstimationError`` if level 8
    still misses that target, for instance when ``1/delta`` is not
    integrable there.  It reads ``log_delta`` at most once at ``a`` and
    once at ``b``, however many nodes round onto them.  Within a level,
    the nodes that round onto both ends add ``weight * (f(a) + f(b))``
    with falling weights; the rule stops adding them once one leaves the
    level's sum unchanged, since rounding leaves every later, smaller term
    out as well, so the panel's integral is the one that adding every node
    gives, bit for bit.
    """
    t = _require_in_range(profile, t)
    if t == profile.t0:
        return profile.d0
    anti = profile.inv_delta_antiderivative
    try:
        if anti is not None:
            return profile.d0 + (anti(profile.t0) - anti(t))
        return profile.d0 + math.fsum(
            _tanh_sinh(profile.log_delta, a, b) for a, b in _panels(t, profile.t0))
    except OverflowError:
        return math.inf


def _panels(t: float, t0: float) -> Iterator[Tuple[float, float]]:
    """The panels ``(a, b)`` of ``[t, t0]``, from ``t0`` outward: ``(R b, b)``
    while ``R b`` lies above ``t``, and then ``(t, b)``."""
    b = t0
    a = b * _PANEL_RATIO
    while a > t:
        yield a, b
        b = a
        a = b * _PANEL_RATIO
    yield t, b


def _tanh_sinh(log_delta: Callable[[float], float], a: float, b: float) -> float:
    """``integral_a^b exp(-log_delta(s)) ds`` by the tanh-sinh rule."""
    exp = math.exp
    half = 0.5 * (b - a)
    # Integrands at a and b, evaluated when a node first rounds onto one.
    fa = fb = None
    # Trapezoid sum in u; each level halves the step and adds its new nodes.
    total = 0.5 * math.pi * exp(-log_delta(a + half))
    step = 1.0
    previous = math.nan
    for level, nodes in enumerate(_tanh_sinh_levels()):
        fresh = 0.0
        rest = iter(nodes)
        for gap, weight in rest:
            r = half * gap
            x = a + r
            y = b - r
            if x != a:
                left = exp(-log_delta(x))
            elif fa is None:
                left = fa = exp(-log_delta(a))
            else:
                left = fa
            if y != b:
                right = exp(-log_delta(y))
            elif fb is None:
                right = fb = exp(-log_delta(b))
            else:
                right = fb
            fresh += weight * (left + right)
            if x == a and y == b:
                # Gaps fall within a level, so every later node rounds onto
                # both endpoints too and adds weight * (fa + fb), a term
                # nonnegative and no larger than this one.  Once such a term
                # leaves ``fresh`` unchanged, rounding to nearest leaves it
                # unchanged for every later one; a NaN term never compares
                # equal, so it never ends the level.
                ends = fa + fb
                for _, weight in rest:
                    summed = fresh + weight * ends
                    if summed == fresh:
                        break
                    fresh = summed
                break
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


def lower_bound(profile: BoundaryProfile, t: float) -> float:
    """Lower distance bound ``log1p(|t - t0| / min gap) / 4 - d0``.

    Evaluated through ``log_delta`` so it survives gaps far below the
    smallest positive float.
    """
    t = _require_in_range(profile, t)
    if t == profile.t0:
        return -profile.d0
    log_gap = min(profile.log_delta(t), profile.log_delta(profile.t0))
    y = math.log(profile.t0 - t) - log_gap
    if y > _LOG_GUARD:
        return 0.25 * (y + math.log1p(math.exp(-y))) - profile.d0
    return 0.25 * math.log1p(math.exp(y)) - profile.d0


def bound_ratio_series(
    profile: BoundaryProfile, grid: Sequence[float]
) -> List[Tuple[float, float]]:
    """Evaluate ``bound(t) / t^2`` over a grid of times below ``t0``.

    A profile ``judged_by_lower`` (the gaussian) reports its lower bound;
    every other profile its upper bound, whatever its name.
    Where t^2 is not a normal float (past |t| ~ 1.3e154, or below
    |t| ~ 1.5e-154 for a table anchored that close to 0) the bound is
    divided by t twice.  A ratio that is not finite, as from an infinite
    bound, raises ``DomainError``.
    """
    bound = lower_bound if profile.judged_by_lower else upper_bound
    out: List[Tuple[float, float]] = []
    for t in grid:
        t = _require_in_range(profile, t)
        b = bound(profile, t)
        t2 = t * t
        ratio = b / t2 if sys.float_info.min <= t2 < math.inf else b / t / t
        if not math.isfinite(ratio):
            raise DomainError(
                f"bounds: profile {profile.name!r} has bound {b!r} at t = {t!r}; "
                "its ratio to t^2 is not finite"
            )
        out.append((t, ratio))
    return out
