"""Two-sided hyperbolic distance bounds from a boundary-distance profile.

A profile prescribes the euclidean distance ``delta(t)`` from a backward
trajectory to the domain boundary at time ``t <= t0``, together with the
hyperbolic distance ``d0`` already accumulated at ``t0``.  The upper bound
integrates ``1/delta`` along the trajectory; the lower bound is the
separation forced by the thinnest of the two endpoints' boundary gaps.

Profiles carry ``log_delta`` alongside ``delta`` so that bounds remain
computable when ``delta`` itself underflows (the gaussian profile collapses
to float zero already near t = -27 while its logarithm stays exact).

A profile without a closed-form antiderivative is integrated by a fixed
tanh-sinh rule (Takahasi and Mori, 1974) on ``exp(-log_delta)``: nodes
``x = tanh(pi/2 sinh(j h))`` on steps ``h = 2^-k``, ``k = 0..8``, each level
halving the step of the one before.  The rule stops at the first ``k >= 3``
whose estimate moves by at most ``max(1e-10, 1e-12 |I_k|)`` and raises
``EstimationError`` when no level gets there, as happens when ``1/delta``
is not integrable.
"""

from __future__ import annotations

import bisect
import math
from typing import Callable, List, Optional, Sequence, Tuple

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


def _tanh_sinh_levels() -> Tuple[Tuple[Tuple[float, float], ...], ...]:
    """Nodes of the tanh-sinh rule on [-1, 1], one tuple per level.

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


_TANH_SINH_LEVELS = _tanh_sinh_levels()


class BoundaryProfile:
    """Boundary-distance profile ``delta`` on ``(-inf, t0]``.

    ``delta`` must be positive for every ``t <= t0``; ``log_delta`` is its
    exact logarithm and is the form the bounds actually consume.
    ``inv_delta_antiderivative``, when present, is a closed-form
    antiderivative of ``1/delta`` used instead of quadrature.
    """

    __slots__ = ("name", "t0", "d0", "delta", "log_delta", "inv_delta_antiderivative")

    def __init__(
        self,
        name: str,
        t0: float,
        d0: float,
        delta: Callable[[float], float],
        log_delta: Callable[[float], float],
        inv_delta_antiderivative: Optional[Callable[[float], float]] = None,
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
        self.delta = delta
        self.log_delta = log_delta
        self.inv_delta_antiderivative = inv_delta_antiderivative


def logrecip_profile(t0: float = -math.e, d0: float = 1.0) -> BoundaryProfile:
    """Profile ``delta(t) = 1 / log(-t)``, defined for ``t0 <= -e``."""
    if not t0 <= -math.e:
        raise DomainError(f"logrecip profile needs t0 <= -e, got {t0}")

    def delta(t: float) -> float:
        return 1.0 / math.log(-t)

    def log_delta(t: float) -> float:
        return -math.log(math.log(-t))

    def antiderivative(s: float) -> float:
        # integral of 1/delta = log(-s)
        return s * math.log(-s) - s

    return BoundaryProfile(
        name="logrecip",
        t0=float(t0),
        d0=float(d0),
        delta=delta,
        log_delta=log_delta,
        inv_delta_antiderivative=antiderivative,
    )


def gaussian_profile(t0: float = -1.0, d0: float = 1.0) -> BoundaryProfile:
    """Profile ``delta(t) = -t * exp(-t^2)``, defined for ``t0 < 0``."""
    if not t0 < 0.0:
        raise DomainError(f"gaussian profile needs t0 < 0, got {t0}")

    def delta(t: float) -> float:
        return -t * math.exp(-t * t)

    def log_delta(t: float) -> float:
        return math.log(-t) - t * t

    return BoundaryProfile(
        name="gaussian",
        t0=float(t0),
        d0=float(d0),
        delta=delta,
        log_delta=log_delta,
    )


def custom_profile(
    delta: Callable[[float], float],
    t0: float,
    d0: float = 1.0,
    log_delta: Optional[Callable[[float], float]] = None,
    name: str = "custom",
) -> BoundaryProfile:
    """Wrap an arbitrary positive gap function as a profile.

    Without ``log_delta``, the profile takes ``log(delta(t))`` and raises
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
        delta=delta,
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

    def delta(t: float) -> float:
        return math.exp(log_delta(t))

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
        delta=delta,
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
    t = float(t)
    if not math.isfinite(t) or t > profile.t0:
        raise DomainError(
            f"bounds are defined for t <= {profile.t0}, got {t}"
        )
    return t


def upper_bound(profile: BoundaryProfile, t: float) -> float:
    """Upper distance bound ``d0 + integral_t^{t0} ds / delta(s)``.

    The integral is the profile's antiderivative when it has one, else the
    tanh-sinh rule of the module docstring.  A gap that underflows so hard
    the integrand overflows yields ``inf``.

    The tanh-sinh rule returns the first level ``k >= 3`` whose estimate
    ``I_k`` differs from ``I_{k-1}`` by at most ``max(1e-10, 1e-12 |I_k|)``,
    and raises ``EstimationError`` if level 8 still misses that target, for
    instance when ``1/delta`` is not integrable on ``[t, t0]``.
    """
    t = _require_in_range(profile, t)
    if t == profile.t0:
        return profile.d0
    anti = profile.inv_delta_antiderivative
    try:
        if anti is not None:
            return profile.d0 + (anti(profile.t0) - anti(t))
        return profile.d0 + _tanh_sinh(profile.log_delta, t, profile.t0)
    except OverflowError:
        return math.inf


def _tanh_sinh(log_delta: Callable[[float], float], a: float, b: float) -> float:
    """``integral_a^b exp(-log_delta(s)) ds`` by the tanh-sinh rule."""
    exp = math.exp
    half = 0.5 * (b - a)
    # Trapezoid sum in u; each level halves the step and adds its new nodes.
    total = 0.5 * math.pi * exp(-log_delta(a + half))
    step = 1.0
    previous = math.nan
    for level, nodes in enumerate(_TANH_SINH_LEVELS):
        fresh = 0.0
        for gap, weight in nodes:
            r = half * gap
            fresh += weight * (exp(-log_delta(a + r)) + exp(-log_delta(b - r)))
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

    The gaussian profile reports its lower bound (its upper bound is
    infinite almost immediately); every other profile its upper bound.
    """
    bound = lower_bound if profile.name == "gaussian" else upper_bound
    out: List[Tuple[float, float]] = []
    for t in grid:
        t = _require_in_range(profile, float(t))
        out.append((t, bound(profile, t) / (t * t)))
    return out
