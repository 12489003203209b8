"""Backward-orbit petal speeds, forward-speed baselines, and slope fits.

Every speed is a hyperbolic distance between canonical images of orbit
points, so all computations run on the anchored logarithmic form of
``models.KoenigsModel.uhp_orbit``, which walks each model's conformal
chain in log space.  The total speed is the distance from the base
point to the orbit point; the orthogonal and tangential parts split
that motion along and across the geodesic eta that the orbit
chases.  Normalizing eta onto the imaginary axis turns both parts into
closed forms of the log coordinates.  On every petal eta is made
vertical: a finite boundary point sigma goes to infinity under
q -> -1/(q - sigma) (hypcore's ``uhp_log_inverted``), exact for an orbit
point anchored at sigma, and a translation carries eta onto the axis.
Both parts are read once per sample through hypcore's ``uhp_log_framed``
and ``uhp_log_distance``, so they stay exact long after the orbit points
themselves left float range, out to |t| = 1e300 in every petal and next
to a finite sigma: the log walk holds each orbit angle's gap to 0 or pi
by itself, and the frame reads its angle modulo pi.  The one known limit
is a gap far below the normal float range (ROADMAP item 11): from
-3 + 1e-300 i the parabolic orbit's gap is 6.7e-317 at |t| = 1e16, where
v_T is off by 5.6e-11, and it underflows to 0 from about 1e24 on,
where ``models.uhp_orbit`` refuses with ``PrecisionError``.

A base point is read once: its petal check, its time-0 walk, its log
Im q (kept on the point, a ``hypcore.UhpLogBase``, for every distance
from it) and its eta frame come from ``_base_reading``, a memo of the
last ``_BASE_READINGS`` bases.  Its key tells 0.0 from -0.0, a refusal is
never stored, and every output is the one a fresh reading gives, bit for
bit.  A sample then does only its own work, in ``_sample_at``: one walk
(``models.KoenigsModel.uhp_orbit``), one framed log (of the inverted
point where sigma is finite), one distance (``hypcore.uhp_log_distance``)
and its ``SpeedSample``.  The memo key and the sample's tuple are built
in C, with no Python frame, and every call on the sample path passes its
arguments directly: a starred call would build an argument tuple on every
sample.
"""

from __future__ import annotations

import functools
import math
import struct
import warnings
from typing import Iterable, NamedTuple, Optional, Sequence

from .hypcore import (
    DomainError,
    PrecisionError,
    UhpLogBase,
    UhpLogPoint,
    uhp_log_distance,
    uhp_log_framed,
    uhp_log_inverted,
)
from .models import KoenigsModel, Petal
from .semigroup import require_petal


# The largest k with 2.0 ** k finite, and the smallest with it nonzero.
_MAX_DYADIC_EXP = 1023
_MIN_DYADIC_EXP = -1074
# How many base readings _base_reading keeps: verify's run_all reads about
# 170 bases, the deep_orbits benchmark 96.
_BASE_READINGS = 256
# A base's memo key beside the point: the bytes of its two parts, which
# tell 0.0 from -0.0 where the points compare equal.  A C call, so that
# building the key adds no Python frame to a sample.
_base_key = struct.Struct("2d").pack


class EstimationError(ValueError):
    """An estimate its inputs cannot support: a slope fit on too few or
    degenerate samples, or a quadrature that does not converge."""


class _ReplaceFields:
    """The field table ``dataclasses.replace`` reads, built on first use.

    Callers derive a changed sample with ``dataclasses.replace(s, v=...)``
    (the benchmark self-test plants a wrong speed that way); the table
    keeps that working on a NamedTuple, and building it lazily keeps
    ``dataclasses`` out of ``import petallab``.
    """

    def __get__(self, obj, cls):
        import dataclasses

        shadow = dataclasses.make_dataclass(
            cls.__name__, list(cls.__annotations__.items()), frozen=True)
        cls.__dataclass_params__ = shadow.__dataclass_params__
        cls.__dataclass_fields__ = shadow.__dataclass_fields__
        return shadow.__dataclass_fields__


class SpeedSample(NamedTuple):
    """Total, orthogonal, and tangential speeds at one time."""

    t: float
    v: float
    v_o: float
    v_T: float

    __dataclass_fields__ = _ReplaceFields()


# SpeedSample from a tuple of its four fields, in C: the class call runs
# the NamedTuple's Python __new__.
_new_sample = functools.partial(tuple.__new__, SpeedSample)


class SpeedSeries(NamedTuple):
    """Speed samples of one petal orbit over a time grid, which the
    samples' ``t`` hold."""

    model_name: str
    petal_label: str
    base: complex
    samples: tuple[SpeedSample, ...]

    def component(self, name: str) -> list[float]:
        if name not in ("v", "v_o", "v_T"):
            raise KeyError(f"unknown speed component {name!r}")
        return [getattr(s, name) for s in self.samples]


def dyadic_grid(k_min: int = 0, k_max: int = 16) -> list[float]:
    """Backward dyadic grid [-2^k_min, ..., -2^k_max].

    k_min above k_max, or an exponent past float range (k_max > 1023, or
    k_min < -1074, where 2^k underflows to 0), raises ``DomainError``."""
    if k_max < k_min:
        raise DomainError(
            f"speeds.dyadic_grid: dyadic exponent k_min = {k_min} exceeds k_max = {k_max}")
    if k_max > _MAX_DYADIC_EXP:
        raise DomainError(
            f"speeds.dyadic_grid: dyadic exponent {k_max} is past float range: "
            f"2^k overflows for k > {_MAX_DYADIC_EXP}")
    if k_min < _MIN_DYADIC_EXP:
        raise DomainError(
            f"speeds.dyadic_grid: dyadic exponent k_min = {k_min} is past float "
            f"range: 2^k underflows to 0 for k < {_MIN_DYADIC_EXP}")
    return [-(2.0 ** k) for k in range(k_min, k_max + 1)]


def _eta_frame(petal: Petal, p0: UhpLogPoint) -> tuple[tuple, float]:
    """The chart in which eta, the geodesic through the base image p0 ending
    at the petal's boundary point ``sigma_canonical``, is the imaginary
    axis, as ``(frame, re0)``.  The frame ``(sigma, x0)`` reads log N(q)
    modulo i pi, for N(q) = n(q) - x0: n is the identity when sigma is
    None (infinity), and otherwise n(q) = -1/(q - sigma)
    (``uhp_log_inverted``), which sends sigma to infinity and eta onto the
    vertical line through n(q0); x0 = Re n(q0) translates that line to
    Re = 0.  re0 = log Im n(q0), read from the log form: Re n(q0) - x0
    would be only x0's rounding error once Im n(q0) falls below ulp(x0)."""
    sigma = petal.sigma_canonical
    n0 = p0 if sigma is None else uhp_log_inverted(p0, sigma)
    value = n0.value()
    if value is None:
        raise DomainError("speeds._eta_frame: base point has no finite canonical image")
    return (sigma, value.real), n0.log_im()


@functools.lru_cache(maxsize=_BASE_READINGS)
def _base_reading(model: KoenigsModel, petal: Petal, w0: complex,
                  key: bytes) -> tuple[complex, UhpLogBase, tuple, float]:
    """``(w0, p0, frame, re0)`` of the base w0: w0 once ``require_petal``
    has found it in the petal, p0 its time-0 orbit point, which stores its
    log Im q, and ``(frame, re0) = _eta_frame(petal, p0)``.  ``key`` is
    ``_base_key(w0.real, w0.imag)``.

    The reading is a pure function of its inputs, so it is memoised in a
    bounded LRU memo of ``_BASE_READINGS`` entries.  The key is exact:
    2 + 0i and 2 - 0i compare equal and hash alike, but their keys
    differ, so each gets its own entry.  A refusal raises before anything
    is stored, and a stored reading is the tuple a fresh reading returns,
    bit for bit."""
    w0 = require_petal(model, petal, w0)
    p0 = UhpLogBase(model.uhp_orbit(w0, 0.0))
    return (w0, p0, *_eta_frame(petal, p0))


def _sample_at(model: KoenigsModel, w0: complex, p0: UhpLogPoint,
               frame: tuple, re0: float, t: float) -> SpeedSample:
    """The three speeds at time t of the orbit from w0, whose time-0 image
    is p0 and whose eta frame is ``(frame, re0)``, as ``_base_reading``
    gives them; ``speed_sample`` and ``speed_series`` read every sample
    here."""
    if t == 0.0:
        return _new_sample((0.0, 0.0, 0.0, 0.0))
    p_t = model.uhp_orbit(w0, t)
    sigma, x0 = frame
    ln_t = uhp_log_framed(p_t if sigma is None else uhp_log_inverted(p_t, sigma), x0)
    v = uhp_log_distance(p0, p_t)
    # v_T = |log tan(r/2)| / 2, the distance to the axis at angle r mod pi,
    # read by two logs where 2 / sin r could overflow; an r of 0 modulo pi
    # is a zero gap.
    r = ln_t.imag
    if r % math.pi == 0.0:
        raise PrecisionError(f"speeds._sample_at: zero gap at t = {t!r}, framed angle {r!r}")
    cos_r, sin_r = abs(math.cos(r)), abs(math.sin(r))
    if sin_r >= 1e-300:
        v_T = 0.5 * math.log((1.0 + cos_r) / sin_r)
    else:
        v_T = 0.5 * (math.log(1.0 + cos_r) - math.log(sin_r))
    return _new_sample((float(t), v, 0.5 * abs(ln_t.real - re0), v_T))


def speed_sample(model: KoenigsModel, petal: Petal, z: complex, t: float) -> SpeedSample:
    """All three speeds of the backward orbit from z at time t <= 0."""
    if t > 0.0:
        # The petal refusal comes first, as for any other time.
        require_petal(model, petal, z)
        raise DomainError("speeds.speed_sample: petal speeds are defined for t <= 0")
    w0 = complex(z)
    w0, p0, frame, re0 = _base_reading(model, petal, w0, _base_key(w0.real, w0.imag))
    return _sample_at(model, w0, p0, frame, re0, t)


def forward_speed(model: KoenigsModel, z: complex, t: float) -> float:
    """Hyperbolic distance from z to its forward image, any z in Omega."""
    w0 = complex(z)
    if not model.contains(w0):
        raise DomainError(f"speeds.forward_speed: {w0} is not in the domain of {model.name}")
    if t < 0.0:
        raise DomainError("speeds.forward_speed: forward speed is defined for t >= 0")
    if t == 0.0:
        return 0.0
    return uhp_log_distance(model.uhp_orbit(w0, 0.0), model.uhp_orbit(w0, t))


def backward_grid(grid: Iterable[float], layer: str) -> list[float]:
    """The times of a backward grid as floats; ``DomainError``, its message
    starting with ``layer``, the caller's name, unless there is one at
    least, none past float range or above 0, and they strictly decrease.
    ``speed_series`` and ``verify.bound_ratios`` check their grids here."""
    try:
        ts = [float(t) for t in grid]
    except OverflowError:
        raise DomainError(f"{layer}: a grid time is past float range") from None
    if not ts:
        raise DomainError(f"{layer}: grid must not be empty")
    if any(t > 0.0 for t in ts):
        raise DomainError(f"{layer}: backward series grids must satisfy t <= 0")
    if any(b >= a for a, b in zip(ts, ts[1:])):
        raise DomainError(f"{layer}: grid must be strictly decreasing")
    return ts


def speed_series(
    model: KoenigsModel,
    petal: Petal,
    z: complex,
    grid: Optional[Sequence[float]] = None,
) -> SpeedSeries:
    """Sample all three speeds over a strictly decreasing backward grid.

    A grid that is empty, has a positive time or does not strictly
    decrease raises ``DomainError``."""
    try:
        ts = backward_grid(dyadic_grid() if grid is None else grid, "speeds.speed_series")
    except (TypeError, ValueError):
        # The petal refusal comes first, as for a valid grid.
        require_petal(model, petal, z)
        raise
    w0 = complex(z)
    w0, p0, frame, re0 = _base_reading(model, petal, w0, _base_key(w0.real, w0.imag))
    samples = [_sample_at(model, w0, p0, frame, re0, t) for t in ts]
    totals = [s.v for s in samples]
    if any(b < a - 1e-12 for a, b in zip(totals, totals[1:])):
        warnings.warn(
            f"total speed is not monotone in |t| for {model.name}/{petal.label}",
            RuntimeWarning,
            stacklevel=2,
        )
    return SpeedSeries(
        model_name=model.name,
        petal_label=petal.label,
        base=w0,
        samples=tuple(samples),
    )


def _scaled(vs: Sequence[float]) -> tuple[list[float], int]:
    """vs divided by the power of two 2^e that brings the largest |v| into
    [0.5, 1), and e.  Dividing by a power of two rounds nothing, so sums
    and squares of the scaled values round as the plain ones do, short of
    overflow."""
    e = math.frexp(max(map(abs, vs)))[1]
    return [math.ldexp(v, -e) for v in vs], e


def linear_fit(xs: Sequence[float], ys: Sequence[float]) -> tuple[float, float]:
    """Least-squares line through the points (xs, ys): (slope, intercept).

    Built on sums centred at the means, each added exactly by ``math.fsum``,
    of the points scaled by powers of two (``_scaled``), so that squares
    of abscissae past 1e154 stay finite.  Raises ``EstimationError`` for
    fewer than two points or coinciding xs.
    """
    n = len(xs)
    if n != len(ys):
        raise ValueError(f"{n} abscissae but {len(ys)} ordinates")
    if n < 2:
        raise EstimationError("a line fit needs at least 2 points")
    if min(xs) == max(xs):
        raise EstimationError("degenerate abscissa: all points coincide")
    (xs, ex), (ys, ey) = _scaled(xs), _scaled(ys)
    x_mean = math.fsum(xs) / n
    y_mean = math.fsum(ys) / n
    dxs = [x - x_mean for x in xs]
    sxx = math.fsum(dx * dx for dx in dxs)
    slope = math.fsum(dx * (y - y_mean) for dx, y in zip(dxs, ys)) / sxx
    return math.ldexp(slope, ey - ex), math.ldexp(y_mean - slope * x_mean, ey)


def slope_estimate(
    series: SpeedSeries, mode: str = "linear_in_t", component: str = "v"
) -> tuple[float, float]:
    """Least-squares slope of a speed component over the grid's tail half.

    mode selects the abscissa: "linear_in_t" fits against t,
    "linear_in_log" against log|t|.  Returns (slope, r_squared).
    """
    if mode not in ("linear_in_t", "linear_in_log"):
        raise ValueError(f"unknown mode {mode!r}")
    ys_all = series.component(component)
    n = len(series.samples)
    if n < 6:
        raise EstimationError("slope estimation needs at least 6 samples")
    order = sorted(range(n), key=lambda i: abs(series.samples[i].t))
    tail = order[n // 2:]
    ts = [series.samples[i].t for i in tail]
    ys = [ys_all[i] for i in tail]
    if mode == "linear_in_t":
        xs = ts
    else:
        if any(t == 0.0 for t in ts):
            raise EstimationError("log abscissa undefined at t = 0")
        xs = [math.log(abs(t)) for t in ts]
    # r^2 does not change when xs and ys are scaled; scaled, no square overflows.
    (xs, ex), (ys, ey) = _scaled(xs), _scaled(ys)
    slope, intercept = linear_fit(xs, ys)
    ss_res = math.fsum((y - (slope * x + intercept)) ** 2 for x, y in zip(xs, ys))
    y_mean = math.fsum(ys) / len(ys)
    ss_tot = math.fsum((y - y_mean) ** 2 for y in ys)
    r2 = 1.0 if ss_tot == 0.0 and ss_res == 0.0 else (
        0.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    )
    return math.ldexp(slope, ey - ex), r2
