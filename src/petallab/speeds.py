"""Backward-orbit petal speeds, forward-speed baselines, and slope fits.

Every speed is a hyperbolic distance between canonical images of orbit
points, so all computations run on the anchored logarithmic form of
``models.KoenigsModel.uhp_orbit``, which walks each model's conformal
chain in log space.  The total speed is the distance from the base
point to the orbit point; the orthogonal and tangential parts split
that motion along and across the geodesic eta that the orbit
chases.  Normalizing eta onto the imaginary axis turns both parts into
closed forms of the log coordinates, read once per sample through
hypcore's ``uhp_log_framed`` and ``uhp_log_distance``, so they stay exact
long after the orbit points themselves left float range: out to
|t| = 1e300 in the hyperbolic and elliptic petals from their default
bases.  Five regions are not exact, since an orbit angle formed next to
0 or pi loses bits; relative errors against mpmath:

- the parabolic petal's gap to pi shrinks as |t| grows: v at the default
  base is off by 1.2e-11 at |t| = 1e6, 2.2e-6 at 1e12 and 8.3e-4 at
  1e15, and from about 1e16 on ``speed_sample`` raises ``DomainError``;
- strip-slit near the real axis: at w0 = 0.5 +- 1e-8 i the speeds are
  off by 5e-10 (upper petal) and 7e-9 (lower); from |Im w0| = 1e-16 on
  ``speed_sample`` raises ``DomainError`` from t = -1 or -2 on;
- koebe-elliptic next to its slit: at w0 = 2 e^{+-i(pi - 1e-12)}, off by
  up to 1.3e-5 (above) and 5.0e-6 (below);
- strip-slit next to its walls: at w0 = 1 -+ i(pi/2 - 1e-10), off by up
  to 1.1e-7 (lower petal) and 5.6e-8 (upper);
- sector-parabolic next to its edge: at w0 = 1 + 1e-10 i, off by up to
  1.2e-2, and raising ``DomainError`` from t = -1e6 on.

ROADMAP item 1 carries the gap instead; ``TestAgainstMpmathWalk`` marks
each case as an expected failure (the ``*-axis``, ``*-slit``,
``*-near-edge`` and ``sector-parabolic-k>=5`` rows).
"""

from __future__ import annotations

import math
import warnings
from typing import NamedTuple, Optional, Sequence

from .hypcore import (
    DomainError,
    UhpLogPoint,
    uhp_log_distance,
    uhp_log_framed,
)
from .models import KoenigsModel, Petal
from .semigroup import require_petal


# The largest k with 2.0 ** k finite, and the smallest with it nonzero.
_MAX_DYADIC_EXP = 1023
_MIN_DYADIC_EXP = -1074


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
        raise DomainError(f"dyadic exponent k_min = {k_min} exceeds k_max = {k_max}")
    if k_max > _MAX_DYADIC_EXP:
        raise DomainError(
            f"dyadic exponent {k_max} is past float range: 2^k overflows "
            f"for k > {_MAX_DYADIC_EXP}")
    if k_min < _MIN_DYADIC_EXP:
        raise DomainError(
            f"dyadic exponent k_min = {k_min} is past float range: 2^k "
            f"underflows to 0 for k < {_MIN_DYADIC_EXP}")
    return [-(2.0 ** k) for k in range(k_min, k_max + 1)]


def _eta_frame(petal: Petal, p0: UhpLogPoint) -> tuple[tuple, float]:
    """The chart in which eta, the geodesic through the base image p0 ending
    at the petal's boundary point ``sigma_canonical``, is the imaginary
    axis, as ``(frame, re0)``: ``uhp_log_framed(p, *frame)`` is log N(q)
    modulo i pi, N the Moebius normalizer carrying eta onto the axis, and
    re0 is Re log N of the base itself."""
    q0 = p0.value()
    if q0 is None:
        raise DomainError("base point has no finite canonical image")
    sigma = petal.sigma_canonical
    if sigma is None or q0.real == sigma:
        # eta is the vertical line through q0; translate it to Re = 0.
        frame = (q0.real, None)
    else:
        # Half-circle geodesic: second foot by reflecting sigma through the
        # center; N(q) = (q - sigma)/(q - other) maps it to the axis.
        center = (abs(q0) ** 2 - sigma * sigma) / (2.0 * (q0.real - sigma))
        frame = (sigma, 2.0 * center - sigma)
    return frame, uhp_log_framed(p0, *frame).real


def _sample_at(model: KoenigsModel, w0: complex, p0: UhpLogPoint,
               frame: tuple, re0: float, t: float) -> SpeedSample:
    """The three speeds at time t of the orbit from w0, whose time-0 image
    is p0 and whose eta frame is ``(frame, re0) = _eta_frame(petal, p0)``;
    ``speed_sample`` and ``speed_series`` read every sample here."""
    if t == 0.0:
        return SpeedSample(0.0, 0.0, 0.0, 0.0)
    p_t = model.uhp_orbit(w0, t)
    ln_t = uhp_log_framed(p_t, *frame)
    v = uhp_log_distance(p0, p_t)
    # v_T = |log tan(r/2)| / 2, the distance to the axis at angle r mod pi;
    # an r of 0 or +-pi is a zero gap.
    r = ln_t.imag
    if not 0.0 < abs(r) < math.pi:
        raise DomainError(f"speeds._sample_at: zero gap at t = {t!r}, framed angle {r!r}")
    return SpeedSample(float(t), v, 0.5 * abs(ln_t.real - re0),
                       0.5 * math.log((1.0 + abs(math.cos(r))) / abs(math.sin(r))))


def speed_sample(model: KoenigsModel, petal: Petal, z: complex, t: float) -> SpeedSample:
    """All three speeds of the backward orbit from z at time t <= 0."""
    w0 = require_petal(model, petal, z)
    if t > 0.0:
        raise DomainError("petal speeds are defined for t <= 0")
    p0 = model.uhp_orbit(w0, 0.0)
    return _sample_at(model, w0, p0, *_eta_frame(petal, p0), t)


def forward_speed(model: KoenigsModel, z: complex, t: float) -> float:
    """Hyperbolic distance from z to its forward image, any z in Omega."""
    w0 = complex(z)
    if not model.contains(w0):
        raise DomainError(f"{w0} is not in the domain of {model.name}")
    if t < 0.0:
        raise DomainError("forward speed is defined for t >= 0")
    if t == 0.0:
        return 0.0
    return uhp_log_distance(model.uhp_orbit(w0, 0.0), model.uhp_orbit(w0, t))


def speed_series(
    model: KoenigsModel,
    petal: Petal,
    z: complex,
    grid: Optional[Sequence[float]] = None,
) -> SpeedSeries:
    """Sample all three speeds over a strictly decreasing backward grid.

    A grid that is empty, has a positive time or does not strictly
    decrease raises ``DomainError``."""
    w0 = require_petal(model, petal, z)
    try:
        ts = list(dyadic_grid() if grid is None else (float(t) for t in grid))
    except OverflowError:
        raise DomainError("speeds.speed_series: a grid time is past float range") from None
    if not ts:
        raise DomainError("grid must not be empty")
    if any(t > 0.0 for t in ts):
        raise DomainError("backward series grids must satisfy t <= 0")
    if any(b >= a for a, b in zip(ts, ts[1:])):
        raise DomainError("grid must be strictly decreasing")
    p0 = model.uhp_orbit(w0, 0.0)
    frame, re0 = _eta_frame(petal, p0)
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
