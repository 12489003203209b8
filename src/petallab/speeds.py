"""Backward-orbit petal speeds, forward-speed baselines, and slope fits.

Every speed is a hyperbolic distance between canonical images of orbit
points, so all computations run on the anchored logarithmic form of
``models.KoenigsModel.uhp_orbit``, which walks each model's conformal
chain in log space.  The total speed is the distance from the base
point to the orbit point; the orthogonal and tangential parts split
that motion along and across the geodesic eta that the orbit
chases.  Normalizing eta onto the imaginary axis turns both parts into
closed forms of the log coordinates, read through hypcore's
``uhp_log_shifted`` and ``axis_distance`` alone, so they stay exact
long after the orbit points themselves left float range: out to
|t| = 1e300 in the hyperbolic and elliptic petals.  The parabolic petal
is exact only to about |t| = 1e15; from about 1e16 on its orbit's
angular gap to pi underflows and ``speed_sample`` raises ``DomainError``.
"""

from __future__ import annotations

import math
import warnings
from typing import Callable, NamedTuple, Optional, Sequence

from .hypcore import (
    DomainError,
    UhpLogPoint,
    axis_distance,
    uhp_log_distance,
    uhp_log_shifted,
)
from .models import KoenigsModel, Petal
from .semigroup import PetalRequiredError


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
    """Speed samples of one petal orbit over a time grid."""

    model_name: str
    petal_label: str
    base: complex
    grid: tuple[float, ...]
    samples: tuple[SpeedSample, ...]

    def to_csv(self) -> str:
        """Render as CSV: header t,v,v_o,v_T then one row per sample,
        17 significant digits, newline-terminated."""
        lines = ["t,v,v_o,v_T"]
        for s in self.samples:
            lines.append(",".join("%.17g" % x for x in (s.t, s.v, s.v_o, s.v_T)))
        return "\n".join(lines) + "\n"

    def component(self, name: str) -> list[float]:
        if name not in ("v", "v_o", "v_T"):
            raise KeyError(f"unknown speed component {name!r}")
        return [getattr(s, name) for s in self.samples]


def dyadic_grid(k_min: int = 0, k_max: int = 16) -> list[float]:
    """Backward dyadic grid [-2^k_min, ..., -2^k_max].

    An exponent past float range (k_max > 1023, or k_min < -1074, where
    2^k underflows to 0) raises ``DomainError``."""
    if k_max < k_min:
        raise ValueError("k_max must be >= k_min")
    if k_max > _MAX_DYADIC_EXP:
        raise DomainError(
            f"dyadic exponent {k_max} is past float range: 2^k overflows "
            f"for k > {_MAX_DYADIC_EXP}")
    if k_min < _MIN_DYADIC_EXP:
        raise DomainError(
            f"dyadic exponent k_min = {k_min} is past float range: 2^k "
            f"underflows to 0 for k < {_MIN_DYADIC_EXP}")
    return [-(2.0 ** k) for k in range(k_min, k_max + 1)]


def _require_petal(model: KoenigsModel, petal: Petal, w: complex) -> complex:
    w = complex(w)
    if not (model.contains(w) and petal.contains(w)):
        raise PetalRequiredError(f"{w} is not in petal {petal.label!r} of {model.name}")
    return w


def _eta_frame(
    model: KoenigsModel, petal: Petal, p0: UhpLogPoint
) -> Callable[[UhpLogPoint], complex]:
    """Log-coordinate chart in which eta is the positive imaginary axis.

    eta is the geodesic through the base image p0 ending at the petal's
    distinguished boundary point (upper-half-plane coordinates).  The
    returned map sends an orbit log point to log N(q) where N is the
    Moebius normalizer carrying eta onto the imaginary axis.
    """
    sigma = model.uhp_eta_endpoint(petal)
    q0 = p0.value()
    if q0 is None:
        raise DomainError("base point has no finite canonical image")
    if sigma is None:
        # eta is the vertical line through q0; translate it to Re = 0.
        shift = q0.real
        return lambda p: uhp_log_shifted(p, shift)
    if q0.real == sigma:
        return lambda p: uhp_log_shifted(p, sigma)
    # Half-circle geodesic: second foot by reflecting sigma through the
    # center; N(q) = +-(q - sigma)/(q - e) maps it to the axis.
    center = (abs(q0) ** 2 - sigma * sigma) / (2.0 * (q0.real - sigma))
    other = 2.0 * center - sigma
    flip = sigma - other < 0

    def frame(p: UhpLogPoint) -> complex:
        val = uhp_log_shifted(p, sigma) - uhp_log_shifted(p, other)
        if flip:
            val += 1j * math.pi
        # Restore the principal branch; the true imaginary part lies in
        # (0, pi) because N preserves the upper half-plane.
        if val.imag < -0.5:
            val += 2j * math.pi
        elif val.imag > math.pi + 0.5:
            val -= 2j * math.pi
        return val

    return frame


def _sample_at(
    model: KoenigsModel, w0: complex, p0: UhpLogPoint, frame, ln0: complex, t: float
) -> SpeedSample:
    """The three speeds at time t of the orbit from w0, whose time-0 image
    is p0, whose eta frame is ``frame`` and whose framed base is
    ``ln0 = frame(p0)``."""
    if t == 0.0:
        return SpeedSample(t=0.0, v=0.0, v_o=0.0, v_T=0.0)
    p_t = model.uhp_orbit(w0, t)
    ln_t = frame(p_t)
    return SpeedSample(
        t=float(t),
        v=uhp_log_distance(p0, p_t),
        v_o=0.5 * abs(ln_t.real - ln0.real),
        v_T=axis_distance(ln_t.imag),
    )


def speed_sample(model: KoenigsModel, petal: Petal, z: complex, t: float) -> SpeedSample:
    """All three speeds of the backward orbit from z at time t <= 0."""
    w0 = _require_petal(model, petal, z)
    if t > 0.0:
        raise DomainError("petal speeds are defined for t <= 0")
    p0 = model.uhp_orbit(w0, 0.0)
    frame = _eta_frame(model, petal, p0)
    return _sample_at(model, w0, p0, frame, frame(p0), t)


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
    w0 = _require_petal(model, petal, z)
    ts = list(dyadic_grid() if grid is None else (float(t) for t in grid))
    if not ts:
        raise DomainError("grid must not be empty")
    if any(t > 0.0 for t in ts):
        raise DomainError("backward series grids must satisfy t <= 0")
    if any(b >= a for a, b in zip(ts, ts[1:])):
        raise DomainError("grid must be strictly decreasing")
    p0 = model.uhp_orbit(w0, 0.0)
    frame = _eta_frame(model, petal, p0)
    ln0 = frame(p0)
    samples = [_sample_at(model, w0, p0, frame, ln0, t) for t in ts]
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
        grid=tuple(ts),
        samples=tuple(samples),
    )


def linear_fit(xs: Sequence[float], ys: Sequence[float]) -> tuple[float, float]:
    """Least-squares line through the points (xs, ys): (slope, intercept).

    Built on sums centred at the means, each added exactly by ``math.fsum``.
    Raises ``EstimationError`` for fewer than two points or coinciding xs.
    """
    n = len(xs)
    if n != len(ys):
        raise ValueError(f"{n} abscissae but {len(ys)} ordinates")
    if n < 2:
        raise EstimationError("a line fit needs at least 2 points")
    if min(xs) == max(xs):
        raise EstimationError("degenerate abscissa: all points coincide")
    x_mean = math.fsum(xs) / n
    y_mean = math.fsum(ys) / n
    dxs = [x - x_mean for x in xs]
    sxx = math.fsum(dx * dx for dx in dxs)
    slope = math.fsum(dx * (y - y_mean) for dx, y in zip(dxs, ys)) / sxx
    return slope, y_mean - slope * x_mean


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
    slope, intercept = linear_fit(xs, ys)
    ss_res = math.fsum((y - (slope * x + intercept)) ** 2 for x, y in zip(xs, ys))
    y_mean = math.fsum(ys) / len(ys)
    ss_tot = math.fsum((y - y_mean) ** 2 for y in ys)
    r2 = 1.0 if ss_tot == 0.0 and ss_res == 0.0 else (
        0.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    )
    return slope, r2
