"""One-shot numerical verification of the laboratory's headline claims.

Each check exercises one measurable statement about the model catalog:
speed growth rates, the orthogonal/tangential decomposition, boundary
diagnostics, distance bounds, and structural consistency of the conformal
machinery.  ``run_all`` returns a list of results with measured numbers in
the detail strings; everything is deterministic given the seed.

Each criterion that a CLI subcommand (``lab.py``) also reports is measured
and judged by one function here: ``backward_rate``, ``forward_rate``,
``orbit_angle`` and ``bound_ratios``.
"""

from __future__ import annotations

import cmath
import math
import random
from typing import List, NamedTuple, Optional, Sequence, Tuple

from .bounds import BoundaryProfile, bound_ratio_series, gaussian_profile, logrecip_profile
from .hmeasure import ApproachReport, Arc, approach_angle
from .hypcore import DomainError, disk_distance, uhp_distance
from .models import KoenigsModel, Petal, by_name, catalog, sample_petal_omega
from .semigroup import flow, regularity_gap, repelling_diagnostics
from .speeds import (
    SpeedSeries,
    dyadic_grid,
    forward_speed,
    linear_fit,
    slope_estimate,
    speed_sample,
    speed_series,
)

__all__ = ["CheckResult", "run_all", "CHECK_NAMES", "Rate", "backward_rate", "forward_rate",
           "orbit_angle", "bound_ratios"]

DEFAULT_SEED = 20260817

_HALF_LOG2 = 0.5 * math.log(2.0)

# Criteria table: the thresholds that run_all and the CLI subcommands judge
# pass/fail by.
# Linear rates pass with |slope - target| <= tol * |target|; RATE_TOL is the
# default tol (the CLI's --tol).
RATE_TOL = 0.1
# Sub-linear rates (target 0) pass with |slope| <= tol * SUBLINEAR_PER_TOL,
# which is 1e-3 at the default tol.
SUBLINEAR_PER_TOL = 1e-2
# Closed window for the gaussian profile's lower bound over t^2.
GAUSSIAN_RATIO_WINDOW = (0.249, 0.2501)
# Open window for a non-tangential approach angle.
APPROACH_ANGLE_WINDOW = (0.05 * math.pi, 0.95 * math.pi)

# Inputs that run_all and the CLI subcommands share as defaults.
# Times -1e2 .. -1e6 of the bound ratios (``petallab bounds`` without --grid).
BOUND_GRID = tuple(-(10.0**k) for k in range(2, 7))
# Backward orbit times -1 .. -ORBIT_KMAX of the approach angle
# (``petallab hmeasure`` without --kmax).
ORBIT_KMAX = 18


def rate_threshold(target: float, tol: float = RATE_TOL) -> float:
    """Largest passing |slope - target|: relative to a linear rate's target,
    absolute for a sub-linear one (target 0)."""
    return tol * abs(target) if target else tol * SUBLINEAR_PER_TOL


class Rate(NamedTuple):
    """A fitted slope judged against its spectral target: it passes when
    ``|slope - target| <= threshold``."""

    slope: float
    target: float
    threshold: float

    @property
    def passed(self) -> bool:
        return abs(self.slope - self.target) <= self.threshold


def _rate(slope: float, target: float, tol: Optional[float]) -> Rate:
    return Rate(slope, target, rate_threshold(target, RATE_TOL if tol is None else tol))


def backward_rate(
    model: KoenigsModel, petal: Petal, base: complex, grid: Sequence[float],
    component: str = "v", tol: Optional[float] = None,
) -> Tuple[SpeedSeries, float, Rate]:
    """The backward speed series over ``grid``, the r^2 of its linear fit in
    |t|, and the fitted slope of ``component`` judged against |lam|/2 on a
    hyperbolic petal, 0 on a parabolic one (its speeds are sub-linear).
    ``tol`` defaults to ``RATE_TOL``."""
    series = speed_series(model, petal, base, grid)
    slope, r2 = slope_estimate(series, mode="linear_in_t", component=component)
    target = 0.5 * petal.lam if petal.kind == "hyperbolic" else 0.0
    return series, r2, _rate(slope, target, tol)


def forward_rate(
    model: KoenigsModel, base: complex, kmin: int, kmax: int, tol: Optional[float] = None
) -> Tuple[List[float], List[float], Rate]:
    """Forward speeds at t = 2^kmin .. 2^kmax, and their slope over the grid's
    tail half judged against mu/2 for a hyperbolic model, else 0 (parabolic
    drift is sub-linear and elliptic orbits stay bounded).  ``tol`` defaults
    to ``RATE_TOL``."""
    if kmax - kmin < 2:
        # The tail half must hold at least two points.
        raise DomainError(f"forward needs kmax - kmin >= 2, got kmin {kmin}, kmax {kmax}")
    ts = [-t for t in dyadic_grid(kmin, kmax)]
    vs = [forward_speed(model, base, t) for t in ts]
    tail = len(ts) // 2
    slope, _ = linear_fit(ts[tail:], vs[tail:])
    target = 0.5 * model.mu if model.kind == "hyperbolic" else 0.0
    return ts, vs, _rate(slope, target, tol)


def orbit_angle(
    model: KoenigsModel, petal: Petal, base: complex, kmax: int
) -> Tuple[List[float], ApproachReport, bool]:
    """Approach angle of the backward orbit of ``base`` at the petal's disk
    endpoint sigma, read from ``disk_z`` at t = -1, -2, .. -kmax until the
    disk chart is lost, on the arc [arg sigma, arg sigma + pi/2].

    Returns the times of the orbit points, the probe's report, and whether
    the angle is conclusive and inside ``APPROACH_ANGLE_WINDOW``.
    """
    sigma = model.disk_sigma(petal)
    if sigma.is_infinity:
        raise DomainError(f"petal {petal.label} of {model.name} has no finite disk endpoint")
    times: List[float] = []
    points: List[complex] = []
    for k in range(1, kmax + 1):
        z = flow(model, base, float(-k)).disk_z
        if z is None:
            break
        times.append(float(-k))
        points.append(z)
    phase = cmath.phase(sigma.value)
    report = approach_angle(points, sigma.value, Arc(phase, phase + math.pi / 2))
    lo, hi = APPROACH_ANGLE_WINDOW
    return times, report, not report.inconclusive and lo < report.theta < hi


def bound_ratios(
    profile: BoundaryProfile, grid: Sequence[float]
) -> Tuple[List[Tuple[float, float]], str, bool]:
    """``bound_ratio_series`` over ``grid``, the rule it is judged by, and
    the verdict: the gaussian profile's ratios must lie in
    ``GAUSSIAN_RATIO_WINDOW``, any other profile's must strictly decrease."""
    series = bound_ratio_series(profile, grid)
    ratios = [r for _, r in series]
    if profile.name == "gaussian":
        lo, hi = GAUSSIAN_RATIO_WINDOW
        return series, f"every ratio in [{lo}, {hi}]", all(lo <= r <= hi for r in ratios)
    decreasing = all(a > b for a, b in zip(ratios, ratios[1:]))
    return series, "ratios strictly decreasing", decreasing


def _bound(value: float) -> str:
    """A bound as the check details print it: below 1e-2 in the short
    exponent form (``1e-3``, ``1e-10``), otherwise as ``repr`` gives it."""
    if value < 1e-2:
        mantissa, exponent = f"{value:.12e}".split("e")
        return f"{float(mantissa):g}e{int(exponent)}"
    return repr(value)


class CheckResult(NamedTuple):
    """Outcome of one verification check."""

    name: str
    passed: bool
    detail: str


def _hyperbolic_slopes(component: str) -> Tuple[List[str], bool]:
    grid = dyadic_grid(4, 16)
    parts = []
    ok = True
    for name, label in (("strip-slit", "upper"), ("koebe-elliptic", "main")):
        model = by_name(name)
        petal = model.petal(label)
        _, r2, rate = backward_rate(model, petal, petal.base_default, grid, component)
        ok = ok and rate.passed
        parts.append(
            f"{model.name}/{petal.label}: slope {rate.slope:.6f} vs {rate.target} (r2 {r2:.6f})"
        )
    return parts, ok


def _all_petals() -> List[Tuple[KoenigsModel, Petal]]:
    return [(model, petal) for model in catalog() for petal in model.petals]


def _check_total_slopes() -> CheckResult:
    parts, ok = _hyperbolic_slopes("v")
    return CheckResult("total-speed-slopes", ok, "; ".join(parts))


def _check_parabolic_envelope() -> CheckResult:
    model = by_name("sector-parabolic")
    petal = model.petal("main")
    base = petal.base_default
    parts = []
    ok = True
    for mag in (1e3, 1e4, 1e6):
        ratio = speed_sample(model, petal, base, -mag).v / math.log(mag)
        good = 0.24 <= ratio <= 1.01
        ok = ok and good
        parts.append(f"v/log|t| at -1e{int(math.log10(mag))}: {ratio:.4f}")
    t16 = -(2.0**16)
    linear = speed_sample(model, petal, base, t16).v / abs(t16)
    ok = ok and linear <= rate_threshold(0.0)
    parts.append(f"v(t)/|t| at -2^16: {linear:.3e}")
    return CheckResult("parabolic-speed-envelope", ok, "; ".join(parts))


def _check_tangential_plateau() -> CheckResult:
    parts = []
    ok = True
    for model, petal in _all_petals():
        base = petal.base_default
        v10 = speed_sample(model, petal, base, -(2.0**10)).v_T
        v16 = speed_sample(model, petal, base, -(2.0**16)).v_T
        if petal.kind == "hyperbolic":
            drift = abs(v16 - v10)
            linear = v16 / 2.0**16
            good = drift <= 0.05 and linear <= rate_threshold(0.0)
            parts.append(
                f"{model.name}/{petal.label}: plateau drift {drift:.2e}, "
                f"v_T/|t| {linear:.1e}"
            )
        else:
            growth = v16 - v10
            min_growth = 1
            good = growth >= min_growth
            parts.append(
                f"{model.name}/{petal.label}: divergence {growth:.3f} >= {_bound(min_growth)}"
            )
        ok = ok and good
    return CheckResult("tangential-plateau-vs-divergence", ok, "; ".join(parts))


def _check_orthogonal_slopes() -> CheckResult:
    parts, ok = _hyperbolic_slopes("v_o")
    m2 = by_name("sector-parabolic")
    petal = m2.petal("main")
    _, _, rate = backward_rate(m2, petal, petal.base_default, dyadic_grid(4, 16), "v_o")
    ok = ok and rate.passed
    parts.append(
        f"{m2.name}/{petal.label}: |slope| {abs(rate.slope):.2e} <= {_bound(rate.threshold)}"
    )
    return CheckResult("orthogonal-speed-slopes", ok, "; ".join(parts))


def _check_pythagorean_sandwich() -> CheckResult:
    grid = dyadic_grid(0, 16)
    worst_low = math.inf
    worst_high = math.inf
    ok = True
    for model, petal in _all_petals():
        series = speed_series(model, petal, petal.base_default, grid)
        for s in series.samples:
            low_slack = s.v - (s.v_o + s.v_T - _HALF_LOG2)
            high_slack = (s.v_o + s.v_T) - s.v
            worst_low = min(worst_low, low_slack)
            worst_high = min(worst_high, high_slack)
            ok = ok and low_slack >= -1e-9 and high_slack >= -1e-9
    detail = (
        f"min slack above v_o+v_T-log(2)/2: {worst_low:.2e}; "
        f"min slack below v_o+v_T: {worst_high:.2e}"
    )
    return CheckResult("pythagorean-sandwich", ok, detail)


def _check_base_independence(rng: random.Random) -> CheckResult:
    grid = dyadic_grid(0, 16)
    worst = -math.inf
    ok = True
    for model, petal in _all_petals():
        pts = sample_petal_omega(model, petal, 40, rng)
        for z, w in zip(pts[::2], pts[1::2]):
            bound = 2.0 * petal.distance(z, w) + 1e-9
            sz = speed_series(model, petal, z, grid)
            sw = speed_series(model, petal, w, grid)
            for a, b in zip(sz.samples, sw.samples):
                for da in (a.v - b.v, a.v_o - b.v_o, a.v_T - b.v_T):
                    worst = max(worst, abs(da) - bound)
                    ok = ok and abs(da) <= bound
    return CheckResult(
        "base-point-independence",
        ok,
        f"20 pairs per petal; worst excess over 2*d(z,w): {worst:.2e}",
    )


def _check_forward_rates() -> CheckResult:
    parts = []
    m1 = by_name("strip-slit")
    _, _, rate = forward_rate(m1, m1.petal("upper").base_default, 4, 16)
    ok = rate.passed
    parts.append(f"{m1.name}: forward slope {rate.slope:.6f} vs {rate.target}")
    m2 = by_name("sector-parabolic")
    base2 = m2.petal("main").base_default
    linear = forward_speed(m2, base2, 2.0**16) / 2.0**16
    good = linear <= rate_threshold(0.0)
    ok = ok and good
    parts.append(f"{m2.name}: v(2^16)/2^16 = {linear:.3e}")
    return CheckResult("forward-speed-rates", ok, "; ".join(parts))


def _check_repelling_diagnostics(rng: random.Random) -> CheckResult:
    parts = []
    ok = True
    for model, petal in _all_petals():
        if petal.kind != "hyperbolic":
            continue
        samples = [
            model.disk_of_omega(w)
            for w in sample_petal_omega(model, petal, 1000, rng)
        ]
        rep = repelling_diagnostics(model, petal, samples)
        est_err = abs(rep.ratio_estimate - (-petal.lam))
        good = (
            rep.min_julia_residual >= -1e-9
            and est_err <= 1e-3
            and rep.min_herglotz_real >= -1e-9
        )
        extra = ""
        if model.name == "koebe-elliptic":
            # Closed-form cross-check: the radial ratio equals z/(1+z).
            sigma = rep.sigma_disk
            worst = 0.0
            for k, ratio in enumerate(rep.ratios, start=4):
                zk = sigma * (1.0 - 2.0**-k)
                worst = max(worst, abs(ratio - zk / (1.0 + zk)))
            good = good and worst <= 1e-9
            extra = f", closed-form gap {worst:.1e}"
        ok = ok and good
        parts.append(
            f"{model.name}/{petal.label}: julia {rep.min_julia_residual:.1e}, "
            f"rate err {est_err:.1e}, herglotz {rep.min_herglotz_real:.1e}{extra}"
        )
    return CheckResult("repelling-point-diagnostics", ok, "; ".join(parts))


def _check_bound_ratios() -> CheckResult:
    parts = []
    series, _, decreasing = bound_ratios(logrecip_profile(), BOUND_GRID)
    ratios = [r for _, r in series]
    max_ratio = 0.02
    small = ratios[1] <= max_ratio
    parts.append(
        f"logrecip upper/t^2 at -1e3: {ratios[1]:.6f} <= {_bound(max_ratio)}, "
        f"decreasing over five decades: {decreasing}"
    )
    ((_, gratio),), _, in_window = bound_ratios(gaussian_profile(), [-1e3])
    lo, hi = GAUSSIAN_RATIO_WINDOW
    parts.append(f"gaussian lower/t^2 at -1e3: {gratio:.10f} in [{lo}, {hi}]")
    ok = small and decreasing and in_window
    return CheckResult("distance-bound-ratios", ok, "; ".join(parts))


def _check_approach_angles() -> CheckResult:
    parts = []
    a = 1.0 + 0j
    radial = [(1.0 - 2.0**-k) * a for k in range(0, 21)]
    rad = approach_angle(radial, a, Arc(0.0, math.pi / 2))
    ok = (
        not rad.inconclusive
        and abs(rad.theta - math.pi / 2) <= 1e-2
    )
    parts.append(f"radial angle {rad.theta:.6f} vs pi/2 = {math.pi / 2:.6f}")

    model = by_name("strip-slit")
    petal = model.petal("upper")
    _, orb, good = orbit_angle(model, petal, petal.base_default, ORBIT_KMAX)
    lo, hi = APPROACH_ANGLE_WINDOW
    ok = ok and good
    parts.append(f"backward-orbit angle {orb.theta:.4f} inside ({lo:.4f}, {hi:.4f})")
    return CheckResult("approach-angles", ok, "; ".join(parts))


def _check_structural(rng: random.Random) -> CheckResult:
    parts = []
    ok = True

    worst_rt = 0.0
    for model in catalog():
        count = 0
        for petal in model.petals:
            n = 1000 // len(model.petals) + 1
            for w in sample_petal_omega(model, petal, n, rng):
                q = model.canonical_of_omega(w)
                back = model.omega_of_canonical(q)
                worst_rt = max(worst_rt, abs(back - w))
                count += 1
        if count < 1000:
            raise RuntimeError(f"{model.name}: round trip drew {count} < 1000 samples")
    max_rt = 1e-10
    ok = ok and worst_rt <= max_rt
    parts.append(f"round-trip error {worst_rt:.1e} <= {_bound(max_rt)}")

    worst_law = 0.0
    for model in catalog():
        for petal in model.petals:
            seeds = [petal.base_default] + sample_petal_omega(model, petal, 5, rng)
            for w in seeds:
                for t, s in ((0.7, 1.3), (0.25, 0.5)):
                    one = model.flow_omega(model.flow_omega(w, t), s)
                    two = model.flow_omega(w, t + s)
                    worst_law = max(worst_law, abs(one - two))
    max_law = 1e-9
    ok = ok and worst_law <= max_law
    parts.append(f"semigroup-law residual {worst_law:.1e} <= {_bound(max_law)}")

    worst_metric = 0.0
    for model in catalog():
        for petal in model.petals:
            pts = sample_petal_omega(model, petal, 20, rng)
            for z, w in zip(pts[::2], pts[1::2]):
                via_disk = disk_distance(
                    model.disk_of_omega(z), model.disk_of_omega(w)
                )
                via_canonical = uhp_distance(
                    model.canonical_of_omega(z), model.canonical_of_omega(w)
                )
                worst_metric = max(worst_metric, abs(via_disk - via_canonical))
    max_metric = 1e-9
    ok = ok and worst_metric <= max_metric
    parts.append(f"cross-domain metric gap {worst_metric:.1e} <= {_bound(max_metric)}")

    grid = [-10.0, -100.0, -1000.0]
    worst_reg = 0.0
    for model, petal in _all_petals():
        gaps = regularity_gap(model, petal, petal.base_default, grid)
        ratio = max(gaps) / gaps[0]
        worst_reg = max(worst_reg, ratio)
    max_reg = 2.0
    ok = ok and worst_reg <= max_reg
    parts.append(f"regularity-gap growth {worst_reg:.4f} <= {_bound(max_reg)}")

    return CheckResult("structural-consistency", ok, "; ".join(parts))


CHECK_NAMES = (
    "total-speed-slopes",
    "parabolic-speed-envelope",
    "tangential-plateau-vs-divergence",
    "orthogonal-speed-slopes",
    "pythagorean-sandwich",
    "base-point-independence",
    "forward-speed-rates",
    "repelling-point-diagnostics",
    "distance-bound-ratios",
    "approach-angles",
    "structural-consistency",
)


def run_all(seed: int = DEFAULT_SEED) -> List[CheckResult]:
    """Run every verification check; deterministic for a fixed seed."""
    rng = random.Random(seed)
    results = [
        _check_total_slopes(),
        _check_parabolic_envelope(),
        _check_tangential_plateau(),
        _check_orthogonal_slopes(),
        _check_pythagorean_sandwich(),
        _check_base_independence(rng),
        _check_forward_rates(),
        _check_repelling_diagnostics(rng),
        _check_bound_ratios(),
        _check_approach_angles(),
        _check_structural(rng),
    ]
    if [r.name for r in results] != list(CHECK_NAMES):
        raise RuntimeError("check results are out of step with CHECK_NAMES")
    return results
