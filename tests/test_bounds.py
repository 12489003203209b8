"""Tests for profile-driven distance bounds."""

import bisect
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest

from petallab import bounds, verify
from petallab.bounds import (
    BoundaryProfile,
    _tanh_sinh_levels,
    bound_ratio_series,
    custom_profile,
    gaussian_profile,
    logrecip_profile,
    lower_bound,
    profile_from_file,
    profile_from_table,
    upper_bound,
)
from oracles import reference_panels, reference_upper_bound
from petallab.hypcore import DomainError
from petallab.speeds import EstimationError

SRC = Path(__file__).resolve().parents[1] / "src"

# mpmath oracle (40 digits): upper bound ratios for delta = 1/log(-t),
# d0 = 1, t0 = -e, via the antiderivative s*log(-s) - s.
LOGRECIP_RATIO_1E2 = 0.03615170185988091368
LOGRECIP_RATIO_1E3 = 0.0059087552789821370521
# ... and at t = -1e200, where t^2 overflows floats.
LOGRECIP_RATIO_1E200 = 4.595170185988091368035982909368728415202e-198
# mpmath oracle: gaussian lower-bound ratio at t = -1e3 (t0 = -1, d0 = 1).
GAUSSIAN_RATIO_1E3 = 0.2499989997498749166
# mpmath oracle: log1p(10)/4.
QUARTER_LOG1P_10 = 0.59947381819959263602


def without_antiderivative(p: BoundaryProfile) -> BoundaryProfile:
    """The same gap as ``p`` with no antiderivative, so that ``upper_bound``
    integrates it by the tanh-sinh rule."""
    return BoundaryProfile(p.name, p.t0, p.d0, p.log_delta)


class TestProfiles:
    def test_logrecip_defaults(self):
        p = logrecip_profile()
        assert p.name == "logrecip"
        assert p.t0 == pytest.approx(-math.e)
        assert p.d0 == 1.0
        assert p.log_delta(-math.e**2) == pytest.approx(-math.log(2.0))

    def test_logrecip_anchor_validation(self):
        with pytest.raises(DomainError):
            logrecip_profile(t0=-2.0)
        logrecip_profile(t0=-math.e)

    def test_gaussian_defaults(self):
        p = gaussian_profile()
        assert p.name == "gaussian"
        assert p.t0 == -1.0
        assert p.log_delta(-1.0) == -1.0
        assert p.log_delta(-2.0) == pytest.approx(math.log(2.0) - 4.0)

    def test_gaussian_log_gap_survives_underflow(self):
        p = gaussian_profile()
        assert math.exp(p.log_delta(-40.0)) == 0.0
        assert p.log_delta(-40.0) == pytest.approx(math.log(40.0) - 1600.0)

    def test_profile_validation(self):
        with pytest.raises(DomainError):
            gaussian_profile(t0=1.0)
        with pytest.raises(DomainError):
            custom_profile(lambda t: 1.0, t0=-1.0, d0=-0.5)
        with pytest.raises(DomainError):
            custom_profile(lambda t: 1.0, t0=0.0)
        # The name "gaussian" no longer makes a profile the gaussian's: a
        # custom profile of that name reads its upper bound, as any other.
        named = custom_profile(lambda t: 1.0 / math.log(-t), t0=-math.e, name="gaussian")
        ((_, ratio),) = bound_ratio_series(named, [-1e3])
        assert ratio == pytest.approx(LOGRECIP_RATIO_1E3, abs=1e-15)
        with pytest.raises(DomainError):
            BoundaryProfile(
                name="bad",
                t0=-1.0,
                d0=0.0,
                log_delta=lambda t: -math.inf,
            )


class TestUpperBound:
    def test_anchor_value(self):
        p = logrecip_profile(d0=0.75)
        assert upper_bound(p, p.t0) == 0.75

    def test_closed_form_values(self):
        p = logrecip_profile()
        assert upper_bound(p, -1e2) / 1e4 == pytest.approx(
            LOGRECIP_RATIO_1E2, abs=1e-15
        )
        assert upper_bound(p, -1e3) / 1e6 == pytest.approx(
            LOGRECIP_RATIO_1E3, abs=1e-15
        )

    def test_custom_gap_reaching_zero_is_a_domain_error(self):
        # The quadrature on [-9, -1] evaluates the gap at its midpoint -5.
        p = custom_profile(lambda t: abs(t + 5.0), t0=-1.0)
        with pytest.raises(DomainError, match=r"bounds: .* at t = -5\.0"):
            upper_bound(p, -9.0)

    def test_quadrature_matches_closed_form(self):
        p = logrecip_profile()
        for t in (-5.0, -50.0, -500.0):
            closed = upper_bound(p, t)
            quad_val = upper_bound(without_antiderivative(p), t)
            assert quad_val == pytest.approx(closed, abs=1e-9)

    def test_quadrature_matches_closed_form_far_out(self):
        p = logrecip_profile()
        for t in (-10.0, -1e3, -1e6):
            closed = upper_bound(p, t)
            quad_val = upper_bound(without_antiderivative(p), t)
            assert quad_val == pytest.approx(closed, rel=1e-12)

    def test_quadrature_exact_on_smooth_gaps(self):
        # 1/delta = 1 and 1/delta = 1 + t^2 integrate in closed form.
        const = custom_profile(lambda t: 1.0, t0=-1.0, d0=0.0)
        assert upper_bound(const, -11.0) == pytest.approx(10.0, rel=1e-14)
        poly = custom_profile(lambda t: 1.0 / (1.0 + t * t), t0=-1.0, d0=0.0)
        assert upper_bound(poly, -11.0) == pytest.approx(10.0 + 1330.0 / 3.0, rel=1e-14)

    def test_quadrature_rejects_non_integrable_gap(self):
        # 1/|t + 5| is not integrable across t = -5.
        p = custom_profile(lambda t: abs(t + 5.0), t0=-1.0)
        with pytest.raises(EstimationError, match="bounds.upper_bound"):
            upper_bound(p, -11.0)

    def test_quadrature_sum_overflows_to_inf(self):
        # Each value of 1/delta = e^709 is finite; their integral is not.
        p = custom_profile(lambda t: 0.0, t0=-1.0, log_delta=lambda t: -709.0)
        assert upper_bound(p, -11.0) == math.inf

    def test_root_exponential_far_out(self):
        # 1/delta = exp(-sqrt(-s)) from t0 = -1 integrates to 4/e, nearly all
        # of it next to t0: the first panel holds it however far out t is.
        p = custom_profile(None, t0=-1.0, log_delta=lambda s: math.sqrt(-s))
        for k in range(6, 301):
            assert upper_bound(p, -(10.0**k)) == pytest.approx(1.0 + 4.0 / math.e, rel=1e-12), k

    def test_quadrature_matches_closed_form_in_panels(self):
        # Up to 51 panels at -1e300, against the antiderivative in mpmath.
        p = without_antiderivative(logrecip_profile())
        with mpmath.workdps(40):
            t0 = mpmath.mpf(p.t0)
            for k in range(7, 301, 7):
                t = mpmath.mpf(-(10.0**k))
                exact = p.d0 + (t0 * mpmath.log(-t0) - t0) - (t * mpmath.log(-t) - t)
                assert upper_bound(p, float(t)) == pytest.approx(float(exact), rel=1e-15), k

    def test_panels_tile_the_range_geometrically(self):
        for t0, t in ((-math.e, -1e300), (-1.0, -1e6), (-1.0, -1.5e6), (-1e-300, -1e308)):
            panels = list(bounds._panels(t, t0))
            assert panels == reference_panels(t, t0)
            assert panels[0][1] == t0 and panels[-1][0] == t
            assert all(a == b * bounds._PANEL_RATIO for a, b in panels[:-1])
            assert all(b == a for (_, b), (a, _) in zip(panels[1:], panels))
            assert all(a < b for a, b in panels)
        # Fifty products of R round just short of 1e300: a 51st, thin panel.
        assert len(list(bounds._panels(-1e300, -1.0))) == 51
        assert len(list(bounds._panels(-1e6, -1.0))) == 1

    def test_one_panel_keeps_the_rule_on_the_whole_range(self):
        # t / t0 <= R: the bound is the rule's on [t, t0], bit for bit.
        p = without_antiderivative(logrecip_profile())
        for t in (-10.0, -1e3, -1e6, p.t0 * bounds._PANEL_RATIO):
            assert upper_bound(p, t) == p.d0 + bounds._tanh_sinh(p.log_delta, t, p.t0)

    def test_constant_gap_integrates_linearly(self):
        p = custom_profile(lambda t: 1.0, t0=-1.0, d0=2.0)
        assert upper_bound(p, -11.0) == pytest.approx(12.0, abs=1e-9)

    def test_gaussian_upper_overflows_to_inf(self):
        p = gaussian_profile()
        assert upper_bound(p, -1e3) == math.inf

    def test_range_validation(self):
        p = logrecip_profile()
        with pytest.raises(DomainError):
            upper_bound(p, -1.0)
        with pytest.raises(DomainError):
            upper_bound(p, math.nan)


def _quad_cases():
    """Profiles that upper_bound integrates by the tanh-sinh rule, each with
    the times to bound it at: fixed ones and seeded log-uniform draws."""
    rng = random.Random(1974)

    def draws(lo, hi):
        return tuple(-(10.0 ** rng.uniform(lo, hi)) for _ in range(20))

    table = profile_from_table([(-1e6, 1e-3), (-10.0, 0.5), (-2.0, 0.25), (-1.0, 2.0)])
    gap_zero_at_minus_5 = custom_profile(lambda t: abs(t + 5.0), t0=-1.0)
    return [
        (without_antiderivative(logrecip_profile()), (-10.0, -1e3, -1e6, -1e12) + draws(0.5, 12.0)),
        # 1/delta overflows from about t = -27 on: the bound is inf.
        (gaussian_profile(), (-26.0, -30.0, -1e3) + draws(0.0, 2.0)),
        (custom_profile(lambda t: 1.0 / (1.0 + t * t), t0=-1.0, d0=0.0),
         (-10.0, -1e3, -1e6) + draws(0.0, 6.0)),
        (without_antiderivative(table), (-1.5, -9.0, -1e3, -1e6) + draws(0.0, 6.0)),
        # A 1e-300 anchor: the right endpoint sits next to 0.
        (custom_profile(None, t0=-1e-300, log_delta=lambda t: 0.5 * math.log(-t)),
         (-3e-300, -1e-100, -1.0, -1e6) + draws(-299.0, 6.0)),
        # 1/|t + 5| is not integrable across t = -5 (EstimationError), and
        # the gap is 0 at -5, the midpoint of [-9, -1] (DomainError).
        (gap_zero_at_minus_5, (-11.0, -9.0)),
    ]


def _quad_outcome(fn, profile, t):
    try:
        return ("value", repr(fn(profile, t)))
    except Exception as exc:  # every error must match the reference's
        return ("error", type(exc), str(exc))


class TestTanhSinhEndpointReuse:
    def test_matches_the_rule_that_reads_every_node(self):
        # Reusing the endpoints' integrands changes no term and no sum
        # order, so values, inf and errors are those of the plain rule.
        kinds = set()
        for profile, times in _quad_cases():
            for t in times:
                want = _quad_outcome(reference_upper_bound, profile, t)
                assert _quad_outcome(upper_bound, profile, t) == want, (profile.name, t)
                kinds.add(want[1] if want[0] == "error" or want[1] == "inf" else "finite")
        assert kinds == {"finite", "inf", EstimationError, DomainError}

    def test_each_endpoint_integrand_is_evaluated_once(self):
        p = without_antiderivative(logrecip_profile())
        for t in (-10.0, -1e3, -1e6):
            got, reused = _recorded(upper_bound, p, t)
            want, calls = _recorded(reference_upper_bound, p, t)
            assert got == want
            assert reused == _endpoint_repeats_dropped(calls, t, p.t0)
            assert reused.count(t) == 1 and reused.count(p.t0) == 1
            if t == -1e3:
                # 195 calls become 105: 92 of them landed on an endpoint.
                assert len(reused) <= 0.6 * len(calls)

    def test_gaps_and_weights_fall_strictly_within_every_level(self):
        # The tail exit's precondition: the nodes that round onto both
        # endpoints form the end of a level, with falling weights.
        assert len(_tanh_sinh_levels()) == 9
        for nodes in _tanh_sinh_levels():
            gaps = [gap for gap, _ in nodes]
            weights = [weight for _, weight in nodes]
            assert all(g > h for g, h in zip(gaps, gaps[1:]))
            assert all(v > w for v, w in zip(weights, weights[1:]))
            assert 0.0 < gaps[-1] and 0.0 < weights[-1]

    def test_tail_exit_matches_the_rule_that_adds_every_node(self):
        # Ending a level at its first endpoint term that adds nothing
        # changes no value, inf or error, and no call to log_delta.
        kinds = set()
        for profile, times in _tail_cases():
            for t in times:
                want, ref_calls = _recorded(reference_upper_bound, profile, t)
                got, calls = _recorded(upper_bound, profile, t)
                assert got == want, (profile.name, t)
                assert calls == _endpoint_repeats_dropped(ref_calls, t, profile.t0), (
                    profile.name, t)
                kinds.add(want[1] if want[0] == "error" or want[1] == "inf" else "finite")
        assert kinds == {"finite", "inf", EstimationError}

    def test_tail_exit_skips_the_endpoint_nodes_that_add_nothing(self, monkeypatch):
        # Counted node visits: the plain rule visits every node of each
        # level it reaches, the exit about two thirds of them (33 of 48
        # at -10, 62 of 97 at -1e3, 122 of 195 at -1e6).
        visits = [0]

        class Counted(tuple):
            def __iter__(self):
                for node in tuple.__iter__(self):
                    visits[0] += 1
                    yield node

        counted = tuple(Counted(nodes) for nodes in _tanh_sinh_levels())
        monkeypatch.setattr(bounds, "_tanh_sinh_levels", lambda: counted)
        p = without_antiderivative(logrecip_profile())
        for t in (-10.0, -1e3, -1e6):
            visits[0] = 0
            assert upper_bound(p, t) == reference_upper_bound(p, t)
            _, ref_calls = _recorded(reference_upper_bound, p, t)
            every_node = (len(ref_calls) - 1) // 2
            assert visits[0] <= 0.7 * every_node, (t, visits[0], every_node)


def _recorded(fn, profile, t):
    """``fn(profile, t)``'s outcome, as ``_quad_outcome`` gives it, and the
    times at which it called ``log_delta``, in order."""
    calls = []
    log_delta = profile.log_delta

    def recording(s):
        calls.append(s)
        return log_delta(s)

    counted = BoundaryProfile(profile.name, profile.t0, profile.d0, recording)
    calls.clear()  # the constructor's check of the anchor
    return _quad_outcome(fn, counted, t), calls


def _endpoint_repeats_dropped(calls, t, t0):
    """The plain rule's calls with each end of a panel of ``[t, t0]`` read
    only the first time in that panel.  A panel's calls follow the one
    before's, and its first, at its midpoint, lies outside every panel
    before it."""
    panels = iter(reference_panels(t, t0))
    a, b = next(panels)
    seen = set()
    kept = []
    for x in calls:
        while not a <= x <= b:
            a, b = next(panels)
            seen = set()
        if x in (a, b):
            if x in seen:
                continue
            seen.add(x)
        kept.append(x)
    return kept


def _at_endpoints(name, log_delta, t0, t, value, value_at_t0=None):
    """A profile reading ``log_delta``, except ``value`` at the left
    endpoint ``t`` of the bound it is meant for, and ``value_at_t0`` at
    its anchor when that is given."""
    special = {t: value}
    if value_at_t0 is not None:
        special[t0] = value_at_t0

    def read(s):
        return special[s] if s in special else log_delta(s)

    return BoundaryProfile(f"{name} at {t}", t0, 1.0, read)


def _tail_cases():
    """Profiles without an antiderivative at t = -10^k out to -1e150, and
    profiles whose integrand at an endpoint underflows to 0, overflows to
    inf (or past it, raising OverflowError), or is NaN."""
    decades = tuple(-(10.0 ** k) for k in range(1, 151))
    some = tuple(-(10.0 ** k) for k in (1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 150))
    logrecip = lambda s: -math.log(math.log(-s))
    cases = [
        (without_antiderivative(logrecip_profile()), decades),
        # 1/delta = (-s)^(-1/2).
        (custom_profile(None, t0=-1.0, log_delta=lambda s: 0.5 * math.log(-s),
                        name="inverse-sqrt"), decades),
        # 1/delta = exp(-sqrt(-s)) underflows to 0 from about s = -5e5; the
        # panels keep its mass next to t0, so every time has a value.
        (custom_profile(None, t0=-1.0, log_delta=lambda s: math.sqrt(-s),
                        name="root-exponential"), decades),
    ]
    # One special integrand value at the left endpoint t (each t its own
    # profile), and at the anchor too: underflow to 0, inf, past float
    # range (OverflowError), NaN, and spikes e^10 to e^700 whose endpoint
    # terms move a level's sum for many nodes.
    for label, value, at_t0 in (("underflow", 1e4, None), ("inf", -math.inf, None),
                                ("overflow", -1e3, None), ("nan", math.nan, None),
                                ("both-underflow", 1e4, 1e4), ("spike", -10.0, None),
                                ("both-spike", -20.0, -10.0), ("huge-spike", -700.0, -100.0)):
        for t in some:
            cases.append((_at_endpoints(label, logrecip, -math.e, t, value, at_t0), (t,)))
    return cases


def test_runtime_loads_only_the_standard_library():
    # The package, its CLI module, the verify suite, the slope fit, the
    # quadrature and a tabulated profile all run on the standard library
    # alone: they import no module outside it but petallab's own.  Modules
    # that the interpreter's site setup loaded before petallab do not count.
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import math\n"
        "import petallab, petallab.lab\n"
        "from petallab import by_name, dyadic_grid, slope_estimate, speed_series\n"
        "from petallab.bounds import custom_profile, profile_from_table, upper_bound\n"
        "from petallab.verify import run_all\n"
        "run_all(0)\n"
        "p = custom_profile(lambda t: 1.0 / math.log(-t), t0=-math.e)\n"
        "assert math.isfinite(upper_bound(p, -1e3))\n"
        "m = by_name('strip-slit')\n"
        "petal = m.petal('upper')\n"
        "series = speed_series(m, petal, petal.base_default, dyadic_grid(4, 16))\n"
        "assert abs(slope_estimate(series)[0] + 1.0) < 1e-9\n"
        "table = profile_from_table([(-100.0, 1e-3), (-10.0, 0.1), (-1.0, 1.0)])\n"
        "assert math.isfinite(upper_bound(table, -50.0))\n"
        "allowed = sys.stdlib_module_names | {'petallab'}\n"
        "print(sorted(m for m in set(sys.modules) - before if m.split('.')[0] not in allowed))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True, timeout=120,
    )
    assert out.stdout.strip() == "[]"


class TestLowerBound:
    def test_anchor_value(self):
        p = gaussian_profile(d0=0.25)
        assert lower_bound(p, p.t0) == -0.25

    def test_custom_gap_reaching_zero_is_a_domain_error(self):
        p = custom_profile(lambda t: abs(t + 5.0), t0=-1.0)
        with pytest.raises(DomainError, match=r"bounds: .* at t = -5\.0"):
            lower_bound(p, -5.0)
        nan_gap = custom_profile(lambda t: 1.0 if t > -3.0 else math.nan, t0=-1.0)
        with pytest.raises(DomainError, match=r"bounds: .* at t = -4\.0"):
            lower_bound(nan_gap, -4.0)

    def test_constant_gap_closed_form(self):
        p = custom_profile(lambda t: 1.0, t0=-1.0, d0=0.0)
        assert lower_bound(p, -11.0) == pytest.approx(QUARTER_LOG1P_10, abs=1e-12)

    def test_gaussian_oracle_ratio(self):
        p = gaussian_profile()
        got = lower_bound(p, -1e3) / 1e6
        assert got == pytest.approx(GAUSSIAN_RATIO_1E3, abs=1e-12)
        assert 0.249 <= got <= 0.2501

    def test_log_guard_continuous(self):
        # The guarded branch and the direct branch agree where they meet.
        p = custom_profile(
            lambda t: math.exp(t), t0=-1.0, log_delta=lambda t: t, d0=0.0
        )
        tol = 1e-12
        for t in (-23.5, -24.0, -24.5):
            y = math.log(-1.0 - t) - min(t, -1.0)
            direct = 0.25 * math.log1p(math.exp(y))
            assert lower_bound(p, t) == pytest.approx(direct, abs=tol)

    def test_survives_extreme_underflow(self):
        # Gap shrinks like exp(-t^2); the bound must stay finite and grow.
        p = gaussian_profile()
        vals = [lower_bound(p, t) for t in (-1e2, -1e3, -1e4)]
        assert all(math.isfinite(v) for v in vals)
        assert vals[0] < vals[1] < vals[2]
        assert vals[2] == pytest.approx(0.25e8, rel=1e-4)

    def test_range_validation(self):
        p = gaussian_profile()
        with pytest.raises(DomainError):
            lower_bound(p, -0.5)


class TestBoundOrdering:
    def test_lower_at_most_upper_plus_offsets(self):
        # The two bounds bracket the same distance, so the lower one can
        # exceed the upper only by the 2*d0 slack in their anchors.
        profiles = [
            logrecip_profile(),
            logrecip_profile(t0=-10.0, d0=0.2),
            custom_profile(lambda t: 1.0 / (1.0 + t * t), t0=-1.0, d0=0.5),
        ]
        for p in profiles:
            a, b = p.t0 - 0.5, p.t0 - 2000.0
            for t in [a + (b - a) * i / 59 for i in range(60)]:
                lo = lower_bound(p, t)
                hi = upper_bound(p, t)
                assert lo <= hi + 2.0 * p.d0 + 1e-12

    def test_gaussian_ordering_with_infinite_upper(self):
        p = gaussian_profile()
        assert lower_bound(p, -50.0) <= upper_bound(p, -50.0) + 2.0 * p.d0


class TestRatioSeries:
    def test_empty_grid(self):
        assert bound_ratio_series(logrecip_profile(), []) == []

    def test_logrecip_defaults_to_upper_and_decreases(self):
        p = logrecip_profile()
        grid = [-(10.0**k) for k in range(2, 7)]
        series = bound_ratio_series(p, grid)
        assert [t for t, _ in series] == grid
        ratios = [r for _, r in series]
        assert ratios[0] == pytest.approx(LOGRECIP_RATIO_1E2, abs=1e-15)
        assert ratios[1] == pytest.approx(LOGRECIP_RATIO_1E3, abs=1e-15)
        assert ratios[1] <= 0.02
        assert all(a > b for a, b in zip(ratios, ratios[1:]))

    def test_gaussian_defaults_to_lower(self):
        p = gaussian_profile()
        series = bound_ratio_series(p, [-1e3])
        assert series[0][1] == pytest.approx(GAUSSIAN_RATIO_1E3, abs=1e-12)

    def test_a_profile_named_gaussian_is_judged_by_its_gap(self):
        # Only gaussian_profile is judged by its lower bound and the gaussian
        # window; the name alone once was, reading 1.2094557946774302e-06 at
        # -1e3 for the log gap of 1/log(-t) and failing that window.
        for name in ("gaussian", "x"):
            p = BoundaryProfile(name, -math.e, 1.0, lambda t: -math.log(math.log(-t)))
            assert not p.judged_by_lower
            ((_, ratio),) = bound_ratio_series(p, [-1e3])
            assert ratio == pytest.approx(LOGRECIP_RATIO_1E3, abs=1e-15)
            _, rule, passed = verify.bound_ratios(p, [-1e2, -1e3])
            assert (rule, passed) == ("ratios strictly decreasing", True)
        assert gaussian_profile().judged_by_lower
        _, rule, _ = verify.bound_ratios(gaussian_profile(), [-1e3])
        assert rule.startswith("every ratio in [")

    def test_grid_validation(self):
        with pytest.raises(DomainError):
            bound_ratio_series(logrecip_profile(), [-1.0])

    def test_ratio_where_t_squared_overflows(self):
        series = bound_ratio_series(logrecip_profile(), [-1e200])
        assert series[0][1] == pytest.approx(LOGRECIP_RATIO_1E200, rel=1e-14)

    def test_ratio_keeps_t_squared_while_it_is_finite(self):
        # Up to |t| = 1e150 the ratio is the bound over t * t, to the bit.
        for p, bound in ((logrecip_profile(), upper_bound),
                         (gaussian_profile(), lower_bound)):
            grid = [-(10.0**k) for k in range(2, 151)]
            series = bound_ratio_series(p, grid)
            assert [r for _, r in series] == [bound(p, t) / (t * t) for t in grid]

    @pytest.mark.parametrize("t", [-1e-160, -1e-170])
    def test_ratio_where_t_squared_underflows(self, t):
        # A unit gap anchored at -1e-200 with d0 = 0 has the upper bound
        # t0 - t; t^2 is subnormal at -1e-160 and 0 at -1e-170.
        p = BoundaryProfile("unit", -1e-200, 0.0, lambda s: 0.0,
                            inv_delta_antiderivative=lambda s: s)
        with mpmath.workdps(40):
            exact = float((mpmath.mpf(-1e-200) - t) / mpmath.mpf(t) ** 2)
        assert bound_ratio_series(p, [t])[0][1] == pytest.approx(exact, rel=1e-14)

    @pytest.mark.parametrize("profile,t", [
        (logrecip_profile(), -1e307),   # the upper bound overflows to inf
        (gaussian_profile(), -1e160),   # log_delta is -inf: lower bound inf
    ])
    def test_non_finite_bound_raises(self, profile, t):
        with pytest.raises(DomainError, match=r"bounds: .* at t = -1e\+"):
            bound_ratio_series(profile, [t])


class TestHugeIntegerTimes:
    """An integer time past float range is a ``DomainError`` that names
    the bounds layer, not a bare ``OverflowError``."""

    def test_lower_bound(self):
        with pytest.raises(DomainError, match="bounds: a time is past float range"):
            lower_bound(gaussian_profile(), -10 ** 400)

    def test_upper_bound(self):
        with pytest.raises(DomainError, match="bounds: a time is past float range"):
            upper_bound(logrecip_profile(), -10 ** 400)

    def test_bound_ratio_series(self):
        with pytest.raises(DomainError, match="bounds: a time is past float range"):
            bound_ratio_series(logrecip_profile(), [-10.0, -10 ** 400])

    def test_large_integer_in_range_is_a_float_time(self):
        profile = logrecip_profile()
        assert upper_bound(profile, -10 ** 20) == upper_bound(profile, -1e20)
        assert lower_bound(profile, -10 ** 20) == lower_bound(profile, -1e20)


class TestTabulatedProfiles:
    def test_table_interpolates_in_log_gap(self):
        rows = [(-100.0, 1e-4), (-10.0, 1e-2), (-1.0, 1.0)]
        p = profile_from_table(rows, d0=0.0)
        assert p.t0 == -1.0
        assert p.log_delta(-10.0) == pytest.approx(math.log(1e-2), rel=1e-12)
        # halfway in t between -10 and -100 is the geometric mean of gaps
        assert p.log_delta(-55.0) == pytest.approx(math.log(1e-3), rel=1e-12)

    def test_table_validation(self):
        with pytest.raises(DomainError):
            profile_from_table([(-1.0, 1.0)])
        with pytest.raises(DomainError):
            profile_from_table([(-1.0, 1.0), (-1.0, 2.0)])
        # A NaN time sorts anywhere and compares unequal to every time.
        with pytest.raises(DomainError):
            profile_from_table([(-3.0, 2.0), (math.nan, 1.0), (-1.0, 1.0)])
        with pytest.raises(DomainError):
            profile_from_table([(-math.inf, 2.0), (-3.0, 1.0), (-1.0, 1.0)])
        with pytest.raises(DomainError):
            profile_from_table([(-2.0, 1.0), (-1.0, -3.0)])
        with pytest.raises(DomainError):
            profile_from_table([(-2.0, 1.0), (-1.0, 1.0)], t0=-5.0)

    def test_table_range_enforced(self):
        p = profile_from_table([(-100.0, 1e-3), (-1.0, 1.0)])
        with pytest.raises(DomainError):
            p.log_delta(-200.0)
        with pytest.raises(DomainError):
            lower_bound(p, -200.0)

    def test_bounds_on_tabulated_profile(self):
        # Table sampled from delta(t) = 1/log(-t); log interpolation of a
        # slowly varying gap reproduces the closed-form bound to ~1e-3.
        exact = logrecip_profile(t0=-math.e, d0=1.0)
        ts = [-math.exp(1.0 + 7.0 * i / 399) for i in range(400)]
        rows = [(t, 1.0 / math.log(-t)) for t in ts]
        p = profile_from_table(rows, t0=max(ts), d0=1.0)
        t_query = -1000.0
        got = upper_bound(p, t_query)
        want = upper_bound(exact, math.exp(1.0) * -1.0) + (
            upper_bound(exact, t_query) - upper_bound(exact, -math.exp(1.0))
        )
        assert got == pytest.approx(want, rel=1e-3)

    # A table whose gaps span 30 decades and whose segments have unequal
    # lengths; its logs come from math.log, as the profile's own do.
    ORACLE_ROWS = [(-1e4, 1e-30), (-700.0, 3e-9), (-90.0, 2e-4), (-12.5, 0.05),
                   (-3.0, 0.4), (-2.0, 0.41), (-1.0, 1.0)]

    ORACLE_TS = [t for t, _ in ORACLE_ROWS]
    ORACLE_FP = [math.log(d) for _, d in ORACLE_ROWS]

    @staticmethod
    def _interp(t, ts, fp):
        """Piecewise-linear interpolation of the nodes (ts, fp) at t in
        [ts[0], ts[-1]], in the usual array-library form: the segment j with
        ts[j] <= t < ts[j + 1] by binary search, a node's own value at a
        node and at the right end, and else slope * (t - ts[j]) + fp[j] with
        slope = (fp[j + 1] - fp[j]) / (ts[j + 1] - ts[j]), each operation
        one rounded double."""
        j = bisect.bisect_right(ts, t) - 1
        if j == len(ts) - 1 or ts[j] == t:
            return fp[j]
        slope = (fp[j + 1] - fp[j]) / (ts[j + 1] - ts[j])
        return slope * (t - ts[j]) + fp[j]

    def test_log_delta_matches_interp(self):
        p = profile_from_table(self.ORACLE_ROWS)
        ts, fp = self.ORACLE_TS, self.ORACLE_FP
        mids = [0.5 * (b + a) for a, b in zip(ts, ts[1:])]
        thirds = [a + (b - a) / 3.0 for a, b in zip(ts, ts[1:])]
        # The exact interpolant of the float nodes, read at the float time:
        # the package is within one ulp of the largest |log delta|.
        ulp = math.ulp(max(abs(v) for v in fp))
        for t in [*ts, *mids, *thirds, math.nextafter(ts[-1], -math.inf)]:
            assert p.log_delta(t) == self._interp(t, ts, fp), t
            j = min(bisect.bisect_right(ts, t) - 1, len(ts) - 2)
            exact = Fraction(fp[j]) + (Fraction(fp[j + 1]) - Fraction(fp[j])) \
                * (Fraction(t) - Fraction(ts[j])) / (Fraction(ts[j + 1]) - Fraction(ts[j]))
            assert abs(Fraction(p.log_delta(t)) - exact) <= ulp, t
        # Both ends return their tabulated values exactly.
        assert p.log_delta(ts[0]) == fp[0]
        assert p.log_delta(ts[-1]) == fp[-1]

    def test_antiderivative_matches_searchsorted(self):
        p = profile_from_table(self.ORACLE_ROWS)
        anti = p.inv_delta_antiderivative
        ts, fp = self.ORACLE_TS, self.ORACLE_FP

        def segment(i, s):
            # integral of exp(-L) over [ts[i], s], L linear between nodes.
            slope = (fp[i + 1] - fp[i]) / (ts[i + 1] - ts[i])
            return (math.exp(-fp[i]) - math.exp(-self._interp(s, ts, fp))) / slope

        def oracle(s):
            i = min(bisect.bisect_right(ts, s) - 1, len(ts) - 2)
            return math.fsum([segment(j, ts[j + 1]) for j in range(i)] + [segment(i, s)])

        mids = [0.5 * (b + a) for a, b in zip(ts, ts[1:])]
        for s in [*ts, *mids]:
            assert anti(s) == pytest.approx(oracle(s), rel=1e-13), s
        assert anti(ts[0]) == 0.0
        with pytest.raises(DomainError):
            anti(math.nextafter(ts[0], -math.inf))
        with pytest.raises(DomainError):
            anti(math.nextafter(ts[-1], math.inf))

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "profile.txt"
        path.write_text(
            "# t  delta\n"
            "-1.0, 1.0\n"
            "\n"
            "-10.0 0.5   # inline note\n"
            "-100.0\t0.25\n"
        )
        p = profile_from_file(str(path), d0=0.0)
        assert p.t0 == -1.0
        assert p.log_delta(-10.0) == pytest.approx(math.log(0.5), rel=1e-12)
        assert upper_bound(p, -1.0) == 0.0

    def test_file_rejects_bad_rows(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("-1.0 1.0 extra\n-2.0 1.0\n")
        with pytest.raises(DomainError):
            profile_from_file(str(path))
        path.write_text("-1.0 apple\n-2.0 1.0\n")
        with pytest.raises(DomainError):
            profile_from_file(str(path))
