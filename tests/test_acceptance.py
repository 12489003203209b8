"""Acceptance gate: every headline claim checked at its stated tolerance.

Each criterion prints one PASS/FAIL line with the measured numbers; run
with ``pytest -v -s tests/test_acceptance.py`` to see them all.
"""

import math
import time

import mpmath
import pytest

from oracles import mp_orbit_reading
from petallab import by_name, catalog, semigroup, speeds, verify
from petallab.verify import CHECK_NAMES, run_all


@pytest.fixture(scope="module")
def suite():
    start = time.perf_counter()
    results = run_all()
    elapsed = time.perf_counter() - start
    return {r.name: r for r in results}, elapsed


@pytest.mark.parametrize("name", CHECK_NAMES, ids=CHECK_NAMES)
def test_criterion(suite, name):
    results, _ = suite
    result = results[name]
    line = f"{'PASS' if result.passed else 'FAIL'} {result.name}: {result.detail}"
    print(line)
    assert result.passed, line


def test_verification_runtime(suite):
    _, elapsed = suite
    line = f"{'PASS' if elapsed < 30.0 else 'FAIL'} runtime: {elapsed:.2f}s < 30s"
    print(line)
    assert elapsed < 30.0, line


def test_repeat_runs_compare_equal():
    # The benchmark's repeat check compares run_all results with ==.
    first = run_all(7)
    assert first == run_all(7)
    assert [r.name for r in first] == list(CHECK_NAMES)


def test_detail_prints_the_bound_it_checks(monkeypatch):
    # The sub-linear slope bound comes from the criteria table, so the
    # report follows a change to the table.
    monkeypatch.setattr(verify, "SUBLINEAR_PER_TOL", 2e-2)
    text, _ = verify._check_orthogonal_slopes()[-1]
    assert text.endswith("<= 2e-3")


def _mp_chart_angle(name, base):
    """The angle of the base's image in its petal's chart, in mpmath: the
    strip {0 < Im w < pi/2} opens by e^(2w), {-pi/2 < Im w < 0} by
    e^(2w + i pi), and the slit plane by i sqrt(w)."""
    w = mpmath.mpc(base)
    if name == "koebe-elliptic":
        return mpmath.arg(1j * mpmath.sqrt(w))
    return 2 * w.imag + (mpmath.pi if w.imag < 0 else 0)


def test_off_centre_limits_against_mpmath():
    # verify's table of hyperbolic bases: the chart angles, modulo pi, and
    # the limits of v_T and v - v_o they give, derived at 40 digits.  At the
    # default bases theta is pi/2 and both limits are 0 (on strip-slit's
    # lower petal the float base lies 3e-17 off the centre line, and its
    # theta is the float above pi/2); off the centre lines v_T's limit
    # reads 0.5866632036455847 on both strips and 0.12632280517893377 on the
    # slit plane.
    rows = verify._hyperbolic_bases()
    petals = [("strip-slit", "upper"), ("strip-slit", "lower"), ("koebe-elliptic", "main")]
    assert [(m.name, p.label) for m, p, _, _ in rows] == petals + petals
    assert [b == p.base_default for _, p, b, _ in rows] == [True] * 3 + [False] * 3
    for model, petal, base, theta in rows:
        with mpmath.workdps(40):
            mp_theta = _mp_chart_angle(model.name, base)
            sin, cos = mpmath.sin(mp_theta), abs(mpmath.cos(mp_theta))
            tangential = float(mpmath.log((1 + cos) / sin) / 2)
            orthogonal = float(-mpmath.log(sin) / 2)
        assert abs(math.remainder(theta - float(mp_theta), math.pi)) <= 1e-15, (base, theta)
        if base == petal.base_default:
            assert abs(theta - math.pi / 2) <= math.ulp(math.pi / 2)
        for t in verify.LIMIT_TIMES:
            v_T = speeds.speed_sample(model, petal, base, t).v_T
            assert abs(v_T - tangential) <= verify.LIMIT_TOL, (model.name, base, t, v_T, tangential)
        for t in verify.ORTHOGONAL_TIMES:
            s = speeds.speed_sample(model, petal, base, t)
            assert abs(s.v - s.v_o - orthogonal) <= verify.LIMIT_TOL, (model.name, base, t)


def test_orbit_angle_is_read_from_the_chart_angle():
    # The approach probe's convention: at each hyperbolic base its angle at
    # sigma is pi - theta on strip-slit, where it is measured from the other
    # side of sigma, and theta on koebe-elliptic, with theta the chart
    # angle modulo pi.  Over 32 bases per petal (its two table bases and 30
    # drawn by sample_petal_omega from random.Random(1)) the worst gaps read
    # 1.0e-8 on strip-slit and 2.2e-7 on koebe-elliptic.
    for model, petal, base, theta in verify._hyperbolic_bases():
        _, report, _, _ = verify.orbit_angle(model, petal, base, verify.ORBIT_KMAX)
        theta %= math.pi
        want = math.pi - theta if model.name == "strip-slit" else theta
        assert not report.inconclusive
        assert abs(report.theta - want) <= 1e-6, (model.name, base, report.theta, want)


def test_parabolic_limits_against_mpmath():
    # verify's sharp limits of sector-parabolic at its default base e i,
    # read from the chain walked in mpmath at 330 digits at |t| = 1e300,
    # where the terms that vanish as |t| grows are below 1e-190.
    model = by_name("sector-parabolic")
    petal = model.petal("main")
    base = petal.base_default
    with mpmath.workdps(40):
        log_t = mpmath.log(mpmath.mpf(1e300))
    _, _, backward = mp_orbit_reading(model, petal, base, -1e300)
    for (name, text, rate, limit), value in zip(verify.PARABOLIC_LIMITS, backward):
        num, den = map(int, text.split("/"))
        assert rate == num / den
        with mpmath.workdps(40):
            want = float(value - mpmath.mpf(num) / den * log_t)
        assert abs(limit - want) <= 4 * math.ulp(limit), (name, limit, want)
    _, _, (forward, _, _) = mp_orbit_reading(model, petal, base, 1e300)
    with mpmath.workdps(40):
        want = float(forward - log_t / 3)
    assert abs(verify.PARABOLIC_FORWARD_LIMIT - want) <= 4 * math.ulp(want)
    # The sandwich's lower bound is attained: at -2^40 the true slack is
    # below 1e-15, so the far check reads the float walk's error.
    _, _, (v, v_o, v_t) = mp_orbit_reading(model, petal, base, -(2.0 ** 40))
    with mpmath.workdps(40):
        assert 0 <= v - (v_o + v_t - mpmath.log(2) / 2) <= 1e-15


def _nan_last_speed(real):
    def planted(*args):
        series = real(*args)
        *head, last = series.samples
        return series._replace(samples=(*head, last._replace(v=math.nan)))
    return planted


def _nan_on_call(n):
    def plant(real):
        calls = []

        def planted(*args):
            calls.append(args)
            return math.nan if len(calls) == n else real(*args)
        return planted
    return plant


def _nan_at_value(n):
    """Plant a NaN as the nth value that a list form returns, counting on
    across its calls."""
    def plant(real):
        seen = [0]

        def planted(*args):
            values = real(*args)
            k = n - 1 - seen[0]
            seen[0] += len(values)
            if 0 <= k < len(values):
                values[k] = math.nan
            return values
        return planted
    return plant


def _zero_steps(real):
    def planted(model, petal, z0, grid):
        return [0.0] * len(grid)
    return planted


@pytest.mark.parametrize("module,name,plant,failing", [
    (verify, "speed_series", _nan_last_speed,
     {"pythagorean-sandwich", "base-point-independence"}),
    (verify, "uhp_distance", _nan_on_call(2), {"structural-consistency"}),
    # The G of the 2nd of strip-slit/upper's 1000 samples, as the list step
    # that the samples share with generator returns it.  A NaN in the list
    # walk's derivative raises MapDomainError in that step instead
    # (test_semigroup's test_nan_derivative_raises).
    (semigroup, "_generator_from_chart", _nan_at_value(2), {"repelling-point-diagnostics"}),
    # The 12th point of strip-slit/upper's radial approach, the first
    # per-point generator calls: min would pick a plateau beside the NaN
    # ratio.
    (semigroup, "generator", _nan_on_call(12), {"repelling-point-diagnostics"}),
    # A first regularity step of 0 leaves every growth undefined.
    (verify, "regularity_gap", _zero_steps, {"structural-consistency"}),
], ids=["nan-speed", "nan-metric", "nan-generator", "nan-radial", "zero-step"])
def test_planted_nan_fails_its_criteria(monkeypatch, module, name, plant, failing):
    # Each NaN comes among finite values, which max and min would report
    # instead: only a comparison per value catches it, and the failing
    # detail prints nan in place of a passing-looking extreme.
    monkeypatch.setattr(module, name, plant(getattr(module, name)))
    failed = {r.name: r.detail for r in run_all() if not r.passed}
    assert failing <= failed.keys()
    for criterion in failing:
        assert "nan" in failed[criterion], failed[criterion]


def _on_samples(change, parabolic):
    """Plant ``change`` on every speed sample of the parabolic petal
    (``parabolic``), or of every hyperbolic one."""
    def plant(real):
        def planted(model, *args):
            sample = real(model, *args)
            return change(sample) if (model.kind == "parabolic") == parabolic else sample
        return planted
    return plant


def _at_centre(change):
    """Plant ``change`` on every speed sample from a hyperbolic petal's
    default base, which lies on its petal's centre line."""
    centres = {p.base_default for m in catalog() for p in m.petals if p.kind == "hyperbolic"}

    def plant(real):
        def planted(model, w0, *args):
            sample = real(model, w0, *args)
            return change(sample) if w0 in centres else sample
        return planted
    return plant


def _scaled(factor):
    return lambda s: s._replace(v=factor * s.v, v_o=factor * s.v_o, v_T=factor * s.v_T)


def _on_steps(change):
    def plant(real):
        def planted(*args):
            return change(real(*args))
        return planted
    return plant


def _orbit_angle_plus(delta):
    def plant(real):
        def planted(points, a, arc):
            report = real(points, a, arc)
            # The radial probe approaches 1; the orbit probe its petal's sigma.
            return report if a == 1.0 else report._replace(theta=report.theta + delta)
        return planted
    return plant


def _unsharp(item, check):
    # Only a criterion that passes may count: a plant that raises fails the row.
    return pytest.mark.xfail(strict=True, raises=AssertionError,
                             reason=f"passes until ROADMAP item {item} {check}")


@pytest.mark.parametrize("module,name,plant,failing", [
    # A lost constant: the eta frame's shift (speeds._eta_frame) or the
    # log(2 sqrt(Im p Im q)) term of hypcore.uhp_log_distance dropped.
    pytest.param(speeds, "_sample_at",
                 _on_samples(lambda s: s._replace(v=s.v + 0.05, v_o=s.v_o + 0.05), True),
                 {"parabolic-speed-envelope"}, id="parabolic-constant"),
    # A wrong rate, 2/3 for 5/6: PowerStep.apply_log scaling log q by a
    # wrong alpha.
    pytest.param(speeds, "_sample_at", _on_samples(_scaled(0.8), True),
                 {"parabolic-speed-envelope"}, id="parabolic-rate-low"),
    pytest.param(speeds, "_sample_at", _on_samples(_scaled(1.1), True),
                 {"pythagorean-sandwich", "base-point-independence"},
                 id="parabolic-rate-high"),
    # A rounded-away angle: a framed orbit point whose angle rounds onto
    # eta (speeds._eta_frame), so that v_T reads 0.  The off-centre bases'
    # v_T limits are 0.587 and 0.126.
    pytest.param(speeds, "_sample_at", _on_samples(lambda s: s._replace(v_T=0.0), False),
                 {"tangential-plateau-vs-divergence"}, id="tangential-zero"),
    # A lost split: v_o read as the total speed v.  At the off-centre bases
    # v - v_o reads 0 against its limit -log(sin theta)/2 (0.286 and
    # 0.016), and at 1 + 0.3i the sandwich's lower slack reads
    # log(2)/2 - v_T = -0.24.
    pytest.param(speeds, "_sample_at", _on_samples(lambda s: s._replace(v_o=s.v), False),
                 {"orthogonal-speed-slopes", "pythagorean-sandwich"}, id="orthogonal-is-total"),
    # Small offsets at the default bases, where v_T and v - v_o tend to 0:
    # read against those limits within 1e-12, each fails its criterion.
    pytest.param(speeds, "_sample_at", _at_centre(lambda s: s._replace(v_T=s.v_T + 1e-10)),
                 {"tangential-plateau-vs-divergence"}, id="tangential-offset-at-centre"),
    pytest.param(speeds, "_sample_at", _at_centre(lambda s: s._replace(v_o=s.v_o - 1e-10)),
                 {"orthogonal-speed-slopes"}, id="orthogonal-offset-at-centre"),
    # A far drift: v off by 1e-13 relative from |t| = 1e20 on the
    # hyperbolic petals, far past every slope fit's grid.
    pytest.param(speeds, "_sample_at",
                 _on_samples(lambda s: s._replace(v=s.v * (1.0 + 1e-13)) if s.t <= -1e20 else s,
                             False),
                 {"total-speed-slopes"}, id="far-rate-drift"),
    # A wrong time step: semigroup.regularity_gap stepping from t - 1.5.
    pytest.param(verify, "regularity_gap", _on_steps(lambda gaps: [1.5 * g for g in gaps]),
                 {"structural-consistency"}, id="step-scaled",
                 marks=_unsharp(2, "checks the step against its limit")),
    # An underflow to 0: t - 1.0 rounds to t from |t| = 2^53 on, so both
    # orbit points of semigroup.regularity_gap are one point.
    pytest.param(verify, "regularity_gap", _on_steps(lambda gaps: gaps[:1] + [0.0] * (len(gaps) - 1)),
                 {"structural-consistency"}, id="step-underflow-later",
                 marks=_unsharp(2, "checks the step against its limit")),
    pytest.param(verify, "regularity_gap", _zero_steps,
                 {"structural-consistency"}, id="step-underflow-all"),
    # A wrong angle: hmeasure.approach_angle's Aitken step extrapolating
    # the creep of rounded disk points, as in benchmark boundary_probes.
    pytest.param(verify, "approach_angle", _orbit_angle_plus(0.3),
                 {"approach-angles"}, id="orbit-angle",
                 marks=_unsharp("3 or 6", "checks the closed-form angle")),
])
def test_planted_finite_defect_fails_its_criteria(monkeypatch, module, name, plant, failing):
    # A plausible wrong number, not a NaN: the criterion meant to catch it
    # must FAIL.
    monkeypatch.setattr(module, name, plant(getattr(module, name)))
    failed = {r.name for r in run_all() if not r.passed}
    assert failing <= failed
