"""Tests for the three petal speeds, forward speeds, and slope fits."""

import cmath
import math
import warnings

import mpmath
import numpy as np
import pytest

from oracles import CanonicalDomain, geodesic_through, project_to_geodesic
from petallab.hypcore import (
    INFINITY,
    BoundaryPoint,
    DomainError,
    UhpLogPoint,
    disk_distance,
    uhp_distance,
)
from petallab.models import by_name, catalog, sample_petal_omega
from petallab.semigroup import PetalRequiredError, flow
from petallab.speeds import (
    EstimationError,
    SpeedSample,
    SpeedSeries,
    dyadic_grid,
    forward_speed,
    linear_fit,
    slope_estimate,
    speed_sample,
    speed_series,
    _eta_frame,
)

HALF_LOG2 = 0.34657359027997265471

RNG_SEED = 20260817


def _model_petals():
    return [(m, p) for m in catalog() for p in m.petals]


class TestSampleBasics:
    def test_time_zero_is_exactly_zero(self):
        for model, petal in _model_petals():
            s = speed_sample(model, petal, petal.base_default, 0.0)
            assert (s.v, s.v_o, s.v_T) == (0.0, 0.0, 0.0)

    def test_positive_time_rejected(self):
        m1 = by_name("strip-slit")
        with pytest.raises(DomainError):
            speed_sample(m1, m1.petal("upper"), m1.petal("upper").base_default, 1.0)

    def test_outside_petal_rejected(self):
        m1 = by_name("strip-slit")
        with pytest.raises(PetalRequiredError):
            speed_sample(m1, m1.petal("upper"), 1.0 + 0j, -1.0)
        with pytest.raises(PetalRequiredError):
            speed_sample(m1, m1.petal("upper"), 1 - 0.3j, -1.0)  # wrong petal

    @pytest.mark.parametrize("t", [math.nan, -math.inf])
    def test_non_finite_time_rejected(self, t):
        for model, petal in _model_petals():
            with pytest.raises(DomainError, match="orbit time must be finite"):
                speed_sample(model, petal, petal.base_default, t)

    def test_non_finite_base_rejected(self):
        for model, petal in _model_petals():
            with pytest.raises(PetalRequiredError):
                speed_sample(model, petal, complex(math.nan, petal.base_default.imag), -1.0)

    def test_speeds_are_nonnegative_and_total_positive(self):
        for model, petal in _model_petals():
            s = speed_sample(model, petal, petal.base_default, -3.0)
            assert s.v > 0.0 and s.v_o >= 0.0 and s.v_T >= 0.0

    def test_repeat_calls_compare_equal(self):
        # The benchmark's repeat check compares samples with ==.
        for model, petal in _model_petals():
            z = petal.base_default
            first = speed_sample(model, petal, z, -1e6)
            assert first == speed_sample(model, petal, z, -1e6)
            assert first != speed_sample(model, petal, z, -2e6)

    def test_dataclasses_replace_changes_one_speed(self):
        # The benchmark self-test plants a wrong speed this way.
        import dataclasses

        model = by_name("koebe-elliptic")
        petal = model.petals[0]
        s = speed_sample(model, petal, petal.base_default, -3.0)
        wrong = dataclasses.replace(s, v=s.v * (1.0 + 1e-5))
        assert type(wrong) is SpeedSample
        assert wrong == (s.t, s.v * (1.0 + 1e-5), s.v_o, s.v_T)
        assert [f.name for f in dataclasses.fields(s)] == ["t", "v", "v_o", "v_T"]

    def test_component_accessors_agree(self):
        # One sample and a series share the per-time body: same numbers.
        grid = [0.0, -2.5, -(2.0 ** 20)]
        for model, petal in _model_petals():
            z = petal.base_default
            series = speed_series(model, petal, z, grid)
            assert series.samples == tuple(speed_sample(model, petal, z, t) for t in grid)


class TestPythagorasSandwich:
    def test_on_default_bases(self):
        for model, petal in _model_petals():
            series = speed_series(model, petal, petal.base_default, dyadic_grid(0, 16))
            for s in series.samples:
                assert s.v <= s.v_o + s.v_T + 1e-9
                assert s.v >= s.v_o + s.v_T - HALF_LOG2 - 1e-9

    def test_on_random_bases(self):
        rng = np.random.default_rng(RNG_SEED)
        for model, petal in _model_petals():
            for w in sample_petal_omega(model, petal, 5, rng):
                series = speed_series(model, petal, w, dyadic_grid(0, 12))
                for s in series.samples:
                    assert s.v <= s.v_o + s.v_T + 1e-9
                    assert s.v >= s.v_o + s.v_T - HALF_LOG2 - 1e-9


class TestCrossValidation:
    """The log-form pipeline must agree with raw-coordinate machinery
    wherever the raw coordinates are healthy."""

    @pytest.mark.parametrize("name,label,tmax", [
        ("strip-slit", "upper", 6.0),
        ("strip-slit", "lower", 6.0),
        ("sector-parabolic", "main", 30.0),
        ("koebe-elliptic", "main", 30.0),
    ])
    def test_against_geodesic_projection(self, name, label, tmax):
        model = by_name(name)
        petal = model.petal(label)
        base = petal.base_default
        q0 = model.uhp_orbit(base, 0.0).value()
        sig = model.uhp_eta_endpoint(petal)
        endpoint = INFINITY if sig is None else BoundaryPoint(complex(sig))
        eta = geodesic_through(CanonicalDomain.UPPER_HALF_PLANE, q0, endpoint)
        for t in np.linspace(-tmax, -0.5, 9):
            s = speed_sample(model, petal, base, float(t))
            qt = model.uhp_orbit(base, float(t)).value()
            foot, v_tan_raw = project_to_geodesic(qt, eta)
            assert s.v == pytest.approx(uhp_distance(q0, qt), abs=1e-9)
            assert s.v_T == pytest.approx(v_tan_raw, abs=1e-9)
            assert s.v_o == pytest.approx(uhp_distance(q0, foot), abs=1e-9)

    def test_against_geodesic_projection_random_bases(self):
        rng = np.random.default_rng(RNG_SEED)
        for model, petal in _model_petals():
            for w in sample_petal_omega(model, petal, 4, rng):
                q0 = model.uhp_orbit(w, 0.0).value()
                sig = model.uhp_eta_endpoint(petal)
                endpoint = INFINITY if sig is None else BoundaryPoint(complex(sig))
                eta = geodesic_through(CanonicalDomain.UPPER_HALF_PLANE, q0, endpoint)
                for t in (-4.0, -1.5):
                    s = speed_sample(model, petal, w, t)
                    qt = model.uhp_orbit(w, t).value()
                    foot, v_tan_raw = project_to_geodesic(qt, eta)
                    assert s.v == pytest.approx(uhp_distance(q0, qt), abs=1e-9)
                    assert s.v_T == pytest.approx(v_tan_raw, abs=1e-9)
                    assert s.v_o == pytest.approx(uhp_distance(q0, foot), abs=1e-9)

    def test_total_speed_against_disk_route(self):
        # With exact boundary gaps the disk metric reproduces the
        # canonical one far beyond naive float range.
        for model, petal in _model_petals():
            base = petal.base_default
            at0 = flow(model, base, 0.0)
            for t in (-12.0, -6.0, -1.0):
                at_t = flow(model, base, t)
                d = disk_distance(at0.disk_z, at_t.disk_z,
                                  gap_z=at0.disk_gap, gap_w=at_t.disk_gap)
                assert speed_sample(model, petal, base, t).v == pytest.approx(d, abs=1e-9)

    def test_vertical_sigma_frame(self):
        # Synthetic base straight above the repelling point: eta is the
        # vertical line and the frame must see zero tangential offset.
        m1 = by_name("strip-slit")
        petal = m1.petal("upper")
        p0 = UhpLogPoint(None, cmath.log(-1.0 + 2.0j))
        frame = _eta_frame(m1, petal, p0)
        on_line = UhpLogPoint(None, cmath.log(-1.0 + 5.0j))
        assert frame(on_line).imag == pytest.approx(math.pi / 2.0, abs=1e-15)


class TestAsymptotics:
    def test_hyperbolic_total_and_orthogonal_slopes(self):
        for name, label, target in [
            ("strip-slit", "upper", -1.0),
            ("strip-slit", "lower", -1.0),
            ("koebe-elliptic", "main", -0.25),
        ]:
            model = by_name(name)
            petal = model.petal(label)
            series = speed_series(model, petal, petal.base_default, dyadic_grid(4, 16))
            for component in ("v", "v_o"):
                slope, r2 = slope_estimate(series, "linear_in_t", component)
                assert abs(slope - target) <= 0.1 * abs(target)
                assert r2 > 0.999

    def test_hyperbolic_tangential_plateau(self):
        for name, label in [("strip-slit", "upper"), ("koebe-elliptic", "main")]:
            model = by_name(name)
            petal = model.petal(label)
            v10 = speed_sample(model, petal, petal.base_default, -(2.0 ** 10)).v_T
            v16 = speed_sample(model, petal, petal.base_default, -(2.0 ** 16)).v_T
            assert abs(v16 - v10) <= 0.05
            assert v16 / 2.0 ** 16 <= 1e-3

    def test_tangential_plateau_off_center_base(self):
        # Off the petal's center line the plateau value is nonzero.
        m1 = by_name("strip-slit")
        petal = m1.petal("upper")
        base = 1.0 + 1j * 0.3
        v10 = speed_sample(m1, petal, base, -(2.0 ** 10)).v_T
        v16 = speed_sample(m1, petal, base, -(2.0 ** 16)).v_T
        assert v16 > 1e-3
        assert abs(v16 - v10) <= 0.05

    @pytest.mark.parametrize("base", [
        1.0 + 0.3j, 0.5 + 1.2j, 3.0 + 0.1j,
        1.0 - 0.3j, 0.5 - 1.2j, 3.0 - 0.1j,
    ])
    def test_tangential_plateau_is_petal_distance_to_center(self, base):
        # The strip-slit petals are the strips between the slit and a wall;
        # the plateau of v_T is the petal-metric distance from the base to
        # the petal's central line, 1/2 log(sec h + tan h) with
        # h = |2 |Im w| - pi/2|.  Derived at 50 digits, not taken from the
        # implementation.
        m1 = by_name("strip-slit")
        petal = m1.petal("upper" if base.imag > 0 else "lower")
        with mpmath.workdps(50):
            h = abs(2 * abs(mpmath.mpf(base.imag)) - mpmath.pi / 2)
            expected = float(mpmath.log(mpmath.sec(h) + mpmath.tan(h)) / 2)
        got = speed_sample(m1, petal, base, -(2.0 ** 40)).v_T
        assert got == pytest.approx(expected, rel=1e-14)

    def test_parabolic_logarithmic_envelope(self):
        m2 = by_name("sector-parabolic")
        petal = m2.petal("main")
        base = petal.base_default
        for T in (1e3, 1e4, 1e6):
            v = speed_sample(m2, petal, base, -T).v
            assert 0.24 <= v / math.log(T) <= 1.01
        assert speed_sample(m2, petal, base, -(2.0 ** 16)).v / 2.0 ** 16 <= 1e-3

    def test_parabolic_tangential_divergence(self):
        m2 = by_name("sector-parabolic")
        petal = m2.petal("main")
        v10 = speed_sample(m2, petal, petal.base_default, -(2.0 ** 10)).v_T
        v16 = speed_sample(m2, petal, petal.base_default, -(2.0 ** 16)).v_T
        assert v16 >= v10 + 1.0

    def test_parabolic_orthogonal_slope_vanishes(self):
        m2 = by_name("sector-parabolic")
        petal = m2.petal("main")
        series = speed_series(m2, petal, petal.base_default, dyadic_grid(4, 16))
        slope, _ = slope_estimate(series, "linear_in_t", "v_o")
        assert abs(slope) <= 1e-3

    def test_extreme_time_stability(self):
        # Stable out to |t| = 1e8 per the design target.
        m1 = by_name("strip-slit")
        p1 = m1.petal("upper")
        assert speed_sample(m1, p1, p1.base_default, -1e8).v / 1e8 == pytest.approx(1.0, abs=1e-6)
        m3 = by_name("koebe-elliptic")
        p3 = m3.petal("main")
        assert speed_sample(m3, p3, p3.base_default, -1e8).v / 1e8 == pytest.approx(0.25, abs=1e-6)
        m2 = by_name("sector-parabolic")
        p2 = m2.petal("main")
        s = speed_sample(m2, p2, p2.base_default, -1e8)
        assert 0.24 <= s.v / math.log(1e8) <= 1.01
        assert math.isfinite(s.v_T)


class TestBasePointIndependence:
    def test_speed_differences_bounded_by_petal_distance(self):
        rng = np.random.default_rng(RNG_SEED)
        grid = dyadic_grid(0, 10)
        for model, petal in _model_petals():
            pts = sample_petal_omega(model, petal, 12, rng)
            for z, w in zip(pts[::2], pts[1::2]):
                bound = 2.0 * petal.distance(z, w) + 1e-9
                sz = speed_series(model, petal, z, grid)
                sw = speed_series(model, petal, w, grid)
                for a, b in zip(sz.samples, sw.samples):
                    assert abs(a.v - b.v) <= bound
                    assert abs(a.v_o - b.v_o) <= bound
                    assert abs(a.v_T - b.v_T) <= bound


class TestForwardSpeed:
    def test_zero_time(self):
        m1 = by_name("strip-slit")
        assert forward_speed(m1, 1 + 0.3j, 0.0) == 0.0

    def test_negative_time_rejected(self):
        m1 = by_name("strip-slit")
        with pytest.raises(DomainError):
            forward_speed(m1, 1 + 0.3j, -1.0)

    def test_outside_domain_rejected(self):
        m1 = by_name("strip-slit")
        with pytest.raises(DomainError):
            forward_speed(m1, -1 + 0j, 1.0)

    def test_translation_rate(self):
        # Forward drift at half the spectral value.
        m1 = by_name("strip-slit")
        ts = [2.0 ** k for k in range(4, 15)]
        vs = [forward_speed(m1, 1 + 0.3j, t) for t in ts]
        tail = len(ts) // 2
        slope = np.polyfit(ts[tail:], vs[tail:], 1)[0]
        assert slope == pytest.approx(0.5, rel=0.1)

    def test_parabolic_rate_vanishes(self):
        m2 = by_name("sector-parabolic")
        assert forward_speed(m2, 1j * math.e, 2.0 ** 16) / 2.0 ** 16 <= 1e-3

    def test_elliptic_forward_speed_is_bounded(self):
        m3 = by_name("koebe-elliptic")
        vals = [forward_speed(m3, 1 + 0j, t) for t in (10.0, 100.0, 1000.0)]
        assert max(vals) < 1.0
        assert abs(vals[-1] - vals[-2]) < 1e-6

    def test_forward_speed_any_interior_point(self):
        # Points outside every petal still flow forward.
        m1 = by_name("strip-slit")
        assert forward_speed(m1, 1.0 + 0j, 5.0) > 0.0
        m3 = by_name("koebe-elliptic")
        assert forward_speed(m3, -0.5 + 0j, 5.0) > 0.0


class TestSeries:
    def test_grid_validation(self):
        m1 = by_name("strip-slit")
        petal = m1.petal("upper")
        base = petal.base_default
        with pytest.raises(DomainError):
            speed_series(m1, petal, base, [-2.0, -1.0])   # increasing
        with pytest.raises(DomainError):
            speed_series(m1, petal, base, [-1.0, -1.0])   # repeated
        with pytest.raises(DomainError):
            speed_series(m1, petal, base, [1.0, -1.0])    # positive entry
        with pytest.raises(DomainError):
            speed_series(m1, petal, base, [])

    def test_default_grid(self):
        m1 = by_name("strip-slit")
        petal = m1.petal("upper")
        series = speed_series(m1, petal, petal.base_default)
        assert series.grid == tuple(dyadic_grid(0, 16))

    def test_length_one_grid_at_zero(self):
        m1 = by_name("strip-slit")
        petal = m1.petal("upper")
        series = speed_series(m1, petal, petal.base_default, [0.0])
        assert series.samples == (SpeedSample(0.0, 0.0, 0.0, 0.0),)

    def test_metadata(self):
        m2 = by_name("sector-parabolic")
        petal = m2.petal("main")
        series = speed_series(m2, petal, petal.base_default, [0.0, -1.0])
        assert series.model_name == "sector-parabolic"
        assert series.petal_label == "main"
        assert series.base == petal.base_default
        assert [s.t for s in series.samples] == [0.0, -1.0]

    def test_csv_shape_and_determinism(self):
        m1 = by_name("strip-slit")
        petal = m1.petal("upper")
        series = speed_series(m1, petal, petal.base_default, [0.0, -1.0, -2.0])
        text = series.to_csv()
        lines = text.split("\n")
        assert lines[0] == "t,v,v_o,v_T"
        assert lines[1] == "0,0,0,0"
        assert text.endswith("\n")
        assert len(lines) == 5  # header + 3 rows + trailing newline split
        again = speed_series(m1, petal, petal.base_default, [0.0, -1.0, -2.0]).to_csv()
        assert again == text

    def test_csv_seventeen_digits(self):
        m1 = by_name("strip-slit")
        petal = m1.petal("upper")
        series = speed_series(m1, petal, petal.base_default, [-3.0])
        row = series.to_csv().split("\n")[1].split(",")
        assert float(row[1]) == series.samples[0].v  # round-trips exactly

    def test_no_monotonicity_warning_on_catalog(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for model, petal in _model_petals():
                speed_series(model, petal, petal.base_default, dyadic_grid(0, 10))

    def test_component_lookup(self):
        m1 = by_name("strip-slit")
        petal = m1.petal("upper")
        series = speed_series(m1, petal, petal.base_default, [0.0, -1.0])
        assert series.component("v") == [s.v for s in series.samples]
        with pytest.raises(KeyError):
            series.component("w")


class TestSlopeEstimate:
    @staticmethod
    def _line_series(n=8):
        samples = tuple(SpeedSample(t=-float(k), v=float(k), v_o=0.5 * k, v_T=0.0)
                        for k in range(n))
        return SpeedSeries("synthetic", "main", 0j,
                           tuple(s.t for s in samples), samples)

    def test_exact_line(self):
        slope, r2 = slope_estimate(self._line_series(), "linear_in_t", "v")
        assert slope == pytest.approx(-1.0, abs=1e-12)
        assert r2 == pytest.approx(1.0, abs=1e-12)

    def test_component_selection(self):
        slope, _ = slope_estimate(self._line_series(), "linear_in_t", "v_o")
        assert slope == pytest.approx(-0.5, abs=1e-12)

    def test_too_few_samples(self):
        with pytest.raises(EstimationError):
            slope_estimate(self._line_series(5), "linear_in_t", "v")

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            slope_estimate(self._line_series(), "quadratic", "v")

    def test_log_mode(self):
        samples = tuple(
            SpeedSample(t=-(2.0 ** k), v=0.5 * math.log(2.0 ** k), v_o=0.0, v_T=0.0)
            for k in range(1, 11)
        )
        series = SpeedSeries("synthetic", "main", 0j,
                             tuple(s.t for s in samples), samples)
        slope, r2 = slope_estimate(series, "linear_in_log", "v")
        assert slope == pytest.approx(0.5, abs=1e-12)
        assert r2 == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_grid(self):
        samples = tuple(SpeedSample(t=0.0, v=0.0, v_o=0.0, v_T=0.0) for _ in range(6))
        series = SpeedSeries("synthetic", "main", 0j, (0.0,) * 6, samples)
        with pytest.raises(EstimationError):
            slope_estimate(series, "linear_in_t", "v")
        with pytest.raises(EstimationError):
            slope_estimate(series, "linear_in_log", "v")


def _polyfit_oracle(xs, ys):
    """Slope of ``np.polyfit(xs, ys, 1)`` and the r^2 of that line."""
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_res = float(np.dot(resid, resid))
    ss_tot = float(np.dot(y - y.mean(), y - y.mean()))
    if ss_tot == 0.0:
        return float(slope), 1.0 if ss_res == 0.0 else 0.0
    return float(slope), 1.0 - ss_res / ss_tot


def _slope_tol(xs, ys):
    # Relative 1e-12 of the slope; a flat series, whose exact slope is 0,
    # is held to the smallest slope its float values can resolve instead.
    return 1e-12 * max(abs(y) for y in ys) / (max(xs) - min(xs))


_PETAL_IDS = [(m.name, p.label) for m in catalog() for p in m.petals]


class TestFitAgainstPolyfit:
    """linear_fit and slope_estimate agree with numpy's least squares on
    the grids the CLI and verify fit: asymptote and forward."""

    @pytest.mark.parametrize("name,label", _PETAL_IDS)
    def test_asymptote_grid(self, name, label):
        model = by_name(name)
        petal = model.petal(label)
        series = speed_series(model, petal, petal.base_default, dyadic_grid(4, 16))
        tail = series.samples[len(series.samples) // 2:]
        ts = [s.t for s in tail]
        for component in ("v", "v_o", "v_T"):
            ys = [getattr(s, component) for s in tail]
            for mode, xs in (("linear_in_t", ts),
                             ("linear_in_log", [math.log(-t) for t in ts])):
                want_slope, want_r2 = _polyfit_oracle(xs, ys)
                slope, r2 = slope_estimate(series, mode, component)
                assert slope == pytest.approx(
                    want_slope, rel=1e-12, abs=_slope_tol(xs, ys)
                ), (component, mode)
                assert r2 == pytest.approx(want_r2, abs=1e-12), (component, mode)

    @pytest.mark.parametrize("name,label", _PETAL_IDS)
    def test_forward_grid(self, name, label):
        model = by_name(name)
        base = model.petal(label).base_default
        ts = [2.0 ** k for k in range(4, 17)]
        vs = [forward_speed(model, base, t) for t in ts]
        xs, ys = ts[len(ts) // 2:], vs[len(vs) // 2:]
        want_slope, _ = _polyfit_oracle(xs, ys)
        slope, intercept = linear_fit(xs, ys)
        assert slope == pytest.approx(want_slope, rel=1e-12, abs=_slope_tol(xs, ys))
        want_intercept = float(np.polyfit(xs, ys, 1)[1])
        assert intercept == pytest.approx(want_intercept, rel=1e-12, abs=1e-12 * max(ys))

    def test_exact_line_is_exact(self):
        assert linear_fit([1.0, 2.0, 3.0, 4.0], [3.0, 5.0, 7.0, 9.0]) == (2.0, 1.0)

    def test_rejects_too_few_or_coinciding_points(self):
        with pytest.raises(EstimationError):
            linear_fit([1.0], [2.0])
        with pytest.raises(EstimationError):
            linear_fit([0.1, 0.1, 0.1], [1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            linear_fit([1.0, 2.0], [1.0])


class TestDyadicGrid:
    def test_values(self):
        assert dyadic_grid(0, 3) == [-1.0, -2.0, -4.0, -8.0]

    def test_validation(self):
        with pytest.raises(ValueError):
            dyadic_grid(5, 4)

    def test_exponent_past_float_range(self):
        assert dyadic_grid(1023, 1023) == [-(2.0 ** 1023)]
        with pytest.raises(DomainError, match="dyadic exponent 1024"):
            dyadic_grid(0, 1024)

    def test_exponent_below_float_range(self):
        # 2^-1074 is the smallest subnormal; below it 2^k underflows to 0.
        assert dyadic_grid(-1074, -1073) == [-5e-324, -1e-323]
        for k_min in (-1075, -1100):
            with pytest.raises(DomainError, match=f"k_min = {k_min} "):
                dyadic_grid(k_min, -1070)
