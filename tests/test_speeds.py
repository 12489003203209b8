"""Tests for the three petal speeds, forward speeds, and slope fits."""

import cmath
import functools
import math
import random
import sys
import warnings
from collections import Counter
from fractions import Fraction

import mpmath
import pytest

from oracles import (
    CanonicalDomain,
    axis_distance,
    boundary_of,
    disk_distance_from_gaps,
    geodesic_through,
    mp_orbit_reading,
    mp_petal_distance,
    project_to_geodesic,
)
from petallab.hypcore import (
    DomainError,
    PrecisionError,
    UhpLogPoint,
    uhp_distance,
    uhp_log_disk_gap,
    uhp_log_framed,
)
from petallab.models import (
    HalfPlaneImage,
    SlitPlaneImage,
    StripImage,
    by_name,
    catalog,
    sample_petal_omega,
)
from petallab.semigroup import PetalRequiredError, flow, require_petal
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
    _BASE_READINGS,
    _base_reading,
    _eta_frame,
    _sample_at,
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

    def test_base_without_finite_image_rejected(self):
        # e^800 overflows, so the strip-slit base 800 + 0.5i has no float
        # image to frame eta through: the floats refuse it, not the
        # mathematics.
        m1 = by_name("strip-slit")
        with pytest.raises(PrecisionError, match=r"^speeds\._eta_frame: base point has no finite canonical image$"):
            speed_sample(m1, m1.petal("upper"), 800.0 + 0.5j, -1.0)

    @pytest.mark.parametrize("label,im", [("upper", 0.78), ("lower", -0.78)])
    def test_far_left_limit_of_the_floats(self, label, im):
        # Far left along a strip-slit petal, the inverted base image
        # -1/(q0 - sigma) has a real part x0 of order e^(-2 Re w0), read
        # from its log form; it overflows left of Re w0 = -354.54478285641204,
        # the same on both petals.  The last base read is exact, and the
        # next float to its left is a PrecisionError.
        m1 = by_name("strip-slit")
        petal = m1.petal(label)
        inside = complex(-354.54478285641204, im)
        outside = complex(math.nextafter(inside.real, -math.inf), im)
        for t in (-1.0, -1e300):
            s = speed_sample(m1, petal, inside, t)
            _, _, distances = mp_orbit_reading(m1, petal, inside, t)
            for got, want in zip((s.v, s.v_o, s.v_T), map(float, distances)):
                assert abs(got - want) <= 1e-12 * max(1.0, want), (t, got, want)
        with pytest.raises(PrecisionError, match=r"^speeds\._eta_frame: base point has no finite canonical image$"):
            speed_sample(m1, petal, outside, -1.0)

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
        rng = random.Random(RNG_SEED)
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
        eta = geodesic_through(CanonicalDomain.UPPER_HALF_PLANE, q0,
                               boundary_of(petal.sigma_canonical))
        for t in [-tmax + (tmax - 0.5) * i / 8 for i in range(9)]:
            s = speed_sample(model, petal, base, t)
            qt = model.uhp_orbit(base, t).value()
            foot, v_tan_raw = project_to_geodesic(qt, eta)
            assert s.v == pytest.approx(uhp_distance(q0, qt), abs=1e-9)
            assert s.v_T == pytest.approx(v_tan_raw, abs=1e-9)
            assert s.v_o == pytest.approx(uhp_distance(q0, foot), abs=1e-9)

    def test_against_geodesic_projection_random_bases(self):
        rng = random.Random(RNG_SEED)
        for model, petal in _model_petals():
            for w in sample_petal_omega(model, petal, 4, rng):
                q0 = model.uhp_orbit(w, 0.0).value()
                eta = geodesic_through(CanonicalDomain.UPPER_HALF_PLANE, q0,
                                       boundary_of(petal.sigma_canonical))
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
            z0 = flow(model, base, 0.0).disk_z
            gap0 = uhp_log_disk_gap(model.uhp_orbit(base, 0.0))
            for t in (-12.0, -6.0, -1.0):
                d = disk_distance_from_gaps(z0, flow(model, base, t).disk_z, gap0,
                                            uhp_log_disk_gap(model.uhp_orbit(base, t)))
                assert speed_sample(model, petal, base, t).v == pytest.approx(d, abs=1e-9)

    def test_vertical_sigma_frame(self):
        # Synthetic base straight above the repelling point: eta is the
        # vertical line and the frame must see zero tangential offset.
        m1 = by_name("strip-slit")
        petal = m1.petal("upper")
        p0 = UhpLogPoint(None, cmath.log(-1.0 + 2.0j))
        (sigma, x0), re0 = _eta_frame(petal.sigma_canonical, p0)
        assert sigma == petal.sigma_canonical == -1.0
        assert x0 == pytest.approx(0.0, abs=1e-15)
        on_line = UhpLogPoint(None, cmath.log(-1.0 + 5.0j))
        # Read modulo pi, the point on the line sits at angle +-pi/2.
        assert abs(uhp_log_framed(on_line, x0, sigma).imag) == pytest.approx(
            math.pi / 2.0, abs=1e-15)
        # -1/(q0 - sigma) = i/2 sits at height 1/2 on the axis: re0 = -log 2.
        assert re0 == pytest.approx(-math.log(2.0), abs=1e-15)


class _FixedOrbit:
    """A model whose orbit point is ``point`` at every time."""

    def __init__(self, point: UhpLogPoint) -> None:
        self.point = point

    def uhp_orbit(self, w0, t):
        return self.point


def _read_at(anchor, L, neg=False, frame=(None, 0.0)):
    """The sample at t = -1 of the fixed orbit point (anchor, L, neg), read
    in ``frame``; with the default vertical frame N(q) = q (sigma at
    infinity, x0 = 0) an anchor-free point's framed log is L itself."""
    point = UhpLogPoint(anchor, L, neg)
    return _sample_at(_FixedOrbit(point), 0j, UhpLogPoint(None, 1j), frame, 0.0, -1.0)


class TestTangentialRead:
    """v_T is the axis distance of the framed point's argument, which the
    per-sample read states inline; ``oracles.axis_distance`` states it too,
    and ``test_hypcore::TestAxisDistance`` checks its properties.  A signed
    point -e^L feeds the read the negative angle Im L."""

    def test_matches_the_axis_distance_oracle(self):
        thetas = [1e-300, 1e-12, 0.3, 1.0, math.pi / 4, math.pi / 2, 2.0,
                  math.pi - 1e-12, math.nextafter(math.pi, 0.0)]
        for theta in thetas:
            for s in (_read_at(None, complex(3.0, theta)),
                      _read_at(None, complex(3.0, -theta), True)):
                assert repr(s.v_T) == repr(axis_distance(theta)), theta
                assert s.v_o == 1.5

    def test_subnormal_angle_reads_two_logs(self):
        # Where 2 / sin r would overflow, v_T reads log(1 + |cos r|) and
        # log|sin r| apart; against mpmath at 50 digits.
        for theta in (1e-305, 1e-310, 5e-324):
            with mpmath.workdps(50):
                want = mpmath.log((1 + mpmath.cos(theta)) / mpmath.sin(theta)) / 2
            for s in (_read_at(None, complex(3.0, theta)),
                      _read_at(None, complex(3.0, -theta), True)):
                assert abs(s.v_T - float(want)) <= 4 * math.ulp(float(want)), theta

    def test_angle_rounded_onto_the_real_axis_raises(self):
        # From 1 + 1e-300i the parabolic orbit's angle to pi, of order
        # 1e-300 / |t|, underflows to 0 at |t| = 1e300: a typed error, not an
        # axis distance of infinity.  (Such a gap below the normal range is
        # ROADMAP item 11's region.)
        model = by_name("sector-parabolic")
        petal = model.petal("main")
        assert math.isfinite(speed_sample(model, petal, 1.0 + 1e-300j, -1e20).v_T)
        with pytest.raises(DomainError, match=r"signed log offset needs Im in \(-pi, 0\)"):
            speed_sample(model, petal, 1.0 + 1e-300j, -1e300)


class TestFramedAngle:
    """The framed angle is read modulo pi: ``uhp_log_framed`` takes the
    shift's log of x, or of -x when Re x < 0, and a point on its anchor
    reads L itself, so the framed Im lies in (-pi, pi); ``_sample_at``
    reads v_T through |cos r| and |sin r|, and refuses an r of 0 modulo
    pi."""

    def test_two_foot_angle_stays_on_the_branch(self):
        # A finite sigma's frame (sigma, x0) has the feet sigma and
        # sigma - 1/x0.  Modulo pi, its framed angle is arg N(q) of the
        # float point q, N(q) = -1/(q - sigma) - x0.
        rng = random.Random(RNG_SEED)
        times = [0.0, -1.0, -4.0, -(2.0 ** 16), -(2.0 ** 60), -1e100, -1e300]
        frames = 0
        for model, petal in _model_petals():
            for w in [petal.base_default, *sample_petal_omega(model, petal, 10, rng)]:
                (sigma, x0), _ = _eta_frame(petal.sigma_canonical, model.uhp_orbit(w, 0.0))
                if sigma is None:
                    continue
                frames += 1
                points = [model.uhp_orbit(w, t) for t in times]
                points += [UhpLogPoint(None, complex(rng.uniform(-700.0, 700.0),
                                                     rng.uniform(1e-9, math.pi - 1e-9)))
                           for _ in range(20)]
                for p in points:
                    theta = uhp_log_framed(p, x0, sigma).imag
                    assert -math.pi < theta < math.pi, (model.name, w, p.L)
                    q = p.value()
                    if q is None or abs(q - sigma) < 1e-3:
                        continue
                    n = -1.0 / (q - sigma) - x0
                    if abs(n) < 1e-3:
                        continue
                    want = cmath.phase(n)
                    gap = (theta - want) % math.pi
                    assert min(gap, math.pi - gap) <= 1e-12, (model.name, w, p.L)
        assert frames >= 20, frames

    def test_tangential_speed_reads_modulo_pi(self):
        # One point q = e^(x + i r) = -e^(x + i (r - pi)) in its two forms,
        # with r - pi exact for r >= pi/2: v_T at the framed angles r and
        # r - pi agrees within 4 ulp, and within the 1.2e-16 by which float
        # pi falls short of pi, which moves v_T by up to 0.62e-16 / sin r.
        rng = random.Random(RNG_SEED)
        for _ in range(200):
            x, r = rng.uniform(-50.0, 50.0), rng.uniform(0.5 * math.pi, math.pi - 1e-6)
            plain = _read_at(None, complex(x, r)).v_T
            signed = _read_at(None, complex(x, r - math.pi), True).v_T
            tol = 4 * math.ulp(max(1.0, plain)) + 0.62e-16 / math.sin(r)
            assert abs(plain - signed) <= tol, (x, r)

    @pytest.mark.parametrize("anchor,L,frame", [
        # e^-800 underflows: q rounds onto its anchor on the real axis, at
        # angle 0 or pi from the frame, which reads 0 modulo pi.
        (1.0, complex(-800.0, 1.0), (None, 0.0)),
        (-1.0, complex(-800.0, 1.0), (None, 0.0)),
        # q = sigma + e^(800 + i): the inverted point -e^(-800 - i)
        # underflows onto 0, at angle 0 from x0 = -1.
        (0.0, complex(800.0, 1.0), (0.0, -1.0)),
    ], ids=["zero", "pi", "inverted"])
    def test_zero_gap_raises(self, anchor, L, frame):
        with pytest.raises(PrecisionError, match=r"^speeds\._sample_at: zero gap at t = -1\.0, "
                                                 r"framed angle 0\.0$"):
            _read_at(anchor, L, frame=frame)


class TestMirrorSymmetry:
    """Complex conjugation carries strip-slit's upper petal onto its lower
    one and the orbit from w0 onto the orbit from conj(w0), so the two
    petals read the same speeds, bit for bit, once |t| is large."""

    @pytest.mark.parametrize("w0", [1.0 + 0.3j, 1.0 + 1e-3j, 1.0 + 1e-8j, 0.25 + 1.5j])
    def test_upper_at_w0_is_lower_at_its_conjugate(self, w0):
        model = by_name("strip-slit")
        upper, lower = model.petal("upper"), model.petal("lower")
        times = [-(2.0 ** k) for k in range(22, 1023)] + [-(10.0 ** k) for k in range(7, 301)]
        for t in times:
            assert speed_sample(model, upper, w0, t) == speed_sample(
                model, lower, w0.conjugate(), t), t


class TestOneRead:
    """``speed_sample`` and ``speed_series`` read a sample through one
    function: the same value by ``repr``, or the same error."""

    @staticmethod
    def _read(f, *args):
        try:
            return repr(f(*args))
        except ValueError as exc:
            return f"{type(exc).__name__}: {exc}"

    @pytest.mark.parametrize("t", [-1.0, -(2.0 ** 30), -1e300])
    def test_sample_is_the_series_sample(self, t):
        rng = random.Random(RNG_SEED)
        for model, petal in _model_petals():
            for w in [petal.base_default, *sample_petal_omega(model, petal, 3, rng)]:
                one = self._read(speed_sample, model, petal, w, t)
                series = self._read(
                    lambda: speed_series(model, petal, w, [t]).samples[0])
                assert one == series, (model.name, petal.label, w)


class TestBaseReadingMemo:
    """``speed_sample`` and ``speed_series`` read each base through the memo
    ``_base_reading``: a stored reading serves exactly what a fresh one
    reads, a point never gets the reading of another point that only
    compares equal to it, and a refusal is never stored."""

    TIMES = ([-(2.0 ** k) for k in range(61)]
             + [-(10.0 ** k) for k in range(0, 301, 20)])
    OFF_CENTRE = {("strip-slit", "upper"): [1.0 + 0.3j],
                  ("strip-slit", "lower"): [0.5 - 0.3j],
                  ("sector-parabolic", "main"): [-3.0 + 1.0j, 2.0 + 0.5j],
                  ("koebe-elliptic", "main"): [2.0 * cmath.exp(0.5j)]}

    def _bases(self, model, petal):
        return [petal.base_default, *self.OFF_CENTRE[model.name, petal.label]]

    @staticmethod
    def _bits(sample):
        return tuple(x.hex() for x in sample)

    def test_cached_readings_equal_fresh_ones(self):
        for model, petal in _model_petals():
            for base in self._bases(model, petal):
                fresh = []
                for t in self.TIMES:
                    _base_reading.cache_clear()
                    fresh.append(self._bits(speed_sample(model, petal, base, t)))
                _base_reading.cache_clear()
                cached = [self._bits(speed_sample(model, petal, base, t)) for t in self.TIMES]
                info = _base_reading.cache_info()
                assert (info.misses, info.hits) == (1, len(self.TIMES) - 1)
                assert cached == fresh, (model.name, petal.label, base)
                grid = sorted(set(self.TIMES), reverse=True)
                series = speed_series(model, petal, base, grid)
                by_time = dict(zip(self.TIMES, fresh))
                assert [self._bits(s) for s in series.samples] == [by_time[t] for t in grid]
                assert _base_reading.cache_info().misses == 1

    @pytest.mark.parametrize("name,label,a,b", [
        # complex(...) calls: the literals 2-0j and -0.0+0.3j both read a
        # positive zero.
        ("koebe-elliptic", "main", complex(2.0, 0.0), complex(2.0, -0.0)),
        ("strip-slit", "upper", complex(0.0, 0.3), complex(-0.0, 0.3)),
    ])
    def test_signed_zeros_fill_their_own_entries(self, name, label, a, b):
        model = by_name(name)
        petal = model.petal(label)
        assert a == b and hash(a) == hash(b)
        want = self._bits(speed_sample(model, petal, b, -1e6))
        _base_reading.cache_clear()
        speed_sample(model, petal, a, -1e6)
        assert self._bits(speed_sample(model, petal, b, -1e6)) == want
        assert _base_reading.cache_info().currsize == 2
        for z in (a, b):
            assert repr(speed_series(model, petal, z, [-1e6]).base) == repr(z)
        assert _base_reading.cache_info().currsize == 2

    def test_refusals_are_not_stored(self):
        strip = by_name("strip-slit")
        upper = strip.petal("upper")
        for _ in range(3):
            # A base of the lower petal, at a valid time and a positive one:
            # the petal refusal comes before the time's.
            for t in (-1.0, 1.0):
                with pytest.raises(PetalRequiredError):
                    speed_sample(strip, upper, 1.0 - 0.3j, t)
            with pytest.raises(PetalRequiredError):
                speed_series(strip, upper, 1.0 - 0.3j, [1.0])
            # In the petal, but e^800 has no float image to frame eta through.
            with pytest.raises(DomainError, match=r"^speeds\._eta_frame: base point has no finite canonical image$"):
                speed_sample(strip, upper, 800.0 + 0.5j, -1.0)
        assert _base_reading.cache_info().currsize == 0
        # A time refusal reads no base either.
        with pytest.raises(DomainError, match=r"^speeds\.speed_sample: petal speeds are defined for t <= 0$"):
            speed_sample(strip, upper, upper.base_default, 1.0)
        with pytest.raises(DomainError, match=r"^speeds\.speed_series: grid must not be empty$"):
            speed_series(strip, upper, upper.base_default, [])
        assert _base_reading.cache_info().currsize == 0

    def test_the_memo_is_bounded(self):
        assert _base_reading.cache_info().maxsize == _BASE_READINGS < math.inf
        model = by_name("strip-slit")
        petal = model.petal("upper")
        for k in range(_BASE_READINGS + 10):
            speed_sample(model, petal, complex(1.0 + k, 0.5), -1.0)
        assert _base_reading.cache_info().currsize == _BASE_READINGS


class TestUnderflowedGap:
    """Where an orbit angle's gap underflows to 0, ``models.uhp_orbit``
    refuses the point its walk built as a ``PrecisionError`` that names the
    layer, the model, the base and t (ROADMAP items 11 and 14)."""

    @pytest.mark.parametrize("base,t", [
        (-3 + 1e-300j, -1e24),
        (1 + 1e-300j, -1e300),
        (1 + 5e-324j, -1e6),
    ])
    def test_is_a_precision_refusal(self, base, t):
        model = by_name("sector-parabolic")
        petal = model.petal("main")
        text = (f"models.uhp_orbit: sector-parabolic orbit from {base!r} at t = {t!r}: "
                "hypcore.UhpLogPoint: signed log offset needs Im in (-pi, 0), got 0.0")
        for read in (lambda: model.uhp_orbit(base, t),
                     lambda: speed_sample(model, petal, base, t)):
            with pytest.raises(PrecisionError) as info:
                read()
            assert str(info.value) == text


class TestHugeIntegerTimes:
    """An integer time past float range is a ``DomainError`` that names
    its layer, not a bare ``OverflowError``."""

    def test_speed_sample(self):
        for model, petal in _model_petals():
            with pytest.raises(DomainError, match="models.uhp_orbit: orbit time is past"):
                speed_sample(model, petal, petal.base_default, -10 ** 400)

    def test_forward_speed(self):
        for model, petal in _model_petals():
            with pytest.raises(DomainError, match="models.uhp_orbit: orbit time is past"):
                forward_speed(model, petal.base_default, 10 ** 400)

    def test_speed_series(self):
        for model, petal in _model_petals():
            with pytest.raises(DomainError, match="speeds.speed_series: a grid time is past"):
                speed_series(model, petal, petal.base_default, [-1, -10 ** 400])

    def test_large_integer_in_range_is_a_float_time(self):
        model = by_name("strip-slit")
        petal = model.petal("upper")
        z = petal.base_default
        assert speed_sample(model, petal, z, -10 ** 20) == speed_sample(model, petal, z, -1e20)


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
        # Every petal from its default base, against the chain walked in
        # mpmath, out to |t| = 1e300.
        for model, petal in _model_petals():
            base = petal.base_default
            for t in (-1e8, -1e20, -1e100, -1e300):
                s = speed_sample(model, petal, base, t)
                _, _, distances = mp_orbit_reading(model, petal, base, t)
                for got, want in zip((s.v, s.v_o, s.v_T), map(float, distances)):
                    assert abs(got - want) <= 1e-12 * max(1.0, want), (petal.label, t, got, want)


# Times t = -10^k of the mpmath comparison: every k to 20, then every tenth.
_ORACLE_KS = tuple(range(21)) + tuple(range(30, 301, 10))
# Times t = -10^k at the bases next to sigma: every third k.
_NEXT_TO_SIGMA_KS = tuple(range(0, 301, 3))
# Relative error allowed against the mpmath walk; the petals read below
# 1e-15 apart from the bases next to an edge or to sigma.
_ORACLE_TOL = 1e-12


_ORACLE_CASES = [
    pytest.param("strip-slit", "upper", None, _ORACLE_KS, id="strip-slit-upper"),
    pytest.param("strip-slit", "upper", 1.0 + 0.3j, _ORACLE_KS, id="strip-slit-upper-off-centre"),
    pytest.param("strip-slit", "lower", None, _ORACLE_KS, id="strip-slit-lower"),
    pytest.param("strip-slit", "lower", 0.5 - 0.3j, _ORACLE_KS, id="strip-slit-lower-off-centre"),
    pytest.param("koebe-elliptic", "main", None, _ORACLE_KS, id="koebe-elliptic"),
    pytest.param("koebe-elliptic", "main", 2.0 * cmath.exp(0.5j), _ORACLE_KS,
                 id="koebe-elliptic-off-centre"),
    # The parabolic orbit's angle nears pi with a gap of order Im w0 / |t|.
    pytest.param("sector-parabolic", "main", None, _ORACLE_KS[:5], id="sector-parabolic-k<=4"),
    pytest.param("sector-parabolic", "main", None, _ORACLE_KS[5:], id="sector-parabolic-k>=5"),
    # Near the real axis both strip-slit petals' angles are of order Im w0.
    pytest.param("strip-slit", "upper", 0.5 + 1e-8j, _ORACLE_KS, id="strip-slit-upper-near-axis"),
    pytest.param("strip-slit", "lower", 0.5 - 1e-8j, _ORACLE_KS, id="strip-slit-lower-near-axis"),
    pytest.param("strip-slit", "upper", 0.5 + 1e-20j, _ORACLE_KS, id="strip-slit-upper-on-axis"),
    pytest.param("strip-slit", "lower", 0.5 - 1e-20j, _ORACLE_KS, id="strip-slit-lower-on-axis"),
    # Next to koebe-elliptic's slit, arg w0 lies next to pi.
    pytest.param("koebe-elliptic", "main", 2.0 * cmath.exp(1j * (math.pi - 1e-12)), _ORACLE_KS,
                 id="koebe-elliptic-above-slit"),
    pytest.param("koebe-elliptic", "main", 2.0 * cmath.exp(-1j * (math.pi - 1e-12)), _ORACLE_KS,
                 id="koebe-elliptic-below-slit"),
    # Within 1e-16 of the slit, where arg w0 rounds onto +-pi.
    pytest.param("koebe-elliptic", "main", -2.0 + 1e-20j, _ORACLE_KS,
                 id="koebe-elliptic-on-slit-above"),
    pytest.param("koebe-elliptic", "main", -2.0 - 1e-20j, _ORACLE_KS,
                 id="koebe-elliptic-on-slit-below"),
    pytest.param("koebe-elliptic", "main", -3.33036682224567 + 4.155893531238109e-207j,
                 _ORACLE_KS, id="koebe-elliptic-far-on-slit"),
    # Next to strip-slit's edges, Im w lies next to +-pi/2 and is doubled.
    pytest.param("strip-slit", "lower", complex(1.0, -(0.5 * math.pi - 1e-10)), _ORACLE_KS,
                 id="strip-slit-lower-near-edge"),
    pytest.param("strip-slit", "upper", complex(1.0, 0.5 * math.pi - 1e-10), _ORACLE_KS,
                 id="strip-slit-upper-near-edge"),
    # Next to sector-parabolic's edge the angle's gap to pi starts small.
    pytest.param("sector-parabolic", "main", 1.0 + 1e-10j, _ORACLE_KS,
                 id="sector-parabolic-near-edge"),
    # Where the petal's boundary point is infinity in the chart, eta is
    # vertical, and v_o reads the base's height from its log form: these
    # images lie far below ulp of their real parts, where Re q0 - Re q0's
    # float rounds to x0's rounding error (ROADMAP item 16).  The parabolic
    # rows stop where the gap, about 2/3 Im w0 / |t|, leaves the normal
    # range (item 11).
    pytest.param("sector-parabolic", "main", -2.5 + 1e-17j, _ORACLE_KS[:-1],
                 id="sector-parabolic-below-ulp"),
    pytest.param("sector-parabolic", "main",
                 -1.5908908451833579 + 2.0332299085542286e-193j, _ORACLE_KS[:30],
                 id="sector-parabolic-far-below-ulp"),
    pytest.param("koebe-elliptic", "main", -14.97532567114025 + 1.5134709554023175e-14j,
                 _ORACLE_KS, id="koebe-elliptic-below-ulp"),
    # Far left along a strip-slit petal the base image lies next to the
    # finite sigma, which the eta frame sends to infinity (ROADMAP item 17).
    pytest.param("strip-slit", "lower", -19.406498421755607 - 1.5707963267948963j,
                 _NEXT_TO_SIGMA_KS, id="strip-slit-lower-next-to-sigma"),
    pytest.param("strip-slit", "lower", -62.37977615446816 - 1.5707963267948963j,
                 _NEXT_TO_SIGMA_KS, id="strip-slit-lower-far-next-to-sigma"),
    pytest.param("strip-slit", "upper", -18.0 + 0.78j, _NEXT_TO_SIGMA_KS,
                 id="strip-slit-upper-next-to-sigma"),
    # Left of Re w0 = -349.6534264097201 the inverted base image's real
    # part x0 is past e^700, where a frame read through a float point
    # refused; read from the log form, the bases out to where x0 itself
    # overflows, -354.54478285641204, are exact.
    pytest.param("strip-slit", "upper", -352.0 + 0.78j, _NEXT_TO_SIGMA_KS,
                 id="strip-slit-upper-far-left"),
    pytest.param("strip-slit", "lower", -354.54478285641204 - 1e-9j, _NEXT_TO_SIGMA_KS,
                 id="strip-slit-lower-far-left-near-axis"),
    pytest.param("strip-slit", "upper", complex(-354.5, 0.5 * math.pi - 1e-10), _NEXT_TO_SIGMA_KS,
                 id="strip-slit-upper-far-left-near-edge"),
]


class TestAgainstMpmathWalk:
    """The orbit's log Im q and angle, and the three speeds, against
    ``oracles.mp_orbit_reading``: the chain's steps walked in mpmath at 330
    digits, which shares none of the float log walk's rounding."""

    @pytest.mark.parametrize("name,label,base,ks", _ORACLE_CASES)
    def test_backward_times_to_1e300(self, name, label, base, ks):
        model = by_name(name)
        petal = model.petal(label)
        w0 = petal.base_default if base is None else base
        sigma = petal.sigma_canonical
        shift = 0.0 if sigma is None else sigma
        for k in ks:
            t = -(10.0 ** k)
            log_im, gap, distances = mp_orbit_reading(model, petal, w0, t)
            p = model.uhp_orbit(w0, t)
            s = speed_sample(model, petal, w0, t)
            # The angle to sigma (to the real axis at infinity), read modulo
            # pi by its gap to the nearer of 0 and pi.
            got_arg = abs(uhp_log_framed(p, shift).imag)
            got_gap = min(got_arg, math.pi - got_arg)
            want_gap = float(gap)
            assert abs(p.log_im() - float(log_im)) <= _ORACLE_TOL * abs(float(log_im)), k
            assert abs(got_gap - want_gap) <= _ORACLE_TOL * want_gap, k
            for got, want in zip((s.v, s.v_o, s.v_T), map(float, distances)):
                assert abs(got - want) <= _ORACLE_TOL * max(1.0, want), (k, got, want)



# ROADMAP item 7: over whole petals, every reading is exact or refused with
# a typed error.  Each draw picks a petal uniformly; its base lies in the
# interior (30% of draws, the petal's own sampler), at a log-uniform gap of
# 1e-1 .. 1e-300 from an edge (50%), or at such a gap far along an edge,
# |Re w0| or |w0| log-uniform in 1 .. 1e3 (20%); its time is t = -10^u, u
# uniform in [-3, 300].
_WHOLE_PETAL_DRAWS = 2000
_WHOLE_PETAL_SEED = RNG_SEED
# A base image this close to a finite boundary point sigma, where a frame
# built from the float image could not hold its offset from sigma (ROADMAP
# item 17, done): the eta frame reads the base in the chart that sends sigma
# to infinity, from its log form.
_NEAR_SIGMA = 1e-3


def _edge_base(image, gap, along, rng):
    """A base at ``gap`` from an edge of ``image``, ``along`` it."""
    if isinstance(image, StripImage):
        im = image.lo + gap if rng.random() < 0.5 else image.hi - gap
        # A gap below ulp(hi) rounds onto the wall: take the nearest float inside.
        im = min(max(im, math.nextafter(image.lo, math.inf)), math.nextafter(image.hi, -math.inf))
        return complex(along, im)
    if isinstance(image, HalfPlaneImage):
        return complex(along, gap)
    # The slit plane's edge, the negative axis, from above or below.
    return complex(-abs(along), math.copysign(gap * abs(along), rng.random() - 0.5))


def _whole_petal_draws():
    rng = random.Random(_WHOLE_PETAL_SEED)
    petals = _model_petals()
    for _ in range(_WHOLE_PETAL_DRAWS):
        model, petal = rng.choice(petals)
        kind = rng.random()
        if kind < 0.3:
            base = petal.image.sample(1, rng)[0]
        else:
            if kind < 0.8:
                along = (math.exp(rng.uniform(-2.0, 2.0)) if isinstance(petal.image, SlitPlaneImage)
                         else rng.uniform(-3.0, 3.0))
            else:
                along = math.copysign(10.0 ** rng.uniform(0.0, 3.0), rng.random() - 0.5)
            base = _edge_base(petal.image, 10.0 ** -rng.uniform(1.0, 300.0), along, rng)
        yield model, petal, base, -(10.0 ** rng.uniform(-3.0, 300.0))


def _whole_petal_problem(model, petal, base, t):
    """(region, problem) of one draw.  The region is "refused" for a
    ``DomainError`` that is no ``PrecisionError``, and for the
    ``PrecisionError`` of ``speeds._eta_frame``, which refuses a base
    whose eta frame the floats cannot hold at any time, "item 17" for a base
    image within ``_NEAR_SIGMA`` of a finite sigma, "item 11" where the
    orbit's angle gap lies below the normal float range, and "general"
    otherwise; a draw whose mpmath q lies on the real axis, where 330
    digits hold neither its gap nor its offset from sigma, is in one of
    the two.  The problem is None for an exact reading, for a refusal, or
    for a ``PrecisionError`` in item 11."""
    sigma = petal.sigma_canonical
    try:
        s = speed_sample(model, petal, base, t)
        p = model.uhp_orbit(base, t)
        problem = None
    except PrecisionError as exc:
        if str(exc).startswith("speeds._eta_frame:"):
            return "refused", None
        problem = f"PrecisionError: {exc}"
    except DomainError:
        return "refused", None
    q0 = model.uhp_orbit(base, 0.0).value() if sigma is not None else None
    near_sigma = q0 is not None and abs(q0 - sigma) < _NEAR_SIGMA
    try:
        log_im, gap, distances = mp_orbit_reading(model, petal, base, t)
    except ZeroDivisionError:
        return ("item 17" if near_sigma else "item 11",
                problem or "a reading where mpmath's q lies on the real axis")
    region = ("item 17" if near_sigma
              else "item 11" if float(gap) < sys.float_info.min else "general")
    if problem is not None:
        return region, None if region == "item 11" else problem
    arg = abs(uhp_log_framed(p, 0.0 if sigma is None else sigma).imag)
    got = (p.log_im(), min(arg, math.pi - arg), s.v, s.v_o, s.v_T)
    want = (float(log_im), float(gap), *map(float, distances))
    for name, g, w in zip(("log Im q", "gap", "v", "v_o", "v_T"), got, want):
        scale = w if name == "gap" else max(1.0, abs(w))
        if not (math.isfinite(g) and abs(g - w) <= _ORACLE_TOL * scale):
            return region, f"{name} {g!r}, mpmath {w!r}"
    return region, None


def _distance_problem(petal, base):
    """None where the petal's distance from base to its default base
    matches ``oracles.mp_petal_distance`` to ``_ORACLE_TOL`` relative, and
    otherwise the problem, a refusal included."""
    want = float(mp_petal_distance(petal, base, petal.base_default))
    try:
        got = petal.distance(base, petal.base_default)
    except DomainError as exc:
        return f"{type(exc).__name__}: {exc}"
    if not abs(got - want) <= _ORACLE_TOL * want:
        return f"distance {got!r}, mpmath {want!r}"
    return None


@functools.lru_cache(maxsize=None)
def _whole_petal_sweep():
    """Each region's draws, each model's draws read and refused (keyed
    ("read", name) and ("refused", name)), and the problems among them,
    those of ``Petal.distance`` under "distance"."""
    counts, problems = Counter(), {}
    for model, petal, base, t in _whole_petal_draws():
        region, problem = _whole_petal_problem(model, petal, base, t)
        counts[region] += 1
        counts["refused" if region == "refused" else "read", model.name] += 1
        for key, found in ((region, problem), ("distance", _distance_problem(petal, base))):
            if found is not None:
                problems.setdefault(key, []).append((model.name, petal.label, base, t, found))
    return counts, problems


class TestExactOrRefusedOverWholePetals:
    """ROADMAP item 7: a reading is exact against ``oracles.mp_orbit_reading``
    or raises a typed error, at every base of a petal and every backward
    time out to 1e300.  Bases next to a finite sigma are held apart, and
    read exactly; the one known limit, item 11, is a strict xfail."""

    def test_every_reading_is_exact_or_refused(self):
        counts, problems = _whole_petal_sweep()
        assert counts["general"] >= _WHOLE_PETAL_DRAWS // 2, counts
        assert problems.get("general", []) == []
        # The slit plane holds its bases next to the slit, where arg w0
        # rounds onto +-pi: every koebe-elliptic draw is read.
        assert counts["read", "koebe-elliptic"] > 0, counts
        assert counts["refused", "koebe-elliptic"] == 0, counts

    def test_distance_to_the_default_base_is_exact(self):
        # Petal.distance from each draw's base to its petal's default base,
        # against the petal's chart in mpmath at 400 digits: every draw is
        # read, and exact.
        _, problems = _whole_petal_sweep()
        assert problems.get("distance", []) == []

    def test_infinite_sigma_frame_reads_the_base_value(self):
        # Where sigma is infinite, _eta_frame reads x0 and re0 through the
        # framed reader, as it does for a finite sigma: by repr, they are
        # the real part of the base's plain value and its log Im q.  Every
        # such draw's base lies in its petal and has a plain value.
        bases = 0
        for model, petal, base, _ in _whole_petal_draws():
            if petal.sigma_canonical is None:
                p0 = model.uhp_orbit(require_petal(model, petal, base), 0.0)
                (_, x0), re0 = _eta_frame(None, p0)
                assert (repr(x0), repr(re0)) == (repr(p0.value().real), repr(p0.log_im())), (
                    model.name, base)
                bases += 1
        assert bases > 0

    @pytest.mark.parametrize("region", [
        pytest.param("item 11", marks=pytest.mark.xfail(strict=True, reason=(
            "ROADMAP item 11: an angle gap below the normal float range reads "
            "log Im q, v and v_T off"))),
        "item 17",
    ], ids=["item-11-subnormal-gap", "item-17-base-next-to-sigma"])
    def test_known_limit(self, region):
        counts, problems = _whole_petal_sweep()
        assert counts[region] > 0
        assert problems.get(region, []) == []


class TestBasePointIndependence:
    def test_speed_differences_bounded_by_petal_distance(self):
        rng = random.Random(RNG_SEED)
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
        with pytest.raises(DomainError, match=(
                r"^speeds\.forward_speed: forward speed is defined for t >= 0$")):
            forward_speed(m1, 1 + 0.3j, -1.0)

    def test_outside_domain_rejected(self):
        m1 = by_name("strip-slit")
        with pytest.raises(DomainError, match=(
                r"^speeds\.forward_speed: \(-1\+0j\) is not in the domain of strip-slit$")):
            forward_speed(m1, -1 + 0j, 1.0)

    def test_translation_rate(self):
        # Forward drift at half the spectral value.
        m1 = by_name("strip-slit")
        ts = [2.0 ** k for k in range(4, 15)]
        vs = [forward_speed(m1, 1 + 0.3j, t) for t in ts]
        tail = len(ts) // 2
        slope = _exact_fit(ts[tail:], vs[tail:])[0]
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
        assert [s.t for s in series.samples] == dyadic_grid(0, 16)

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

    def test_no_monotonicity_warning_on_catalog(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for model, petal in _model_petals():
                speed_series(model, petal, petal.base_default, dyadic_grid(0, 10))

    def test_monotonicity_warning_on_decreasing_total(self, monkeypatch):
        # A total that shrinks as |t| grows, planted through the distance
        # kernel: the series still comes back, with a RuntimeWarning.
        planted = iter([3.0, 2.0, 1.0])
        monkeypatch.setattr("petallab.speeds.uhp_log_distance", lambda p, q: next(planted))
        m1 = by_name("strip-slit")
        petal = m1.petal("upper")
        with pytest.warns(RuntimeWarning,
                          match=r"total speed is not monotone in \|t\| for strip-slit/upper"):
            series = speed_series(m1, petal, petal.base_default, [-1.0, -2.0, -4.0])
        assert [s.v for s in series.samples] == [3.0, 2.0, 1.0]

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
        return SpeedSeries("synthetic", "main", 0j, samples)

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
        series = SpeedSeries("synthetic", "main", 0j, samples)
        slope, r2 = slope_estimate(series, "linear_in_log", "v")
        assert slope == pytest.approx(0.5, abs=1e-12)
        assert r2 == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_grid(self):
        samples = tuple(SpeedSample(t=0.0, v=0.0, v_o=0.0, v_T=0.0) for _ in range(6))
        series = SpeedSeries("synthetic", "main", 0j, samples)
        with pytest.raises(EstimationError):
            slope_estimate(series, "linear_in_t", "v")
        with pytest.raises(EstimationError):
            slope_estimate(series, "linear_in_log", "v")


def _exact_fit(xs, ys):
    """The least-squares line through the float points (xs, ys), formed in
    exact rational arithmetic: its slope, its intercept and its r^2, each
    rounded once to a float.  A flat series, whose every residual is 0,
    has r^2 = 1."""
    x = [Fraction(v) for v in xs]
    y = [Fraction(v) for v in ys]
    x_mean, y_mean = sum(x) / len(x), sum(y) / len(y)
    slope = (sum((a - x_mean) * (b - y_mean) for a, b in zip(x, y))
             / sum((a - x_mean) ** 2 for a in x))
    intercept = y_mean - slope * x_mean
    ss_res = sum((b - slope * a - intercept) ** 2 for a, b in zip(x, y))
    ss_tot = sum((b - y_mean) ** 2 for b in y)
    r2 = 1 - ss_res / ss_tot if ss_tot else 1
    return float(slope), float(intercept), float(r2)


def _slope_tol(xs, ys):
    # Relative 1e-12 of the slope; a flat series, whose exact slope is 0,
    # is held to the smallest slope its float values can resolve instead.
    return 1e-12 * max(abs(y) for y in ys) / (max(xs) - min(xs))


_PETAL_IDS = [(m.name, p.label) for m in catalog() for p in m.petals]


class TestFitAgainstPolyfit:
    """linear_fit and slope_estimate agree with the exact least-squares line
    on the grids the CLI and verify fit: asymptote and forward."""

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
                want_slope, _, want_r2 = _exact_fit(xs, ys)
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
        want_slope, want_intercept, _ = _exact_fit(xs, ys)
        slope, intercept = linear_fit(xs, ys)
        assert slope == pytest.approx(want_slope, rel=1e-12, abs=_slope_tol(xs, ys))
        assert intercept == pytest.approx(want_intercept, rel=1e-12, abs=1e-12 * max(ys))

    def test_exact_line_is_exact(self):
        assert linear_fit([1.0, 2.0, 3.0, 4.0], [3.0, 5.0, 7.0, 9.0]) == (2.0, 1.0)

    def test_abscissae_past_the_square_root_of_float_range(self):
        # Squares of 2^600 overflow; the fit runs on points scaled by
        # powers of two and gives the exact line back.
        xs = [2.0 ** k for k in range(600, 612)]
        assert linear_fit(xs, [0.5 * x for x in xs]) == (0.5, 0.0)
        assert linear_fit(xs, [-0.25 * x for x in xs]) == (-0.25, 0.0)
        assert linear_fit([-x for x in xs], [1.0] * len(xs)) == (0.0, 1.0)

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
        # The same error type as the other range errors, so the CLI exits 2.
        for k_min, k_max in ((5, 4), (5, 3)):
            with pytest.raises(DomainError, match=(
                    rf"^speeds\.dyadic_grid: dyadic exponent k_min = {k_min} exceeds "
                    rf"k_max = {k_max}$")):
                dyadic_grid(k_min, k_max)

    def test_exponent_past_float_range(self):
        assert dyadic_grid(1023, 1023) == [-(2.0 ** 1023)]
        with pytest.raises(DomainError, match=r"^speeds\.dyadic_grid: dyadic exponent 1024 "):
            dyadic_grid(0, 1024)

    def test_exponent_below_float_range(self):
        # 2^-1074 is the smallest subnormal; below it 2^k underflows to 0.
        assert dyadic_grid(-1074, -1073) == [-5e-324, -1e-323]
        for k_min in (-1075, -1100):
            with pytest.raises(DomainError,
                               match=rf"^speeds\.dyadic_grid: dyadic exponent k_min = {k_min} "):
                dyadic_grid(k_min, -1070)


def _refusals_name_their_layer(module, count):
    """Each DomainError or PrecisionError that ``module`` raises starts with
    "<module>.<name>:", naming a function or class the module defines,
    or, in a shared check, with the layer its caller names."""
    import ast
    import re
    from pathlib import Path

    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    names = {node.name for node in ast.walk(tree)
             if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    raises = [node.exc for node in ast.walk(tree) if isinstance(node, ast.Raise)
              and isinstance(node.exc, ast.Call)
              and getattr(node.exc.func, "id", None) in ("DomainError", "PrecisionError")]
    assert len(raises) == count
    prefix = module.__name__.rpartition(".")[2]
    for call in raises:
        message = call.args[0]
        head = message.values[0] if isinstance(message, ast.JoinedStr) else message
        if isinstance(head, ast.FormattedValue):
            assert ast.unparse(head.value) == "layer", ast.unparse(call)
            assert message.values[1].value.startswith(": "), ast.unparse(call)
            continue
        match = re.match(rf"{prefix}\.(\w+): ", head.value)
        assert match and match.group(1) in names, ast.unparse(call)


def test_every_refusal_names_its_layer():
    # The grid check that speed_series and verify.bound_ratios share takes
    # the layer its caller names (TestSharedGridCheck).
    import petallab.speeds

    _refusals_name_their_layer(petallab.speeds, 12)


def test_every_hypcore_refusal_names_its_layer():
    # The finiteness check that disk_distance and uhp_distance share takes
    # the layer its caller names.
    import petallab.hypcore

    _refusals_name_their_layer(petallab.hypcore, 11)


class TestSharedGridCheck:
    """``speed_series`` and ``verify.bound_ratios`` check their grids in one
    function, ``backward_grid``, and each refusal names the caller."""

    @pytest.mark.parametrize("grid,message", [
        ([], "grid must not be empty"),
        ([-1.0, 2.0], "backward series grids must satisfy t <= 0"),
        ([-1.0, -1.0], "grid must be strictly decreasing"),
        ([-4.0, -1.0], "grid must be strictly decreasing"),
        ([-1.0, -10 ** 400], "a grid time is past float range"),
    ], ids=["empty", "positive", "repeated", "increasing", "huge-integer"])
    def test_both_callers_name_their_layer(self, grid, message):
        from petallab import verify
        from petallab.bounds import gaussian_profile

        model = by_name("strip-slit")
        petal = model.petal("upper")
        with pytest.raises(DomainError, match=rf"^speeds\.speed_series: {message}$"):
            speed_series(model, petal, petal.base_default, grid)
        with pytest.raises(DomainError, match=rf"^verify\.bound_ratios: {message}$"):
            verify.bound_ratios(gaussian_profile(), grid)
