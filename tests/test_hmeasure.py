"""Tests for harmonic measure and the approach-angle probe."""

import cmath
import math
import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import arc_complement, reference_aitken_limit

from petallab.hmeasure import (
    ENDPOINT_TOL,
    ROUNDING_FLOOR,
    Arc,
    ApproachReport,
    _aitken_limit,
    approach_angle,
    harmonic_measure,
)
from petallab.hypcore import DomainError
from petallab.models import by_name
from petallab.semigroup import flow

TWO_PI = 2.0 * math.pi
RNG_SEED = 20260817


class TestArc:
    def test_normalization(self):
        arc = Arc(-math.pi / 2, math.pi / 2)
        assert math.isclose(arc.alpha, 3 * math.pi / 2)
        assert math.isclose(arc.beta, 5 * math.pi / 2)
        assert math.isclose(arc.beta - arc.alpha, math.pi)
        assert abs(arc.start - (-1j)) < 1e-15
        assert abs(arc.end - 1j) < 1e-15

    def test_wraparound_start(self):
        arc = Arc(7.0, 8.0)
        assert 0.0 <= arc.alpha < TWO_PI
        assert math.isclose(arc.beta - arc.alpha, 1.0)

    def test_empty_and_full_rejected(self):
        with pytest.raises(DomainError):
            Arc(1.0, 1.0)
        with pytest.raises(DomainError):
            Arc(0.0, TWO_PI)
        with pytest.raises(DomainError):
            Arc(0.0, math.inf)

    def test_complement(self):
        arc = Arc(0.3, 1.7)
        comp = arc_complement(arc)
        assert math.isclose((arc.beta - arc.alpha) + (comp.beta - comp.alpha), TWO_PI)
        assert abs(comp.start - arc.end) < 1e-15
        assert abs(comp.end - arc.start) < 1e-12

    def test_endpoints_are_stored_exactly(self):
        rng = random.Random(RNG_SEED)
        for _ in range(500):
            arc = Arc(rng.uniform(-20.0, 20.0), rng.uniform(-20.0, 20.0))
            assert arc.start == cmath.exp(1j * arc.alpha)
            assert arc.end == cmath.exp(1j * arc.beta)

    def test_has_endpoint(self):
        arc = Arc(0.0, math.pi / 2)
        assert arc.has_endpoint(1.0 + 0j)
        assert arc.has_endpoint(1j)
        assert not arc.has_endpoint(-1.0 + 0j)
        assert arc.has_endpoint(1j + 0.5 * ENDPOINT_TOL)
        assert not arc.has_endpoint(1j + 2.0 * ENDPOINT_TOL)


def _closure_harmonic_measure(z, arc):
    """The harmonic measure as a closure over the Moebius step, reading the
    arc's endpoints from its angles."""
    z = complex(z)

    def moved(w):
        return (w - z) / (1.0 - z.conjugate() * w)

    phase_a = cmath.phase(moved(cmath.exp(1j * arc.alpha)))
    phase_b = cmath.phase(moved(cmath.exp(1j * arc.beta)))
    return ((phase_b - phase_a) % TWO_PI) / TWO_PI


def _point(rng, scale):
    """A point of the square scale * [-0.7, 0.7]^2, inside the disk."""
    return complex(scale * rng.uniform(-0.7, 0.7), scale * rng.uniform(-0.7, 0.7))


class TestHarmonicMeasure:
    def test_bitwise_equal_to_the_closure_form(self):
        rng = random.Random(RNG_SEED)
        starts = [rng.uniform(0.0, TWO_PI) for _ in range(50)]
        arcs = [Arc(a, a + rng.uniform(1e-9, TWO_PI - 1e-9)) for a in starts]
        for arc in arcs:
            for _ in range(100):
                r = 1.0 - 10.0 ** rng.uniform(-15.0, 0.0)
                z = r * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
                assert repr(harmonic_measure(z, arc)) == repr(_closure_harmonic_measure(z, arc))
        # Points on the arc's endpoint rays, as the approach probe feeds it.
        arc = Arc(0.3, 1.9)
        for j in range(53):
            z = (1.0 - 2.0 ** -j) * arc.start
            assert repr(harmonic_measure(z, arc)) == repr(_closure_harmonic_measure(z, arc))

    def test_center_sees_normalized_length(self):
        arc = Arc(0.3, 1.7)
        assert harmonic_measure(0j, arc) == pytest.approx(1.4 / TWO_PI, abs=1e-15)

    def test_center_half_circle(self):
        arc = Arc(0.0, math.pi)
        assert harmonic_measure(0j, arc) == pytest.approx(0.5, abs=1e-15)

    def test_total_measure_is_one(self):
        rng = random.Random(RNG_SEED)
        for _ in range(50):
            z = _point(rng, 0.95)
            alpha = rng.uniform(0.0, TWO_PI)
            span = rng.uniform(0.05, TWO_PI - 0.05)
            arc = Arc(alpha, alpha + span)
            total = harmonic_measure(z, arc) + harmonic_measure(z, arc_complement(arc))
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_point_near_arc_sees_almost_everything(self):
        arc = Arc(0.0, math.pi)
        assert harmonic_measure(0.999999j, arc) > 0.999
        assert harmonic_measure(-0.999999j, arc) < 0.001

    def test_interior_required(self):
        arc = Arc(0.0, 1.0)
        with pytest.raises(DomainError):
            harmonic_measure(1.0 + 0j, arc)
        with pytest.raises(DomainError):
            harmonic_measure(1.2 + 0.5j, arc)

    def test_moebius_invariance(self):
        # Harmonic measure is invariant under disk automorphisms.
        rng = random.Random(RNG_SEED)
        for _ in range(100):
            z = _point(rng, 0.9)
            alpha = rng.uniform(0.0, TWO_PI)
            span = rng.uniform(0.1, TWO_PI - 0.1)
            arc = Arc(alpha, alpha + span)
            c = _point(rng, 0.85)
            phi = rng.uniform(0.0, TWO_PI)

            def t(w):
                return cmath.exp(1j * phi) * (w - c) / (1.0 - c.conjugate() * w)

            moved_arc = Arc(cmath.phase(t(arc.start)), cmath.phase(t(arc.end)))
            before = harmonic_measure(z, arc)
            after = harmonic_measure(t(z), moved_arc)
            assert after == pytest.approx(before, abs=1e-12)

    @given(
        st.floats(min_value=0.0, max_value=6.28),
        st.floats(min_value=0.05, max_value=3.0),
        st.floats(min_value=0.05, max_value=3.0),
        st.floats(min_value=-0.9, max_value=0.9),
        st.floats(min_value=-0.9, max_value=0.9),
    )
    @settings(max_examples=200, deadline=None)
    def test_monotone_in_arc(self, alpha, span, extra, x, y):
        z = complex(x, y)
        if abs(z) >= 0.95:
            return
        small = Arc(alpha, alpha + span)
        big = Arc(alpha, alpha + min(span + extra, TWO_PI - 1e-6))
        assert harmonic_measure(z, small) <= harmonic_measure(z, big) + 1e-12

    @given(
        st.floats(min_value=0.0, max_value=6.28),
        st.floats(min_value=0.1, max_value=3.0),
        st.floats(min_value=0.1, max_value=3.0),
        st.floats(min_value=-0.9, max_value=0.9),
        st.floats(min_value=-0.9, max_value=0.9),
    )
    @settings(max_examples=200, deadline=None)
    def test_additive_over_split(self, alpha, span1, span2, x, y):
        z = complex(x, y)
        if abs(z) >= 0.95 or span1 + span2 >= TWO_PI - 1e-6:
            return
        left = Arc(alpha, alpha + span1)
        right = Arc(alpha + span1, alpha + span1 + span2)
        union = Arc(alpha, alpha + span1 + span2)
        got = harmonic_measure(z, left) + harmonic_measure(z, right)
        assert got == pytest.approx(harmonic_measure(z, union), abs=1e-12)


class TestApproachAngle:
    def _radial_points(self, a, kmax=20):
        return [(1.0 - 2.0 ** (-k)) * a for k in range(0, kmax + 1)]

    def test_radial_approach_is_orthogonal(self):
        # A radial sequence meets the boundary at a right angle, so the
        # measure of an arc starting at the endpoint extrapolates to 1/2.
        a = 1.0 + 0j
        arc = Arc(0.0, math.pi / 2)
        report = approach_angle(self._radial_points(a), a, arc)
        assert not report.inconclusive
        assert report.theta == pytest.approx(math.pi / 2, abs=1e-2)
        assert report.tangential is False

    def test_radial_approach_other_endpoint(self):
        a = 1j
        arc = Arc(0.0, math.pi / 2)
        report = approach_angle(self._radial_points(a), a, arc)
        assert not report.inconclusive
        assert report.theta == pytest.approx(math.pi / 2, abs=1e-2)

    def test_oblique_approach(self):
        # Straight-line approach at 45 degrees to the radius, tilted toward
        # the complement side.  Measured from the tangent ray pointing away
        # from the arc, the angle is pi/4.
        a = 1.0 + 0j
        direction = cmath.exp(1j * math.pi / 4)
        pts = [a - 2.0 ** (-k) * direction for k in range(1, 24)]
        arc = Arc(0.0, math.pi / 2)
        report = approach_angle(pts, a, arc)
        assert not report.inconclusive
        assert report.theta == pytest.approx(math.pi / 4, abs=1e-2)
        assert report.tangential is False

    def test_tangential_approach_flagged(self):
        # Points creeping along the boundary inside the arc report angle pi.
        a = 1.0 + 0j
        pts = []
        for k in range(2, 26):
            eps = 2.0 ** (-k)
            pts.append((1.0 - eps * eps) * cmath.exp(1j * eps))
        arc = Arc(0.0, math.pi / 2)
        report = approach_angle(pts, a, arc)
        assert not report.inconclusive
        assert report.theta == pytest.approx(math.pi, abs=1e-2)
        assert report.tangential is True

    def test_tangential_from_complement_side(self):
        # The mirror sequence creeps along the complement and reports 0.
        a = 1.0 + 0j
        pts = []
        for k in range(2, 26):
            eps = 2.0 ** (-k)
            pts.append((1.0 - eps * eps) * cmath.exp(-1j * eps))
        arc = Arc(0.0, math.pi / 2)
        report = approach_angle(pts, a, arc)
        assert not report.inconclusive
        assert report.theta == pytest.approx(0.0, abs=1e-2)
        assert report.tangential is True

    def test_backward_orbit_lands_nontangentially(self):
        # Backward orbit of the strip-slit model, pushed to disk coordinates
        # while the chart still resolves it, approaches the repelling point
        # strictly inside the open angle range.
        model = by_name("strip-slit")
        petal = model.petal("upper")
        sigma = model.disk_sigma(petal).value
        assert sigma == pytest.approx(1j, abs=1e-12)
        pts = []
        for t in range(-1, -19, -1):
            z = flow(model, petal.base_default, float(t)).disk_z
            if z is None:
                break
            pts.append(z)
        assert len(pts) >= 12
        arc = Arc(math.pi / 2, math.pi)
        report = approach_angle(pts, sigma, arc)
        assert not report.inconclusive
        assert 0.05 * math.pi < report.theta < 0.95 * math.pi
        assert report.tangential is False
        # From t = -10 on disk_z lies within the rounding floor of sigma;
        # the nine points before it give the closed form pi - 2 Im w0.
        assert report.used == 9
        assert report.stop == "point 9 within 2.22e-08 of the approach point"
        assert report.theta == pytest.approx(math.pi / 2, abs=1e-8)

    def test_points_within_rounding_floor_are_dropped(self):
        a = 1.0 + 0j
        pts = self._radial_points(a, kmax=40)
        report = approach_angle(pts, a, Arc(0.0, math.pi))
        # 2^-25 is above the floor 2^-52 * 1e8, 2^-26 below it.
        assert ROUNDING_FLOOR == pytest.approx(2.220446049250313e-08, rel=1e-15)
        assert report.used == 26 and len(report.measures) == 26
        assert report.stop == "point 26 within 2.22e-08 of the approach point"
        assert report.theta == pytest.approx(math.pi / 2, abs=1e-2)
        short = approach_angle(pts[:20], a, Arc(0.0, math.pi))
        assert short.used == 20 and short.stop == "sequence ended"

    def test_constant_sequence_inconclusive(self):
        pts = [0.5 + 0j] * 12
        arc = Arc(0.0, math.pi / 2)
        report = approach_angle(pts, 1.0 + 0j, arc)
        assert report.inconclusive
        assert report.theta is None
        assert report.tangential is None
        assert report.reason == "sequence does not converge to the approach point"
        assert report.used == 12 and report.stop == "sequence ended"

    def test_report_holds_four_fields(self):
        # used, inconclusive and tangential are read off the four fields.
        assert ApproachReport._fields == ("theta", "measures", "reason", "stop")
        report = ApproachReport(math.pi - 5e-3, (0.1, 0.2), "", "sequence ended")
        assert report.used == 2 and not report.inconclusive and report.tangential
        assert not ApproachReport(math.pi / 2, (), "", "").tangential

    def test_wandering_sequence_inconclusive(self):
        # Converges to the endpoint along two rays at +-0.8 rad from the
        # radius, alternately: the measures settle near 0.245 and 0.755,
        # and the probe reports their spread, not a number.
        a = 1.0 + 0j
        pts = [a - 2.0 ** (-k) * cmath.exp(1j * (0.8 if k % 2 else -0.8))
               for k in range(1, 20)]
        report = approach_angle(pts, a, Arc(0.0, math.pi / 2))
        assert report.inconclusive
        assert report.reason == "trailing measures spread 0.509 exceeds 0.05"
        assert report.used == 19 and report.stop == "sequence ended"

    def test_short_sequence_inconclusive(self):
        pts = [(1.0 - 2.0 ** (-k)) * 1j for k in range(1, 4)]
        report = approach_angle(pts, 1j, Arc(math.pi / 2, math.pi))
        assert report.inconclusive

    def test_receding_sequence_inconclusive(self):
        pts = [(1.0 - 0.01 * k) * 1j for k in range(1, 12)]
        report = approach_angle(pts, 1j, Arc(math.pi / 2, math.pi))
        assert report.inconclusive

    def test_nan_point_raises(self):
        # A NaN point is not an interior point: the probe raises instead of
        # reporting an angle from the measures around it.
        pts = self._radial_points(1j, kmax=12) + [complex(math.nan, 1.0)]
        with pytest.raises(DomainError, match="interior point"):
            approach_angle(pts, 1j, Arc(math.pi / 2, math.pi))
        with pytest.raises(DomainError, match="interior point"):
            harmonic_measure(complex(math.nan, math.nan), Arc(0.0, 1.0))

    def test_endpoint_validation(self):
        pts = self._radial_points(1.0 + 0j)
        with pytest.raises(DomainError):
            approach_angle(pts, 0.5 + 0j, Arc(0.0, 1.0))
        with pytest.raises(DomainError):
            approach_angle(pts, -1.0 + 0j, Arc(0.0, 1.0))

    def test_repeat_calls_compare_equal(self):
        # The benchmark's repeat check compares reports with ==.
        a = 1.0 + 0j
        for pts in (self._radial_points(a), [0.5 + 0j] * 12):
            first = approach_angle(pts, a, Arc(0.0, math.pi / 2))
            assert first == approach_angle(pts, a, Arc(0.0, math.pi / 2))
        assert first.inconclusive

    def test_measures_recorded(self):
        pts = self._radial_points(1.0 + 0j, kmax=10)
        report = approach_angle(pts, 1.0 + 0j, Arc(0.0, math.pi))
        assert len(report.measures) == len(pts)
        assert all(0.0 <= m <= 1.0 for m in report.measures)


class TestAitkenLimit:
    @staticmethod
    def _windows():
        """Windows of 1 to 20 values: convergent, arithmetic (zero second
        differences), constant, huge, and seeded draws that mix in NaN,
        +-inf and signed zeros."""
        rng = random.Random(RNG_SEED)
        specials = (math.nan, math.inf, -math.inf, 0.0, -0.0, 1e308, -1e308, 5e-324)
        for n in range(1, 21):
            yield [0.25 + 0.5 ** k for k in range(n)]
            yield [0.5 + 0.125 * k for k in range(n)]
            yield [0.375] * n
            yield [1e300 * (-1) ** k for k in range(n)]
            for _ in range(40):
                window = [rng.random() for _ in range(n)]
                for _ in range(rng.randrange(3)):
                    window[rng.randrange(n)] = rng.choice(specials)
                if n >= 3 and rng.random() < 0.3:
                    # The last three values in arithmetic progression.
                    window[-1] = 2.0 * window[-2] - window[-3]
                yield window

    def test_matches_the_every_triple_loop(self):
        # Only the last triple's step was ever returned, so computing that
        # one alone gives the same bits, NaN and infinities included.
        bits = struct.Struct("<d").pack
        kinds = set()
        for window in self._windows():
            want = reference_aitken_limit(window)
            assert bits(_aitken_limit(window)) == bits(want), window
            assert bits(_aitken_limit(tuple(window))) == bits(want), window
            kinds.add("nan" if math.isnan(want) else "inf" if math.isinf(want) else "finite")
            if len(window) >= 3:
                x0, x1, x2 = window[-3:]
                if x2 - 2.0 * x1 + x0 == 0.0:
                    kinds.add("zero second difference")
        assert kinds == {"nan", "inf", "finite", "zero second difference"}
