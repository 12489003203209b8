"""Tests for harmonic measure and the approach-angle probe."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import arc_complement

from petallab.hmeasure import (
    ROUNDING_FLOOR,
    Arc,
    ApproachReport,
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
        assert math.isclose(arc.length, math.pi)
        assert abs(arc.start - (-1j)) < 1e-15
        assert abs(arc.end - 1j) < 1e-15

    def test_wraparound_start(self):
        arc = Arc(7.0, 8.0)
        assert 0.0 <= arc.alpha < TWO_PI
        assert math.isclose(arc.length, 1.0)

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
        assert math.isclose(arc.length + comp.length, TWO_PI)
        assert abs(comp.start - arc.end) < 1e-15
        assert abs(comp.end - arc.start) < 1e-12

    def test_has_endpoint(self):
        arc = Arc(0.0, math.pi / 2)
        assert arc.has_endpoint(1.0 + 0j)
        assert arc.has_endpoint(1j)
        assert not arc.has_endpoint(-1.0 + 0j)


class TestHarmonicMeasure:
    def test_center_sees_normalized_length(self):
        arc = Arc(0.3, 1.7)
        assert harmonic_measure(0j, arc) == pytest.approx(1.4 / TWO_PI, abs=1e-15)

    def test_center_half_circle(self):
        arc = Arc(0.0, math.pi)
        assert harmonic_measure(0j, arc) == pytest.approx(0.5, abs=1e-15)

    def test_total_measure_is_one(self):
        rng = np.random.default_rng(RNG_SEED)
        for _ in range(50):
            z = complex(*(0.95 * rng.uniform(-0.7, 0.7, 2)))
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
        rng = np.random.default_rng(RNG_SEED)
        for _ in range(100):
            z = complex(*(0.9 * rng.uniform(-0.7, 0.7, 2)))
            alpha = rng.uniform(0.0, TWO_PI)
            span = rng.uniform(0.1, TWO_PI - 0.1)
            arc = Arc(alpha, alpha + span)
            c = complex(*(0.85 * rng.uniform(-0.7, 0.7, 2)))
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
        assert report.reason

    def test_wandering_sequence_inconclusive(self):
        # Converges to the endpoint but the measures oscillate too much:
        # alternating sides of the radius with slowly shrinking amplitude.
        a = 1.0 + 0j
        pts = []
        for k in range(1, 20):
            r = 1.0 - 2.0 ** (-k)
            side = 1.0 if k % 2 == 0 else -1.0
            pts.append(r * cmath.exp(1j * side * 0.4 * 2.0 ** (-k / 8.0)))
        arc = Arc(0.0, math.pi / 2)
        report = approach_angle(pts, a, arc)
        assert report.inconclusive

    def test_short_sequence_inconclusive(self):
        pts = [(1.0 - 2.0 ** (-k)) * 1j for k in range(1, 4)]
        report = approach_angle(pts, 1j, Arc(math.pi / 2, math.pi))
        assert report.inconclusive

    def test_receding_sequence_inconclusive(self):
        pts = [(1.0 - 0.01 * k) * 1j for k in range(1, 12)]
        report = approach_angle(pts, 1j, Arc(math.pi / 2, math.pi))
        assert report.inconclusive

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
