"""Tests for the stable hyperbolic geometry core."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    CanonicalDomain,
    Geodesic,
    compose,
    domain_distance,
    geodesic_point,
    geodesic_through,
    project_by_search,
    project_to_geodesic,
    strip_to_uhp,
    uhp_to_strip,
)
from petallab.hypcore import (
    CAYLEY_DISK_TO_UHP,
    BoundaryPoint,
    DomainError,
    INFINITY,
    Mobius,
    UhpLogPoint,
    axis_distance,
    disk_distance,
    strip_distance,
    uhp_distance,
    uhp_log_distance,
)

DISK = CanonicalDomain.DISK
UHP = CanonicalDomain.UPPER_HALF_PLANE
STRIP = CanonicalDomain.STRIP_PI

# Frozen oracles, 40-digit arithmetic (mpmath):
#   atanh(1/2)                = 0.5493061443340548457...
#   log(2)/2                  = 0.3465735902799726547...
#   log(1+sqrt(2))            = 0.8813735870195430252...
#   log(tan(pi/4 + 1/2)) / 2  = 0.6130955854417585354...
ATANH_HALF = 0.5493061443340548
HALF_LOG2 = 0.34657359027997265
LOG_1_PLUS_SQRT2 = 0.8813735870195430
STRIP_VERTICAL_UNIT = 0.6130955854417585


def _rng():
    return np.random.default_rng(20260817)


def _random_point(domain, rng):
    if domain is DISK:
        r = math.sqrt(rng.uniform(0.0, 0.9604))
        t = rng.uniform(0.0, 2.0 * math.pi)
        return complex(r * math.cos(t), r * math.sin(t))
    if domain is UHP:
        return complex(rng.uniform(-3.0, 3.0), math.exp(rng.uniform(-3.0, 2.0)))
    return complex(rng.uniform(-4.0, 4.0), rng.uniform(-1.5, 1.5))


class TestDiskDistance:
    def test_matches_high_precision_arctanh(self):
        assert disk_distance(0.0, 0.5) == pytest.approx(ATANH_HALF, rel=1e-14)

    @pytest.mark.parametrize("z", [0j, 0.5 + 0.25j, -0.7j, 0.99 + 0.0j])
    def test_identity_is_exactly_zero(self, z):
        assert disk_distance(z, z) == 0.0

    def test_mobius_invariance_under_disk_automorphisms(self):
        rng = _rng()
        for _ in range(50):
            z, w = _random_point(DISK, rng), _random_point(DISK, rng)
            a = _random_point(DISK, rng)
            phase = cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
            aut = lambda v: phase * (v - a) / (1.0 - a.conjugate() * v)
            d0 = disk_distance(z, w)
            d1 = disk_distance(aut(z), aut(w))
            assert d1 == pytest.approx(d0, abs=1e-12), f"automorphism moved d: {d0} vs {d1}"

    @pytest.mark.parametrize("z", [1.0 + 0j, 1.5 + 0j, 0.8 + 0.7j])
    def test_rejects_non_interior(self, z):
        with pytest.raises(DomainError):
            disk_distance(0j, z)

    def test_extreme_gap_finite_and_increasing(self):
        # 1 - |w|^2 supplied exactly: the log form must stay finite and
        # strictly monotone long after the float w rounds onto the circle.
        previous = -math.inf
        for k in range(1, 251):
            tail = 10.0 ** (-k)
            w = 1.0 - tail
            gap = tail * (2.0 - tail)
            d = disk_distance(0.0, w, gap_w=gap)
            assert math.isfinite(d)
            assert d > previous, f"not increasing at k={k}"
            previous = d
        # closed form at k = 250: arctanh(1 - 1e-250) = (250 log 10 + log 2)/2
        assert previous == pytest.approx(0.5 * (250 * math.log(10.0) + math.log(2.0)), rel=1e-9)


class TestUhpDistance:
    def test_vertical_pair_is_half_log_ratio(self):
        # density |dz|/(2 Im z): vertical segments cost half the log of the
        # height ratio, matching arctanh applied to the cross ratio
        assert uhp_distance(1j, 2j) == pytest.approx(HALF_LOG2, rel=1e-14)

    def test_right_half_plane_pair_rotated(self):
        # right half-plane pair (1, 1+2i) carried by w -> iw;
        # arctanh(2/sqrt(8)) = log(1+sqrt(2))
        assert uhp_distance(1j, -2 + 1j) == pytest.approx(LOG_1_PLUS_SQRT2, rel=1e-14)

    @pytest.mark.parametrize("x", [1j, 5 + 0.001j, -3 + 40j])
    def test_identity_is_exactly_zero(self, x):
        assert uhp_distance(x, x) == 0.0

    @pytest.mark.parametrize("bad", [1.0 + 0j, 2.0 - 1j, 0j])
    def test_rejects_non_interior(self, bad):
        with pytest.raises(DomainError):
            uhp_distance(1j, bad)

    def test_large_height_ratio_stable(self):
        # d(i, i e^s) = s/2 exactly in the log form
        assert uhp_distance(1j, 1j * math.exp(600.0)) == pytest.approx(300.0, rel=1e-13)


class TestStripDistance:
    def test_long_horizontal_run(self):
        # arctanh((e^10 - 1)/(e^10 + 1)) = arctanh(tanh 5) = 5
        assert strip_distance(0.0, 10.0) == pytest.approx(5.0, rel=1e-14)

    def test_horizontal_asymptote_half_rate(self):
        for run in (50.0, 500.0, 5000.0):
            assert strip_distance(0.0, run) == pytest.approx(run / 2.0, rel=1e-12)

    def test_vertical_segment_matches_density_quadrature(self):
        from scipy.integrate import quad
        oracle, err = quad(lambda s: 1.0 / (2.0 * math.cos(s)), 0.0, 1.0)
        assert err < 1e-12
        d = strip_distance(0.0, 1j)
        assert d == pytest.approx(oracle, abs=1e-11)
        assert d == pytest.approx(STRIP_VERTICAL_UNIT, rel=1e-13)

    @pytest.mark.parametrize("z", [0j, 3.0 + 1.5j, -200.0 - 1.2j])
    def test_identity_is_exactly_zero(self, z):
        assert strip_distance(z, z) == 0.0

    def test_rejects_non_interior(self):
        with pytest.raises(DomainError):
            strip_distance(0j, 1.0 + 1.6j)


@pytest.mark.parametrize("domain", [DISK, UHP, STRIP])
class TestMetricAxioms:
    def test_symmetry_exact(self, domain):
        rng = _rng()
        for _ in range(100):
            z, w = _random_point(domain, rng), _random_point(domain, rng)
            assert domain_distance(domain, z, w) == domain_distance(domain, w, z)

    def test_triangle_inequality(self, domain):
        rng = _rng()
        for _ in range(100):
            x, y, z = (_random_point(domain, rng) for _ in range(3))
            dxz = domain_distance(domain, x, z)
            dxy = domain_distance(domain, x, y)
            dyz = domain_distance(domain, y, z)
            assert dxz <= dxy + dyz + 1e-12, f"triangle violated at {x}, {y}, {z}"

    def test_nonnegative_and_definite(self, domain):
        rng = _rng()
        for _ in range(100):
            z, w = _random_point(domain, rng), _random_point(domain, rng)
            d = domain_distance(domain, z, w)
            assert d >= 0.0
            if z != w:
                assert d > 0.0


class TestCrossDomainConsistency:
    def test_disk_vs_uhp_through_cayley(self):
        rng = _rng()
        for _ in range(100):
            z, w = _random_point(DISK, rng), _random_point(DISK, rng)
            u, v = CAYLEY_DISK_TO_UHP.apply(z), CAYLEY_DISK_TO_UHP.apply(w)
            assert uhp_distance(u, v) == pytest.approx(disk_distance(z, w), abs=1e-10)

    def test_strip_vs_uhp_through_exp(self):
        rng = _rng()
        for _ in range(100):
            z, w = _random_point(STRIP, rng), _random_point(STRIP, rng)
            u, v = strip_to_uhp(z), strip_to_uhp(w)
            assert uhp_distance(u, v) == pytest.approx(strip_distance(z, w), abs=1e-9)

    def test_strip_transport_round_trip(self):
        rng = _rng()
        for _ in range(50):
            z = _random_point(STRIP, rng)
            back = uhp_to_strip(strip_to_uhp(z))
            assert abs(back - z) < 1e-13


class TestMobius:
    def test_singular_rejected(self):
        with pytest.raises(ValueError):
            Mobius(1.0, 2.0, 2.0, 4.0)

    def test_inverse_round_trip(self):
        m = Mobius(2.0 + 1j, -0.5, 1j, 3.0)
        for z in (0.3 + 0.1j, -2j, 5.0 + 0j):
            assert abs(m.inverse().apply(m.apply(z)) - z) < 1e-12

    def test_compose_order(self):
        shift = Mobius(1.0, 1.0, 0.0, 1.0)
        double = Mobius(2.0, 0.0, 0.0, 1.0)
        # compose applies the right factor first
        assert compose(double, shift).apply(1.0) == 4.0
        assert compose(shift, double).apply(1.0) == 3.0

    def test_pole_and_infinity_transport(self):
        m = Mobius(1.0, 0.0, 1.0, -2.0)
        assert m.apply(2.0) is None
        assert m.apply_boundary(BoundaryPoint(2.0 + 0j)).is_infinity
        assert m.apply_boundary(INFINITY).value == pytest.approx(1.0)


class TestGeodesics:
    def test_vertical_line_through_infinity(self):
        g = geodesic_through(UHP, 1 + 1j, INFINITY)
        assert g.endpoints[0].is_infinity
        assert g.endpoints[1].value == pytest.approx(1.0)
        # the normalizer is the translation by -1
        assert g.normalizer.apply(1 + 1j) == pytest.approx(1j)
        assert g.normalizer.apply_boundary(INFINITY).is_infinity

    def test_imaginary_axis_through_zero(self):
        # endpoint 0 under an interior point on the axis: the geodesic is the
        # vertical line with second endpoint infinity (no circle through 0
        # centered on the real axis passes through i)
        g = geodesic_through(UHP, 1j, BoundaryPoint(0j))
        assert g.endpoints[0].value == 0.0
        assert g.endpoints[1].is_infinity
        assert g.normalizer.apply(2j) == pytest.approx(2j)

    def test_half_circle_endpoints(self):
        g = geodesic_through(UHP, 1j, BoundaryPoint(1.0 + 0j))
        # circle through 1 and i orthogonal to the real axis: center 0, so
        # the far endpoint is -1
        assert g.endpoints[0].value == pytest.approx(1.0)
        assert g.endpoints[1].value == pytest.approx(-1.0)

    def test_disk_diameter(self):
        g = geodesic_through(DISK, 0j, BoundaryPoint(1.0 + 0j))
        vals = sorted((g.endpoints[0].value.real, g.endpoints[1].value.real))
        assert vals == pytest.approx([-1.0, 1.0])

    @pytest.mark.parametrize("domain", [DISK, UHP, STRIP])
    def test_normalizer_sends_endpoints_to_axis_ends(self, domain):
        rng = _rng()
        for _ in range(40):
            z = _random_point(domain, rng)
            if domain is DISK:
                end = BoundaryPoint(cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi)))
                targets = {-1.0 + 0j, 1.0 + 0j}
            elif domain is UHP:
                end = BoundaryPoint(complex(rng.uniform(-3.0, 3.0), 0.0)) \
                    if rng.uniform() < 0.7 else INFINITY
                targets = {0j}
            else:
                choice = rng.uniform()
                if choice < 0.4:
                    end = BoundaryPoint(complex(rng.uniform(-2.0, 2.0),
                                                math.copysign(math.pi / 2, rng.uniform(-1, 1))))
                else:
                    end = INFINITY
                targets = {0j}
            g = geodesic_through(domain, z, end)
            for b in g.endpoints:
                image = g.normalizer.apply_boundary(b)
                if image.is_infinity:
                    assert domain is not DISK
                    continue
                assert min(abs(image.value - t) for t in targets) < 1e-10, \
                    f"endpoint {b} lands at {image}"

    def test_rejects_bad_endpoint(self):
        with pytest.raises(DomainError):
            geodesic_through(UHP, 1j, BoundaryPoint(1 + 1j))
        with pytest.raises(DomainError):
            geodesic_through(DISK, 0j, BoundaryPoint(0.5 + 0j))
        with pytest.raises(DomainError):
            geodesic_through(DISK, 0j, INFINITY)

    def test_distinct_endpoints_enforced(self):
        with pytest.raises(DomainError):
            Geodesic(UHP, (INFINITY, INFINITY), Mobius(1.0, 0.0, 0.0, 1.0))


class TestProjection:
    def test_closed_form_example(self):
        # 1+i onto the imaginary axis: foot i sqrt(2), distance
        # |log tan(pi/8)| / 2 = log(1+sqrt(2)) / 2
        g = geodesic_through(UHP, 1j, BoundaryPoint(0j))
        foot, dist = project_to_geodesic(1 + 1j, g)
        assert foot == pytest.approx(1j * math.sqrt(2.0), abs=1e-13)
        assert dist == pytest.approx(0.5 * LOG_1_PLUS_SQRT2, rel=1e-13)

    def test_matches_search_oracle(self):
        g = geodesic_through(UHP, 1j, BoundaryPoint(0j))
        foot, dist = project_to_geodesic(1 + 1j, g)
        foot_s, dist_s = project_by_search(1 + 1j, g)
        assert dist == pytest.approx(dist_s, abs=1e-9)
        assert abs(foot - foot_s) < 1e-6

    def test_point_on_geodesic_projects_to_itself(self):
        g = geodesic_through(UHP, 2 + 1j, INFINITY)
        foot, dist = project_to_geodesic(2 + 5j, g)
        assert dist < 1e-14
        assert abs(foot - (2 + 5j)) < 1e-12

    def test_disk_diameter_symmetry(self):
        g = geodesic_through(DISK, 0j, BoundaryPoint(1.0 + 0j))
        foot, dist = project_to_geodesic(0.4j, g)
        assert abs(foot) < 1e-12
        assert dist == pytest.approx(disk_distance(0.4j, 0j), abs=1e-12)

    @pytest.mark.parametrize("domain", [DISK, UHP, STRIP])
    def test_projection_optimality(self, domain):
        rng = _rng()
        for _ in range(34):
            z = _random_point(domain, rng)
            if domain is DISK:
                end = BoundaryPoint(cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi)))
            elif domain is UHP:
                end = BoundaryPoint(complex(rng.uniform(-3.0, 3.0), 0.0))
            else:
                end = INFINITY
            g = geodesic_through(domain, z, end)
            w = _random_point(domain, rng)
            try:
                foot, dist = project_to_geodesic(w, g)
            except DomainError:
                continue
            samples = [geodesic_point(g, s) for s in np.linspace(-6.0, 6.0, 50)]
            sampled = [domain_distance(domain, w, p) for p in samples]
            assert dist <= min(sampled) + 1e-9
            # any sample essentially achieving the minimum sits near the foot
            for p, d in zip(samples, sampled):
                if d <= dist + 1e-9:
                    assert domain_distance(domain, p, foot) < 1e-3


class TestUhpLogPoints:
    def test_value_round_trip(self):
        p = UhpLogPoint(-1.0, complex(-2.0, 0.7))
        expected = -1.0 + cmath.exp(complex(-2.0, 0.7))
        assert abs(p.value() - expected) < 1e-15
        assert p.log_im() == pytest.approx(math.log(expected.imag), rel=1e-13)

    def test_value_unrepresentable_cases(self):
        assert UhpLogPoint(0.0, complex(701.0, 1.0)).value() is None
        assert UhpLogPoint(-1.0, complex(-800.0, 1.0)).value() is None

    def test_invalid_argument_rejected(self):
        with pytest.raises(DomainError):
            UhpLogPoint(0.0, complex(0.0, -0.5))
        with pytest.raises(DomainError):
            UhpLogPoint(0.0, complex(0.0, 4.0))
        for bad_re in (math.inf, -math.inf, math.nan):
            with pytest.raises(DomainError, match="finite real part"):
                UhpLogPoint(0.0, complex(bad_re, 1.0))
        for bad_anchor in (math.inf, -math.inf, math.nan):
            with pytest.raises(DomainError, match="anchor must be finite"):
                UhpLogPoint(bad_anchor, complex(0.0, 1.0))

    def test_distance_matches_plain_form_same_anchor(self):
        rng = _rng()
        for _ in range(60):
            anchor = rng.uniform(-2.0, 2.0)
            L1 = complex(rng.uniform(-3.0, 2.0), rng.uniform(0.1, 3.0))
            L2 = complex(rng.uniform(-3.0, 2.0), rng.uniform(0.1, 3.0))
            p, q = UhpLogPoint(anchor, L1), UhpLogPoint(anchor, L2)
            direct = uhp_distance(p.value(), q.value())
            assert uhp_log_distance(p, q) == pytest.approx(direct, abs=1e-11)

    def test_distance_matches_plain_form_mixed_anchors(self):
        rng = _rng()
        for _ in range(60):
            p = UhpLogPoint(rng.uniform(-2.0, 2.0),
                            complex(rng.uniform(-3.0, 2.0), rng.uniform(0.1, 3.0)))
            q = UhpLogPoint(None,
                            complex(rng.uniform(-3.0, 2.0), rng.uniform(0.05, 3.09)))
            direct = uhp_distance(p.value(), q.value())
            assert uhp_log_distance(p, q) == pytest.approx(direct, abs=1e-11)

    def test_identical_points_give_exact_zero(self):
        p = UhpLogPoint(-1.0, complex(-5000.0, 2.2))
        assert uhp_log_distance(p, p) == 0.0
        q = UhpLogPoint(None, complex(9000.0, 0.3))
        assert uhp_log_distance(q, q) == 0.0

    def test_extreme_offsets(self):
        # points hanging at radii e^-2000 and e^-4000 over the same anchor:
        # the separation is 1000 - log sin 1 to leading order
        p = UhpLogPoint(-1.0, complex(-2000.0, 1.0))
        q = UhpLogPoint(-1.0, complex(-4000.0, 1.0))
        assert uhp_log_distance(p, q) == pytest.approx(1000.0 - math.log(math.sin(1.0)),
                                                       abs=1e-9)

    def test_symmetry_exact(self):
        p = UhpLogPoint(-1.0, complex(-20.0, 1.0))
        q = UhpLogPoint(1.0, complex(-35.0, 2.0))
        assert uhp_log_distance(p, q) == uhp_log_distance(q, p)


class TestAxisDistance:
    def test_on_axis_is_zero(self):
        assert axis_distance(math.pi / 2) == pytest.approx(0.0, abs=1e-15)

    def test_quarter_turn(self):
        assert axis_distance(math.pi / 4) == pytest.approx(0.5 * LOG_1_PLUS_SQRT2, rel=1e-13)

    def test_reflection_symmetry(self):
        for theta in (0.3, 1.0, 1.4):
            assert axis_distance(theta) == pytest.approx(axis_distance(math.pi - theta),
                                                         abs=1e-12)

    @pytest.mark.parametrize("theta", [0.0, math.pi, -0.3, 4.0])
    def test_rejects_out_of_range(self, theta):
        with pytest.raises(DomainError):
            axis_distance(theta)


@given(st.floats(min_value=-0.97, max_value=0.97),
       st.floats(min_value=-0.97, max_value=0.97),
       st.floats(min_value=-0.97, max_value=0.97),
       st.floats(min_value=-0.97, max_value=0.97))
@settings(max_examples=200, deadline=None)
def test_disk_metric_properties(ar, ai, br, bi):
    """Symmetry, nonnegativity, and identity of indiscernibles on the disk."""
    z, w = complex(ar, ai), complex(br, bi)
    if abs(z) >= 0.999 or abs(w) >= 0.999:
        return
    d = disk_distance(z, w)
    assert d >= 0.0
    assert d == disk_distance(w, z)
    assert disk_distance(z, z) == 0.0
    if abs(z - w) > 1e-9:
        assert d > 0.0


@given(st.floats(min_value=-50.0, max_value=50.0),
       st.floats(min_value=0.05, max_value=3.09),
       st.floats(min_value=-50.0, max_value=50.0),
       st.floats(min_value=0.05, max_value=3.09))
@settings(max_examples=200, deadline=None)
def test_uhp_log_distance_nonnegative_symmetric(re1, im1, re2, im2):
    """Half-plane log-form distance is a symmetric nonnegative function."""
    p = UhpLogPoint(0.5, complex(re1, im1))
    q = UhpLogPoint(0.5, complex(re2, im2))
    d = uhp_log_distance(p, q)
    assert d >= 0.0
    assert d == uhp_log_distance(q, p)
