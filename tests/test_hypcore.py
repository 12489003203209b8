"""Tests for the stable hyperbolic geometry core."""

import ast
import cmath
import math
import random
from pathlib import Path

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import petallab
from oracles import (
    BoundaryPoint,
    CAYLEY_DISK_TO_UHP,
    CAYLEY_UHP_TO_DISK,
    CanonicalDomain,
    Geodesic,
    INFINITY,
    Mobius,
    axis_distance,
    compose,
    disk_distance_from_gaps,
    domain_distance,
    geodesic_point,
    geodesic_through,
    project_by_search,
    project_to_geodesic,
    strip_distance,
    strip_to_uhp,
    uhp_to_strip,
)
from petallab.hypcore import (
    CAYLEY,
    CAYLEY_INVERSE,
    DomainError,
    UhpLogBase,
    UhpLogPoint,
    disk_distance,
    disk_of_uhp,
    disk_of_uhp_boundary,
    uhp_distance,
    uhp_log_disk_gap,
    uhp_log_distance,
    uhp_log_framed,
    uhp_log_inverted,
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
    return random.Random(20260817)


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

    @pytest.mark.parametrize("z,message", [
        (complex(math.nan, 0.0), r"^non-finite point \(nan\+0j\)$"),
        (2.0, r"^\(2\+0j\) is not interior to the unit disk$"),
    ], ids=["nan", "outside"])
    def test_rejects_first_point_off_the_open_disk(self, z, message):
        with pytest.raises(DomainError, match=message):
            disk_distance(z, 0j)

    def test_extreme_gap_finite_and_increasing(self):
        # The oracle's gap form, with 1 - |w|^2 supplied exactly, must stay
        # finite and strictly monotone long after the float w rounds onto
        # the circle.  While w is interior it agrees with disk_distance, up
        # to the k digits that disk_distance's own gap 1 - w^2 loses.
        previous = -math.inf
        for k in range(1, 251):
            tail = 10.0 ** (-k)
            w = 1.0 - tail
            gap = tail * (2.0 - tail)
            d = disk_distance_from_gaps(0.0, w, 1.0, gap)
            if w < 1.0:
                assert d == pytest.approx(disk_distance(0.0, w), rel=1e-15 * 10.0 ** k)
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
    """The oracle's strip distance, which ``domain_distance`` and the
    cross-domain checks read; no petal of the package measures in the strip
    itself."""

    def test_long_horizontal_run(self):
        # arctanh((e^10 - 1)/(e^10 + 1)) = arctanh(tanh 5) = 5
        assert strip_distance(0.0, 10.0) == pytest.approx(5.0, rel=1e-14)

    def test_horizontal_asymptote_half_rate(self):
        for run in (50.0, 500.0, 5000.0):
            assert strip_distance(0.0, run) == pytest.approx(run / 2.0, rel=1e-12)

    def test_vertical_segment_matches_density_quadrature(self):
        oracle, err = mpmath.quad(lambda s: 1 / (2 * mpmath.cos(s)), [0, 1], error=True)
        assert err < 1e-12
        oracle = float(oracle)
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


class TestCayleyPair:
    """hypcore's Cayley coefficients and ``disk_of_uhp`` against the oracle
    Mobius maps, by repr, so that signed zeros must agree too."""

    def test_coefficients(self):
        for got, m in ((CAYLEY, CAYLEY_DISK_TO_UHP), (CAYLEY_INVERSE, CAYLEY_UHP_TO_DISK)):
            assert repr(got) == repr((m.a, m.b, m.c, m.d, m.det))

    def test_seeded_points(self):
        rng = _rng()
        points = [complex(rng.gauss(0.0, 3.0), rng.lognormvariate(0.0, 4.0)) for _ in range(300)]
        # The real axis and the imaginary axis, each with both signed zeros.
        for _ in range(50):
            x = rng.gauss(0.0, 3.0)
            points += [complex(x, 0.0), complex(x, -0.0)]
        for _ in range(50):
            y = rng.lognormvariate(0.0, 2.0)
            points += [complex(0.0, y), complex(-0.0, y)]
        points += [complex(0.0, 0.0), complex(-0.0, 0.0), complex(0.0, -0.0),
                   complex(-0.0, -0.0), complex(1.0, 0.0), complex(-1.0, -0.0)]
        for q in points:
            assert repr(disk_of_uhp(q)) == repr(CAYLEY_UHP_TO_DISK.apply(q)), q
        # The boundary form takes a real sigma, or None for infinity.
        for q in points[300:]:
            if q.imag == 0.0:
                want = CAYLEY_UHP_TO_DISK.apply_boundary(BoundaryPoint(complex(q.real)))
                assert repr(disk_of_uhp_boundary(q.real)) == repr(want.value)
        assert repr(disk_of_uhp_boundary(None)) == repr(
            CAYLEY_UHP_TO_DISK.apply_boundary(INFINITY).value)

    def test_pole(self):
        assert CAYLEY_UHP_TO_DISK.apply(-1j) is None
        with pytest.raises(DomainError, match="point maps to the Cayley pole"):
            disk_of_uhp(-1j)


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
                    if rng.random() < 0.7 else INFINITY
                targets = {0j}
            else:
                choice = rng.random()
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
            samples = [geodesic_point(g, -6.0 + 12.0 * i / 49) for i in range(50)]
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

    def test_stored_log_im_reads_the_same_bits(self):
        # A base point stores its log Im q once; every distance from it is
        # the plain point's, bit for bit, with the base as either argument.
        rng = _rng()
        for _ in range(200):
            neg = rng.random() < 0.5
            im = rng.uniform(0.01, 3.1)
            p = UhpLogPoint(rng.choice((None, -1.0, 0.5)),
                            complex(rng.uniform(-800.0, 800.0), -im if neg else im), neg)
            q = UhpLogPoint(rng.choice((None, -1.0)),
                            complex(rng.uniform(-1e6, 1e6), rng.uniform(0.01, 3.1)))
            base = UhpLogBase(p)
            assert (base.anchor, base.L, base.neg) == (p.anchor, p.L, p.neg)
            assert base.stored_log_im == p.log_im() and p.stored_log_im is None
            assert uhp_log_distance(base, q).hex() == uhp_log_distance(p, q).hex()
            assert uhp_log_distance(q, base).hex() == uhp_log_distance(q, p).hex()


# Log points of the ranges an orbit's log form takes: radii from e^-700
# to e^(1e300), on no anchor or on the anchors +-1, with arguments near 0,
# pi and in between.
_LOG_POINTS = [
    (anchor, complex(re, im))
    for re in (-700.0, 0.0, 36.0, 700.0, 1e300)
    for im in (1e-3, 0.7, 2.9, math.pi - 1e-3)
    for anchor in (None, 1.0, -1.0)
]
_EPS = 2.0 ** -52


def _mp_offset(anchor, L, c):
    """(anchor - c) + e^L at 50 digits, the anchor difference formed first
    so that it cannot absorb a tiny e^L."""
    with mpmath.workdps(50):
        a = (0 if anchor is None else mpmath.mpf(anchor)) - mpmath.mpc(complex(c))
        return a, mpmath.exp(mpmath.mpc(L.real, L.imag))


def _off_mod_pi(got: float, want: float) -> float:
    """How far the angle ``got`` lies from ``want`` modulo pi."""
    gap = (got - want) % math.pi
    return min(gap, math.pi - gap)


class TestUhpLogShifted:
    """The one-foot frame of ``uhp_log_framed``: the shifted log log(q - c),
    read modulo i pi, its Im in [-pi/2, pi/2] unless q sits on c."""

    @pytest.mark.parametrize("anchor,L", _LOG_POINTS)
    def test_against_mpmath(self, anchor, L):
        for c in (0.0, 1.0, -1.0, 0.5, -1j):
            a, e = _mp_offset(anchor, L, c)
            with mpmath.workdps(50):
                exact = mpmath.log(a + e)
                # Condition number of the sum a + e^L, which cancels near q = c.
                cond = float((abs(a) + abs(e)) / abs(a + e))
            re, im = float(exact.real), float(exact.imag)
            got = uhp_log_framed(UhpLogPoint(anchor, L), c)
            assert abs(got.real - re) <= 4 * _EPS * (cond + abs(re)), c
            assert _off_mod_pi(got.imag, im) <= 4 * _EPS * (cond + math.pi), c
            assert abs(got.imag) <= 0.5 * math.pi or (anchor or 0.0) == c, c


# Boundary points sigma of the inverted chart: the anchors of _LOG_POINTS,
# where a point anchored at sigma reads its own L, and two off them.
_SIGMAS = (1.0, -1.0, 0.5, -2.0)


def _mp_inverted(anchor, L, sigma):
    """-1/(q - sigma) at 50 digits, and the condition number of q - sigma,
    which cancels next to sigma."""
    a, e = _mp_offset(anchor, L, sigma)
    with mpmath.workdps(50):
        return -1 / (a + e), float((abs(a) + abs(e)) / abs(a + e))


class TestUhpLogInverted:
    """``uhp_log_inverted``: the point -1/(q - sigma) in log form, which
    sends sigma to infinity."""

    @pytest.mark.parametrize("anchor,L", _LOG_POINTS)
    def test_against_mpmath(self, anchor, L):
        for sigma in _SIGMAS:
            n, cond = _mp_inverted(anchor, L, sigma)
            got = uhp_log_inverted(UhpLogPoint(anchor, L), sigma)
            with mpmath.workdps(50):
                re, im = float(mpmath.log(abs(n))), float(mpmath.arg(n))
            # -e^L' when neg: its argument is Im L' + pi.
            arg = got.L.imag + (math.pi if got.neg else 0.0)
            assert got.anchor is None, sigma
            assert abs(got.L.real - re) <= 4 * _EPS * (cond + abs(re)), sigma
            assert _off_mod_pi(arg, im) <= 4 * _EPS * (cond + math.pi), sigma

    def test_point_anchored_at_sigma_reads_its_own_log(self):
        # q - sigma = +-e^L exactly, so -1/(q - sigma) = -+e^(-L), bit for bit.
        for anchor, L in _LOG_POINTS:
            if anchor is None:
                continue
            for p in (UhpLogPoint(anchor, L), UhpLogPoint(anchor, L.conjugate(), True)):
                got = uhp_log_inverted(p, anchor)
                assert (got.anchor, repr(got.L), got.neg) == (None, repr(-p.L), not p.neg)


class TestUhpLogFramed:
    """The two-foot frame as ``speeds`` reads it: the inverted point framed
    at x0, log N(q) for N(q) = -1/(q - sigma) - x0, which carries the
    geodesic from sigma to sigma - 1/x0 onto the imaginary axis, read
    modulo i pi."""

    @pytest.mark.parametrize("anchor,L", _LOG_POINTS)
    def test_two_feet_against_mpmath(self, anchor, L):
        for sigma, x0 in ((1.0, -0.5), (-1.0, 0.5), (0.5, 0.4), (-2.0, -1.0 / 2.25)):
            n, cond = _mp_inverted(anchor, L, sigma)
            with mpmath.workdps(50):
                exact = mpmath.log(n - x0)
                # The inverted point's relative error, carried through the
                # shift, and the shift's own cancellation next to x0.
                cond = float((cond * abs(n) + abs(x0) + abs(n)) / abs(n - x0))
            re, im = float(exact.real), float(exact.imag)
            got = uhp_log_framed(uhp_log_inverted(UhpLogPoint(anchor, L), sigma), x0)
            assert abs(got.real - re) <= 4 * _EPS * (cond + abs(re)), (sigma, x0)
            assert _off_mod_pi(got.imag, im) <= 4 * _EPS * (cond + math.pi), (sigma, x0)


class TestUhpLogDiskGap:
    @pytest.mark.parametrize("anchor,L", _LOG_POINTS)
    def test_against_mpmath(self, anchor, L):
        a, e = _mp_offset(anchor, L, -1j)
        with mpmath.workdps(50):
            exact = 4 * e.imag / abs(a + e) ** 2
            log_exact = float(mpmath.log(exact))
        got = uhp_log_disk_gap(UhpLogPoint(anchor, L))
        if float(exact) == 0.0:
            assert got == 0.0
        else:
            # The gap is the exponential of a sum of logarithms: its relative
            # error grows with the size of its log.
            assert got == pytest.approx(float(exact), rel=4 * _EPS * (1 + abs(log_exact)))


class TestSignedLogPoints:
    """q = anchor - e^L with Im L in (-pi, 0): every read negates e^L."""

    # The mirror images (anchor, conj L) of _LOG_POINTS, whose q lie in the
    # half-plane only when signed.
    POINTS = [(anchor, L.conjugate()) for anchor, L in _LOG_POINTS]

    def test_value_and_log_im(self):
        p = UhpLogPoint(-1.0, complex(-2.0, -0.7), True)
        expected = -1.0 - cmath.exp(complex(-2.0, -0.7))
        assert p.value() == expected
        assert p.log_im() == pytest.approx(math.log(expected.imag), rel=1e-13)
        assert UhpLogPoint(None, complex(701.0, -1.0), True).value() is None

    def test_invalid_argument_rejected(self):
        for im in (0.0, 0.5, -math.pi, -4.0):
            with pytest.raises(DomainError, match="signed log offset"):
                UhpLogPoint(0.0, complex(0.0, im), True)

    def test_distance_matches_plain_form(self):
        rng = _rng()
        for _ in range(60):
            p = UhpLogPoint(rng.uniform(-2.0, 2.0),
                            complex(rng.uniform(-3.0, 2.0), -rng.uniform(0.1, 3.0)), True)
            for q in (UhpLogPoint(p.anchor, complex(rng.uniform(-3.0, 2.0), -rng.uniform(0.1, 3.0)),
                                  True),
                      UhpLogPoint(None, complex(rng.uniform(-3.0, 2.0), rng.uniform(0.05, 3.09)))):
                direct = uhp_distance(p.value(), q.value())
                assert uhp_log_distance(p, q) == pytest.approx(direct, abs=1e-11)
                assert uhp_log_distance(q, p) == uhp_log_distance(p, q)

    def test_one_point_in_both_forms(self):
        # e^(L + i pi) = -e^L: the distance between the two forms is the
        # rounding of Im L + pi, a few ulps of pi against its small gap.
        for anchor, L in self.POINTS:
            gap = min(-L.imag, math.pi + L.imag)
            d = uhp_log_distance(UhpLogPoint(anchor, L, True),
                                 UhpLogPoint(anchor, L + 1j * math.pi))
            assert d <= 4 * _EPS * math.pi / gap, (anchor, L)

    def test_framed_log_against_mpmath_modulo_pi(self):
        for anchor, L in self.POINTS:
            for c in (0.0, 1.0, -1.0, 0.5, -1j):
                a, e = _mp_offset(anchor, L, c)
                with mpmath.workdps(50):
                    exact = mpmath.log(a - e)
                    cond = float((abs(a) + abs(e)) / abs(a - e))
                re, im = float(exact.real), float(exact.imag)
                got = uhp_log_framed(UhpLogPoint(anchor, L, True), c)
                turned = got.imag - im
                assert abs(got.real - re) <= 4 * _EPS * (cond + abs(re)), (anchor, L, c)
                assert abs(turned - math.pi * round(turned / math.pi)) <= (
                    4 * _EPS * (cond + math.pi)), (anchor, L, c)

    def test_disk_gap_against_mpmath(self):
        for anchor, L in self.POINTS:
            a, e = _mp_offset(anchor, L, -1j)
            with mpmath.workdps(50):
                exact = -4 * e.imag / abs(a - e) ** 2
                log_exact = float(mpmath.log(exact)) if exact else 0.0
            got = uhp_log_disk_gap(UhpLogPoint(anchor, L, True))
            assert got == pytest.approx(float(exact), rel=4 * _EPS * (1 + abs(log_exact)))


def test_only_hypcore_and_confmap_read_the_log_layout():
    # The layout q = anchor +- e^L of UhpLogPoint is read in hypcore and in
    # confmap's log kernels alone, so that a change to it stays there.
    package = Path(petallab.__file__).parent
    readers = []
    for path in sorted(package.glob("*.py")):
        if path.name in ("hypcore.py", "confmap.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr in ("anchor", "L", "neg"):
                readers.append(f"{path.name}:{node.lineno} .{node.attr}")
    assert readers == []


class TestAxisDistance:
    """The oracle's axis distance, which ``oracles.project_to_geodesic``
    reads; ``speeds`` states the same formula inline for v_T, and
    ``test_speeds::TestTangentialRead`` holds the two equal."""

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
