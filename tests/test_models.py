"""Tests for the model catalog: domains, petals, and closed-form orbits."""

import cmath
import math
import random

import mpmath
import pytest

from oracles import (
    INFINITY,
    MP_DPS,
    ApproachRay,
    boundary_distance,
    mp_eval,
    mp_petal_distance,
    omega_of_disk,
    push_boundary_point,
    strip_distance,
    strip_to_uhp,
)
from petallab.hypcore import (
    DomainError,
    disk_distance,
    disk_of_uhp,
    uhp_distance,
    uhp_log_distance,
)
from petallab.models import (
    HalfPlaneImage,
    KoenigsModel,
    Petal,
    SlitPlaneImage,
    StripImage,
    by_name,
    catalog,
    sample_petal_omega,
    MODEL_NAMES,
)

HALF_PI = math.pi / 2.0
HALF_LOG2 = 0.34657359027997265471  # log(2)/2, mpmath 40-digit

RNG_SEED = 20260817


def _uniform_draws(image, n, rng):
    """n draws of a petal image by its formulas in rng.uniform."""
    if isinstance(image, StripImage):
        margin = 0.05 * image.width
        return [complex(rng.uniform(-1.0, 3.0),
                        rng.uniform(image.lo + margin, image.hi - margin))
                for _ in range(n)]
    if isinstance(image, HalfPlaneImage):
        return [complex(rng.uniform(-3.0, 3.0),
                        math.exp(rng.uniform(math.log(0.1), math.log(5.0))))
                for _ in range(n)]
    return [math.exp(rng.uniform(-2.0, 2.0))
            * cmath.exp(1j * rng.uniform(-0.9 * math.pi, 0.9 * math.pi))
            for _ in range(n)]


def _models():
    return list(catalog())


def _model_petals():
    return [(m, p) for m in catalog() for p in m.petals]


class TestCatalog:
    def test_names(self):
        assert MODEL_NAMES == ("strip-slit", "sector-parabolic", "koebe-elliptic")
        for name in MODEL_NAMES:
            assert by_name(name).name == name

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            by_name("moebius-madness")

    def test_kinds_and_spectra(self):
        m1, m2, m3 = catalog()
        assert m1.kind == "hyperbolic" and m1.mu == 1.0
        assert m2.kind == "parabolic" and m2.mu == 0.0
        assert m3.kind == "elliptic" and m3.mu == 1.0
        # Every chain ends in the upper half-plane: its last step leaves
        # a base point's image there.
        for model in (m1, m2, m3):
            assert model.chain.eval(model.petals[0].base_default).imag > 0.0

    def test_petal_inventory(self):
        m1, m2, m3 = catalog()
        assert [p.label for p in m1.petals] == ["upper", "lower"]
        assert [p.label for p in m2.petals] == ["main"]
        assert [p.label for p in m3.petals] == ["main"]
        assert m1.petal("upper").lam == -2.0
        assert m3.petal("main").lam == -0.5
        # A petal's type is read from lam.
        assert m1.petal("upper").kind == m1.petal("lower").kind == "hyperbolic"
        assert m3.petal("main").kind == "hyperbolic"
        assert m2.petal("main").lam is None and m2.petal("main").kind == "parabolic"
        with pytest.raises(KeyError):
            m1.petal("sideways")

    def test_petal_validation(self):
        with pytest.raises(ValueError):
            Petal("x", 2.0, None, StripImage(0, 1), 0j)
        with pytest.raises(ValueError):
            Petal("x", 0.0, None, StripImage(0, 1), 0j)
        assert Petal("x", None, None, StripImage(0, 1), 0j).kind == "parabolic"
        assert Petal("x", -1.0, None, StripImage(0, 1), 0j).kind == "hyperbolic"


class TestGeometryInvariants:
    """Structural identities tying petal shapes to spectral data."""

    def test_strip_width_matches_spectrum(self):
        m1 = by_name("strip-slit")
        for petal in m1.petals:
            assert petal.image.width == -math.pi / petal.lam

    def test_slit_plane_opening_matches_spectrum(self):
        # The sector's opening angle -|mu|^2 pi / (lam mu) is the full turn,
        # so the petal is the plane slit along the negative axis, and its
        # chart opens it onto the half-plane by the power pi / opening.
        m3 = by_name("koebe-elliptic")
        petal = m3.petal("main")
        opening = -abs(m3.mu) ** 2 * math.pi / (petal.lam * m3.mu)
        assert opening == 2.0 * math.pi
        assert isinstance(petal.image, SlitPlaneImage)
        for gap in (1e-9, 0.25, 1.5):
            edge = 0.5 * opening - gap
            for r in (1e-3, 1.0, 1e3):
                above = petal.image.uhp_point(cmath.rect(r, edge))
                below = petal.image.uhp_point(cmath.rect(r, -edge))
                # Left of the imaginary axis the chart holds the angle by its
                # gap to the slit, signed above it: -+gap / 2 up to the
                # rounding of edge, an ulp of pi.
                assert above.neg and not below.neg
                assert above.L.imag == pytest.approx(-math.pi / opening * gap, abs=1e-15)
                assert below.L.imag == pytest.approx(math.pi / opening * gap, abs=1e-15)

    def test_forward_invariance_of_domain(self):
        rng = random.Random(RNG_SEED)
        m1, m2, m3 = catalog()
        for _ in range(1000):
            w = complex(rng.uniform(-3, 3), rng.uniform(-HALF_PI, HALF_PI))
            if m1.contains(w):
                for t in (0.5, 3.0, 50.0):
                    assert m1.contains(w + t)
            w = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            if m2.contains(w):
                for t in (0.5, 3.0, 50.0):
                    assert m2.contains(w + t)
            w = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            if m3.contains(w):
                for t in (0.5, 3.0, 8.0):
                    assert m3.contains(m3.flow_omega(w, t))

    @pytest.mark.parametrize("model,petal", _model_petals(),
                             ids=lambda v: getattr(v, "name", None) or getattr(v, "label", ""))
    def test_petal_two_sided_invariance(self, model, petal):
        rng = random.Random(RNG_SEED)
        for w in sample_petal_omega(model, petal, 40, rng):
            for t in (-100.0, -3.0, 2.0, 60.0):
                wt = model.flow_omega(w, t)
                if wt is None:
                    continue
                assert model.contains(wt)
                assert petal.contains(wt)

    def test_maximality_probes(self):
        # Inflating each petal image by 1e-3 captures a point outside Omega.
        m1, m2, m3 = catalog()
        up = m1.petal("upper").image
        inflated = StripImage(up.lo - 1e-3, up.hi + 1e-3)
        probe = -1.0 + 0j  # on the slit
        assert inflated.contains(probe) and not m1.contains(probe)
        probe_top = 1.0 + 1j * (HALF_PI + 5e-4)
        assert inflated.contains(probe_top) and not m1.contains(probe_top)
        low = m1.petal("lower").image
        inflated = StripImage(low.lo - 1e-3, low.hi + 1e-3)
        assert inflated.contains(probe) and not m1.contains(probe)

        # The half-plane {Im w > 0}, inflated to {Im w > -1e-3}.
        hp = m2.petal("main").image
        probe = -5.0 - 5e-4j  # inside the deleted quadrant
        assert probe.imag > -1e-3 and not hp.contains(probe) and not m2.contains(probe)

        # The slit plane is a full turn and cannot open wider, so probe its
        # boundary ray directly.
        sec = m3.petal("main").image
        probe = -2.0 + 0j  # on the deleted ray beyond -1
        assert not sec.contains(probe) and not m3.contains(probe)
        assert m3.contains(-0.5 + 0j)  # the slit starts at -1, not at 0

    def test_petal_metric_dominates_ambient(self):
        # A petal is a subdomain, so its metric exceeds the ambient one.
        rng = random.Random(RNG_SEED)
        for model, petal in _model_petals():
            pts = sample_petal_omega(model, petal, 12, rng)
            for w1, w2 in zip(pts[::2], pts[1::2]):
                d_petal = petal.distance(w1, w2)
                z1 = disk_of_uhp(model.chain.eval(w1))
                z2 = disk_of_uhp(model.chain.eval(w2))
                assert d_petal >= disk_distance(z1, z2) - 1e-12

    def test_petal_metric_axioms(self):
        rng = random.Random(RNG_SEED + 1)
        for model, petal in _model_petals():
            a, b, c = sample_petal_omega(model, petal, 3, rng)
            assert petal.distance(a, b) == petal.distance(b, a)
            assert petal.distance(a, a) == 0.0
            assert petal.distance(a, c) <= petal.distance(a, b) + petal.distance(b, c) + 1e-12

    def test_petal_metric_closed_forms(self):
        m1, m2, m3 = catalog()
        # Width-pi/2 strip along its center line has unit density.
        up = m1.petal("upper")
        base = 1j * math.pi / 4.0
        assert up.distance(base, base + 1.0) == pytest.approx(1.0, rel=1e-12)
        # The parabolic petal is the upper half-plane itself.
        main2 = m2.petal("main")
        assert main2.distance(1j, 2j) == pytest.approx(HALF_LOG2, rel=1e-12)
        assert main2.distance(1j, 2j) == uhp_distance(1j, 2j)
        # The slit plane straightens by a square root.
        main3 = m3.petal("main")
        assert main3.distance(1.0 + 0j, 4.0 + 0j) == pytest.approx(HALF_LOG2, rel=1e-12)

    def test_petal_distance_requires_membership(self):
        m1 = by_name("strip-slit")
        with pytest.raises(DomainError):
            m1.petal("upper").distance(1.0 + 0.1j, 1.0 - 0.1j)


def _reference_petal_distance(petal, w1, w2):
    """The petal metric through each image's own canonical domain: the
    strip rescaled onto {|Im| < pi/2}, the half-plane itself, and the slit
    plane opened by i sqrt(w)."""
    image = petal.image
    if isinstance(image, StripImage):
        scale = math.pi / image.width
        mid = 0.5j * (image.lo + image.hi)
        return strip_distance(scale * (w1 - mid), scale * (w2 - mid))
    if isinstance(image, HalfPlaneImage):
        return uhp_distance(w1, w2)
    return uhp_distance(1j * cmath.sqrt(w1), 1j * cmath.sqrt(w2))


class TestPetalImages:
    """Each image is its membership test, its log chart into the upper
    half-plane, and its sampler."""

    def test_only_the_strip_has_settings(self):
        m1, m2, m3 = catalog()
        assert StripImage._fields == ("lo", "hi")
        assert [p.image for p in m1.petals] == [StripImage(0.0, HALF_PI),
                                                StripImage(-HALF_PI, 0.0)]
        assert type(m2.petal("main").image) is HalfPlaneImage
        assert type(m3.petal("main").image) is SlitPlaneImage
        assert vars(m2.petal("main").image) == vars(m3.petal("main").image) == {}

    def test_membership(self):
        hp, slit = HalfPlaneImage(), SlitPlaneImage()
        assert hp.contains(1e-300j) and not hp.contains(0j) and not hp.contains(5 - 1e-300j)
        for w in (1 + 0j, 1e-300 + 0j, -1 + 1e-15j, -1 - 1e-15j, 1e300j):
            assert slit.contains(w)
        for w in (0j, -0.0 + 0j, -1e-300 + 0j, complex(-1.0, -0.0), -1e300 + 0j):
            assert not slit.contains(w)
        # A point whose argument rounds onto +-pi is inside: the chart holds
        # it by the log of -w, Im L = -+5e-301, off the half-plane's edge.
        assert slit.contains(-1 + 1e-300j) and slit.contains(-1 - 1e-300j)
        for w in (-1 + 1e-300j, -1 - 1e-300j):
            assert slit.uhp_point(w).value().imag == 5e-301

    @pytest.mark.parametrize("model,petal", _model_petals(),
                             ids=lambda v: getattr(v, "name", None) or getattr(v, "label", ""))
    def test_chart_opens_the_image_onto_the_half_plane(self, model, petal):
        # uhp_point(w) is the image's canonical map: i e^z after the strip
        # is rescaled onto {|Im| < pi/2}, the identity, and i sqrt(w).
        image = petal.image
        for w in sample_petal_omega(model, petal, 200, random.Random(RNG_SEED)):
            p = image.uhp_point(w)
            assert p.anchor is None
            if isinstance(image, StripImage):
                want = strip_to_uhp(math.pi / image.width * (w - 0.5j * (image.lo + image.hi)))
            elif isinstance(image, HalfPlaneImage):
                want = w
            else:
                want = 1j * cmath.sqrt(w)
            assert abs(p.value() - want) <= 1e-14 * abs(want)

    @pytest.mark.parametrize("k", range(4, 16))
    def test_slit_plane_distance_next_to_the_slit(self, k):
        # At angle pi - 10^-k above and below the slit, against the chart
        # i sqrt(w) and the half-plane distance asinh(|p - q| / (2 sqrt(Im p
        # Im q))) in mpmath, read from the float points themselves.
        petal = by_name("koebe-elliptic").petal("main")
        for w1 in (2.0 + 0j, 0.5j, -1e10 + 1j):
            for sign in (1.0, -1.0):
                w2 = cmath.rect(3.0, sign * (math.pi - 10.0 ** -k))
                with mpmath.workdps(60):
                    p, q = (1j * mpmath.sqrt(mpmath.mpc(w)) for w in (w1, w2))
                    want = float(mpmath.asinh(abs(p - q) / (2 * mpmath.sqrt(p.imag * q.imag))))
                got = petal.distance(w1, w2)
                assert abs(got - want) <= 1e-12 * want, (w1, w2, got, want)

    @pytest.mark.parametrize("name,label", [("strip-slit", "upper"), ("strip-slit", "lower"),
                                            ("sector-parabolic", "main")])
    def test_distance_next_to_each_wall(self, name, label):
        # Each chart takes its log from the nearer wall, so that a point
        # 10^-k from either wall keeps its gap.  Against the chart in mpmath
        # at 400 digits (``oracles.mp_petal_distance``), of the strips {0 < Im w < pi/2} and
        # {-pi/2 < Im w < 0} with their walls at +-pi/2 itself, not at the
        # float +-HALF_PI, and the half-plane distance
        # asinh(|p - q| / (2 sqrt(Im p Im q))), read from the float points
        # themselves: each point to the base and to its mirror next to the
        # other wall.  The walls at +-pi/2 hold gaps down to 1e-15, the
        # others down to 1e-300.
        petal = by_name(name).petal(label)
        image = petal.image
        if isinstance(image, StripImage):
            walls = [(0.5, image.lo, 1.0), (0.5, image.hi, -1.0)]
        else:
            walls = [(1.0, 0.0, 1.0), (-1.0, 0.0, 1.0)]
        gaps = [10.0 ** -k for k in [*range(1, 16), 20, 50, 100, 200, 300]]
        rows = 0
        for gap in gaps:
            (x1, c1, s1), (x2, c2, s2) = walls
            w1, w2 = complex(x1, c1 + s1 * gap), complex(x2, c2 + s2 * gap)
            for w, other in ((w1, w2), (w2, w1)):
                if not petal.contains(w):
                    continue
                for partner in (petal.base_default, other):
                    if not petal.contains(partner):
                        continue
                    want = float(mp_petal_distance(petal, w, partner))
                    got = petal.distance(w, partner)
                    assert abs(got - want) <= 1e-12 * want, (w, partner, got, want)
                    rows += 1
        # 15 gaps at a wall at +-pi/2, 20 at the others, each read to two partners.
        assert rows >= 65

    @pytest.mark.parametrize("model,petal", _model_petals(),
                             ids=lambda v: getattr(v, "name", None) or getattr(v, "label", ""))
    def test_metric_matches_each_canonical_domain(self, model, petal):
        pts = sample_petal_omega(model, petal, 2000, random.Random(RNG_SEED + 3))
        for w1, w2 in zip(pts[::2], pts[1::2]):
            want = _reference_petal_distance(petal, w1, w2)
            assert petal.distance(w1, w2) == pytest.approx(want, rel=4e-15, abs=1e-15)

    def test_metric_at_extreme_separations(self):
        m1, m2, m3 = catalog()
        for petal in m1.petals:
            base = petal.base_default
            for run in (1e-6, 1.0, 1e3, 1e6):
                want = _reference_petal_distance(petal, base, base + run)
                assert petal.distance(base, base + run) == pytest.approx(want, rel=1e-15)
        main3 = m3.petal("main")
        radii = (1e-300, 1e-100, 1.0, 1e100, 1e300)
        for a in radii:
            for b in radii:
                # |log(b / a)| / 4 along the positive axis, the chart's power 1/2
                # halving the half-plane's vertical rate.
                want = 0.25 * abs(math.log(b) - math.log(a))
                assert main3.distance(complex(a), complex(b)) == pytest.approx(want, rel=1e-15)

    def test_draws_are_pinned(self):
        # The first three draws from one seed, by repr: the image samplers
        # draw each point's coordinates in this order.
        want = {
            ("strip-slit", "upper"): [(2.82723303964025+0.9880395549208072j),
                                      (0.3588235694794344+1.0482685185140932j),
                                      (1.048072669860157+0.8564647432007214j)],
            ("strip-slit", "lower"): [(2.82723303964025-0.5827567718740894j),
                                      (0.3588235694794344-0.5225278082808033j),
                                      (1.048072669860157-0.7143315835941751j)],
            ("sector-parabolic", "main"): [(2.740849559460375+1.2388378047466815j),
                                           (-0.9617646457808484+1.4635114995882432j),
                                           (0.07210900479023552+0.8607778292409554j)],
            ("koebe-elliptic", "main"): [(4.283831188950423+4.505071761865959j),
                                         (0.2613798995640788+0.45723564430457314j),
                                         (1.0071381826675552+0.2942647458465703j)],
        }
        for model, petal in _model_petals():
            got = sample_petal_omega(model, petal, 3, random.Random(20260817))
            assert repr(got) == repr(want[model.name, petal.label])
            assert repr(petal.image.sample(3, random.Random(20260817))) == repr(got)


class TestMembershipAndBoundary:
    def test_membership_examples(self):
        m1, m2, m3 = catalog()
        assert m1.contains(1 + 0.5j) and m1.contains(1 + 0j)
        assert not m1.contains(-1 + 0j)          # slit
        assert not m1.contains(1 + 2j)           # outside the strip
        assert m2.contains(1j) and m2.contains(1 - 1j)
        assert not m2.contains(-1 - 1j) and not m2.contains(0j)
        assert not m2.contains(-1 + 0j)          # quadrant edge
        assert m3.contains(1 + 0j) and m3.contains(-0.5 + 0j)
        assert not m3.contains(-1 + 0j) and not m3.contains(-4 + 0j)

    @pytest.mark.parametrize("w", [complex(math.nan, 0.5), complex(0.5, math.nan),
                                   complex(math.inf, 0.5), complex(-math.inf, 0.5)])
    def test_non_finite_points_are_outside(self, w):
        for model in catalog():
            assert not model.contains(w)

    def test_boundary_distance_examples(self):
        m1, m2, m3 = catalog()
        assert boundary_distance(m1, 1 + 0j) == pytest.approx(1.0, rel=1e-15)
        assert boundary_distance(m1, -1 + 0.3j) == pytest.approx(0.3, rel=1e-15)
        assert boundary_distance(m1, 5 + 1.5j) == pytest.approx(HALF_PI - 1.5, rel=1e-12)
        assert boundary_distance(m2, 1j) == pytest.approx(1.0, rel=1e-15)
        assert boundary_distance(m2, 3 - 4j) == pytest.approx(3.0, rel=1e-15)
        assert boundary_distance(m3, 1 + 0j) == pytest.approx(2.0, rel=1e-15)
        assert boundary_distance(m3, -3 + 0.2j) == pytest.approx(0.2, rel=1e-15)

    def test_boundary_distance_outside_domain(self):
        m1, m2, m3 = catalog()
        with pytest.raises(DomainError):
            boundary_distance(m1, -1 + 0j)
        with pytest.raises(DomainError):
            boundary_distance(m2, -1 - 1j)
        with pytest.raises(DomainError):
            boundary_distance(m3, -2 + 0j)

    @staticmethod
    def _boundary_cloud(model: KoenigsModel) -> list[complex]:
        step = 2.5e-4

        def arange(start, stop):
            return [start + i * step for i in range(math.ceil((stop - start) / step))]

        if model.name == "strip-slit":
            s = arange(-8.0, 8.0 + step)
            walls = [x + 1j * HALF_PI for x in s] + [x - 1j * HALF_PI for x in s]
            return walls + [complex(-x) for x in arange(0.0, 8.0 + step)]
        if model.name == "sector-parabolic":
            r = arange(0.0, 12.0 + step)
            return [complex(-x) for x in r] + [-1j * x for x in r]
        if model.name == "koebe-elliptic":
            return [complex(-x) for x in arange(1.0, 12.0 + step)]
        raise AssertionError(model.name)

    def test_boundary_distance_against_brute_force(self):
        rng = random.Random(RNG_SEED)
        for model in catalog():
            cloud = self._boundary_cloud(model)
            count = 0
            while count < 12:
                w = complex(rng.uniform(-4, 4), rng.uniform(-1.5, 1.5))
                if not model.contains(w):
                    continue
                delta = boundary_distance(model, w)
                if delta < 0.05:
                    continue
                brute = min(abs(c - w) for c in cloud)
                assert brute >= delta - 1e-12
                assert brute - delta <= 1e-6
                count += 1

    def test_petal_membership(self):
        # Each point lies in the petals named and in no other; a point of
        # no petal flows only forward.
        m1, m2, m3 = catalog()
        for model, w, labels in [
            (m1, 1 + 1j * math.pi / 4, ["upper"]),
            (m1, 1 - 1j * math.pi / 4, ["lower"]),
            (m1, 1 + 0j, []),
            (m2, 2j, ["main"]),
            (m2, 1 - 1j, []),
            (m3, 1 + 0j, ["main"]),
            (m3, -0.5 + 0j, []),
        ]:
            assert model.contains(w)
            assert [p.label for p in model.petals if p.contains(w)] == labels, (model.name, w)


class TestFlow:
    def test_semigroup_law_omega(self):
        rng = random.Random(RNG_SEED)
        for model, petal in _model_petals():
            for w in sample_petal_omega(model, petal, 10, rng):
                for s, t in [(0.5, 1.7), (-2.0, 3.0), (10.0, -4.0)]:
                    one = model.flow_omega(model.flow_omega(w, s), t)
                    two = model.flow_omega(w, s + t)
                    assert abs(one - two) <= 1e-12 * max(1.0, abs(two))

    def test_elliptic_overflow_returns_none(self):
        m3 = by_name("koebe-elliptic")
        assert m3.flow_omega(1 + 0j, -800.0) is None
        assert m3.flow_omega(1 + 0j, 800.0) == pytest.approx(0.0, abs=1e-300)

    @pytest.mark.parametrize("name", ["strip-slit", "koebe-elliptic"])
    def test_huge_integer_time_names_the_layer(self, name):
        # An integer time past float range is a DomainError, not a bare
        # OverflowError; translation and scaling each convert it.
        model = by_name(name)
        with pytest.raises(DomainError, match="models.flow_omega: time is past float range"):
            model.flow_omega(1 + 0.3j, -10 ** 400)
        assert model.flow_omega(1 + 0.3j, -10 ** 2) == model.flow_omega(1 + 0.3j, -100.0)

    def test_fixed_point_of_elliptic_flow(self):
        m3 = by_name("koebe-elliptic")
        assert m3.flow_omega(0j, 5.0) == 0j
        assert m3.flow_omega(0j, -5.0) == 0j


class TestOrbits:
    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_orbit_matches_chain_at_moderate_times(self, name):
        model = by_name(name)
        for petal in model.petals:
            w0 = petal.base_default
            for t in (-12.0, -5.0, -1.3, -0.5, 0.0, 0.7, 3.0):
                wt = model.flow_omega(w0, t)
                q_chain = model.chain.eval(wt)
                q_log = model.uhp_orbit(w0, t).value()
                assert q_log is not None
                assert abs(q_log - q_chain) <= 1e-11 * max(1.0, abs(q_chain))

    def test_orbit_matches_chain_at_random_bases(self):
        rng = random.Random(RNG_SEED)
        for model, petal in _model_petals():
            for w0 in sample_petal_omega(model, petal, 8, rng):
                for t in (-9.0, -2.2, 0.0, 1.4):
                    wt = model.flow_omega(w0, t)
                    q_chain = model.chain.eval(wt)
                    q_log = model.uhp_orbit(w0, t).value()
                    assert abs(q_log - q_chain) <= 1e-10 * max(1.0, abs(q_chain))

    def test_backward_limits_hit_sigma(self):
        m1 = by_name("strip-slit")
        for label, sigma in [("upper", -1.0), ("lower", 1.0)]:
            p = m1.uhp_orbit(m1.petal(label).base_default, -40.0)
            assert p.anchor == sigma
            q = p.value()
            assert abs(q - sigma) < 1e-30
        # Parabolic and elliptic orbits run off to infinity upstairs.
        for name in ("sector-parabolic", "koebe-elliptic"):
            model = by_name(name)
            p = model.uhp_orbit(model.petals[0].base_default, -300.0)
            assert p.anchor is None
            assert p.L.real > 3.0

    def test_anchor_regimes_and_seam_continuity(self):
        m1 = by_name("strip-slit")
        base = m1.petal("upper").base_default  # Re = 1, seam at t = -1
        assert m1.uhp_orbit(base, -0.5).anchor is None
        assert m1.uhp_orbit(base, -1.5).anchor == -1.0
        left = m1.uhp_orbit(base, -1.0 - 1e-9)
        right = m1.uhp_orbit(base, -1.0 + 1e-9)
        gap = uhp_log_distance(left, right)
        assert 0.0 <= gap < 1e-6

    def test_extreme_time_representations_stay_valid(self):
        # UhpLogPoint construction enforces Im L in (0, pi); surviving the
        # sweep is the assertion.
        rng = random.Random(RNG_SEED)
        for model, petal in _model_petals():
            bases = sample_petal_omega(model, petal, 3, rng)
            for w0 in bases:
                for k in range(2, 41, 4):
                    p = model.uhp_orbit(w0, -(2.0 ** k))
                    assert math.isfinite(p.log_im())
                for t in (1.0, 17.0, 64.0):
                    p = model.uhp_orbit(w0, t)
                    assert math.isfinite(p.log_im())

    def test_unit_time_step_distances_stabilize(self):
        # d(w_t, w_{t-1}) approaches |lam|/2 for hyperbolic petals and
        # decays for the parabolic one.
        def step(model, w0, t):
            return uhp_log_distance(model.uhp_orbit(w0, t - 1.0), model.uhp_orbit(w0, t))

        m1 = by_name("strip-slit")
        s_far = step(m1, m1.petal("upper").base_default, -(2.0 ** 16))
        assert s_far == pytest.approx(1.0, abs=1e-9)
        m3 = by_name("koebe-elliptic")
        s_far = step(m3, 1.0 + 0j, -(2.0 ** 16))
        assert s_far == pytest.approx(0.25, abs=1e-9)
        # The parabolic orbit keeps a constant asymptotic hyperbolic speed
        # 1/(2e); unit chords stabilize just below that arc length.
        m2 = by_name("sector-parabolic")
        base = m2.petals[0].base_default
        s10 = step(m2, base, -(2.0 ** 10))
        s16 = step(m2, base, -(2.0 ** 16))
        assert 0.15 < s16 < 1.0 / (2.0 * math.e)
        assert abs(s16 - s10) < 1e-5

    def test_orbit_errors(self):
        m1, m2, m3 = catalog()
        with pytest.raises(DomainError):
            m1.uhp_orbit(1.0 + 0j, -1.0)       # lands on the slit tip
        with pytest.raises(DomainError):
            m1.uhp_orbit(1.0 + 0j, -2.0)       # crosses onto the slit
        with pytest.raises(DomainError):
            m2.uhp_orbit(1.0 - 1j, -2.0)       # exits through the quadrant
        with pytest.raises(DomainError):
            m3.uhp_orbit(-0.5 + 0j, -1.0)      # scales onto the slit
        with pytest.raises(DomainError):
            m3.uhp_orbit(0j, 1.0)              # fixed point has no chart

    @pytest.mark.parametrize("t", [math.nan, -math.inf, math.inf])
    def test_orbit_time_must_be_finite(self, t):
        for model, petal in _model_petals():
            with pytest.raises(DomainError, match="orbit time must be finite"):
                model.uhp_orbit(petal.base_default, t)

    def test_forward_orbit_on_real_axis(self):
        # Interior non-petal points still flow forward.
        m1 = by_name("strip-slit")
        p = m1.uhp_orbit(2.0 + 0j, 0.0)
        q = p.value()
        assert q.real == pytest.approx(0.0, abs=1e-12)
        assert q.imag == pytest.approx(math.sqrt(math.exp(4.0) - 1.0), rel=1e-12)
        m3 = by_name("koebe-elliptic")
        q = m3.uhp_orbit(-0.5 + 0j, 2.0).value()
        assert q.real == pytest.approx(0.0, abs=1e-14)


class TestTransport:
    def test_disk_round_trip(self):
        rng = random.Random(RNG_SEED)
        for model, petal in _model_petals():
            for w in sample_petal_omega(model, petal, 15, rng):
                z = disk_of_uhp(model.chain.eval(w))
                assert abs(z) < 1.0
                back = omega_of_disk(model, z)
                assert abs(back - w) <= 1e-9 * max(1.0, abs(w))

    def test_canonical_round_trip(self):
        rng = random.Random(RNG_SEED + 2)
        for model, petal in _model_petals():
            for w in sample_petal_omega(model, petal, 15, rng):
                q = model.chain.eval(w)
                back = model.chain.eval_inverse(q)
                assert abs(back - w) <= 1e-9 * max(1.0, abs(w))

    def test_koebe_function_identity(self):
        # The elliptic chain, followed by the Cayley map onto the disk,
        # inverts z -> 4 z / (1 - z)^2; the chain itself is i sqrt(w + 1).
        m3 = by_name("koebe-elliptic")
        rng = random.Random(RNG_SEED)
        for _ in range(200):
            r = math.sqrt(rng.uniform(0.0, 0.9025))
            z = r * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
            w = 4.0 * z / (1.0 - z) ** 2
            assert m3.contains(w)
            assert abs(disk_of_uhp(m3.chain.eval(w)) - z) <= 1e-10 * max(1.0, abs(z))
            q = m3.chain.eval(w)
            assert abs(q - 1j * cmath.sqrt(w + 1.0)) <= 1e-12 * max(1.0, abs(q))

    def test_image_of_domain_is_canonical(self):
        rng = random.Random(RNG_SEED)
        for model in catalog():
            count = 0
            while count < 300:
                w = complex(rng.uniform(-4, 4), rng.uniform(-2, 2))
                if not model.contains(w):
                    continue
                assert model.chain.eval(w).imag > 0.0
                count += 1

    def test_dw_point_consistency(self):
        m1, m2, m3 = catalog()
        # Non-elliptic: the prime end Re -> +infinity maps to infinity.
        for model in (m1, m2):
            base = model.petals[0].base_default
            ray = ApproachRay(origin=base, direction=10.0 + 0j, outward=True)
            pushed = push_boundary_point(model.chain, INFINITY, ray)
            assert pushed.is_infinity
        # Elliptic: the interior fixed point maps to i, the disk center.
        assert m3.chain.eval(0j) == 1j
        assert disk_of_uhp(m3.chain.eval(0j)) == 0j

    def test_sigma_transport_through_chain(self):
        # Pushing the petal's omega-boundary direction through the chain
        # recovers sigma_canonical.
        m1 = by_name("strip-slit")
        for label in ("upper", "lower"):
            petal = m1.petal(label)
            ray = ApproachRay(origin=petal.base_default, direction=-10.0 + 0j, outward=True)
            pushed = push_boundary_point(m1.chain, INFINITY, ray)
            assert not pushed.is_infinity
            assert abs(pushed.value - petal.sigma_canonical) <= 1e-8

    def test_disk_sigma_values(self):
        # Pinned by repr, signed zeros included.  The last two sigmas are
        # infinity, which the inverse Cayley map sends to a / c.
        m1, m2, m3 = catalog()
        got = [repr(m.disk_sigma(p).value) for m in (m1, m2, m3) for p in m.petals]
        assert got == ["(-0+1j)", "-1j", "(1+0j)", "(1+0j)"]

    def test_uhp_eta_endpoints(self):
        # eta ends at sigma_canonical, which speeds reads in place.
        m1, m2, m3 = catalog()
        # A real sigma is a float, and infinity is None.
        sigmas = [p.sigma_canonical for m in (m1, m2, m3) for p in m.petals]
        assert [repr(s) for s in sigmas] == ["-1.0", "1.0", "None", "None"]

    def test_koebe_image_avoids_slit(self):
        m3 = by_name("koebe-elliptic")
        rng = random.Random(RNG_SEED)
        for _ in range(2000):
            r = math.sqrt(rng.uniform(0.0, 0.999))
            z = r * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
            w = 4.0 * z / (1.0 - z) ** 2
            assert m3.contains(w)
            assert boundary_distance(m3, w) > 0.0


# Distances along each edge of a catalog Omega at which its points are
# walked, from next to a corner or slit tip to far out.
_EDGE_REACH = (1e-6, 0.5, 1.0, 3.0, 40.0)


def _omega_edges(name):
    """Points on every edge of the named catalog Omega, as mpmath numbers
    at the current precision: strip-slit's walls Im w = +-pi/2 and its slit
    (-inf, 0]; sector-parabolic's negative real and negative imaginary
    axes; koebe-elliptic's slit (-inf, -1]."""
    rs = [mpmath.mpf(r) for r in _EDGE_REACH]
    if name == "strip-slit":
        half = mpmath.pi / 2
        return {
            "upper wall": [mpmath.mpc(x, half) for r in rs for x in (r, -r)],
            "lower wall": [mpmath.mpc(x, -half) for r in rs for x in (r, -r)],
            "slit": [mpmath.mpc(-r, 0) for r in rs],
        }
    if name == "sector-parabolic":
        return {
            "negative real axis": [mpmath.mpc(-r, 0) for r in rs],
            "negative imaginary axis": [mpmath.mpc(0, -r) for r in rs],
        }
    return {"slit": [mpmath.mpc(-1 - r, 0) for r in rs]}


class TestChainEdges:
    """Each catalog chain, walked in mpmath at ``MP_DPS`` digits with the
    constants its steps store (a power step's exponent as the exact p / q),
    carries every edge of Omega onto the real axis to 300 digits.  A float
    exponent would not: 2/3 held as 0.6666666666666666 puts the image of
    sector-parabolic's negative real axis at angle pi - 1.7e-16."""

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_edges_land_on_the_real_axis(self, name):
        chain = by_name(name).chain
        with mpmath.workdps(MP_DPS):
            for edge, points in _omega_edges(name).items():
                for w in points:
                    q = sum(mp_eval(chain, w))
                    assert abs(q.imag) <= mpmath.mpf("1e-300") * max(1, abs(q)), (edge, w)


class TestSampling:
    def test_samples_live_in_their_petal(self):
        rng = random.Random(RNG_SEED)
        for model, petal in _model_petals():
            pts = sample_petal_omega(model, petal, 100, rng)
            assert len(pts) == 100
            assert all(petal.contains(w) for w in pts)
            assert all(model.contains(w) for w in pts)

    @pytest.mark.parametrize("seed", [0, 1, 7, 123456, RNG_SEED])
    def test_draws_match_the_uniform_formulas(self, seed):
        # Each image draws from rng.random with random.Random.uniform's own
        # formula, so its points are the ones rng.uniform drew, bit for bit,
        # and it leaves the generator where they left it.
        for model, petal in _model_petals():
            rng, old = random.Random(seed), random.Random(seed)
            got = sample_petal_omega(model, petal, 300, rng)
            assert repr(got) == repr(_uniform_draws(petal.image, 300, old))
            assert rng.random() == old.random()

    def test_negative_count_refused(self):
        m1 = by_name("strip-slit")
        with pytest.raises(DomainError, match="^models.sample_petal_omega: cannot draw -1 points$"):
            sample_petal_omega(m1, m1.petal("upper"), -1, random.Random(RNG_SEED))
        assert sample_petal_omega(m1, m1.petal("upper"), 0, random.Random(RNG_SEED)) == []

    def test_sampling_is_seed_deterministic(self):
        m1 = by_name("strip-slit")
        a = sample_petal_omega(m1, m1.petal("upper"), 5, random.Random(3))
        b = sample_petal_omega(m1, m1.petal("upper"), 5, random.Random(3))
        assert a == b
