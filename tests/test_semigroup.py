"""Tests for flow evaluation, the generator, and repelling diagnostics."""

import cmath
import math
import random

import pytest

from oracles import (mp_radial_ratio, omega_of_disk, reference_flow, reference_generator,
                     reference_herglotz_real)
from petallab import semigroup, verify
from petallab.confmap import ConformalChain, MapDomainError
from petallab.hypcore import DomainError, PrecisionError, disk_of_uhp, uhp_log_disk_gap
from petallab.models import by_name, catalog, sample_petal_omega
from petallab.semigroup import (
    DiagnosticError,
    OrbitPoint,
    PetalRequiredError,
    RepellingReport,
    flow,
    generator,
    regularity_gap,
    repelling_diagnostics,
)

RNG_SEED = 20260817


def _model_petals():
    return [(m, p) for m in catalog() for p in m.petals]


def _outcome(fn, *args):
    """What a call produced: its value with every bit of it in ``repr``
    (which tells -0.0 from 0.0), or its error's type and message."""
    try:
        value = fn(*args)
    except Exception as exc:  # every error must match the reference's
        return ("error", type(exc), str(exc)), None
    return ("value", repr(value)), value


class TestFlow:
    def test_identity_at_time_zero(self):
        for model, petal in _model_petals():
            z0 = petal.base_default
            assert model.flow_omega(z0, 0.0) == z0
            pt = flow(model, z0, 0.0)
            assert pt.t == 0.0
            assert pt.disk_z is not None
            assert abs(pt.disk_z) < 1.0
            assert abs(pt.disk_z - disk_of_uhp(model.chain.eval(z0))) <= 1e-12

    def test_integer_time_past_float_range_raises(self):
        for model, petal in _model_petals():
            with pytest.raises(DomainError, match="models.uhp_orbit: orbit time is past"):
                flow(model, petal.base_default, -10 ** 400)

    def test_translation_example(self):
        m1 = by_name("strip-slit")
        assert m1.flow_omega(1 + 0.3j, -5.0) == -4 + 0.3j
        back = omega_of_disk(m1, flow(m1, 1 + 0.3j, -5.0).disk_z)
        assert abs(back - (-4 + 0.3j)) <= 1e-9

    def test_translation_is_exact(self):
        m1 = by_name("strip-slit")
        z0 = 1 + 1j * math.pi / 4
        for t in (-7.25, -0.5, 2.0, 31.0):
            assert m1.flow_omega(z0, t) == z0 + t
            assert flow(m1, z0, t).t == t

    def test_elliptic_scaling_example(self):
        # 8 is the Omega image of the disk point 1/2; one backward unit
        # multiplies by e.
        m3 = by_name("koebe-elliptic")
        assert m3.flow_omega(8.0 + 0j, -1.0) == pytest.approx(8.0 * math.e, rel=1e-15)
        back = omega_of_disk(m3, flow(m3, 8.0 + 0j, -1.0).disk_z)
        assert back == pytest.approx(8.0 * math.e, rel=1e-12)
        assert omega_of_disk(m3, 0.5 + 0j) == pytest.approx(8.0, rel=1e-12)

    def test_semigroup_law_in_disk_transport(self):
        rng = random.Random(RNG_SEED)
        for model, petal in _model_petals():
            for w in sample_petal_omega(model, petal, 5, rng):
                for s, t in [(0.5, 1.25), (-1.5, 2.0), (-2.0, -1.0)]:
                    one = flow(model, model.flow_omega(w, s), t)
                    two = flow(model, w, s + t)
                    assert one.disk_z is not None and two.disk_z is not None
                    assert abs(one.disk_z - two.disk_z) <= 1e-9

    def test_backward_flow_needs_a_petal(self):
        m1, m2, m3 = catalog()
        with pytest.raises(PetalRequiredError):
            flow(m1, 1.0 + 0j, -0.5)
        with pytest.raises(PetalRequiredError):
            flow(m2, 1.0 - 1j, -0.5)
        with pytest.raises(PetalRequiredError):
            flow(m3, -0.5 + 0j, -0.5)
        # The same points flow forward without complaint.
        for model, w in [(m1, 1.0 + 0j), (m2, 1.0 - 1j), (m3, -0.5 + 0j)]:
            assert flow(model, w, 2.0).disk_z is not None

    def test_flow_outside_domain(self):
        m1 = by_name("strip-slit")
        for t in (1.0, -1.0):
            with pytest.raises(DomainError, match=r"^\(-1\+0j\) is not in the domain of strip-slit$"):
                flow(m1, -1.0 + 0j, t)

    # Backward times that take each petal's orbits through the band of
    # width 1e-12 inside the unit circle and past the loss of the disk
    # chart.
    SWEEP_TIMES = {
        "strip-slit": [-k / 8 for k in range(321)],
        "sector-parabolic": [-10.0 ** (k / 16) for k in range(257)],
        "koebe-elliptic": [-k / 2 for k in range(2801)],
    }

    def test_matches_the_reference_rule(self):
        # flow reads the exact log gap only for points within 1e-12 of the
        # circle; the reference reads it for every point, and the two must
        # agree bit for bit, errors included.
        rng = random.Random(RNG_SEED + 3)
        cases = in_band = 0
        for model, petal in _model_petals():
            bases = [petal.base_default] + sample_petal_omega(model, petal, 4, rng)
            bases += [b * (1.0 + 1e-9) for b in bases[:3]]
            for base in bases:
                for t in self.SWEEP_TIMES[model.name] + [0.5, 3.0]:
                    got, pt = _outcome(flow, model, base, t)
                    assert got == _outcome(reference_flow, model, base, t)[0], (model.name, base, t)
                    cases += 1
                    in_band += pt is not None and pt.disk_z is not None and (
                        abs(pt.disk_z) > 1.0 - 1e-12)
        assert cases == 29664
        assert in_band >= 1000

    def test_elliptic_fixed_point(self):
        m3 = by_name("koebe-elliptic")
        assert flow(m3, 0j, 4.0) == OrbitPoint(4.0, 0j)
        assert m3.flow_omega(0j, 4.0) == 0j

    def test_coordinate_consistency(self):
        rng = random.Random(RNG_SEED + 1)
        for model, petal in _model_petals():
            for w in sample_petal_omega(model, petal, 5, rng):
                for t in (-6.0, -1.0, 0.0, 2.5):
                    pt = flow(model, w, t)
                    assert pt.disk_z is not None
                    q = model.chain.eval(model.flow_omega(w, t))
                    q_log = model.uhp_orbit(w, t).value()
                    assert abs(q - q_log) <= 1e-9 * max(1.0, abs(q))
                    assert abs(disk_of_uhp(q) - pt.disk_z) <= 1e-9

    def test_disk_gap_matches_direct_value(self):
        for model, petal in _model_petals():
            pt = flow(model, petal.base_default, -4.0)
            direct = 1.0 - abs(pt.disk_z) ** 2
            gap = uhp_log_disk_gap(model.uhp_orbit(petal.base_default, -4.0))
            assert gap == pytest.approx(direct, rel=1e-9)

    def test_disk_gap_deep_backward_closed_form(self):
        # For the slit strip the gap decays like e^{2 Re w0 + 2t}.
        m1 = by_name("strip-slit")
        z0 = 1 + 1j * math.pi / 4
        assert flow(m1, z0, -100.0).disk_z is None
        gap = uhp_log_disk_gap(m1.uhp_orbit(z0, -100.0))
        assert gap == pytest.approx(math.exp(2.0 - 200.0), rel=1e-6)

    def test_disk_chart_expires_before_gap_does(self):
        m1 = by_name("strip-slit")
        z0 = 1 + 1j * math.pi / 4
        assert flow(m1, z0, -30.0).disk_z is None       # |z| rounds onto the circle
        assert uhp_log_disk_gap(m1.uhp_orbit(z0, -30.0)) > 0.0  # the log-space gap survives
        assert flow(m1, z0, -400.0).disk_z is None
        p = m1.uhp_orbit(z0, -400.0)
        assert p.value() is None
        assert uhp_log_disk_gap(p) == 0.0

    def test_parabolic_disk_chart_is_long_lived(self):
        m2 = by_name("sector-parabolic")
        base = m2.petals[0].base_default
        assert flow(m2, base, -1.0e8).disk_z is not None
        assert 0.0 < uhp_log_disk_gap(m2.uhp_orbit(base, -1.0e8)) < 1e-10

    def test_elliptic_overflow(self):
        # w_t = e^800 overflows, but its upper half-plane image
        # i sqrt(w_t + 1), of log modulus 400, is still a float; that image
        # leaves float range once Re L passes 700, at t = -1400.
        m3 = by_name("koebe-elliptic")
        assert m3.flow_omega(1.0 + 0j, -800.0) is None
        assert flow(m3, 1.0 + 0j, -800.0).disk_z is None
        q = m3.uhp_orbit(1.0 + 0j, -800.0).value()
        assert q is not None
        assert abs(q.real) <= 1e-15 * q.imag
        assert math.log(q.imag) == pytest.approx(400.0, rel=1e-15)
        assert m3.uhp_orbit(1.0 + 0j, -1399.0).value() is not None
        assert m3.uhp_orbit(1.0 + 0j, -1401.0).value() is None
        assert flow(m3, 1.0 + 0j, -1401.0).disk_z is None

    def test_koenigs_equation_after_transport(self):
        rng = random.Random(RNG_SEED + 2)
        m1, m2, m3 = catalog()
        for model in (m1, m2):
            for w in sample_petal_omega(model, model.petals[0], 5, rng):
                for t in (-3.0, 1.5):
                    pt = flow(model, w, t)
                    back = omega_of_disk(model, pt.disk_z)
                    assert abs(back - (w + t)) <= 1e-9 * max(1.0, abs(w + t))
        for w in sample_petal_omega(m3, m3.petals[0], 5, rng):
            for t in (-3.0, 1.5):
                pt = flow(m3, w, t)
                back = omega_of_disk(m3, pt.disk_z)
                target = cmath.exp(-m3.mu * t) * w
                assert abs(back - target) <= 1e-9 * max(1.0, abs(target))


class TestGenerator:
    def test_koebe_closed_form(self):
        m3 = by_name("koebe-elliptic")
        rng = random.Random(RNG_SEED)
        for _ in range(100):
            r = math.sqrt(rng.uniform(0.0, 0.9))
            z = r * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
            expected = -z * (1.0 - z) / (1.0 + z)
            assert abs(generator(m3, z) - expected) <= 1e-10 * max(1.0, abs(expected))

    def test_strip_slit_closed_form(self):
        # G = (1 - z)(1 + z^2)/(1 + z): h'(z) = 1/G, from the closed form
        # h(z) = log(1 - C(z)^2)/2 of the inverse chain.
        m1 = by_name("strip-slit")
        rng = random.Random(RNG_SEED)
        for _ in range(400):
            r = math.sqrt(rng.uniform(0.0, 0.9))
            z = r * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
            expected = (1.0 - z) * (1.0 + z * z) / (1.0 + z)
            assert abs(generator(m1, z) - expected) <= 1e-12 * max(1.0, abs(expected))

    def test_koebe_values(self):
        m3 = by_name("koebe-elliptic")
        assert generator(m3, 0j) == 0j
        assert generator(m3, 0.5 + 0j) == pytest.approx(-1.0 / 6.0, rel=1e-12)
        # z = 1 is the Cayley pole, refused before the walk.
        with pytest.raises(DomainError, match="point maps to the Cayley pole"):
            generator(m3, 1.0)

    def test_finite_difference_oracle(self):
        eps = 1e-5
        for model, petal in _model_petals():
            z0 = disk_of_uhp(model.chain.eval(petal.base_default))
            plus = flow(model, petal.base_default, eps).disk_z
            minus = flow(model, petal.base_default, -eps).disk_z
            fd = (plus - minus) / (2.0 * eps)
            assert abs(fd - generator(model, z0)) <= 1e-6

    def test_non_elliptic_reciprocal_identity(self):
        # G = 1/h' means G * dh/dz = 1; check via a finite difference of
        # the omega chart.
        m1 = by_name("strip-slit")
        z = disk_of_uhp(m1.chain.eval(1 + 1j * math.pi / 4))
        eps = 1e-6
        dh = (omega_of_disk(m1, z + eps) - omega_of_disk(m1, z - eps)) / (2.0 * eps)
        assert abs(generator(m1, z) * dh - 1.0) <= 1e-6

    @pytest.mark.parametrize("z", [2.0, 1.0000001, -1.0, 1j], ids=repr)
    def test_point_off_the_disk_refused(self, z):
        # Cayley would take it into the lower half-plane or onto its
        # boundary, and the chain would blame that image.
        for model in catalog():
            for fn in (generator, reference_generator):
                with pytest.raises(MapDomainError) as err:
                    fn(model, z)
                assert str(err.value) == f"{complex(z)!r} is outside the unit disk"
                assert err.value.step_index is None

    def test_non_finite_point_refused(self):
        # Cayley would turn it into nan + nan i and blame that point.
        for model in catalog():
            for z in (complex(math.inf, 0.0), complex(math.nan, 0.1), complex(0.2, -math.inf)):
                for fn in (generator, reference_generator):
                    with pytest.raises(MapDomainError) as err:
                        fn(model, z)
                    assert str(err.value) == f"{z!r} is outside the unit disk"
                    assert err.value.step_index is None


class TestRepellingDiagnostics:
    @pytest.mark.parametrize("name,label", [
        ("strip-slit", "upper"),
        ("strip-slit", "lower"),
        ("koebe-elliptic", "main"),
    ])
    def test_all_three_criteria(self, name, label):
        model = by_name(name)
        petal = model.petal(label)
        rng = random.Random(RNG_SEED)
        samples = sample_petal_omega(model, petal, 300, rng)
        report = repelling_diagnostics(model, petal, samples)
        assert report.min_julia_residual >= -1e-9
        assert abs(report.ratios[-1] + petal.lam) <= verify.RADIAL_LIMIT_TOL

    def test_generic_disk_samples_also_pass(self):
        # The two inequalities hold on the whole disk, not only on petals.
        rng = random.Random(RNG_SEED + 3)
        for name, label in [("strip-slit", "upper"), ("koebe-elliptic", "main")]:
            model = by_name(name)
            samples = []
            while len(samples) < 200:
                z = complex(rng.uniform(-0.95, 0.95), rng.uniform(-0.95, 0.95))
                if abs(z) < 0.95:
                    try:
                        w = omega_of_disk(model, z)
                    except Exception:
                        continue
                    samples.append(w)
            report = repelling_diagnostics(model, model.petal(label), samples)
            assert report.min_julia_residual >= -1e-9

    def test_koebe_herglotz_at_center(self):
        # The fixed point w = 0 is the disk centre.
        m3 = by_name("koebe-elliptic")
        report = repelling_diagnostics(m3, m3.petal("main"), [0j])
        # The Julia slack there is the Herglotz-type real part p(0), which
        # is -lam/2 = 1/4 for the Koebe model.
        assert report.min_julia_residual == pytest.approx(0.25, rel=1e-12)

    @pytest.mark.parametrize("name,label", [
        ("strip-slit", "upper"),
        ("strip-slit", "lower"),
        ("koebe-elliptic", "main"),
    ])
    def test_herglotz_real_part_is_the_julia_slack(self, name, label):
        # With |sigma| = 1, (conj(sigma) z - 1)(z - sigma) = conj(sigma)(sigma - z)^2
        # and Re((sigma + z)/(sigma - z)) = (1 - |z|^2)/|sigma - z|^2, so the
        # Herglotz-type real part, which the diagnostics do not read, is the
        # Julia slack that they do, sample by sample.
        model = by_name(name)
        petal = model.petal(label)
        sigma = model.disk_sigma(petal).value
        assert abs(sigma) == pytest.approx(1.0, abs=1e-15)
        samples = sample_petal_omega(model, petal, 1000, random.Random(RNG_SEED))
        julias = []
        for q in model.chain.eval_all(samples):
            z = disk_of_uhp(q)
            g = reference_generator(model, z)
            gap = sigma - z
            julia = (sigma * g / gap**2).real - 0.5 * petal.lam * (1.0 - abs(z) ** 2) / abs(gap) ** 2
            herglotz = reference_herglotz_real(sigma, petal.lam, z, g)
            assert abs(herglotz - julia) <= 1e-12 * max(1.0, abs(julia)), (z, herglotz, julia)
            julias.append(julia)
        report = repelling_diagnostics(model, petal, samples)
        assert report.min_julia_residual == pytest.approx(min(julias), rel=1e-9)

    # Each hyperbolic petal's radial ratio G(z)/(z - sigma) in closed form:
    # z/(1 + z) on koebe-elliptic, whose G is -z (1 - z)/(1 + z), and
    # (1 - z)(z - conj(sigma))/(1 + z) on strip-slit, whose G is
    # (1 - z)(1 + z^2)/(1 + z), with 1 + z^2 = (z - sigma)(z - conj(sigma)).
    @pytest.mark.parametrize("name,label,form", [
        pytest.param(name, label, form, id=f"{name}-{label}")
        for name, label, form in (
            ("strip-slit", "upper", lambda z, s: (1.0 - z) * (z - s.conjugate()) / (1.0 + z)),
            ("strip-slit", "lower", lambda z, s: (1.0 - z) * (z - s.conjugate()) / (1.0 + z)),
            ("koebe-elliptic", "main", lambda z, s: z / (1.0 + z)))])
    def test_radial_ratio_closed_form(self, name, label, form):
        model = by_name(name)
        petal = model.petal(label)
        report = repelling_diagnostics(model, petal, [petal.base_default])
        assert len(report.radial_points) == len(report.ratios) == 36
        for z, ratio in zip(report.radial_points, report.ratios):
            want = form(z, report.sigma_disk)
            assert abs(ratio - want) <= 1e-12 * abs(want), (z, ratio, want)

    @pytest.mark.parametrize("name,label", [
        ("strip-slit", "upper"),
        ("strip-slit", "lower"),
        ("koebe-elliptic", "main"),
    ])
    def test_radial_approach_is_never_refused(self, name, label):
        # z_k = sigma (1 - 2^-k) for k = 4 .. 39 on every petal, and no
        # point refused: on strip-slit C(z_k) lies about 2^-k from C(sigma)
        # = -+1, beyond the cut guard's 1e-12 through k = 39 alone.
        model = by_name(name)
        petal = model.petal(label)
        report = repelling_diagnostics(model, petal, [petal.base_default])
        sigma = report.sigma_disk
        assert list(semigroup.RADIAL_KS) == list(range(4, 40))
        assert report.radial_points == tuple(sigma * (1.0 - 2.0 ** -k) for k in range(4, 40))
        assert len(report.ratios) == 36
        assert all(map(cmath.isfinite, report.ratios))
        if name == "strip-slit":
            with pytest.raises(MapDomainError, match="of a branch cut"):
                generator(model, sigma * (1.0 - 2.0 ** -40), sigma)

    @pytest.mark.parametrize("name,label", [
        ("strip-slit", "upper"),
        ("strip-slit", "lower"),
        ("koebe-elliptic", "main"),
    ])
    def test_radial_ratios_match_mpmath(self, name, label):
        # Every ratio against G(z)/(z - sigma) from h = F^-1 o C in mpmath
        # at 60 digits.  On strip-slit the float q = C(z_k) keeps q -+ 1 only
        # to ulp(1), which left the ratios 3.6e-12 off at k = 19 and 4.2e-9
        # at k = 28 before the walk read q - C(sigma) apart.
        model = by_name(name)
        petal = model.petal(label)
        report = repelling_diagnostics(model, petal, [petal.base_default])
        assert len(report.ratios) == 36
        for z, ratio in zip(report.radial_points, report.ratios):
            want = mp_radial_ratio(model, z, report.sigma_disk)
            assert abs(ratio - complex(want)) <= 1e-12 * abs(want), (z, ratio, want)

    def test_generator_near_sigma_matches_the_plain_walk_inside(self):
        # Away from sigma the pair (C(sigma), offset) gives the float walk's
        # value to rounding: the two forms name one point.
        rng = random.Random(RNG_SEED + 7)
        for model, petal in _model_petals():
            if petal.kind != "hyperbolic":
                continue
            sigma = model.disk_sigma(petal).value
            for _ in range(100):
                r = math.sqrt(rng.uniform(0.0, 0.8))
                z = r * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
                plain = generator(model, z)
                assert abs(generator(model, z, sigma) - plain) <= 1e-12 * max(1.0, abs(plain))

    def test_parabolic_petal_rejected(self):
        m2 = by_name("sector-parabolic")
        with pytest.raises(DiagnosticError):
            repelling_diagnostics(m2, m2.petals[0], [0j])

    def test_no_samples_rejected(self):
        # With no sample both minima would stay inf and pass with no evidence.
        for name, label in [("strip-slit", "upper"), ("koebe-elliptic", "main")]:
            model = by_name(name)
            with pytest.raises(DiagnosticError, match="at least one sample"):
                repelling_diagnostics(model, model.petal(label), [])
            with pytest.raises(DiagnosticError, match="at least one sample"):
                repelling_diagnostics(model, model.petal(label), iter(()))

    @pytest.mark.parametrize("name,label", [
        ("strip-slit", "upper"),
        ("strip-slit", "lower"),
        ("koebe-elliptic", "main"),
    ])
    def test_forward_generator_matches_generator(self, monkeypatch, name, label):
        # The samples' G comes from one forward walk; at the same disk
        # points, generator walks the inverse chain.  Record each G the
        # shared list step returns, the samples' first.
        model = by_name(name)
        petal = model.petal(label)
        ws = sample_petal_omega(model, petal, 1000, random.Random(RNG_SEED + 5))
        seen = []
        real = semigroup._generator_from_chart

        def recording(*args):
            gs = real(*args)
            seen.extend(gs)
            return gs
        monkeypatch.setattr(semigroup, "_generator_from_chart", recording)
        repelling_diagnostics(model, petal, ws)
        monkeypatch.undo()
        assert len(seen) >= len(ws)
        worst = 0.0
        for w, g in zip(ws, seen):
            want = generator(model, disk_of_uhp(model.chain.eval(w)))
            worst = max(worst, abs(g - want) / abs(want))
        assert worst <= 1e-13

    def test_nan_derivative_raises(self, monkeypatch):
        # A NaN that the chain's list walk let through reaches no minimum:
        # the shared step refuses the non-finite G it makes.
        model = by_name("strip-slit")
        petal = model.petal("upper")
        real = ConformalChain.eval_and_derivative_all

        def planted(chain, ws):
            qs, dqs = real(chain, ws)
            dqs[1] = complex(math.nan, 0.0)
            return qs, dqs
        monkeypatch.setattr(ConformalChain, "eval_and_derivative_all", planted)
        ws = sample_petal_omega(model, petal, 10, random.Random(RNG_SEED))
        with pytest.raises(MapDomainError, match="generator left float range"):
            repelling_diagnostics(model, petal, ws)


_ITEM_2_WRONG = pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="ROADMAP item 2: the two orbit points' log coordinates are rounded "
           "apart before uhp_log_distance subtracts them")


class TestRegularityGap:
    def test_bounded_along_backward_orbit(self):
        m1 = by_name("strip-slit")
        petal = m1.petal("upper")
        gaps = regularity_gap(m1, petal, petal.base_default, [-10.0, -100.0, -1000.0])
        assert all(g > 0.0 for g in gaps)
        assert max(gaps) <= 2.0 * gaps[0]

    def test_translation_invariance_deep_tail(self):
        # Far down the petal the ambient metric degenerates to the petal's
        # own, so the gap settles at |lam|/2: 1 on strip-slit and 0.25 on
        # koebe-elliptic, still read at -1e15, where t - 1 is exact.
        for name, label, step in (("strip-slit", "upper", 1.0), ("strip-slit", "lower", 1.0),
                                  ("koebe-elliptic", "main", 0.25)):
            model = by_name(name)
            petal = model.petal(label)
            gaps = regularity_gap(model, petal, petal.base_default,
                                  [-(2.0 ** 12), -(2.0 ** 16), -1e15])
            assert gaps == pytest.approx([step] * 3, abs=1e-9), name

    @pytest.mark.parametrize("name,label,t,step", [
        pytest.param(name, label, -(2.0 ** k), step, marks=_ITEM_2_WRONG,
                     id=f"{name}-{label}-2^{k}")
        for name, label, step, ks in (("strip-slit", "upper", 1.0, (16, 24, 40, 50, 51)),
                                      ("strip-slit", "lower", 1.0, (16, 24, 40, 50, 51)),
                                      ("koebe-elliptic", "main", 0.25, (52,)))
        for k in ks])
    def test_step_at_binade_crossings(self, name, label, t, step):
        # At these times the orbit's log coordinates at t and t - 1 lie on
        # either side of a power of two (on strip-slit, Re w = 1 - 2^k and
        # -2^k), so they round at different sizes, and the step misses
        # |lam|/2: 1 + 1.5e-11 at -2^16, 1.000244 at -2^40, 0.75 at -2^50
        # and 1.5 at -2^51 on strip-slit, 0.5 at -2^52 on koebe-elliptic.
        model = by_name(name)
        petal = model.petal(label)
        gap, = regularity_gap(model, petal, petal.base_default, [t])
        assert gap == pytest.approx(step, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("t", [-(2.0 ** 53), -(2.0 ** 53 + 2.0), -1e300])
    def test_time_whose_step_rounds_raises(self, t):
        # Where t - 1 rounds to t (from 2^53 on) or two below it (at
        # -(2^53 + 2)), the two orbit points are not one time unit apart;
        # the step read 0.0 or 4.0 there instead of raising.
        for model, petal in _model_petals():
            with pytest.raises(PrecisionError, match="semigroup.regularity_gap"):
                regularity_gap(model, petal, petal.base_default, [t])

    def test_integer_time_past_float_range_raises(self):
        # float(-10**400) overflows: a typed error naming the layer, not a
        # bare OverflowError.
        for model, petal in _model_petals():
            with pytest.raises(DomainError, match="semigroup.regularity_gap: a time is past"):
                regularity_gap(model, petal, petal.base_default, [-1.0, -10 ** 400])

    def test_nondegenerate_at_origin_time(self):
        for model, petal in _model_petals():
            gaps = regularity_gap(model, petal, petal.base_default, [0.0])
            assert gaps[0] > 0.0

    def test_requires_petal_point(self):
        m1 = by_name("strip-slit")
        with pytest.raises(PetalRequiredError):
            regularity_gap(m1, m1.petal("upper"), 1.0 + 0j, [-1.0])

    def test_non_finite_base_or_time_rejected(self):
        m1 = by_name("strip-slit")
        petal = m1.petal("upper")
        with pytest.raises(PetalRequiredError):
            regularity_gap(m1, petal, complex(math.nan, 0.5), [-1.0])
        with pytest.raises(DomainError, match="orbit time must be finite"):
            regularity_gap(m1, petal, petal.base_default, [math.nan])
