"""Tests for elementary conformal map steps and chains."""

import cmath
import math
import random
from functools import partial

import mpmath
import pytest

from oracles import (
    CAYLEY_DISK_TO_UHP,
    INFINITY,
    ApproachRay,
    BoundaryPoint,
    ForwardLogStep,
    Mobius,
    MobiusStep,
    apply_one,
    push_boundary_point,
    ray_distance,
    rotated_ray_distance,
    segment_distance,
    slit_close_cut_distance,
    slit_open_cut_distance,
    reference_apply,
    reference_cut_distance,
    reference_derivative,
    reference_eval,
    reference_eval_inverse,
    reference_generator,
    reference_value_and_derivative,
)
from petallab.confmap import (
    Affine,
    ConformalChain,
    EPS_CUT,
    ExpStep,
    LogStep,
    MapDomainError,
    PowerStep,
    SlitCloseStep,
    SlitOpenStep,
    _branch_log,
    _walk_all_with_derivative,
)
from petallab.hypcore import DomainError, disk_of_uhp
from petallab.models import (
    MODEL_NAMES,
    HalfPlaneImage,
    KoenigsModel,
    Petal,
    by_name,
    catalog,
)
from petallab.semigroup import generator, repelling_diagnostics

HALF_PI = math.pi / 2

# Frozen oracle (40-digit arithmetic): sqrt((1+i)^2 + 1) = sqrt(1 + 2i)
SQRT_1_PLUS_2I = 1.2720196495140690 + 0.7861513777574233j


def _in_strip_slit(w: complex) -> bool:
    w = complex(w)
    if abs(w.imag) >= HALF_PI:
        return False
    if w.imag == 0.0 and w.real <= 0.0:
        return False
    return True


def _strip_slit_chain() -> ConformalChain:
    return ConformalChain((ExpStep(), Affine(1j, 0j), SlitCloseStep()),
                          _in_strip_slit, "strip-slit")


def _rng():
    return random.Random(414213562)


class TestSteps:
    def test_exp_at_zero(self):
        assert apply_one(ExpStep(), 0j) == 1.0

    def test_slit_close_example(self):
        got = apply_one(SlitCloseStep(), 1 + 1j)
        assert got == pytest.approx(SQRT_1_PLUS_2I, rel=1e-14)
        # the value squares back to (1+i)^2 + 1
        assert got * got == pytest.approx((1 + 1j) ** 2 + 1, rel=1e-14)

    def test_slit_close_branch_stays_upper(self):
        rng = _rng()
        for _ in range(200):
            z = complex(rng.uniform(-3, 3), rng.uniform(1e-6, 3.0))
            if SlitCloseStep().cut_distance(z) <= EPS_CUT:
                continue
            assert apply_one(SlitCloseStep(), z).imag > 0.0, f"left the half-plane at {z}"

    def test_cayley_step(self):
        cayley = MobiusStep(Mobius(1.0, -1j, 1.0, 1j))  # z -> (z-i)/(z+i)
        assert apply_one(cayley, 1j) == 0.0
        assert apply_one(cayley.inverted(), 0j) == pytest.approx(1j)

    @pytest.mark.parametrize("step,z", [
        (Affine(2.0 - 1j, 3j), 0.7 + 0.2j),
        (ExpStep(), 0.4 - 0.9j),
        (PowerStep(1, 2), 2.0 + 1.5j),
        (PowerStep(2, 3, 2.0 * math.pi), 1.0 + 2.0j),
        (MobiusStep(Mobius(2.0, 1j, 1.0, 4.0)), 0.3 + 0.8j),
        (SlitCloseStep(), 1.0 + 1.0j),
        (SlitCloseStep(), 2.0 + 1.0j),
    ])
    def test_step_inverse_round_trip(self, step, z):
        w = apply_one(step, z)
        assert abs(apply_one(step.inverted(), w) - z) < 1e-11

    @pytest.mark.parametrize("step,z", [
        (Affine(2.0 - 1j, 3j), 0.7 + 0.2j),
        (ExpStep(), 0.4 - 0.9j),
        (LogStep(math.pi), 2.0 + 1.5j),
        (PowerStep(2, 3, 2.0 * math.pi), 1.0 + 2.0j),
        (MobiusStep(Mobius(2.0, 1j, 1.0, 4.0)), 0.3 + 0.8j),
        (SlitCloseStep(), 1.0 + 1.0j),
        (SlitOpenStep(), 2.0 + 1.0j),
    ])
    def test_step_derivative_matches_finite_difference(self, step, z):
        # A step's one derivative: its value is apply_all's, bit for bit.
        (value,), (d,) = step.value_and_derivative_all((z,))
        assert value == apply_one(step, z)
        h = 1e-6
        fd = (apply_one(step, z + h) - apply_one(step, z - h)) / (2 * h)
        assert d == pytest.approx(fd, rel=1e-6)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            Affine(0.0, 1.0)
        with pytest.raises(ValueError):
            PowerStep(-1, 2)
        with pytest.raises(ValueError):
            PowerStep(0.5, 1)

    def test_power_step_exponent_is_exact(self):
        # alpha = p / q is kept as two integers beside its float, and the
        # inverse swaps them: the catalog's 2/3 and 1/2 and their inverses.
        step = PowerStep(2, 3, 2.0 * math.pi)
        inverse = step.inverted()
        assert (step.p, step.q, step.alpha) == (2, 3, 2.0 / 3.0)
        assert (inverse.p, inverse.q, inverse.alpha, inverse.cut) == (3, 2, 1.5, step.cut)
        assert (PowerStep(1, 2).alpha, PowerStep(1, 2).inverted().alpha) == (0.5, 2.0)

    def test_branch_cut_distances(self):
        assert LogStep(math.pi).cut_distance(-2.0 + 0j) == pytest.approx(0.0)
        assert LogStep(math.pi).cut_distance(0j) == 0.0
        assert LogStep(math.pi).cut_distance(3.0 + 4.0j) == pytest.approx(5.0)
        assert SlitCloseStep().cut_distance(0.5j) == 0.0
        assert SlitCloseStep().cut_distance(1.0 + 1j) == pytest.approx(1.0)
        assert SlitOpenStep().cut_distance(0.5 + 0.25j) == pytest.approx(0.25)

    @pytest.mark.parametrize("step,a,b", [
        (SlitCloseStep(), 0j, 1j),
        (SlitOpenStep(), -1.0 + 0j, 1.0 + 0j),
        # A ray's cut: a is its origin and b a point on it.
        (LogStep(math.pi), 0j, -1.0 + 0j),
        (PowerStep(2, 3, 2.0 * math.pi), 0j, 1.0 + 0j),
    ])
    def test_slit_cut_distances_match_segment_distance(self, step, a, b):
        # The closed forms against the general segment (or ray) distance, on
        # points near the cut, across it, and around each end; and bit for
        # bit against the min/max kernels, on those points and on signed
        # zeros, NaN, infinities and components near float range, where
        # both must give the same float or both raise OverflowError.
        if isinstance(step, (LogStep, PowerStep)):
            kernel = partial(rotated_ray_distance, rot=cmath.exp(-1j * step.cut))
            distance = partial(ray_distance, angle=step.cut)
        else:
            kernel = (slit_close_cut_distance if isinstance(step, SlitCloseStep)
                      else slit_open_cut_distance)
            distance = partial(segment_distance, a=a, b=b)
        rng = random.Random(161803)
        points = []
        for _ in range(2000):
            s = rng.uniform(-0.5, 1.5)
            off = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-16.0, 0.0)
            points.append(a + s * (b - a) + 1j * off * (b - a))
        for end in (a, b):
            points += [end + _polar(rng, (-16.0, 0.0), (-math.pi, math.pi)) for _ in range(1000)]
        points += [a, b, 0.5 * (a + b)]
        for z in points:
            assert abs(step.cut_distance(z) - distance(z)) <= 1e-15, z
        parts = (0.0, -0.0, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0, math.nan, math.inf, -math.inf,
                 1.7e308, -1.7e308)
        for z in points + [complex(x, y) for x in parts for y in parts]:
            try:
                want = kernel(z)
            except OverflowError:
                with pytest.raises(OverflowError):
                    step.cut_distance(z)
                continue
            got = step.cut_distance(z)
            assert got == want or (math.isnan(got) and math.isnan(want)), z

    @pytest.mark.parametrize("cut", [math.pi, 2.0 * math.pi, 0.0, 0.5 * math.pi, 1.0])
    def test_branch_log_against_phase_and_mpmath(self, cut):
        # Inside [cut - 2 pi, cut) the branch argument is the principal one,
        # bit for bit, so a small angle keeps every bit; elsewhere it is that
        # angle moved by 2 pi, rounded once.  Both against 50-digit mpmath,
        # away from the cut, where float and exact branches may differ and
        # every chain refuses the point anyway.
        rng = random.Random(314159)
        points = [1.0 + 1e-20j, 2.0 + 1e-10j, 1.0 - 1e-300j, -1.0 + 1e-15j, -1.0 - 1e-15j,
                  1j, -1j, -1.0 + 0j, 1.0 + 0j, 3e-200 + 4e-200j, 1e200 - 1e-100j]
        points += [_polar(rng, (-5.0, 5.0), (-math.pi, math.pi)) for _ in range(300)]
        points += [complex(rng.uniform(0.1, 10.0), rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-300.0, -1.0))
                   for _ in range(300)]
        low = cut - 2.0 * math.pi
        for z in points:
            got = _branch_log(z, cut)
            assert got.real == math.log(abs(z))
            a = cmath.phase(z)
            assert low <= got.imag <= cut, z
            if low <= a < cut:
                assert got.imag == a, z
            with mpmath.workdps(50):
                exact = mpmath.arg(mpmath.mpc(z))
                if abs(mpmath.sin((exact - cut) / 2)) < EPS_CUT:
                    continue
                while exact >= cut:
                    exact -= 2 * mpmath.pi
                while exact < low:
                    exact += 2 * mpmath.pi
                err = abs(got.imag - exact)
            assert err <= 4e-16 * max(abs(exact), 2.0 * math.pi * (not low <= a < cut)), (z, got)

    def test_branch_log_keeps_small_angles_on_a_cut_pi_chain(self):
        # koebe-elliptic maps w to the upper half-plane root q of
        # -q^2 - 1 = w through PowerStep(1, 2, pi); a point just off the
        # real axis keeps its tiny Re q.
        chain = by_name("koebe-elliptic").chain
        assert _branch_log(1.0 + 1e-20j, math.pi).imag == 1e-20
        for w in (1.0 + 1e-12j, 2.0 + 1e-10j, 0.5 - 1e-14j, 3.0 + 1e-200j):
            got = chain.eval(w)
            with mpmath.workdps(50):
                exact = mpmath.sqrt(-(mpmath.mpc(w) + 1))
                if exact.imag < 0:
                    exact = -exact
                assert abs(got.real - exact.real) <= 1e-15 * abs(exact.real), (w, got)
                assert abs(got.imag - exact.imag) <= 1e-15 * abs(exact.imag), (w, got)

    def test_affine_value_and_derivative_is_apply_and_derivative(self):
        # The derivative of z -> a z + b is the constant a.
        rng = random.Random(57721)
        for a in (2.0 - 1j, 1j, -1.0 + 0j, 1e-200 + 3e-201j, 1e200 + 0j):
            step = Affine(a, complex(rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)))
            for _ in range(200):
                z = _polar(rng, (-300.0, 300.0), (-math.pi, math.pi))
                assert step.value_and_derivative_all((z,)) == ([apply_one(step, z)], [step.a])


class TestChainEval:
    def test_forward_lands_in_target(self):
        chain = _strip_slit_chain()
        rng = _rng()
        count = 0
        for _ in range(1000):
            w = complex(rng.uniform(-4, 4), rng.uniform(-HALF_PI + 1e-3, HALF_PI - 1e-3))
            if not _in_strip_slit(w) or abs(w.imag) < 1e-3:
                continue
            q = chain.eval(w)
            assert q.imag > 0.0, f"image of {w} not in the half-plane"
            count += 1
        assert count > 500

    def test_round_trip_on_random_target_points(self):
        chain = _strip_slit_chain()
        rng = _rng()
        checked = 0
        while checked < 1000:
            q = complex(rng.uniform(-4, 4), math.exp(rng.uniform(-2, 2)))
            w = chain.eval_inverse(q)
            assert abs(chain.eval(w) - q) <= 1e-10 * max(1.0, abs(q))
            checked += 1

    def test_eval_rejects_outside_source(self):
        chain = _strip_slit_chain()
        with pytest.raises(MapDomainError):
            chain.eval(-1.0 + 0j)  # on the removed slit
        with pytest.raises(MapDomainError):
            chain.eval(2j)  # outside the strip

    def test_eval_rejects_near_cut_with_step_index(self):
        chain = _strip_slit_chain()
        # exp then rotation put this point 1e-14 from the upper slit
        bad = complex(math.log(0.5), 1e-14)
        with pytest.raises(MapDomainError) as err:
            chain.eval(bad)
        assert err.value.step_index == 2

    def test_overflowing_modulus_named_at_cut_check(self):
        # |w| past float range overflows the cut distance of step 1, a ray
        # cut; on the strip-slit inverse walk, that of step 2, a slit cut.
        chain = by_name("sector-parabolic").chain
        for fn in (chain.eval, chain.derivative):
            with pytest.raises(MapDomainError) as err:
                fn(1.5e308 + 1.5e308j)
            assert err.value.step_index == 1
            assert str(err.value) == "step 1: cut check failed: absolute value too large"
        chain = by_name("strip-slit").chain
        for fn in (chain.eval_inverse, chain.inverse_and_derivative):
            with pytest.raises(MapDomainError) as err:
                fn(1.5e308 + 1.5e308j)
            assert err.value.step_index == 2
            assert str(err.value) == "step 2: cut check failed: absolute value too large"

    def test_eval_overflow_reported(self):
        chain = ConformalChain((ExpStep(),), lambda z: True, "exp")
        with pytest.raises(MapDomainError) as err:
            chain.eval(800.0 + 0.5j)
        assert err.value.step_index == 0

    def test_inverse_without_preimage_rejected(self):
        # z^(1/2) maps the half-plane onto the first quadrant; points of the
        # second quadrant have no preimage under the inverse branch
        chain = ConformalChain((PowerStep(1, 2, math.pi),),
                               lambda z: complex(z).imag > 0, "root")
        with pytest.raises(MapDomainError):
            chain.eval_inverse(-1.0 + 0.5j)

    def test_eval_inverse_checks_the_forward_cut(self):
        # The inverted square root sends q to about -1 + 1e-13 i, within
        # EPS_CUT of PowerStep(1, 2)'s cut.  eval refuses that point's
        # preimage under the first step, and so must both inverse walks, at
        # the same step and with the same text.
        chain = by_name("koebe-elliptic").chain
        q = 1j * cmath.sqrt(-1.0 + 1e-13j)
        near_cut = apply_one(chain.steps[1].inverted(), apply_one(chain.steps[2].inverted(), q))
        assert chain.steps[1].cut_distance(near_cut) <= EPS_CUT
        got = _outcome(chain.eval_inverse, q)
        assert got == ("error", MapDomainError, 1,
                       f"step 1: {near_cut!r} is within {EPS_CUT:g} of a branch cut")
        assert got == _outcome(chain.inverse_and_derivative, q)
        assert got == _outcome(chain.eval, apply_one(chain.steps[0].inverted(), near_cut))
        assert got == _outcome(reference_eval_inverse, chain, q)

    def test_conformality_derivative_nonzero(self):
        chain = _strip_slit_chain()
        rng = _rng()
        for _ in range(200):
            w = complex(rng.uniform(-3, 3), rng.uniform(0.05, HALF_PI - 0.05))
            assert chain.derivative(w) != 0

    def test_chain_derivative_matches_central_difference(self):
        chain = _strip_slit_chain()
        h = 1e-6
        for w in (1.0 + 0.3j, -2.0 + 1.2j, 0.5 - 0.7j):
            fd = (chain.eval(w + h) - chain.eval(w - h)) / (2 * h)
            assert chain.derivative(w) == pytest.approx(fd, rel=1e-6)

    def test_exp_chain_inverse_example(self):
        chain = ConformalChain((ExpStep(), Affine(1j, 0j)),
                               lambda z: abs(complex(z).imag) < HALF_PI, "strip")
        assert chain.eval(0j) == pytest.approx(1j)
        assert chain.eval_inverse(1j) == pytest.approx(0j, abs=1e-14)


class TestEvalLog:
    """``eval_log`` agrees with ``eval`` wherever the image is a float, and
    refuses, naming the step, a point that a step's exact log form cannot
    take."""

    @pytest.mark.parametrize("steps,source", [
        # quarter turns and shifts of a log point, ending on a half turn
        ((ExpStep(), Affine(-1j, 0j), Affine(-1.0, 0.5), Affine(1j, 2.0)),
         lambda rng: complex(rng.uniform(-2.0, 1.0), rng.uniform(-3.0, 3.0))),
        # plain points turned and shifted, then a power of a plain point
        ((Affine(1.0, 1j), Affine(1j, 0j), PowerStep(2, 3, 2.0 * math.pi)),
         lambda rng: complex(rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0))),
        # a power of an anchored log point, on a branch other than the
        # principal one, after a half turn
        ((ExpStep(), Affine(-1.0, 2.0), PowerStep(1, 2, 0.5), Affine(1j, 0j)),
         lambda rng: complex(rng.uniform(-3.0, 1.0), rng.uniform(-1.0, 1.0))),
    ], ids=["rotations-and-exp", "plain-steps", "anchored-power"])
    def test_matches_eval(self, steps, source):
        chain = ConformalChain(steps, lambda z: True, "mixed")
        rng = random.Random(1618)
        for _ in range(200):
            w = source(rng)
            anchor, L, neg = chain.eval_log(w)
            q = (anchor or 0.0) + (-cmath.exp(L) if neg else cmath.exp(L))
            assert abs(q - chain.eval(w)) <= 1e-12 * max(1.0, abs(q)), w

    def test_log_input_far_beyond_float_range(self):
        # The elliptic catalog chain on w = e^a with Re a = 1e300.
        chain = by_name("koebe-elliptic").chain
        assert chain.eval_log(None, complex(1e300, 0.5)) == (
            None, complex(5e299, 0.25 + HALF_PI), False)
        # -e^a with a half turn: the angle's gap to pi is Im a itself.
        anchor, L, neg = chain.eval_log(None, complex(1e300, -1e-200), 2)
        assert (anchor, neg) == (None, True)
        assert L == complex(5e299, -5e-201)

    @pytest.mark.parametrize("steps,point,message", [
        ((ForwardLogStep(math.pi),), (0.5 + 1j, None, 0),
         "confmap.ForwardLogStep.apply_log: the step has no exact log form"),
        ((ExpStep(), Affine(2.0 - 1j, 0j)), (0.5j, None, 0),
         r"confmap.Affine.apply_log: multiplier \(2-1j\) is no quarter turn"),
        ((ExpStep(), ExpStep()), (0.5j, None, 0),
         "confmap.ExpStep.apply_log: e\\^q of a log point has no exact log form"),
        ((SlitCloseStep(),), (1.0, 0.5j, 1),
         r"confmap.SlitCloseStep.apply_log: needs z = i e\^L with \|Im L\| < pi/2"),
        ((Affine(1j, 1.0),), (0.5j, None, 0),
         "confmap.ConformalChain.eval_log: the walk ends on a plain point"),
    ], ids=["no-log-form", "affine-multiplier", "exp-of-log-point", "slit-anchor", "plain-end"])
    def test_no_exact_log_form_raises(self, steps, point, message):
        chain = ConformalChain(steps, lambda z: True, "mixed")
        with pytest.raises(MapDomainError, match=f"^{message}"):
            chain.eval_log(*point)


class TestBoundaryTransport:
    def test_strip_chain_right_end_to_disk_one(self):
        chain = ConformalChain((ExpStep(), MobiusStep(Mobius(1.0, -1.0, 1.0, 1.0))),
                               lambda z: abs(complex(z).imag) < HALF_PI, "strip-disk")
        got = push_boundary_point(chain, INFINITY, ApproachRay(0j, 10.0, outward=True))
        assert not got.is_infinity
        assert got.value == pytest.approx(1.0 + 0j, abs=1e-8)

    def test_slit_sides_split(self):
        sc = ConformalChain((SlitCloseStep(),),
                            lambda z: complex(z).imag > 0, "slit-close")
        right = push_boundary_point(sc, BoundaryPoint(0j), ApproachRay(0j, 0.1 + 0.1j))
        left = push_boundary_point(sc, BoundaryPoint(0j), ApproachRay(0j, -0.1 + 0.1j))
        assert right.value == pytest.approx(1.0 + 0j, abs=1e-8)
        assert left.value == pytest.approx(-1.0 + 0j, abs=1e-8)

    def test_slit_interior_point_sides(self):
        sc = ConformalChain((SlitCloseStep(),),
                            lambda z: complex(z).imag > 0, "slit-close")
        got = push_boundary_point(sc, BoundaryPoint(0.5j), ApproachRay(0.5j, 0.1 + 0j))
        assert got.value == pytest.approx(math.sqrt(0.75) + 0j, abs=1e-8)

    def test_identity_chain_fixes_boundary(self):
        ident = ConformalChain((Affine(1.0, 0j),), lambda z: True, "identity")
        got = push_boundary_point(ident, BoundaryPoint(2.0 + 0j), ApproachRay(2.0 + 0j, 1j))
        assert got.value == pytest.approx(2.0 + 0j, abs=1e-10)

    def test_end_at_infinity_detected(self):
        chain = _strip_slit_chain()
        got = push_boundary_point(chain, INFINITY,
                                  ApproachRay(1 + 0.25j * math.pi, 10.0, outward=True))
        assert got.is_infinity

    def test_ray_datum_consistency_enforced(self):
        chain = _strip_slit_chain()
        with pytest.raises(MapDomainError):
            push_boundary_point(chain, BoundaryPoint(0j), ApproachRay(0j, 1.0, outward=True))
        with pytest.raises(MapDomainError):
            push_boundary_point(chain, INFINITY, ApproachRay(0j, 1j))



def _outcome(fn, *args):
    """What a call produced: its value, or its error's type, step index and
    message."""
    try:
        return ("value", fn(*args))
    except Exception as exc:  # every error must match the reference's
        return ("error", type(exc), getattr(exc, "step_index", None), str(exc))


def _polar(rng, log10_r, theta):
    return 10.0 ** rng.uniform(*log10_r) * cmath.exp(1j * rng.uniform(*theta))


def _huge(rng):
    """A point whose modulus overflows a float, in any quadrant."""
    def part():
        return rng.choice((-1.0, 1.0)) * rng.uniform(1.3e308, 1.79e308)
    return complex(part(), part())


# Source boxes reaching a little past each catalog domain, so that some
# draws are refused at the source check.
_SOURCE_BOX = {
    "strip-slit": ((-30.0, 30.0), (-1.6, 1.6)),
    "sector-parabolic": ((-5.0, 5.0), (-5.0, 5.0)),
    "koebe-elliptic": ((-5.0, 5.0), (-5.0, 5.0)),
}

# (function, point sampler, step index of the cut) for points within
# EPS_CUT of each catalog chain's cuts, forward and inverse.
_TINY = (1e-14, 5e-13)


def _near_cut_cases(name):
    def signed(rng):
        return rng.choice((-1.0, 1.0)) * rng.uniform(*_TINY)

    if name == "strip-slit":
        # The slit (-inf, 0] closes at step 2; the target's real segment
        # [-1, 1] is SlitOpenStep's cut.
        return [
            ("eval", lambda rng: complex(rng.uniform(-5.0, -0.01), signed(rng)), 2),
            ("inverse", lambda rng: complex(rng.uniform(-0.99, 0.99), rng.uniform(*_TINY)), 2),
        ]
    if name == "sector-parabolic":
        # i w on the positive real axis, PowerStep's cut at 2 pi.
        return [
            ("eval", lambda rng: complex(rng.uniform(*_TINY), -rng.uniform(0.01, 5.0)), 1),
            ("inverse", lambda rng: complex(rng.uniform(0.01, 5.0), rng.uniform(*_TINY)), 1),
        ]
    # koebe-elliptic: w + 1 on the negative real axis; near q = 0 the
    # image -i q of the inverse rotation nears the origin, where
    # PowerStep(2, 1)'s cut ray starts.
    return [
        ("eval", lambda rng: complex(rng.uniform(-5.0, -1.01), signed(rng)), 1),
        ("inverse", lambda rng: rng.uniform(1e-14, 1e-12)
         * cmath.exp(1j * rng.uniform(0.4, math.pi - 0.4)), 1),
    ]


# (function, point sampler) far enough out that some steps overflow.
_OVERFLOW_CASES = {
    "strip-slit": [
        ("eval", lambda rng: complex(rng.uniform(700.0, 1000.0), rng.uniform(-1.5, 1.5))),
    ],
    "sector-parabolic": [
        ("eval", _huge),
        ("inverse", lambda rng: _polar(rng, (200.0, 308.0), (0.1, 3.0))),
    ],
    "koebe-elliptic": [
        ("eval", _huge),
    ],
}


def _seeded_points(name, n):
    """n seeded source points in the model's source box, n upper
    half-plane targets and n disk points, some of each failing."""
    rng = random.Random(20261018)
    (re_lo, re_hi), (im_lo, im_hi) = _SOURCE_BOX[name]
    sources = [complex(rng.uniform(re_lo, re_hi), rng.uniform(im_lo, im_hi))
               for _ in range(n)]
    targets = [complex(rng.uniform(-5.0, 5.0), math.exp(rng.uniform(-20.0, 5.0)))
               for _ in range(n)]
    disk = [(1.0 - math.exp(rng.uniform(-30.0, 0.0)))
            * cmath.exp(1j * rng.uniform(-math.pi, math.pi)) for _ in range(n)]
    return sources, targets, disk


class TestWalkPlansMatchReference:
    """Every value and error of a chain's walk equals the
    step-by-step reference walk in ``oracles``; the one-walk generator
    and ``inverse_and_derivative`` match its errors, and its values to
    rounding."""

    N = 1200

    @staticmethod
    def _pairs(chain):
        return {
            "eval": (chain.eval, lambda w: reference_eval(chain, w)),
            "derivative": (chain.derivative, lambda w: reference_derivative(chain, w)),
            "inverse": (chain.eval_inverse, lambda q: reference_eval_inverse(chain, q)),
        }

    def _assert_same(self, chain, kind, points):
        pairs = self._pairs(chain)
        names = ("eval", "derivative") if kind == "eval" else ("inverse",)
        outcomes = []
        for name in names:
            fn, ref = pairs[name]
            for x in points:
                got, want = _outcome(fn, x), _outcome(ref, x)
                assert got == want, f"{chain.name} {name}({x!r}): {got} != {want}"
                outcomes.append(got)
        return outcomes

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_seeded_points(self, name):
        model = by_name(name)
        chain = model.chain
        sources, targets, disk = _seeded_points(name, self.N)
        outcomes = self._assert_same(chain, "eval", sources)
        outcomes += self._assert_same(chain, "inverse", targets)
        outcomes += _assert_inverse_walk_matches(chain, targets)
        # G now comes from one inverse walk, so it is no longer bitwise the
        # reference's 1/h'(w); its errors still match, and its values meet
        # the closed form of dw/dq at 50 digits.
        worst = 0.0
        for z in disk:
            got, want = _outcome(generator, model, z), _outcome(reference_generator, model, z)
            assert got[0] == want[0], f"{name} generator({z!r}): {got} != {want}"
            if got[0] == "error":
                assert got[:3] == want[:3], f"{name} generator({z!r}): {got} != {want}"
            else:
                exact = _mp_generator(model, z)
                worst = max(worst, abs(got[1] - exact) / abs(exact))
            outcomes.append(got)
        assert worst <= 1e-11, f"{name}: relative error {worst:.2e}"
        values = sum(o[0] == "value" for o in outcomes)
        assert values >= 0.6 * len(outcomes)

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_near_each_cut(self, name):
        chain = by_name(name).chain
        rng = random.Random(314159)
        for kind, draw, index in _near_cut_cases(name):
            points = [draw(rng) for _ in range(200)]
            outcomes = self._assert_same(chain, kind, points)
            if kind == "inverse":
                outcomes += _assert_inverse_walk_matches(chain, points)
            for o in outcomes:
                assert o[:3] == ("error", MapDomainError, index), (kind, o)
                assert "of a branch cut" in o[3]

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_on_overflow(self, name):
        chain = by_name(name).chain
        rng = random.Random(271828)
        for kind, draw in _OVERFLOW_CASES[name]:
            points = [draw(rng) for _ in range(300)]
            outcomes = self._assert_same(chain, kind, points)
            if kind == "inverse":
                _assert_inverse_walk_matches(chain, points)
            errors = [o for o in outcomes if o[0] == "error"]
            # Every draw that overflows names its step, the cut check's
            # overflow included; only draws outside the source lack one.
            stepped = [o for o in errors if o[1] is MapDomainError and o[2] is not None]
            refused = [o for o in errors if "outside the source region" in o[3]]
            assert len(stepped) + len(refused) == len(errors), (kind, errors[:5])
            assert len(stepped) >= 100, (kind, outcomes[:5])

    @pytest.mark.parametrize("steps,w,message", [
        # The derivative half of value_and_derivative_all fails; the error
        # names the step's evaluation, whichever half failed.
        ((ExpStep(),), 800.0 + 0.5j, "step 0: evaluation failed: math range error"),
        ((PowerStep(3, 1),), 1e200 + 1e200j, "step 0: evaluation failed: math range error"),
        ((MobiusStep(Mobius(1.0, 0j, 1.0, -2.0)),), 2.0 + 0j,
         "step 0: evaluation failed: Mobius pole"),
        ((MobiusStep(Mobius(0j, 1.0, 1.0, 0j)),), 1e-200 + 0j,
         "step 0: evaluation failed: complex division by zero"),
        ((SlitCloseStep(),), -1j, "step 0: evaluation failed: complex division by zero"),
        # The derivative succeeds and only the image fails.
        ((PowerStep(3, 2),), 1e250 + 1e250j, "step 0: evaluation failed: math range error"),
        ((ForwardLogStep(math.pi),), -1.5e308 + 1.5e308j,
         "step 0: evaluation failed: absolute value too large"),
        ((Affine(1.0, 0j), ExpStep(), Affine(1j, 0j), SlitCloseStep()), 709.5 + 0.1j,
         "step 3: evaluation left float range"),
    ])
    def test_fused_step_failures(self, steps, w, message):
        chain = ConformalChain(steps, lambda z: True, "fused")
        got = _outcome(chain.derivative, w)
        assert got == _outcome(reference_derivative, chain, w)
        assert got[:2] == ("error", MapDomainError) and got[3] == message
        assert _outcome(chain.eval, w) == _outcome(reference_eval, chain, w)

    def test_cut_free_steps_skip_the_cut_check(self):
        chain = ConformalChain((Affine(2.0, 1j), ExpStep(), MobiusStep(Mobius(1.0, 1j, 0j, 1.0)),
                                ForwardLogStep(0.5)), lambda z: True, "mixed")
        assert [step.cut_distances is None for step in chain.steps] == [True, True, True, False]
        assert [i for i, _, _ in chain._inverse] == [3, 2, 1, 0]
        assert [step.cut_distances is None for _, step, _ in chain._inverse] == [
            True, True, False, True]
        # Inverse walks carry the forward step each of their steps inverts.
        assert [forward for _, _, forward in chain._forward] == [None] * 4
        assert [forward is chain.steps[i] for i, _, forward in chain._inverse] == [True] * 4
        # A point past float range overflows a cut check, which a cut-free
        # step does not make.
        huge = 1.5e308 + 1.5e308j
        assert _outcome(ConformalChain((Affine(0.5),), lambda z: True).eval_all, [huge]) == (
            "value", [0.5 * huge])
        log_chain = ConformalChain((ForwardLogStep(math.pi),), lambda z: True)
        assert _outcome(log_chain.eval_all, [huge]) == (
            "error", MapDomainError, 0, "step 0: cut check failed: absolute value too large")


def _bitwise(outcome):
    """An outcome with its value as ``repr``, which tells -0.0 from 0.0 and
    prints every bit of a float."""
    return (outcome[0], repr(outcome[1])) if outcome[0] == "value" else outcome


def _eval_and_derivative(chain, w):
    """The per-point term that ``eval_and_derivative_all`` stands for,
    raising the derivative walk's error where that walk fails."""
    dw = chain.derivative(w)
    return chain.eval(w), dw


def _value_derivative_pairs(chain, ws):
    """``eval_and_derivative_all``'s (values, derivatives) lists as one
    (value, derivative) pair a point, the shape of ``_eval_and_derivative``."""
    qs, dqs = chain.eval_and_derivative_all(ws)
    assert len(qs) == len(dqs) == len(ws)
    return list(zip(qs, dqs))


def _reference_eval_and_derivative(chain, w):
    """``_eval_and_derivative`` on the reference walk."""
    dw = reference_derivative(chain, w)
    return reference_eval(chain, w), dw


def _walk_position(chain, kind, outcome):
    """Where in its walk the check lies that raised a point's own error: -1
    before the walk, a step's place in walk order, len(steps) after it."""
    _, _, index, message = outcome
    n = len(chain.steps)
    if index is None:
        return -1 if "is outside the" in message else n
    return index if kind == "eval" else n - 1 - index


class TestListWalk:
    """Each list form returns the per-point calls' values bit for bit, and
    raises its one walk's error: the first failing check in walk order, so
    an error that a point failing at the earliest step raises alone."""

    @staticmethod
    def _forms(model, kind):
        """(list form, per-point call) pairs for the points of ``kind``:
        each list form against the chain's one-point call and against the
        reference walk, whose steps take the formulas kept in oracles."""
        chain = model.chain
        if kind == "eval":
            pairs = partial(_value_derivative_pairs, chain)
            return [(chain.eval_all, chain.eval),
                    (chain.eval_all, partial(reference_eval, chain)),
                    (pairs, partial(_eval_and_derivative, chain)),
                    (pairs, partial(_reference_eval_and_derivative, chain))]
        return [(chain.eval_inverse_all, chain.eval_inverse),
                (chain.eval_inverse_all, partial(reference_eval_inverse, chain))]

    def _assert_lists_match(self, model, kind, points, chunk=8):
        """The whole list, its points that succeed, each chunk of it and
        each point alone."""
        n = len(points)
        for list_form, call in self._forms(model, kind):
            alone = [_outcome(call, x) for x in points]
            good = [i for i in range(n) if alone[i][0] == "value"]
            assert good
            chunks = [range(i, min(i + chunk, n)) for i in range(0, n, chunk)]
            for idx in [range(n), good, []] + chunks + [[i] for i in range(n)]:
                xs, outcomes = [points[i] for i in idx], [alone[i] for i in idx]
                got = _outcome(list_form, xs)
                failed = [o for o in outcomes if o[0] == "error"]
                if not failed:
                    want = ("value", [o[1] for o in outcomes])
                    assert _bitwise(got) == _bitwise(want), f"{model.name} {kind}: {got} != {want}"
                    continue
                first = min(_walk_position(model.chain, kind, o) for o in failed)
                earliest = [o for o in failed if _walk_position(model.chain, kind, o) == first]
                assert got[:2] == ("error", MapDomainError), got
                assert got in earliest, f"{model.name} {kind}: {got} not in {earliest[:3]}"

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_seeded_points(self, name):
        model = by_name(name)
        sources, targets, _ = _seeded_points(name, 600)
        self._assert_lists_match(model, "eval", sources)
        self._assert_lists_match(model, "inverse", targets)

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_near_each_cut(self, name):
        model = by_name(name)
        rng = random.Random(314159)
        sources, targets, _ = _seeded_points(name, 40)
        for kind, draw, _ in _near_cut_cases(name):
            near = [draw(rng) for _ in range(40)]
            mixed = [x for pair in zip(sources if kind == "eval" else targets, near) for x in pair]
            self._assert_lists_match(model, kind, mixed)

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_on_overflow(self, name):
        model = by_name(name)
        rng = random.Random(271828)
        sources, targets, _ = _seeded_points(name, 60)
        for kind, draw in _OVERFLOW_CASES[name]:
            far = [draw(rng) for _ in range(60)]
            mixed = [x for pair in zip(sources if kind == "eval" else targets, far) for x in pair]
            self._assert_lists_match(model, kind, mixed)

    @pytest.mark.parametrize("chain,targets", [
        # dw/dq = 1e-400 would underflow to 0, which eval_inverse does not form.
        (ConformalChain((Affine(1e200), Affine(1e200)), lambda z: True, "scale"), [1j, 2j]),
        # e^(1 + 2i) has a negative real part: no preimage in the source.
        (ConformalChain((ForwardLogStep(math.pi),), lambda z: z.real > 0.0, "log"),
         [0.1 + 0.5j, 1.0 + 2.0j, 0.5 + 1.0j]),
    ], ids=["vanishing-derivative", "no-preimage"])
    def test_checks_after_the_walk(self, chain, targets):
        for xs in (targets, targets[::-1], targets[:1]):
            got = _bitwise(_outcome(chain.eval_inverse_all, xs))
            assert got == _bitwise(_outcome(lambda xs: [chain.eval_inverse(x) for x in xs], xs)), xs

    def test_vanishing_derivative(self):
        # dq/dw = 1e-400 underflows to 0 at every point, though each image
        # is a finite float: the derivative check after the walk refuses it.
        chain = ConformalChain((Affine(1e-200), Affine(1e-200)), lambda z: True, "scale")
        call = partial(_eval_and_derivative, chain)
        for ws in ([1e200j, 2e200j], [2e200j, 1e200j], [1e200j]):
            got = _outcome(partial(_value_derivative_pairs, chain), ws)
            assert got == ("error", MapDomainError, None, "derivative vanished or left float range")
            assert _bitwise(got) == _bitwise(_outcome(lambda ws: [call(w) for w in ws], ws))
        with pytest.raises(MapDomainError, match="^derivative vanished or left float range$"):
            _walk_all_with_derivative(chain._forward, [1e200j, 2e200j])
        assert _outcome(chain.eval_all, [1e200j, 2e200j]) == ("value", [1e-200j, 2e-200j])

    def test_generator_left_float_range(self):
        # dq/dw = 1e308: near q = 0, where |C'(z)| is about 1/2, G = F'/C'
        # passes the largest float.  The samples' forward walk and
        # generator's inverse walk refuse it alike; at the disk centre
        # (q = i), G = -5e307 i.
        chain = ConformalChain((Affine(1e308),), lambda z: True, "scaled")
        petal = Petal("p", -2.0, -1.0, HalfPlaneImage(), 1j)
        model = KoenigsModel("scaled", "hyperbolic", 1.0, chain, (petal,))
        w_good, w_bad = 1j / 1e308, 1e-3j / 1e308
        refused = ("error", MapDomainError, None, "generator left float range")
        assert _outcome(repelling_diagnostics, model, petal, [w_good, w_bad]) == refused
        assert _outcome(generator, model, disk_of_uhp(chain.eval(w_bad))) == refused
        assert _outcome(generator, model, 0j) == ("value", -5e307j)

    def test_earliest_step_wins_over_an_earlier_point(self):
        # The list walk raises at the first check that fails in walk order,
        # whatever the order of the points that fail: the overflow fails
        # step 0 of the forward walks, the point near the slit step 2.
        model = by_name("strip-slit")
        good, near_slit, overflow = 1.0 + 0.5j, -2.0 + 1e-14j, 800.0 + 0.5j
        for list_form, call in self._forms(model, "eval"):
            assert _outcome(call, near_slit)[:3] == ("error", MapDomainError, 2)
            for ws in ([good, near_slit, overflow], [good, overflow, near_slit]):
                assert _outcome(list_form, ws) == _outcome(call, overflow) == (
                    "error", MapDomainError, 0, "step 0: evaluation failed: math range error")
        # -1j is refused before the walk, -0.5 + 1e-14j at its first step, step 2.
        near_segment, below = -0.5 + 1e-14j, -1j
        for list_form, call in self._forms(model, "inverse"):
            assert _outcome(call, near_segment)[:3] == ("error", MapDomainError, 2)
            for qs in ([1j, near_segment, below], [1j, below, near_segment]):
                assert _outcome(list_form, qs) == _outcome(call, below)


def _catalog_steps():
    """(id, step, kind) for each catalog chain's steps, walked forward on
    source points, and their inverses, walked on target points."""
    out = []
    for model in catalog():
        for i, step in enumerate(model.chain.steps):
            out.append((f"{model.name}-{i}", step, "eval", model, i))
            out.append((f"{model.name}-{i}-inverse", step.inverted(), "inverse", model, i))
    return out


# Components of points fed to every step as they are: signed zeros, NaN,
# infinities and components next to float range.
_PARTS = (0.0, -0.0, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0, math.nan, math.inf, -math.inf,
          1.7e308, -1.7e308, 1e-300, -1e-300)


def _step_inputs(model, kind, index):
    """Points that reach step ``index`` of the model's ``kind`` walk: seeded
    points, points within EPS_CUT of a cut and overflowing points pushed
    through the steps before it by their one-point formulas, with no check
    on the way; a point whose formula raises stops there."""
    rng = random.Random(57721)
    sources, targets, _ = _seeded_points(model.name, 300)
    points = sources if kind == "eval" else targets
    for case_kind, draw, _ in _near_cut_cases(model.name):
        if case_kind == kind:
            points += [draw(rng) for _ in range(60)]
    for case_kind, draw in _OVERFLOW_CASES[model.name]:
        if case_kind == kind:
            points += [draw(rng) for _ in range(60)]
    steps = model.chain.steps
    before = (steps[:index] if kind == "eval"
              else [steps[i].inverted() for i in reversed(range(index + 1, len(steps)))])
    reached = []
    for z in points:
        try:
            for step in before:
                z = reference_apply(step, z)
        except (OverflowError, ZeroDivisionError, ValueError):
            continue
        reached.append(z)
    return reached + [complex(x, y) for x in _PARTS for y in _PARTS]


def _listed(fn, xs):
    """What a list kernel produced on xs: its values by ``repr``, which
    tells -0.0 from 0.0 and prints every bit, or its error's type and
    message."""
    try:
        return ("value", repr(fn(xs)))
    except Exception as exc:  # every error must match the formula's
        return ("error", type(exc), str(exc))


def _pointwise(fn, xs):
    """``_listed`` of the one-point formula fn taken at each of xs in turn."""
    return _listed(lambda xs: [fn(z) for z in xs], xs)


class TestStepKernels:
    """Each catalog step's list kernels give the one-point formulas kept in
    oracles bit for bit, on the whole list, on each run of eight and on
    each point alone; where points fail, a kernel raises the error of the
    first one, with its type and message."""

    @staticmethod
    def _lists(points, chunk=8):
        return [points] + [points[i:i + chunk] for i in range(0, len(points), chunk)] + [
            [z] for z in points]

    @pytest.mark.parametrize("sid,step,kind,model,index", _catalog_steps(),
                             ids=[c[0] for c in _catalog_steps()])
    def test_kernels_match_the_formulas(self, sid, step, kind, model, index):
        points = _step_inputs(model, kind, index)
        outcomes = []
        for xs in self._lists(points):
            got = _listed(step.apply_all, xs)
            assert got == _pointwise(partial(reference_apply, step), xs), (sid, xs[:4])
            outcomes.append(got)
            got = _listed(lambda xs: list(zip(*step.value_and_derivative_all(xs))), xs)
            want = _pointwise(partial(reference_value_and_derivative, step), xs)
            assert got == want, (sid, xs[:4])
            if step.cut_distances is None:
                assert all(reference_cut_distance(step, z) is None for z in xs)
            else:
                want = _pointwise(partial(reference_cut_distance, step), xs)
                assert _listed(step.cut_distances, xs) == want, (sid, xs[:4])
        singles = outcomes[-len(points):]
        assert sum(o[0] == "value" for o in singles) >= len(points) // 2, sid


class TestNonFinitePoints:
    """A point that is not finite lies in no source or target region: the
    region check refuses it, naming the point as given, before any step."""

    SOURCES = (complex(math.nan, 0.5), complex(math.inf, 0.5), complex(-math.inf, 0.5),
               complex(0.5, math.nan), complex(1.0, math.inf), complex(math.nan, math.nan))
    TARGETS = (complex(math.inf, 0.5), complex(math.nan, 0.5), complex(-math.inf, 2.0),
               complex(0.5, math.inf), complex(math.inf, math.inf))

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_region_checks_refuse_them(self, name):
        chain = by_name(name).chain
        for w in self.SOURCES:
            want = ("error", MapDomainError, None, f"{w!r} is outside the source region of {name}")
            for fn in (chain.eval, chain.derivative, partial(reference_eval, chain),
                       partial(reference_derivative, chain)):
                assert _outcome(fn, w) == want, (fn, w)
            for fn in (chain.eval_all, chain.eval_and_derivative_all):
                assert _outcome(fn, [1.0 + 0.5j, w]) == want, (fn, w)
        for q in self.TARGETS:
            want = ("error", MapDomainError, None, f"{q!r} is outside the upper half-plane")
            for fn in (chain.eval_inverse, chain.inverse_and_derivative,
                       partial(reference_eval_inverse, chain)):
                assert _outcome(fn, q) == want, (fn, q)
            assert _outcome(chain.eval_inverse_all, [1j, q]) == want, q


class TestInverseAndDerivative:
    """``inverse_and_derivative`` raises at the first check of its one
    inverse walk that fails, the source check and the derivative's after
    the walk."""

    def test_forward_cut_is_checked_on_the_preimage(self):
        # ExpStep, the inverse of LogStep(pi), has no cut; exp(1 + i pi)
        # lands within rounding of LogStep's cut, the negative real axis.
        chain = ConformalChain((ForwardLogStep(math.pi),), lambda z: True, "log")
        q = 1.0 + 1j * math.pi
        got = _outcome(chain.inverse_and_derivative, q)
        assert got[:3] == ("error", MapDomainError, 0)
        assert got == _outcome(lambda q: chain.derivative(chain.eval_inverse(q)), q)

    def test_forward_cut_comes_before_the_source_check(self):
        chain = ConformalChain((ForwardLogStep(math.pi),), lambda z: z.real > 0.0, "log")
        got = _outcome(chain.inverse_and_derivative, 1.0 + 1j * math.pi)
        assert got[:3] == ("error", MapDomainError, 0)
        assert "of a branch cut" in got[3]

    def test_first_forward_cut_in_walk_order_is_raised(self):
        # Preimages z_2 = e^q = -2 and z_0 = e^{z_2 - i pi} = -e^-2 both
        # sit on a forward LogStep cut: the walk runs down the step indices
        # and meets step 2 first.
        chain = ConformalChain((ForwardLogStep(math.pi), Affine(1.0, 1j * math.pi),
                                ForwardLogStep(math.pi)),
                               lambda z: True, "log-log")
        q = math.log(2.0) + 1j * math.pi
        got = _outcome(chain.inverse_and_derivative, q)
        assert got[:3] == ("error", MapDomainError, 2)
        assert "of a branch cut" in got[3]

    def test_vanishing_derivative_raises(self):
        # dw/dq = 1e-400 underflows to 0; the forward product overflows.
        chain = ConformalChain((Affine(1e200), Affine(1e200)), lambda z: True, "scale")
        got = _outcome(chain.inverse_and_derivative, 1j)
        assert got[:2] == ("error", MapDomainError)
        assert "vanished or left float range" in got[3]
        assert _outcome(reference_derivative, chain, 0j)[:2] == ("error", MapDomainError)

    def test_underflowing_derivative_raises(self):
        # The forward product 1e-400 underflows to 0; it raises, not 0.0.
        chain = ConformalChain((Affine(1e-200), Affine(1e-200)), lambda z: True, "shrink")
        got = _outcome(chain.derivative, 1j)
        assert got == ("error", MapDomainError, None, "derivative vanished or left float range")
        assert got == _outcome(reference_derivative, chain, 1j)

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_generator_never_returns_non_finite(self, name):
        model = by_name(name)
        for z in (1.0 - 2.0**-52, -1.0 + 2.0**-52, 1j * (1.0 - 2.0**-52), -1j * (1.0 - 2.0**-52),
                  1.0 - 1e-300j, -1.0 + 1e-300j):
            got = _outcome(generator, model, z)
            if got[0] == "value":
                assert cmath.isfinite(got[1])
            else:
                assert issubclass(got[1], DomainError), got


def _reference_inverse_and_derivative(chain, q):
    w = reference_eval_inverse(chain, q)
    return w, 1.0 / reference_derivative(chain, w)


def _assert_inverse_walk_matches(chain, points):
    """``inverse_and_derivative`` against ``eval_inverse`` then
    ``derivative`` on the reference walk: the same error type and step
    index, the preimage bitwise, the derivative to rounding."""
    outcomes = []
    for q in points:
        got = _outcome(chain.inverse_and_derivative, q)
        want = _outcome(_reference_inverse_and_derivative, chain, q)
        assert got[0] == want[0], f"{chain.name} inverse_and_derivative({q!r}): {got} != {want}"
        if got[0] == "error":
            assert got[:3] == want[:3], f"{chain.name} inverse_and_derivative({q!r}): {got} != {want}"
        else:
            (w, dw), (w_ref, dw_ref) = got[1], want[1]
            assert w == w_ref, (q, w, w_ref)
            assert abs(dw - dw_ref) <= 1e-9 * abs(dw_ref), (q, dw, dw_ref)
        outcomes.append(got)
    return outcomes


def _mp_generator(model, z):
    """G at the disk point z at 50 digits, from the closed form of dw/dq on
    q = C(z): q/(q^2 - 1) for strip-slit (q^2 = 1 - e^{2w}), -(3/2) i q^{1/2}
    for sector-parabolic (i w = q^{3/2}), -2 q for koebe-elliptic
    (w = -q^2 - 1)."""
    cay = CAYLEY_DISK_TO_UHP
    with mpmath.workdps(50):
        z = mpmath.mpc(z)
        q = (cay.a * z + cay.b) / (cay.c * z + cay.d)
        dc = cay.det / (cay.c * z + cay.d) ** 2
        if model.name == "strip-slit":
            num, dw = 1, q / (q * q - 1)
        elif model.name == "sector-parabolic":
            num, dw = 1, -1.5j * mpmath.sqrt(q)
        else:
            num, dw = -model.mu * (-q * q - 1), -2 * q
        return complex(num / (dw * dc))
