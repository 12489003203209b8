"""Tests for elementary conformal map steps and chains."""

import cmath
import math
import random

import mpmath
import numpy as np
import pytest

from oracles import (
    ApproachRay,
    MobiusStep,
    push_boundary_point,
    segment_distance,
    reference_derivative,
    reference_eval,
    reference_eval_inverse,
    reference_generator,
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
)
from petallab.hypcore import CAYLEY_DISK_TO_UHP, BoundaryPoint, DomainError, INFINITY, Mobius
from petallab.models import MODEL_NAMES, by_name
from petallab.semigroup import generator

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
    return np.random.default_rng(414213562)


class TestSteps:
    def test_exp_at_zero(self):
        assert ExpStep().apply(0j) == 1.0

    def test_slit_close_example(self):
        got = SlitCloseStep().apply(1 + 1j)
        assert got == pytest.approx(SQRT_1_PLUS_2I, rel=1e-14)
        # the value squares back to (1+i)^2 + 1
        assert got * got == pytest.approx((1 + 1j) ** 2 + 1, rel=1e-14)

    def test_slit_close_branch_stays_upper(self):
        rng = _rng()
        for _ in range(200):
            z = complex(rng.uniform(-3, 3), rng.uniform(1e-6, 3.0))
            if SlitCloseStep().cut_distance(z) <= EPS_CUT:
                continue
            assert SlitCloseStep().apply(z).imag > 0.0, f"left the half-plane at {z}"

    def test_cayley_step(self):
        cayley = MobiusStep(Mobius(1.0, -1j, 1.0, 1j))  # z -> (z-i)/(z+i)
        assert cayley.apply(1j) == 0.0
        assert cayley.inverted().apply(0j) == pytest.approx(1j)

    @pytest.mark.parametrize("step,z", [
        (Affine(2.0 - 1j, 3j), 0.7 + 0.2j),
        (ExpStep(), 0.4 - 0.9j),
        (LogStep(math.pi), 2.0 + 1.5j),
        (PowerStep(2.0 / 3.0, 2.0 * math.pi), 1.0 + 2.0j),
        (MobiusStep(Mobius(2.0, 1j, 1.0, 4.0)), 0.3 + 0.8j),
        (SlitCloseStep(), 1.0 + 1.0j),
        (SlitOpenStep(), 2.0 + 1.0j),
    ])
    def test_step_inverse_round_trip(self, step, z):
        w = step.apply(z)
        assert abs(step.inverted().apply(w) - z) < 1e-11

    @pytest.mark.parametrize("step,z", [
        (Affine(2.0 - 1j, 3j), 0.7 + 0.2j),
        (ExpStep(), 0.4 - 0.9j),
        (LogStep(math.pi), 2.0 + 1.5j),
        (PowerStep(2.0 / 3.0, 2.0 * math.pi), 1.0 + 2.0j),
        (MobiusStep(Mobius(2.0, 1j, 1.0, 4.0)), 0.3 + 0.8j),
        (SlitCloseStep(), 1.0 + 1.0j),
        (SlitOpenStep(), 2.0 + 1.0j),
    ])
    def test_step_derivative_matches_finite_difference(self, step, z):
        # A step's one derivative: its value is apply's, bit for bit.
        value, d = step.value_and_derivative(z)
        assert value == step.apply(z)
        h = 1e-6
        fd = (step.apply(z + h) - step.apply(z - h)) / (2 * h)
        assert d == pytest.approx(fd, rel=1e-6)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            Affine(0.0, 1.0)
        with pytest.raises(ValueError):
            PowerStep(-0.5)

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
    ])
    def test_slit_cut_distances_match_segment_distance(self, step, a, b):
        # The closed forms against the general segment distance, on points
        # near the segment, across it, and around each end.
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
            assert abs(step.cut_distance(z) - segment_distance(z, a, b)) <= 1e-15, z

    def test_affine_value_and_derivative_is_apply_and_derivative(self):
        # The derivative of z -> a z + b is the constant a.
        rng = random.Random(57721)
        for a in (2.0 - 1j, 1j, -1.0 + 0j, 1e-200 + 3e-201j, 1e200 + 0j):
            step = Affine(a, complex(rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)))
            for _ in range(200):
                z = _polar(rng, (-300.0, 300.0), (-math.pi, math.pi))
                assert step.value_and_derivative(z) == (step.apply(z), step.a)


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
        # |w| past float range overflows the cut distance of step 1.
        chain = by_name("sector-parabolic").chain
        for fn in (chain.eval, chain.derivative):
            with pytest.raises(MapDomainError) as err:
                fn(1.5e308 + 1.5e308j)
            assert err.value.step_index == 1
            assert str(err.value) == "step 1: cut check failed: absolute value too large"

    def test_eval_overflow_reported(self):
        chain = ConformalChain((ExpStep(),), lambda z: True, "exp")
        with pytest.raises(MapDomainError) as err:
            chain.eval(800.0 + 0.5j)
        assert err.value.step_index == 0

    def test_inverse_without_preimage_rejected(self):
        # z^(1/2) maps the half-plane onto the first quadrant; points of the
        # second quadrant have no preimage under the inverse branch
        chain = ConformalChain((PowerStep(0.5, math.pi),),
                               lambda z: complex(z).imag > 0, "root")
        with pytest.raises(MapDomainError):
            chain.eval_inverse(-1.0 + 0.5j)

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
    """``eval_log`` agrees with ``eval`` wherever the image is a float."""

    @pytest.mark.parametrize("steps,source", [
        # a rotation and a scaling of a log point, then e^q of a log point
        ((ExpStep(), Affine(-1j, 0.5), Affine(2.0 - 1j, 0j), ExpStep(), Affine(1j, 0j)),
         lambda rng: complex(rng.uniform(-2.0, 0.0), rng.uniform(-1.0, 1.0))),
        # steps with no log form of their own, and a chain ending in a plain point
        ((Affine(1.0, 1j), LogStep(math.pi), SlitCloseStep(), SlitOpenStep(), Affine(1j, 0j)),
         lambda rng: complex(rng.uniform(0.5, 3.0), rng.uniform(-0.5, 0.5))),
        # a power of an anchored log point, on a branch other than the principal one
        ((ExpStep(), Affine(1.0, 2.0), PowerStep(0.5, 0.5)),
         lambda rng: complex(rng.uniform(-3.0, 1.0), rng.uniform(-1.0, 1.0))),
    ], ids=["rotations-and-exp", "plain-steps", "anchored-power"])
    def test_matches_eval(self, steps, source):
        chain = ConformalChain(steps, lambda z: True, "mixed")
        rng = random.Random(1618)
        for _ in range(200):
            w = source(rng)
            anchor, L = chain.eval_log(w)
            q = (anchor or 0.0) + cmath.exp(L)
            assert abs(q - chain.eval(w)) <= 1e-12 * max(1.0, abs(q)), w

    def test_log_input_far_beyond_float_range(self):
        # The elliptic catalog chain on w = e^a with Re a = 1e300.
        chain = by_name("koebe-elliptic").chain
        anchor, L = chain.eval_log(None, complex(1e300, 0.5))
        assert anchor is None
        assert L == complex(5e299, 0.25 + HALF_PI)


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
    # PowerStep(2)'s cut ray starts.
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


class TestWalkPlansMatchReference:
    """Every value and error of a chain's planned walk equals the
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
        rng = random.Random(20261018)
        (re_lo, re_hi), (im_lo, im_hi) = _SOURCE_BOX[name]
        sources = [complex(rng.uniform(re_lo, re_hi), rng.uniform(im_lo, im_hi))
                   for _ in range(self.N)]
        targets = [complex(rng.uniform(-5.0, 5.0), math.exp(rng.uniform(-20.0, 5.0)))
                   for _ in range(self.N)]
        disk = [(1.0 - math.exp(rng.uniform(-30.0, 0.0)))
                * cmath.exp(1j * rng.uniform(-math.pi, math.pi)) for _ in range(self.N)]
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
        # The derivative half of value_and_derivative fails; the error
        # names the step's evaluation, whichever half failed.
        ((ExpStep(),), 800.0 + 0.5j, "step 0: evaluation failed: math range error"),
        ((PowerStep(3.0),), 1e200 + 1e200j, "step 0: evaluation failed: math range error"),
        ((MobiusStep(Mobius(1.0, 0j, 1.0, -2.0)),), 2.0 + 0j,
         "step 0: evaluation failed: Mobius pole"),
        ((MobiusStep(Mobius(0j, 1.0, 1.0, 0j)),), 1e-200 + 0j,
         "step 0: evaluation failed: complex division by zero"),
        ((SlitCloseStep(),), -1j, "step 0: evaluation failed: complex division by zero"),
        # The derivative succeeds and only the image fails.
        ((PowerStep(1.5),), 1e250 + 1e250j, "step 0: evaluation failed: math range error"),
        ((LogStep(math.pi),), -1.5e308 + 1.5e308j,
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
                                LogStep(0.5)), lambda z: True, "mixed")
        assert [entry[2] is None for entry in chain._forward_plan] == [True, True, True, False]
        assert [entry[0] for entry in chain._inverse_plan] == [3, 2, 1, 0]
        assert [entry[2] is None for entry in chain._inverse_plan] == [True, True, False, True]
        # Inverse entries carry the cut of the forward step they invert.
        assert [entry[4] is None for entry in chain._forward_plan] == [True] * 4
        assert [entry[4] is None for entry in chain._inverse_plan] == [False, True, True, True]


class TestInverseAndDerivative:
    """``inverse_and_derivative`` raises at the first check of its one
    inverse walk that fails, the source check and the derivative's after
    the walk."""

    def test_forward_cut_is_checked_on_the_preimage(self):
        # ExpStep, the inverse of LogStep(pi), has no cut; exp(1 + i pi)
        # lands within rounding of LogStep's cut, the negative real axis.
        chain = ConformalChain((LogStep(math.pi),), lambda z: True, "log")
        q = 1.0 + 1j * math.pi
        got = _outcome(chain.inverse_and_derivative, q)
        assert got[:3] == ("error", MapDomainError, 0)
        assert got == _outcome(lambda q: chain.derivative(chain.eval_inverse(q)), q)

    def test_forward_cut_comes_before_the_source_check(self):
        chain = ConformalChain((LogStep(math.pi),), lambda z: z.real > 0.0, "log")
        got = _outcome(chain.inverse_and_derivative, 1.0 + 1j * math.pi)
        assert got[:3] == ("error", MapDomainError, 0)
        assert "of a branch cut" in got[3]

    def test_first_forward_cut_in_walk_order_is_raised(self):
        # Preimages z_2 = e^q = -2 and z_0 = e^{z_2 - i pi} = -e^-2 both
        # sit on a forward LogStep cut: the walk runs down the step indices
        # and meets step 2 first.
        chain = ConformalChain((LogStep(math.pi), Affine(1.0, 1j * math.pi), LogStep(math.pi)),
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
