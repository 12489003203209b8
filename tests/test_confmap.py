"""Tests for elementary conformal map steps and chains."""

import cmath
import math

import numpy as np
import pytest

from oracles import ApproachRay, push_boundary_point
from petallab.confmap import (
    Affine,
    ConformalChain,
    EPS_CUT,
    ExpStep,
    LogStep,
    MapDomainError,
    MobiusStep,
    PowerStep,
    SlitCloseStep,
    SlitOpenStep,
)
from petallab.hypcore import CanonicalDomain, BoundaryPoint, INFINITY, Mobius

UHP = CanonicalDomain.UPPER_HALF_PLANE
DISK = CanonicalDomain.DISK
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
                          UHP, _in_strip_slit, "strip-slit")


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
    ])
    def test_step_derivative_matches_finite_difference(self, step, z):
        h = 1e-6
        fd = (step.apply(z + h) - step.apply(z - h)) / (2 * h)
        assert step.derivative(z) == pytest.approx(fd, rel=1e-6)

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

    def test_eval_overflow_reported(self):
        chain = ConformalChain((ExpStep(),), UHP, lambda z: True, "exp")
        with pytest.raises(MapDomainError) as err:
            chain.eval(800.0 + 0.5j)
        assert err.value.step_index == 0

    def test_inverse_without_preimage_rejected(self):
        # z^(1/2) maps the half-plane onto the first quadrant; points of the
        # second quadrant have no preimage under the inverse branch
        chain = ConformalChain((PowerStep(0.5, math.pi),), UHP,
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
        chain = ConformalChain((ExpStep(), Affine(1j, 0j)), UHP,
                               lambda z: abs(complex(z).imag) < HALF_PI, "strip")
        assert chain.eval(0j) == pytest.approx(1j)
        assert chain.eval_inverse(1j) == pytest.approx(0j, abs=1e-14)


class TestBoundaryTransport:
    def test_strip_chain_right_end_to_disk_one(self):
        chain = ConformalChain((ExpStep(), MobiusStep(Mobius(1.0, -1.0, 1.0, 1.0))),
                               DISK, lambda z: abs(complex(z).imag) < HALF_PI, "strip-disk")
        got = push_boundary_point(chain, INFINITY, ApproachRay(0j, 10.0, outward=True))
        assert not got.is_infinity
        assert got.value == pytest.approx(1.0 + 0j, abs=1e-8)

    def test_slit_sides_split(self):
        sc = ConformalChain((SlitCloseStep(),), UHP,
                            lambda z: complex(z).imag > 0, "slit-close")
        right = push_boundary_point(sc, BoundaryPoint(0j), ApproachRay(0j, 0.1 + 0.1j))
        left = push_boundary_point(sc, BoundaryPoint(0j), ApproachRay(0j, -0.1 + 0.1j))
        assert right.value == pytest.approx(1.0 + 0j, abs=1e-8)
        assert left.value == pytest.approx(-1.0 + 0j, abs=1e-8)

    def test_slit_interior_point_sides(self):
        sc = ConformalChain((SlitCloseStep(),), UHP,
                            lambda z: complex(z).imag > 0, "slit-close")
        got = push_boundary_point(sc, BoundaryPoint(0.5j), ApproachRay(0.5j, 0.1 + 0j))
        assert got.value == pytest.approx(math.sqrt(0.75) + 0j, abs=1e-8)

    def test_identity_chain_fixes_boundary(self):
        ident = ConformalChain((Affine(1.0, 0j),), UHP, lambda z: True, "identity")
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

