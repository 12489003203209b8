"""Catalog of holomorphic flows with closed-form linearizing coordinates.

Each model packages a simply connected planar domain ``Omega``, the
conformal chain mapping it onto the upper half-plane, and the petals
(maximal invariant strips, half-planes, or slit planes) attached to its
repelling boundary directions.  The flow acts on ``Omega`` by translation
``w + t`` (non-elliptic) or by scaling ``exp(-mu t) w`` (elliptic), so
every trajectory is available in closed form at any time.

Backward orbits escape to infinity in ``Omega`` while their canonical
images crash into a boundary point; ``uhp_orbit`` therefore walks the
chain in log space (``ConformalChain.eval_log``) and returns orbit points
in anchored logarithmic form (see ``hypcore.UhpLogPoint``), so that
hyperbolic distances stay computable long after the points themselves
stop being representable as floats.
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple, Optional

from .confmap import Affine, ConformalChain, ExpStep, PowerStep, SlitCloseStep
from .hypcore import (
    DomainError,
    PrecisionError,
    UhpLogPoint,
    disk_of_uhp_boundary,
    uhp_log_distance,
)

HALF_PI = math.pi / 2.0


# ---------------------------------------------------------------------------
# Petal image shapes: each is its membership test, its chart point in the
# upper half-plane (``uhp_point``, a ``UhpLogPoint`` with no anchor), and
# its sampler (``sample``, which draws n points from ``rng.random``, each
# coordinate as ``random.Random.uniform(lo, hi)`` would: lo + (hi - lo) r).


class StripImage(NamedTuple):
    """Horizontal strip {lo < Im w < hi}."""

    lo: float
    hi: float

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def contains(self, w: complex) -> bool:
        return self.lo < w.imag < self.hi

    def uhp_point(self, w: complex) -> UhpLogPoint:
        """w's image in the upper half-plane, e^L with L = pi (w - i lo) / width."""
        return UhpLogPoint(None, math.pi / self.width * (w - 1j * self.lo))

    def sample(self, n: int, rng) -> list[complex]:
        random = rng.random
        margin = 0.05 * self.width
        lo, hi = self.lo + margin, self.hi - margin
        span = hi - lo
        return [complex(-1.0 + 4.0 * random(), lo + span * random()) for _ in range(n)]


class HalfPlaneImage:
    """Upper half-plane {Im w > 0}."""

    def contains(self, w: complex) -> bool:
        return w.imag > 0.0

    def uhp_point(self, w: complex) -> UhpLogPoint:
        return UhpLogPoint(None, cmath.log(w))

    def sample(self, n: int, rng) -> list[complex]:
        random = rng.random
        lo = math.log(0.1)
        span = math.log(5.0) - lo
        return [complex(-3.0 + 6.0 * random(), math.exp(lo + span * random())) for _ in range(n)]


class SlitPlaneImage:
    """The plane slit along the closed negative axis, {w != 0 : |arg w| < pi}:
    the angular sector of opening 2 pi that koebe-elliptic's real spectral
    value gives (no spiral sector of the general elliptic theory is needed)."""

    def contains(self, w: complex) -> bool:
        return w != 0 and abs(cmath.phase(w)) < math.pi

    def uhp_point(self, w: complex) -> UhpLogPoint:
        """i sqrt(w), the square root that opens the slit plane.  Left of the
        imaginary axis it is -sqrt(-w) above the slit and sqrt(-w) below it,
        held by the log of sqrt(-w), whose angle keeps the small gap that
        arg w would lose next to pi."""
        if w.real < 0.0:
            return UhpLogPoint(None, 0.5 * cmath.log(-w), w.imag > 0.0)
        return UhpLogPoint(None, 0.5 * cmath.log(w) + 1j * HALF_PI)

    def sample(self, n: int, rng) -> list[complex]:
        random = rng.random
        lo = -0.9 * math.pi
        span = 0.9 * math.pi - lo
        return [math.exp(-2.0 + 4.0 * random()) * cmath.exp(1j * (lo + span * random()))
                for _ in range(n)]


# ---------------------------------------------------------------------------
# Petals and models


class Petal:
    """Maximal one-sided invariant region attached to a boundary fixed point.

    A petal stores its repelling spectral value ``lam`` (negative), or None
    for a parabolic petal; ``kind`` is read from it.  ``sigma_canonical`` is
    the canonical image of the petal's distinguished boundary point, a real
    float or None for infinity: the repelling fixed point for hyperbolic
    petals, the Denjoy-Wolff point for parabolic ones.  ``base_default`` is
    a reference interior point in Omega coordinates.
    """

    __slots__ = ("label", "lam", "sigma_canonical", "image", "base_default")

    def __init__(self, label: str, lam: Optional[float],
                 sigma_canonical: Optional[float],
                 image: StripImage | HalfPlaneImage | SlitPlaneImage,
                 base_default: complex) -> None:
        if lam is not None and lam >= 0.0:
            raise ValueError("repelling spectral value must be negative")
        self.label = label
        self.lam = lam
        self.sigma_canonical = sigma_canonical
        self.image = image
        self.base_default = base_default

    @property
    def kind(self) -> str:
        """The petal's type: "parabolic" when ``lam`` is None, else "hyperbolic"."""
        return "parabolic" if self.lam is None else "hyperbolic"

    def contains(self, w: complex) -> bool:
        return self.image.contains(complex(w))

    def distance(self, w1: complex, w2: complex) -> float:
        """Hyperbolic distance of the petal itself (not of Omega), read in
        the upper half-plane through the image's chart."""
        w1, w2 = complex(w1), complex(w2)
        image = self.image
        if not (image.contains(w1) and image.contains(w2)):
            raise DomainError(f"both points must lie in the petal {self.label!r}")
        return uhp_log_distance(image.uhp_point(w1), image.uhp_point(w2))


class BoundaryPoint(NamedTuple):
    """A petal's boundary point on the unit circle, as ``disk_sigma``
    returns it."""

    value: complex


class KoenigsModel(NamedTuple):
    """A flow domain Omega with its canonical chain and petal inventory.

    ``kind`` is "hyperbolic", "parabolic", or "elliptic" and names the
    Denjoy-Wolff dynamics of the induced disk semigroup.  The flow on
    Omega is ``w + t`` for non-elliptic kinds and ``exp(-mu t) w`` for the
    elliptic one.  ``chain`` maps Omega onto the upper half-plane, the
    canonical domain of every model.
    """

    name: str
    kind: str
    mu: float
    chain: ConformalChain
    petals: tuple[Petal, ...]

    def contains(self, w: complex) -> bool:
        """Whether w lies in Omega; never for a non-finite point."""
        w = complex(w)
        return cmath.isfinite(w) and self.chain.source_contains(w)

    def petal(self, label: str) -> Petal:
        """Look up a petal by its label."""
        for petal in self.petals:
            if petal.label == label:
                return petal
        raise KeyError(f"{self.name} has no petal {label!r}")

    def flow_omega(self, w: complex, t: float) -> Optional[complex]:
        """Time-t image of w in Omega coordinates.

        Elliptic scaling overflows floats for large backward times; None
        signals a point that exists but is not float-representable.  An
        integer t past float range raises ``DomainError``.
        """
        w = complex(w)
        try:
            if self.kind == "elliptic":
                x = -self.mu * t
                if x > 700.0:
                    return None
                return cmath.exp(x) * w
            return w + t
        except OverflowError:
            raise DomainError("models.flow_omega: time is past float range") from None

    def uhp_orbit(self, w0: complex, t: float) -> UhpLogPoint:
        """Canonical orbit point at time t in anchored logarithmic form.

        The chain's log walk starts from the flow's first point: w0 + t
        for translation, log w0 - mu t for scaling, which stays exact far
        beyond the float range of w_t itself; left of the imaginary axis
        it starts from log(-w0) - mu t with a half turn, so that an angle
        next to the slit keeps its gap.  The walk's turns end as the
        point's sign.  A t that is no finite float (nan, inf, or an integer
        past float range) raises ``DomainError``; a walked point the floats
        cannot hold (an angle's gap that underflowed to 0) raises
        ``PrecisionError`` naming the model, the base and t.
        """
        try:
            if not math.isfinite(t):
                raise DomainError(f"orbit time must be finite, got {t!r}")
        except OverflowError:
            raise DomainError("models.uhp_orbit: orbit time is past float range") from None
        w0 = complex(w0)
        if self.kind != "elliptic":
            w = w0 + t
            if not self.chain.source_contains(w):
                raise DomainError(f"orbit point {w} left the domain")
            walked = self.chain.eval_log(w)
        else:
            if w0 == 0:
                raise DomainError("the fixed point has no canonical orbit chart")
            # w_t = i^turns e^a; the orbit ray has constant argument.
            if w0.real < 0.0:
                a, turns = cmath.log(-w0) - self.mu * t, 2
            else:
                a, turns = cmath.log(w0) - self.mu * t, 0
            # Only an orbit on the negative axis meets the slit (-inf, -1].
            if w0.imag == 0.0 and w0.real < 0.0 and a.real >= 0.0:
                raise DomainError(f"orbit point -exp({a}) left the domain")
            walked = self.chain.eval_log(None, a, turns)
        try:
            return UhpLogPoint(*walked)
        except DomainError as exc:
            # The walk built an interior point that the floats cannot hold,
            # such as an angle whose gap to 0 or pi underflowed to 0.
            raise PrecisionError(
                f"models.uhp_orbit: {self.name} orbit from {w0!r} at t = {t!r}: {exc}"
            ) from None

    def disk_sigma(self, petal: Petal) -> BoundaryPoint:
        """Unit-disk image of a petal's distinguished boundary point.

        Always finite: Cayley sends every real point and infinity onto the
        unit circle."""
        return BoundaryPoint(disk_of_uhp_boundary(petal.sigma_canonical))


# ---------------------------------------------------------------------------
# Model 1: hyperbolic strip with a slit


def _strip_slit_contains(w: complex) -> bool:
    if abs(w.imag) >= HALF_PI:
        return False
    return not (w.imag == 0.0 and w.real <= 0.0)


def _make_strip_slit() -> KoenigsModel:
    chain = ConformalChain(
        steps=(ExpStep(), Affine(1j, 0j), SlitCloseStep()),
        source_contains=_strip_slit_contains,
        name="strip-slit",
    )
    upper = Petal(
        label="upper",
        lam=-2.0,
        sigma_canonical=-1.0,
        image=StripImage(0.0, HALF_PI),
        base_default=1.0 + 1j * math.pi / 4.0,
    )
    lower = Petal(
        label="lower",
        lam=-2.0,
        sigma_canonical=1.0,
        image=StripImage(-HALF_PI, 0.0),
        base_default=1.0 - 1j * math.pi / 4.0,
    )
    return KoenigsModel(
        name="strip-slit",
        kind="hyperbolic",
        mu=1.0,
        chain=chain,
        petals=(upper, lower),
    )


# ---------------------------------------------------------------------------
# Model 2: parabolic three-quarter plane


def _sector_parabolic_contains(w: complex) -> bool:
    # Complement of the closed lower-left quadrant (origin included in it).
    return not (w.real <= 0.0 and w.imag <= 0.0)


def _make_sector_parabolic() -> KoenigsModel:
    chain = ConformalChain(
        steps=(Affine(1j, 0j), PowerStep(2, 3, cut=2.0 * math.pi)),
        source_contains=_sector_parabolic_contains,
        name="sector-parabolic",
    )
    petal = Petal(
        label="main",
        lam=None,
        sigma_canonical=None,
        image=HalfPlaneImage(),
        base_default=1j * math.e,
    )
    return KoenigsModel(
        name="sector-parabolic",
        kind="parabolic",
        mu=0.0,
        chain=chain,
        petals=(petal,),
    )


# ---------------------------------------------------------------------------
# Model 3: elliptic Koebe domain


def _koebe_elliptic_contains(w: complex) -> bool:
    return not (w.imag == 0.0 and w.real <= -1.0)


def _make_koebe_elliptic() -> KoenigsModel:
    # i sqrt(w + 1); its Cayley image (s - 1)/(s + 1), s = sqrt(w + 1),
    # inverts the Koebe function 4 z / (1 - z)^2.
    chain = ConformalChain(
        steps=(
            Affine(1.0 + 0j, 1.0 + 0j),
            PowerStep(1, 2, cut=math.pi),
            Affine(1j, 0j),
        ),
        source_contains=_koebe_elliptic_contains,
        name="koebe-elliptic",
    )
    petal = Petal(
        label="main",
        lam=-0.5,
        sigma_canonical=None,
        image=SlitPlaneImage(),
        base_default=1.0 + 0j,
    )
    return KoenigsModel(
        name="koebe-elliptic",
        kind="elliptic",
        mu=1.0,
        chain=chain,
        petals=(petal,),
    )


# ---------------------------------------------------------------------------
# Catalog access


_CATALOG: tuple[KoenigsModel, ...] = (
    _make_strip_slit(),
    _make_sector_parabolic(),
    _make_koebe_elliptic(),
)

MODEL_NAMES: tuple[str, ...] = tuple(m.name for m in _CATALOG)


def catalog() -> tuple[KoenigsModel, ...]:
    """All registered models."""
    return _CATALOG


def by_name(name: str) -> KoenigsModel:
    """Look up a model by its registered name."""
    for model in _CATALOG:
        if model.name == name:
            return model
    raise KeyError(f"unknown model {name!r}; choose from {MODEL_NAMES}")


def sample_petal_omega(model: KoenigsModel, petal: Petal, n: int, rng) -> list[complex]:
    """Draw n interior sample points of a petal, in Omega coordinates.

    The petal's image draws them, a safe margin away from its edges so that
    chain evaluations and backward flows remain well conditioned.  ``rng``
    needs only ``random()``, as ``random.Random`` has.  A negative n raises
    ``DomainError``.
    """
    if n < 0:
        raise DomainError(f"models.sample_petal_omega: cannot draw {n!r} points")
    image = petal.image
    points = image.sample(n, rng)
    # model.contains(w) and petal.contains(w), for points already complex.
    isfinite, source_contains, image_contains = (
        cmath.isfinite, model.chain.source_contains, image.contains)
    for w in points:
        if not (isfinite(w) and source_contains(w) and image_contains(w)):
            raise DomainError(f"sampled point {w} escaped the petal")
    return points
