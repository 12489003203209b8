"""Catalog of holomorphic flows with closed-form linearizing coordinates.

Each model packages a simply connected planar domain ``Omega``, the
conformal chain mapping it onto the upper half-plane, and the petals
(maximal invariant strips, half-planes, or sectors) attached to its
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
from typing import NamedTuple, Optional, Union

from .confmap import Affine, ConformalChain, ExpStep, PowerStep, SlitCloseStep
from .hypcore import (
    CAYLEY_UHP_TO_DISK,
    INFINITY,
    BoundaryPoint,
    DomainError,
    UhpLogPoint,
    strip_distance,
    uhp_distance,
)

HALF_PI = math.pi / 2.0


# ---------------------------------------------------------------------------
# Petal image shapes


class StripImage(NamedTuple):
    """Horizontal strip {lo < Im w < hi}."""

    lo: float
    hi: float

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def contains(self, w: complex) -> bool:
        return self.lo < w.imag < self.hi

    def distance(self, w1: complex, w2: complex) -> float:
        """Hyperbolic distance inside the strip."""
        if not (self.contains(w1) and self.contains(w2)):
            raise DomainError("both points must lie in the strip")
        # Rescale onto {|Im| < pi/2}; affine maps are hyperbolic isometries.
        scale = math.pi / self.width
        mid = 0.5j * (self.lo + self.hi)
        return strip_distance(scale * (w1 - mid), scale * (w2 - mid))


class HalfPlaneImage(NamedTuple):
    """Upper half-plane {Im w > floor}."""

    floor: float

    def contains(self, w: complex) -> bool:
        return w.imag > self.floor

    def distance(self, w1: complex, w2: complex) -> float:
        if not (self.contains(w1) and self.contains(w2)):
            raise DomainError("both points must lie in the half-plane")
        shift = 1j * self.floor
        return uhp_distance(w1 - shift, w2 - shift)


class SectorImage:
    """Angular sector {w != 0 : |arg(w e^{-i theta0})| < amplitude / 2}.

    Only real spectral values are catalogued, so the spiral sectors of the
    general elliptic theory degenerate to plain angular sectors here.
    """

    __slots__ = ("amplitude", "theta0")

    def __init__(self, amplitude: float, theta0: float) -> None:
        if not 0.0 < amplitude <= 2.0 * math.pi:
            raise ValueError("amplitude must lie in (0, 2*pi]")
        self.amplitude = amplitude
        self.theta0 = theta0

    def contains(self, w: complex) -> bool:
        w = complex(w)
        if w == 0:
            return False
        rel = cmath.phase(w * cmath.exp(-1j * self.theta0))
        return abs(rel) < 0.5 * self.amplitude

    def distance(self, w1: complex, w2: complex) -> float:
        if not (self.contains(w1) and self.contains(w2)):
            raise DomainError("both points must lie in the sector")
        # Straighten the sector onto the right half-plane, then rotate to
        # the upper one.  The relative argument stays inside (-pi, pi), so
        # the principal logarithm respects the sector's branch.
        power = math.pi / self.amplitude
        rot = cmath.exp(-1j * self.theta0)
        z1 = 1j * cmath.exp(power * cmath.log(w1 * rot))
        z2 = 1j * cmath.exp(power * cmath.log(w2 * rot))
        return uhp_distance(z1, z2)


PetalImage = Union[StripImage, HalfPlaneImage, SectorImage]


# ---------------------------------------------------------------------------
# Petals and models


class Petal:
    """Maximal one-sided invariant region attached to a boundary fixed point.

    ``kind`` is "hyperbolic" (repelling spectral value ``lam`` < 0) or
    "parabolic" (``lam`` is None).  ``sigma_canonical`` is the canonical
    image of the petal's distinguished boundary point: the repelling fixed
    point for hyperbolic petals, the Denjoy-Wolff point for parabolic ones.
    ``base_default`` is a reference interior point in Omega coordinates.
    """

    __slots__ = ("label", "kind", "lam", "sigma_canonical", "image", "base_default")

    def __init__(self, label: str, kind: str, lam: Optional[float],
                 sigma_canonical: BoundaryPoint, image: PetalImage,
                 base_default: complex) -> None:
        if kind not in ("hyperbolic", "parabolic"):
            raise ValueError("petal kind must be hyperbolic or parabolic")
        if (lam is None) != (kind == "parabolic"):
            raise ValueError("lam must be set exactly for hyperbolic petals")
        if lam is not None and lam >= 0.0:
            raise ValueError("repelling spectral value must be negative")
        self.label = label
        self.kind = kind
        self.lam = lam
        self.sigma_canonical = sigma_canonical
        self.image = image
        self.base_default = base_default

    def contains(self, w: complex) -> bool:
        return self.image.contains(complex(w))

    def distance(self, w1: complex, w2: complex) -> float:
        """Hyperbolic distance of the petal itself (not of Omega)."""
        return self.image.distance(complex(w1), complex(w2))


class KoenigsModel(NamedTuple):
    """A flow domain Omega with its canonical chain and petal inventory.

    ``kind`` is "hyperbolic", "parabolic", or "elliptic" and names the
    Denjoy-Wolff dynamics of the induced disk semigroup.  The flow on
    Omega is ``w + t`` for non-elliptic kinds and ``exp(-mu t) w`` for the
    elliptic one.  ``chain`` maps Omega onto the upper half-plane, the
    canonical domain of every model.  ``dw_point`` is the canonical image
    of the Denjoy-Wolff point; elliptic models store it as a plain
    interior complex number, the others as a boundary point.
    """

    name: str
    kind: str
    mu: float
    chain: ConformalChain
    petals: tuple[Petal, ...]
    dw_point: Union[BoundaryPoint, complex]

    def contains(self, w: complex) -> bool:
        """Whether w lies in Omega."""
        return self.chain.source_contains(complex(w))

    def petal_of(self, w: complex) -> Optional[Petal]:
        """The petal whose image contains w, or None."""
        w = complex(w)
        if not self.contains(w):
            raise DomainError(f"{w} is not in the domain of {self.name}")
        for petal in self.petals:
            if petal.contains(w):
                return petal
        return None

    def petal(self, label: str) -> Petal:
        """Look up a petal by its label."""
        for petal in self.petals:
            if petal.label == label:
                return petal
        raise KeyError(f"{self.name} has no petal {label!r}")

    def flow_omega(self, w: complex, t: float) -> Optional[complex]:
        """Time-t image of w in Omega coordinates.

        Elliptic scaling overflows floats for large backward times; None
        signals a point that exists but is not float-representable.
        """
        w = complex(w)
        if self.kind == "elliptic":
            x = -self.mu * t
            if x > 700.0:
                return None
            return cmath.exp(x) * w
        return w + t

    def uhp_orbit(self, w0: complex, t: float) -> UhpLogPoint:
        """Canonical orbit point at time t in anchored logarithmic form.

        The chain's log walk starts from the flow's first point: w0 + t
        for translation, log w0 - mu t for scaling, which stays exact far
        beyond the float range of w_t itself.
        """
        w0 = complex(w0)
        if self.kind != "elliptic":
            w = w0 + t
            if not self.chain.source_contains(w):
                raise DomainError(f"orbit point {w} left the domain")
            return UhpLogPoint(*self.chain.eval_log(w))
        if w0 == 0:
            raise DomainError("the fixed point has no canonical orbit chart")
        a = cmath.log(w0) - self.mu * t  # log of w_t; the orbit ray has constant argument
        # Only an orbit on the negative axis meets the slit (-inf, -1].
        if w0.imag == 0.0 and w0.real < 0.0 and a.real >= 0.0:
            raise DomainError(f"orbit point exp({a}) left the domain")
        return UhpLogPoint(*self.chain.eval_log(None, a))

    def canonical_of_omega(self, w: complex) -> complex:
        """Canonical coordinate of an Omega point."""
        return self.chain.eval(complex(w))

    def omega_of_canonical(self, q: complex) -> complex:
        """Omega coordinate of a canonical point."""
        return self.chain.eval_inverse(complex(q))

    def disk_of_omega(self, w: complex) -> complex:
        """Unit-disk coordinate of an Omega point."""
        z = CAYLEY_UHP_TO_DISK.apply(self.chain.eval(complex(w)))
        if z is None:
            raise DomainError("point maps to the Cayley pole")
        return z

    def disk_sigma(self, petal: Petal) -> BoundaryPoint:
        """Unit-disk image of a petal's distinguished boundary point."""
        return CAYLEY_UHP_TO_DISK.apply_boundary(petal.sigma_canonical)

    def uhp_eta_endpoint(self, petal: Petal) -> Optional[float]:
        """Boundary endpoint, in upper-half-plane coordinates, of the
        geodesic ray a backward orbit in this petal converges along.
        None encodes the point at infinity."""
        sigma = petal.sigma_canonical
        if sigma.is_infinity:
            return None
        return sigma.value.real


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
        kind="hyperbolic",
        lam=-2.0,
        sigma_canonical=BoundaryPoint(-1.0 + 0j),
        image=StripImage(0.0, HALF_PI),
        base_default=1.0 + 1j * math.pi / 4.0,
    )
    lower = Petal(
        label="lower",
        kind="hyperbolic",
        lam=-2.0,
        sigma_canonical=BoundaryPoint(1.0 + 0j),
        image=StripImage(-HALF_PI, 0.0),
        base_default=1.0 - 1j * math.pi / 4.0,
    )
    return KoenigsModel(
        name="strip-slit",
        kind="hyperbolic",
        mu=1.0,
        chain=chain,
        petals=(upper, lower),
        dw_point=INFINITY,
    )


# ---------------------------------------------------------------------------
# Model 2: parabolic three-quarter plane


def _sector_parabolic_contains(w: complex) -> bool:
    # Complement of the closed lower-left quadrant (origin included in it).
    return not (w.real <= 0.0 and w.imag <= 0.0)


def _make_sector_parabolic() -> KoenigsModel:
    chain = ConformalChain(
        steps=(Affine(1j, 0j), PowerStep(2.0 / 3.0, cut=2.0 * math.pi)),
        source_contains=_sector_parabolic_contains,
        name="sector-parabolic",
    )
    petal = Petal(
        label="main",
        kind="parabolic",
        lam=None,
        sigma_canonical=INFINITY,
        image=HalfPlaneImage(0.0),
        base_default=1j * math.e,
    )
    return KoenigsModel(
        name="sector-parabolic",
        kind="parabolic",
        mu=0.0,
        chain=chain,
        petals=(petal,),
        dw_point=INFINITY,
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
            PowerStep(0.5, cut=math.pi),
            Affine(1j, 0j),
        ),
        source_contains=_koebe_elliptic_contains,
        name="koebe-elliptic",
    )
    petal = Petal(
        label="main",
        kind="hyperbolic",
        lam=-0.5,
        sigma_canonical=INFINITY,
        image=SectorImage(amplitude=2.0 * math.pi, theta0=0.0),
        base_default=1.0 + 0j,
    )
    return KoenigsModel(
        name="koebe-elliptic",
        kind="elliptic",
        mu=1.0,
        chain=chain,
        petals=(petal,),
        dw_point=1j,
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

    Samples stay a safe margin away from the petal's edges so that chain
    evaluations and backward flows remain well conditioned.  ``rng`` needs
    only ``uniform(a, b)``, as ``random.Random`` has.
    """
    image = petal.image
    points: list[complex] = []
    if isinstance(image, StripImage):
        margin = 0.05 * image.width
        for _ in range(n):
            re = rng.uniform(-1.0, 3.0)
            im = rng.uniform(image.lo + margin, image.hi - margin)
            points.append(complex(re, im))
    elif isinstance(image, HalfPlaneImage):
        for _ in range(n):
            re = rng.uniform(-3.0, 3.0)
            im = image.floor + math.exp(rng.uniform(math.log(0.1), math.log(5.0)))
            points.append(complex(re, im))
    elif isinstance(image, SectorImage):
        half = 0.5 * image.amplitude
        for _ in range(n):
            r = math.exp(rng.uniform(-2.0, 2.0))
            theta = image.theta0 + rng.uniform(-0.9 * half, 0.9 * half)
            points.append(r * cmath.exp(1j * theta))
    else:
        raise TypeError(f"unknown petal image {image!r}")
    for w in points:
        if not (model.contains(w) and petal.contains(w)):
            raise DomainError(f"sampled point {w} escaped the petal")
    return points
