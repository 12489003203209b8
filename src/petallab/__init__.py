"""petallab: hyperbolic speed measurements along backward orbits of
holomorphic semigroups of the unit disk, built from closed-form models.

The package is organized bottom-up:

- ``hypcore``: hyperbolic distances on the disk and the half-plane, the
  Cayley map between them, and the log-anchored point type that tracks
  orbits far beyond float range.
- ``confmap``: invertible conformal map steps and chains onto the upper
  half-plane, with exact derivatives and a walk in log space.
- ``models``: the closed-form model catalog (one hyperbolic, one
  parabolic, one elliptic example) with petals and Koenigs coordinates;
  each petal image is its membership test, its log chart onto the
  half-plane, and its sampler.
- ``semigroup``: orbit points in the disk chart, the infinitesimal
  generator, and repelling-point diagnostics.
- ``speeds``: total, orthogonal, and tangential speed measurements with
  slope fitting.
- ``hmeasure``: harmonic measure of arcs and approach-angle estimation.
- ``bounds``: two-sided distance bounds from boundary-gap profiles.
- ``verify``: the one-shot numerical check suite; ``lab``: the CLI.
"""

# The public surface: what the demos, the README and the benchmark import,
# plus the typed errors those functions raise.  Everything else is reached
# through its module (``petallab.models``, ``petallab.speeds``, ...).
from .hypcore import DomainError
from .confmap import MapDomainError
from .models import by_name, catalog, sample_petal_omega
from .semigroup import (
    DiagnosticError,
    PetalRequiredError,
    flow,
    generator,
    repelling_diagnostics,
)
from .speeds import (
    EstimationError,
    dyadic_grid,
    slope_estimate,
    speed_sample,
    speed_series,
)
from .hmeasure import Arc, approach_angle
from .bounds import (
    bound_ratio_series,
    custom_profile,
    gaussian_profile,
    logrecip_profile,
    lower_bound,
    profile_from_table,
    upper_bound,
)
from .verify import run_all

__version__ = "0.1.0"

__all__ = [
    "DomainError",
    "MapDomainError",
    "by_name",
    "catalog",
    "sample_petal_omega",
    "DiagnosticError",
    "PetalRequiredError",
    "flow",
    "generator",
    "repelling_diagnostics",
    "EstimationError",
    "dyadic_grid",
    "slope_estimate",
    "speed_sample",
    "speed_series",
    "Arc",
    "approach_angle",
    "bound_ratio_series",
    "custom_profile",
    "gaussian_profile",
    "logrecip_profile",
    "lower_bound",
    "profile_from_table",
    "upper_bound",
    "run_all",
    "__version__",
]
