"""Every span target of the benchmark's tracer names a petallab callable.

``perfbench/tracing.py`` wraps each ``TARGETS`` entry by name: a method as
``cls.__dict__[attr]``, a function as a module attribute.  Renaming or
deleting a traced name would break only a traced benchmark run; this test
makes it fail here too.  ``TARGETS`` is read from the source, not
imported, so nothing under perfbench/ is executed or written.  A speed
sample must also still call the layers the benchmark's delay checks time,
through the names the tracer swaps, and the per-point paths it times
must pass their arguments straight through.
"""

import ast
import cmath
import importlib
import inspect
import math
import sys
import textwrap
from collections import Counter
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _targets():
    for node in ast.parse(TRACING.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["TARGETS"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACING} assigns no TARGETS")


TARGETS = _targets()


@pytest.mark.parametrize("label,module,attr,class_name", TARGETS, ids=[t[0] for t in TARGETS])
def test_trace_target_resolves(label, module, attr, class_name):
    mod = importlib.import_module(module)
    if class_name is None:
        assert callable(getattr(mod, attr, None)), f"{label}: {module}.{attr}"
    else:
        cls = getattr(mod, class_name)
        assert callable(cls.__dict__.get(attr)), f"{label}: {class_name}.__dict__[{attr!r}]"


def _count_calls(monkeypatch, counts, label):
    """Wrap one traced target as the tracer does, counting its calls: a
    method on its class, a function in every petallab module holding it."""
    _, module, attr, class_name = next(t for t in TARGETS if t[0] == label)
    mod = importlib.import_module(module)
    original = getattr(mod, class_name).__dict__[attr] if class_name else getattr(mod, attr)

    def counted(*args, **kwargs):
        counts[label] += 1
        return original(*args, **kwargs)

    if class_name is not None:
        monkeypatch.setattr(getattr(mod, class_name), attr, counted)
        return
    for name, held in list(sys.modules.items()):
        if name == "petallab" or name.startswith("petallab."):
            for key, value in list(vars(held).items()):
                if value is original:
                    monkeypatch.setattr(held, key, counted)


_SAMPLE_LAYERS = ("models.uhp_orbit", "hypcore.uhp_log_distance")


@pytest.mark.parametrize("t", [-1.0, -(2.0 ** 20), -(2.0 ** 40)])
def test_speed_sample_reaches_its_traced_layers(monkeypatch, t):
    # The benchmark self-test plants a delay in each of these layers and
    # requires it to show there on deep_orbits; a sample that stopped
    # calling them through these names would leave those checks empty.
    # A base's time-0 walk runs once, on its first reading
    # (speeds._base_reading); each sample at t != 0 walks its own point.
    from petallab.models import catalog
    from petallab.speeds import _base_reading, speed_sample, speed_series

    counts = Counter()
    for label in _SAMPLE_LAYERS:
        _count_calls(monkeypatch, counts, label)
    for model in catalog():
        for petal in model.petals:
            base = petal.base_default
            # (read, its uhp_orbit calls first and on a repeat, its distances)
            for read, walks, distances in (
                (lambda: speed_sample(model, petal, base, t), (2, 1), 1),
                (lambda: speed_series(model, petal, base, [0.0, -0.5, t]), (3, 2), 2),
            ):
                _base_reading.cache_clear()
                for n in walks:
                    counts.clear()
                    read()
                    assert counts == {"models.uhp_orbit": n,
                                      "hypcore.uhp_log_distance": distances}


# The per-point paths that deep_orbits and boundary_probes time: each call
# on them passes its arguments one by one, and each result tuple is built
# in C (``functools.partial(tuple.__new__, ...)``), with no NamedTuple
# __new__ frame.
_STRAIGHT_PATHS = [
    ("petallab.speeds", None, "speed_sample"),
    ("petallab.speeds", None, "_sample_at"),
    ("petallab.speeds", None, "speed_series"),
    ("petallab.models", "KoenigsModel", "uhp_orbit"),
    ("petallab.semigroup", None, "flow"),
]


@pytest.mark.parametrize("module,class_name,attr", _STRAIGHT_PATHS,
                         ids=[p[2] for p in _STRAIGHT_PATHS])
def test_per_point_path_calls_straight_through(module, class_name, attr):
    mod = importlib.import_module(module)
    func = getattr(getattr(mod, class_name), attr) if class_name else getattr(mod, attr)
    tree = ast.parse(textwrap.dedent(inspect.getsource(func)))
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        call = ast.unparse(node)
        assert not any(isinstance(a, ast.Starred) for a in node.args), call
        assert all(k.arg is not None for k in node.keywords), call
        assert getattr(node.func, "id", None) not in ("SpeedSample", "OrbitPoint"), call


def test_approach_angle_reaches_its_traced_measure(monkeypatch):
    # The traced boundary_probes run counts hmeasure.harmonic_measure
    # calls; the probe must still take each kept point's measure through
    # that name, one call a point, and none for the points it cuts.
    from petallab.hmeasure import Arc, approach_angle
    from petallab.models import catalog
    from petallab.semigroup import flow

    counts = Counter()
    _count_calls(monkeypatch, counts, "hmeasure.harmonic_measure")
    a = cmath.exp(0.7j)
    radial = [(1.0 - 2.0 ** -j) * a for j in range(60)]
    report = approach_angle(radial, a, Arc(0.7, 0.7 + math.pi))
    assert report.used < len(radial) and "within" in report.stop
    assert counts == {"hmeasure.harmonic_measure": report.used}
    for model in catalog():
        for petal in model.petals:
            if petal.lam is None:
                continue
            sigma = model.disk_sigma(petal).value
            orbit = [flow(model, petal.base_default, float(-k)).disk_z for k in range(1, 19)]
            orbit = [z for z in orbit if z is not None]
            counts.clear()
            report = approach_angle(orbit, sigma, Arc(cmath.phase(sigma), cmath.phase(sigma) + 1.0))
            assert report.used >= 5
            assert counts == {"hmeasure.harmonic_measure": report.used}
