"""Every span target of the benchmark's tracer names a petallab callable.

``perfbench/tracing.py`` wraps each ``TARGETS`` entry by name: a method as
``cls.__dict__[attr]``, a function as a module attribute.  Renaming or
deleting a traced name would break only a traced benchmark run; this test
makes it fail here too.  ``TARGETS`` is read from the source, not
imported, so nothing under perfbench/ is executed or written.
"""

import ast
import importlib
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
