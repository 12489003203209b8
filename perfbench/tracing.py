"""Span tracing at petallab's module boundaries, installed from outside.

The tracer replaces public petallab functions with thin wrappers for the
duration of a ``with tracer.installed():`` block.  A module-level function
is replaced in every ``petallab`` module that holds a reference to it, so
calls between modules (``speeds`` calling ``hypcore.uhp_log_distance``)
are caught as well as calls from the harness.  Methods are replaced on
their class.  Nothing inside the package is edited.

Each call becomes one span ``(id, parent, op, name, start_ns, end_ns,
failed)``; spans stay in memory and are written once, at the end.  A
layer's self time is its span's duration minus the durations of its
direct child spans.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import sys
import time
from array import array
from collections import defaultdict

# (label, module, attribute, class or None).  Labels name the per-layer
# metrics: <label>.calls, .us, .self_us, .failed.
TARGETS = (
    ("confmap.eval", "petallab.confmap", "eval", "ConformalChain"),
    ("confmap.eval_inverse", "petallab.confmap", "eval_inverse", "ConformalChain"),
    ("confmap.derivative", "petallab.confmap", "derivative", "ConformalChain"),
    ("semigroup.generator", "petallab.semigroup", "generator", None),
    ("semigroup.repelling_diagnostics", "petallab.semigroup",
     "repelling_diagnostics", None),
    ("semigroup.regularity_gap", "petallab.semigroup", "regularity_gap", None),
    ("semigroup.flow", "petallab.semigroup", "flow", None),
    ("models.uhp_orbit", "petallab.models", "uhp_orbit", "KoenigsModel"),
    ("models.sample_petal_omega", "petallab.models", "sample_petal_omega", None),
    ("speeds.speed_sample", "petallab.speeds", "speed_sample", None),
    ("speeds.speed_series", "petallab.speeds", "speed_series", None),
    ("hypcore.uhp_log_distance", "petallab.hypcore", "uhp_log_distance", None),
    ("hypcore.disk_distance", "petallab.hypcore", "disk_distance", None),
    ("hypcore.uhp_distance", "petallab.hypcore", "uhp_distance", None),
    ("bounds.upper_bound", "petallab.bounds", "upper_bound", None),
    ("bounds.lower_bound", "petallab.bounds", "lower_bound", None),
    ("hmeasure.approach_angle", "petallab.hmeasure", "approach_angle", None),
    ("hmeasure.harmonic_measure", "petallab.hmeasure", "harmonic_measure", None),
    ("verify.run_all", "petallab.verify", "run_all", None),
    ("lab.main", "petallab.lab", "main", None),
)

# lab.main is reported once per subcommand, as lab.main.<subcommand>.
CLI_SUBCOMMANDS = ("speeds", "asymptote", "forward", "hmeasure", "bounds", "verify")

LABELS = tuple(label for label, *_ in TARGETS if label != "lab.main") + tuple(
    f"lab.main.{sub}" for sub in CLI_SUBCOMMANDS
)


@contextlib.contextmanager
def replaced(module_name: str, attr: str, make, class_name: str | None = None):
    """Swap a petallab function for ``make(original)`` inside the block.

    A method is swapped on its class; a module-level function in every
    petallab module that holds it, so calls between modules see the swap.
    """
    module = sys.modules[module_name]
    restore = []
    try:
        if class_name is not None:
            cls = getattr(module, class_name)
            original = cls.__dict__[attr]
            setattr(cls, attr, make(original))
            restore.append((cls, attr, original))
        else:
            original = getattr(module, attr)
            replacement = make(original)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "petallab" and not mod_name.startswith("petallab."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, replacement)
                        restore.append((mod, key, original))
        yield
    finally:
        for owner, key, original in reversed(restore):
            setattr(owner, key, original)


class Tracer:
    """Collects spans in compact arrays; at most ``max_spans`` of them."""

    def __init__(self, max_spans: int = 250_000):
        self.max_spans = max_spans
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        self.ids = array("q")
        self.parents = array("q")
        self.ops = array("q")
        self.name_ids = array("q")
        self.starts = array("q")
        self.ends = array("q")
        self.failed = array("b")
        self.marked_failed: dict[str, int] = defaultdict(int)
        self.inconclusive = 0
        self.op = 0
        self._stack = [0]
        self._next_id = 1

    def full(self) -> bool:
        return len(self.ids) >= self.max_spans

    def mark_failed(self, label: str) -> None:
        """Count a call that returned normally but whose output failed a check."""
        self.marked_failed[label] += 1

    def _name_id(self, name: str) -> int:
        if name not in self._name_index:
            self._name_index[name] = len(self.names)
            self.names.append(name)
        return self._name_index[name]

    def _wrap(self, label: str, fn):
        stack = self._stack
        clock = time.perf_counter_ns
        fixed_id = self._name_id(label) if label != "lab.main" else None
        sub_ids = (None if fixed_id is not None else
                   {sub: self._name_id(f"lab.main.{sub}") for sub in CLI_SUBCOMMANDS})
        on_approach = label == "hmeasure.approach_angle"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # lab.main(argv): the subcommand is argv[0].
            name_id = fixed_id if fixed_id is not None else sub_ids[args[0][0]]
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1]
            stack.append(span_id)
            failed = 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
                failed = 0
            finally:
                end = clock()
                stack.pop()
                self.ids.append(span_id)
                self.parents.append(parent)
                self.ops.append(self.op)
                self.name_ids.append(name_id)
                self.starts.append(start)
                self.ends.append(end)
                self.failed.append(failed)
            if on_approach and result.inconclusive:
                self.inconclusive += 1
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the block, then restore."""
        with contextlib.ExitStack() as stack:
            for label, module_name, attr, class_name in TARGETS:
                stack.enter_context(
                    replaced(module_name, attr, lambda fn, label=label: self._wrap(label, fn),
                             class_name))
            yield self

    def layer_metrics(self) -> dict[str, dict]:
        """calls, inclusive and self microseconds per call, and failures per label."""
        child_ns: dict[int, int] = defaultdict(int)
        for parent, start, end in zip(self.parents, self.starts, self.ends):
            if parent:
                child_ns[parent] += end - start
        calls = defaultdict(int)
        incl = defaultdict(int)
        self_ns = defaultdict(int)
        failed = defaultdict(int)
        for span_id, name_id, start, end, bad in zip(
            self.ids, self.name_ids, self.starts, self.ends, self.failed
        ):
            dur = end - start
            calls[name_id] += 1
            incl[name_id] += dur
            self_ns[name_id] += dur - child_ns.get(span_id, 0)
            failed[name_id] += bad
        out = {}
        for label in LABELS:
            i = self._name_index.get(label)
            n = calls.get(i, 0)
            out[label] = {
                "calls": n,
                "us": incl[i] / n / 1e3 if n else 0.0,
                "self_us": self_ns[i] / n / 1e3 if n else 0.0,
                "failed": failed.get(i, 0) + self.marked_failed.get(label, 0),
            }
        return out

    def write(self, path: str) -> None:
        """Write all spans as gzipped CSV, one line per span."""
        with gzip.open(path, "wt", encoding="utf-8", newline="\n") as handle:
            handle.write("id,parent,op,name,start_ns,end_ns,failed\n")
            for row in zip(self.ids, self.parents, self.ops, self.name_ids,
                           self.starts, self.ends, self.failed):
                handle.write(
                    f"{row[0]},{row[1]},{row[2]},{self.names[row[3]]},"
                    f"{row[4]},{row[5]},{row[6]}\n"
                )
