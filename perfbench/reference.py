"""The reference loop: a measure of the host's speed at this moment.

The cores may be shared with other tenants, and their speed flips between
two levels, one about twice the other, within a second and in spells
that last minutes.  Timing metrics are adjusted to the speed this loop
shows next to them (see README.md, "Adjusted times").  This module imports
nothing beyond ``math`` and ``time``, so a child interpreter can sample
the loop as soon as it starts, at almost no cost of its own.
"""

from __future__ import annotations

import math
import signal
import time

# A child interpreter samples the reference loop after each this many
# seconds of its CPU time.
CHILD_PERIOD_S = 0.04

# The reference loop's time on the machine the baseline was measured on
# (two shared cores, Python 3.11) at the faster of the two speeds its cores
# switch between.  Adjusted times are scaled to it.
REF_NOMINAL_NS = 260_000


def _step(x: float, z: complex) -> complex:
    return (z * x + math.log(x)) * 1e-3


def reference_ns() -> int:
    """Fastest of 5 runs of a fixed pure-Python loop.

    The loop does the kind of work petallab does (float and complex
    arithmetic, calls into ``math``, small containers) and none of
    petallab's code, so a change to petallab does not move it.  Its fastest
    run skips interruptions, as an operation's median does.
    """
    best = None
    for _ in range(5):
        start = time.perf_counter_ns()
        z, rows = 0.5 + 0.5j, {}
        for i in range(1, 600):
            z = _step(1.0 + i * 1e-3, z)
            rows[i % 31] = (z.real, z.imag, abs(z))
        elapsed = time.perf_counter_ns() - start
        best = elapsed if best is None else min(best, elapsed)
    return best


class ChildSampler:
    """Samples the reference loop through the life of a child interpreter.

    A set-up or a command-line run lasts about a second, long enough for
    the host's speed to flip, so samples taken only at its two ends miss
    part of it.  This one samples at the start, after every
    ``CHILD_PERIOD_S`` of CPU time (a ``SIGPROF`` timer, so the samples
    follow the work, not the wall clock), and at the end.
    """

    def __init__(self):
        self.samples: list[int] = []
        self.spent_ns = 0

    def _sample(self, *_):
        start = time.perf_counter_ns()
        self.samples.append(reference_ns())
        self.spent_ns += time.perf_counter_ns() - start

    def start(self) -> None:
        self._sample()
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, CHILD_PERIOD_S, CHILD_PERIOD_S)

    def stop(self) -> str:
        """Stop sampling; return the report: mean sample ns, ns spent sampling."""
        signal.setitimer(signal.ITIMER_PROF, 0.0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)
        self._sample()
        return f"{sum(self.samples) // len(self.samples)} {self.spent_ns}"


def read_report(text: str) -> tuple[int, int]:
    """(mean reference ns, ns spent sampling) from a ``ChildSampler`` report."""
    mean_ns, spent_ns = (int(x) for x in text.split())
    return mean_ns, spent_ns


def adjust(elapsed_ns: float, reference_ns_: float) -> float:
    """``elapsed_ns`` at the reference speed, given the reference time next to it."""
    return elapsed_ns * REF_NOMINAL_NS / reference_ns_
