"""The four benchmark workloads: seeded inputs, one timed operation, checks.

Every workload is a closed loop with a single client: the next operation
starts only after the previous one returned.  An operation is the timed
unit; it yields one or more outputs, each checked on its own.  Inputs
cycle.  The first run of each input is the checked one: each of its
outputs counts as one attempt, and each that fails its check as one
failed attempt, so a seed's counts do not depend on how many repeats a
run had time for.  Every repeat must reproduce the first outputs of its
input exactly; a mismatch makes the run incorrect.

The harness reaches petallab only through public names on the ``petallab``
package, looked up at call time so that the tracer's wrappers apply.
"""

from __future__ import annotations

import cmath
import contextlib
import io
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter

import reference

HALF_LOG2 = 0.5 * math.log(2.0)
# Runs ``python -m petallab.lab`` with the reference loop sampled through it.
LAB_CHILD = os.path.join(os.path.dirname(os.path.abspath(__file__)), "lab_child.py")
HALF_PI = 0.5 * math.pi

# (model, petal label, expected linear rate |lam|/2 or None if parabolic,
#  sampler of interior base points in Omega coordinates).  The samplers keep
#  the same 5% edge margins as petallab's own petal sampling.
PETALS = (
    ("strip-slit", "upper", 1.0,
     lambda r: complex(r.uniform(-1.0, 3.0), r.uniform(0.05, 0.95) * HALF_PI)),
    ("strip-slit", "lower", 1.0,
     lambda r: complex(r.uniform(-1.0, 3.0), -r.uniform(0.05, 0.95) * HALF_PI)),
    ("sector-parabolic", "main", None,
     lambda r: complex(r.uniform(-3.0, 3.0),
                       math.exp(r.uniform(math.log(0.1), math.log(5.0))))),
    ("koebe-elliptic", "main", 0.25,
     lambda r: math.exp(r.uniform(-2.0, 2.0))
     * cmath.exp(1j * r.uniform(-0.9, 0.9) * math.pi)),
)

DEEP_TIMES = tuple(-(2.0 ** k) for k in range(61)) + tuple(
    -(10.0 ** k) for k in range(20, 301, 20)
)
# Parabolic petal: v - (5/6) log|t| must stay near its value at this time.
PARABOLIC_REF_T = -1e9

# Operations fail only by raising one of petallab's typed errors, all of
# which are ValueErrors, or by float overflow.
OP_ERRORS = (ValueError, ArithmeticError)


def _stratified(rng: random.Random, n: int, lo: float, hi: float) -> list[float]:
    """n log-uniform draws in [lo, hi], one per equal stratum, shuffled.

    Stratifying keeps the mix of cheap and costly inputs the same from seed
    to seed, so the seed changes the inputs but not the workload's cost.
    """
    a, b = math.log(lo), math.log(hi)
    vals = [math.exp(a + (b - a) * (i + rng.random()) / n) for i in range(n)]
    rng.shuffle(vals)
    return vals


def _call(fn, *args):
    try:
        return fn(*args)
    except OP_ERRORS as exc:
        return exc


def _same(a, b) -> bool:
    if isinstance(a, BaseException) or isinstance(b, BaseException):
        return type(a) is type(b) and str(a) == str(b)
    return a == b


def child_env(root: str) -> dict:
    """Environment for child interpreters: petallab from ``<root>/src``.

    Byte-code caching stays on whatever the caller's environment says, as
    it is for a user of an installed package; otherwise every cold start
    would also pay for compiling petallab.
    """
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(root), "src"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


class ChildTimeout(Exception):
    """A child interpreter ran past its time limit and was killed."""


def _on_alarm(signum, frame):
    raise ChildTimeout


def run_child(argv, cwd: str, env: dict, stdout, timeout_s: int = 150):
    """Run ``argv`` to completion: (wall seconds, exit code, peak RSS in MB).

    The wait blocks in ``wait4`` until the child exits, so the wall time
    ends when the child does.  ``subprocess.run`` with a timeout polls
    instead, sleeping up to 50 ms between polls, which rounds every time
    up to a 50 ms step.  The timeout here is an alarm signal that kills
    the child.
    """
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(timeout_s)
    try:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=stdout)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except ChildTimeout:
            proc.kill()
            os.wait4(proc.pid, 0)
            proc.returncode = -signal.SIGKILL
            raise
        elapsed = time.perf_counter() - start
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return elapsed, proc.returncode, usage.ru_maxrss / 1024.0


def import_petallab(root: str):
    """Import petallab from ``<root>/src`` and refuse any other copy."""
    src = os.path.join(os.path.abspath(root), "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    import petallab

    if not os.path.abspath(petallab.__file__).startswith(src + os.sep):
        raise ImportError(f"petallab imported from {petallab.__file__}, not {src}")
    import petallab.lab  # noqa: F401  (the CLI module; not re-exported)

    return petallab


class Workload:
    """Base: subclasses build ``self.inputs`` and implement ``_run``."""

    name = ""
    why = ""
    operation = ""
    # True when each operation runs in a fresh interpreter.
    fresh = False

    def __init__(self, seed: int, root: str):
        self.seed = seed
        self.root = root
        self.out_dir = os.path.join(root, "perfbench", "out")
        self.tracer = None
        self.first: dict[int, object] = {}
        self.pl = None
        self.failures: Counter = Counter()
        self.outcomes: Counter = Counter()
        self.attempted = 0
        self.failed = 0
        self.op_reference = None

    def setup(self) -> None:
        """Import, generate inputs from the seed, and warm every timed path."""
        self.pl = import_petallab(self.root)
        self._make_inputs(random.Random(self.seed))
        self.warmup()

    def forget(self) -> None:
        """Drop the first outputs and the counts, so every input is checked anew."""
        self.first.clear()
        self.failures.clear()
        self.outcomes.clear()
        self.attempted = self.failed = 0

    def check_all(self) -> None:
        """Run, untimed, every input the timed loop did not reach."""
        for key in range(len(self.inputs)):
            if key not in self.first:
                self.run(key)

    def warmup(self) -> None:
        for i in range(len(self.inputs)):
            self.run(i)

    def run(self, i: int):
        """Run operation i; returns (elapsed_ns, reproduced, own reference).

        The first run of an input adds its outputs to ``attempted`` and
        those that fail their checks to ``failed``.  A repeat whose outputs
        differ from the first ones is not reproduced.  The own reference is
        None, or the mean reference time that an operation run in a child
        interpreter sampled there.
        """
        key = i % len(self.inputs)
        self.op_reference = None
        elapsed, outputs = self._run(self.inputs[key])
        values = [value for _, value, _ in outputs]
        if key in self.first:
            same = all(_same(a, b) for a, b in zip(self.first[key], values))
            return elapsed, same, self.op_reference
        self.first[key] = values
        self.attempted += len(outputs)
        for kind, value, ok in outputs:
            if not ok:
                self.failed += 1
                self.failures[kind] += 1
            elif kind.endswith("angle") and value.inconclusive:
                self.outcomes[f"{kind}_inconclusive"] += 1
        return elapsed, True, self.op_reference

    def input_label(self, key: int):
        """A name for input ``key`` in the report, or None to leave it out."""
        return None

    def peak_rss_mb(self, setup_peaks_mb: list[float]) -> float:
        """Peak resident set of a process that runs every operation once.

        That is a set-up child: it imports petallab and runs the warm-up
        pass over every input.  The process that times the operations also
        holds every sample it takes, which would make its peak grow with
        the host's speed.  The set-ups' median is taken.
        """
        return statistics.median(setup_peaks_mb)

    def _fail(self, label: str) -> None:
        if self.tracer is not None:
            self.tracer.mark_failed(label)


class DeepOrbits(Workload):
    name = "deep_orbits"
    operation = "speed_sample on each of the four petals at one base index and time"
    why = ("speed_sample on all four petals at t=-2^k, k<=60, and -10^k to 1e300: "
           "loads models.uhp_orbit, hypcore log kernels, speeds; never the chain")
    BASES_PER_PETAL = 24

    def _make_inputs(self, rng):
        pl = self.pl
        self.petals = []
        for model_name, label, rate, sampler in PETALS:
            model = pl.by_name(model_name)
            bases = [sampler(rng) for _ in range(self.BASES_PER_PETAL)]
            self.petals.append((model, model.petal(label), rate, bases))
        # Reference offset of v - (5/6) log|t| at 1e9, per parabolic base.
        self.refs = {}
        for model, petal, rate, bases in self.petals:
            if rate is None:
                for b in bases:
                    v = pl.speed_sample(model, petal, b, PARABOLIC_REF_T).v
                    self.refs[b] = v - (5.0 / 6.0) * math.log(-PARABOLIC_REF_T)
        # One operation: the four petals' samples at one base index and time.
        self.inputs = [(j, t) for j in range(self.BASES_PER_PETAL) for t in DEEP_TIMES]

    def _run(self, inp):
        j, t = inp
        pl = self.pl
        clock = time.perf_counter_ns
        start = clock()
        results = [_call(pl.speed_sample, model, petal, bases[j], t)
                   for model, petal, _, bases in self.petals]
        elapsed = clock() - start
        outputs = []
        for (model, petal, rate, bases), s in zip(self.petals, results):
            ok = self._check(s, t, rate, self.refs.get(bases[j]))
            if not ok and not isinstance(s, BaseException):
                self._fail("speeds.speed_sample")
            outputs.append((f"{model.name}/{petal.label}", s, ok))
        return elapsed, outputs

    @staticmethod
    def _check(s, t, rate, ref) -> bool:
        if isinstance(s, BaseException):
            return False
        if not all(math.isfinite(x) for x in (s.v, s.v_o, s.v_T)):
            return False
        top = s.v_o + s.v_T
        tol = 1e-9 + 4.0 * math.ulp(top)
        if s.v - (top - HALF_LOG2) < -tol or top - s.v < -tol:
            return False
        mag = -t
        if rate is not None and mag >= 2.0 ** 30 and abs(s.v / mag - rate) > 1e-6:
            return False
        if rate is None and mag >= 1e6:
            return abs(s.v - (5.0 / 6.0) * math.log(mag) - ref) <= 1e-3
        return True


class BoundaryProbes(Workload):
    name = "boundary_probes"
    operation = "one quadrature upper bound, gaussian lower bound, orbit and radial angle"
    why = ("quad upper bounds (no antiderivative), gaussian lower bounds to 1e150, "
           "approach angles on 18-step orbits and radii: loads bounds, hmeasure, flow")
    ROUNDS = 256
    LAYERS = {"upper_quad": "bounds.upper_bound", "lower_gauss": "bounds.lower_bound",
              "orbit_angle": "hmeasure.approach_angle",
              "radial_angle": "hmeasure.approach_angle"}
    HYPERBOLIC = tuple(p for p in PETALS if p[2] is not None)

    def _make_inputs(self, rng):
        pl = self.pl
        n = self.ROUNDS
        # delta = 1/log(-t) without an antiderivative takes the quadrature
        # path; logrecip is the same profile with its closed form.
        self.quad_profile = pl.custom_profile(
            lambda t: 1.0 / math.log(-t), t0=-math.e, d0=1.0,
            log_delta=lambda t: -math.log(math.log(-t)), name="logrecip-quad")
        closed = pl.logrecip_profile(t0=-math.e, d0=1.0)
        self.gauss = pl.gaussian_profile()
        uppers = [-x for x in _stratified(rng, n, 10.0, 1e6)]
        lowers = [-x for x in _stratified(rng, n, 1e3, 1e150)]
        self.inputs = []
        for k in range(n):
            model_name, label, _, sampler = self.HYPERBOLIC[k % len(self.HYPERBOLIC)]
            model = pl.by_name(model_name)
            petal = model.petal(label)
            sigma = model.disk_sigma(petal).value
            phi = rng.uniform(0.0, 2.0 * math.pi)
            span = rng.uniform(0.2, 1.5) * math.pi
            self.inputs.append({
                "upper_t": uppers[k],
                "upper_ref": pl.upper_bound(closed, uppers[k]),
                "lower_t": lowers[k],
                "model": model,
                "base": sampler(rng),
                "sigma": sigma,
                "orbit_arc": pl.Arc(cmath.phase(sigma), cmath.phase(sigma) + HALF_PI),
                "radial": [(1.0 - 2.0 ** -j) * cmath.exp(1j * phi) for j in range(21)],
                "radial_a": cmath.exp(1j * phi),
                "radial_arc": pl.Arc(phi, phi + span),
            })

    def _orbit_angle(self, inp):
        pl = self.pl
        pts = []
        for k in range(1, 19):
            z = pl.flow(inp["model"], inp["base"], float(-k)).disk_z
            if z is None:
                break
            pts.append(z)
        return pl.approach_angle(pts, inp["sigma"], inp["orbit_arc"])

    def _run(self, inp):
        pl = self.pl
        clock = time.perf_counter_ns
        start = clock()
        upper = _call(pl.upper_bound, self.quad_profile, inp["upper_t"])
        lower = _call(pl.lower_bound, self.gauss, inp["lower_t"])
        orbit = _call(self._orbit_angle, inp)
        radial = _call(pl.approach_angle, inp["radial"], inp["radial_a"], inp["radial_arc"])
        elapsed = clock() - start

        ok_upper = not isinstance(upper, BaseException) and (
            abs(upper - inp["upper_ref"]) <= 1e-9 * abs(inp["upper_ref"]))
        t = inp["lower_t"]
        ok_lower = not isinstance(lower, BaseException) and (
            math.isfinite(lower) and 0.249 <= lower / (t * t) <= 0.2501)
        ok_orbit = not isinstance(orbit, BaseException) and (
            orbit.inconclusive or 0.05 * math.pi < orbit.theta < 0.95 * math.pi)
        ok_radial = not isinstance(radial, BaseException) and (
            radial.inconclusive or abs(radial.theta - HALF_PI) <= 1e-2)
        outputs = [("upper_quad", upper, ok_upper), ("lower_gauss", lower, ok_lower),
                   ("orbit_angle", orbit, ok_orbit), ("radial_angle", radial, ok_radial)]
        for kind, value, ok in outputs:
            if not ok and not isinstance(value, BaseException):
                self._fail(self.LAYERS[kind])
        return elapsed, outputs


class VerifyWarm(Workload):
    name = "verify_warm"
    operation = "verify.run_all(seed)"
    why = ("verify.run_all on seeded seeds in one warm interpreter, the acceptance path: "
           "loads confmap chain, semigroup.generator, sample_petal_omega; import excluded")
    SEEDS = 2

    def _make_inputs(self, rng):
        self.inputs = [rng.randrange(2 ** 31) for _ in range(self.SEEDS)]

    def warmup(self) -> None:
        self.run(0)

    def _run(self, seed):
        clock = time.perf_counter_ns
        start = clock()
        results = _call(self.pl.run_all, seed)
        elapsed = clock() - start
        ok = not isinstance(results, BaseException) and len(results) == 11 and all(
            r.passed for r in results)
        if not ok and not isinstance(results, BaseException):
            self._fail("verify.run_all")
        return elapsed, [("run_all", results, ok)]


class ColdCli(Workload):
    name = "cold_cli"
    operation = ("one README subcommand in a fresh interpreter running petallab.lab as "
                 "python -m does, round-robin over six")
    why = ("the six README subcommands, each in a fresh interpreter running petallab.lab as "
           "python -m does: what a shell user pays, import (scipy.integrate) included; "
           "loads lab")

    # Plain runs start a fresh interpreter per operation; traced runs clear
    # this and call petallab.lab.main in-process, so that spans can be recorded.
    fresh = True

    def setup(self) -> None:
        if not self.fresh:
            super().setup()
            return
        # The harness itself never imports petallab here; one fresh
        # invocation fills the byte-code and file caches that every
        # subcommand shares.
        self._make_inputs(random.Random(self.seed))
        self.child_peak_mb = 0.0
        self.run(0)

    def _make_inputs(self, rng):
        # The README's commands.  The seed moves base points, grid times and
        # the verify seed, which change the outputs but not the cost.
        base = complex(rng.uniform(-1.0, 3.0), rng.uniform(0.05, 0.95) * HALF_PI)
        grid = sorted(_stratified(rng, 4, 1e3, 1e150))
        self.inputs = [
            ["speeds", "--model", "strip-slit", "--petal", "0", "--kmax", "16",
             "--base-re", repr(base.real), "--base-im", repr(base.imag)],
            ["asymptote", "--model", "koebe-elliptic", "--petal", "0"],
            ["forward", "--model", "strip-slit", "--base-re", repr(base.real),
             "--base-im", repr(base.imag)],
            ["hmeasure", "--model", "strip-slit", "--petal", "0"],
            ["bounds", "--profile", "gaussian",
             "--grid=" + ",".join(repr(-x) for x in grid)],
            ["verify", "--seed", str(rng.randrange(2 ** 31))],
        ]
        self.runs = 0

    def input_label(self, key: int):
        return self.inputs[key][0]

    def peak_rss_mb(self, setup_peaks_mb: list[float]) -> float:
        """Peak resident set of the largest ``python -m petallab.lab``."""
        return self.child_peak_mb

    def _run(self, argv):
        self.runs += 1
        out = os.path.join(self.out_dir, "cli", f"{argv[0]}-{self.runs}")
        shutil.rmtree(out, ignore_errors=True)
        os.makedirs(out)
        stdout_path = os.path.join(self.out_dir, "cli", f"{argv[0]}-{self.runs}.stdout")
        if self.fresh:
            report = stdout_path + ".ref"
            with open(stdout_path, "wb") as stdout:
                elapsed_s, code, peak_mb = run_child(
                    [sys.executable, LAB_CHILD, report, *argv, "--out", out],
                    self.root, child_env(self.root), stdout)
            with open(report, encoding="utf-8") as handle:
                self.op_reference, sampling_ns = reference.read_report(handle.read())
            os.remove(report)
            elapsed = round(elapsed_s * 1e9) - sampling_ns
            self.child_peak_mb = max(self.child_peak_mb, peak_mb)
            with open(stdout_path, encoding="utf-8") as handle:
                stdout = handle.read()
            os.remove(stdout_path)
        else:
            buf = io.StringIO()
            clock = time.perf_counter_ns
            start = clock()
            with contextlib.redirect_stdout(buf):
                code = _call(self.pl.lab.main, [*argv, "--out", out])
            elapsed = clock() - start
            stdout = buf.getvalue()
        files = {}
        for name in sorted(os.listdir(out)):
            with open(os.path.join(out, name), "rb") as handle:
                files[name] = handle.read()
        shutil.rmtree(out)
        ok = code == 0 and bool(files)
        if argv[0] == "verify":
            lines = stdout.splitlines()
            ok = ok and sum(line.startswith("PASS ") for line in lines) == 11 and not any(
                line.startswith("FAIL ") for line in lines)
        if not ok and not isinstance(code, BaseException):
            self._fail(f"lab.main.{argv[0]}")
        # The repeat check compares exit code and file bytes; stdout names
        # the output directory, which differs per repeat.
        return elapsed, [(argv[0], (code, files), ok)]


WORKLOADS = {cls.name: cls for cls in (ColdCli, VerifyWarm, DeepOrbits, BoundaryProbes)}
