"""Self-tests for the benchmark harness.  Run from the checkout root:

    python3 perfbench/selftest.py

They check that the harness notices what it claims to measure: a planted
wrong speed raises the failed fraction, a planted delay shows in the
self time of the delayed layer and of no other, and a directory without
petallab makes the harness fail without printing a result.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import time
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

DELAY_NS = 200_000


def _busy_wait(ns: int) -> None:
    end = time.perf_counter_ns() + ns
    while time.perf_counter_ns() < end:
        pass


def _deep_orbits():
    wl = workloads.DeepOrbits(seed=7, root=ROOT)
    wl.setup()
    return wl


def _failed_frac(wl, n_ops):
    # Forget the first outputs so that every input is checked again.
    wl.forget()
    run.measure(wl, n_ops=n_ops)
    return wl.failed / wl.attempted


def _traced_self_us(wl, n_ops):
    tracer = tracing.Tracer()
    with tracer.installed():
        run.measure(wl, n_ops=n_ops, tracer=tracer)
    return {label: m["self_us"] for label, m in tracer.layer_metrics().items()}


class PlantedDefects(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.wl = _deep_orbits()
        cls.n_ops = len(cls.wl.inputs)

    def test_wrong_speed_raises_failed_frac(self):
        base = _failed_frac(self.wl, self.n_ops)

        def plant(original):
            def wrong(model, petal, z, t):
                s = original(model, petal, z, t)
                if model.name != "koebe-elliptic":
                    return s
                return dataclasses.replace(s, v=s.v * (1.0 + 1e-5))
            return wrong

        with tracing.replaced("petallab.speeds", "speed_sample", plant):
            planted = _failed_frac(self.wl, self.n_ops)
        self.assertGreater(planted, base + 0.05)

    def _check_delay_isolated(self, module, attr, label, class_name=None):
        n_ops = 400
        before = _traced_self_us(self.wl, n_ops)

        def plant(original):
            def slow(*args, **kwargs):
                _busy_wait(DELAY_NS)
                return original(*args, **kwargs)
            return slow

        with tracing.replaced(module, attr, plant, class_name):
            after = _traced_self_us(self.wl, n_ops)
        delay_us = DELAY_NS / 1e3
        self.assertGreater(after[label] - before[label], 0.9 * delay_us)
        for other in tracing.LABELS:
            if other != label:
                self.assertLess(abs(after[other] - before[other]), 0.1 * delay_us, other)

    def test_delay_in_leaf_layer_shows_only_there(self):
        self._check_delay_isolated("petallab.hypcore", "uhp_log_distance",
                                   "hypcore.uhp_log_distance")

    def test_delay_in_method_layer_shows_only_there(self):
        self._check_delay_isolated("petallab.models", "uhp_orbit", "models.uhp_orbit",
                                   class_name="KoenigsModel")

    def test_delay_in_middle_layer_shows_only_there(self):
        self._check_delay_isolated("petallab.speeds", "speed_sample",
                                   "speeds.speed_sample")


class Contract(unittest.TestCase):
    def test_without_petallab_exits_nonzero_and_prints_no_result(self):
        bare = os.path.join(ROOT, "perfbench", "out", "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", "deep_orbits",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=60)
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")

    def test_result_line_lists_every_metric(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
            spec = json.load(handle)
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 "boundary_probes", "--seed", "3", "--seconds", "1", "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
            result = json.loads(proc.stdout.splitlines()[-1])
            self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(result["correct"])
            expected = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            self.assertEqual(got, expected)


if __name__ == "__main__":
    unittest.main()
