"""Acceptance gate: every headline claim checked at its stated tolerance.

Each criterion prints one PASS/FAIL line with the measured numbers; run
with ``pytest -v -s tests/test_acceptance.py`` to see them all.
"""

import math
import time

import pytest

from petallab import semigroup, verify
from petallab.verify import CHECK_NAMES, run_all


@pytest.fixture(scope="module")
def suite():
    start = time.perf_counter()
    results = run_all()
    elapsed = time.perf_counter() - start
    return {r.name: r for r in results}, elapsed


@pytest.mark.parametrize("name", CHECK_NAMES, ids=CHECK_NAMES)
def test_criterion(suite, name):
    results, _ = suite
    result = results[name]
    line = f"{'PASS' if result.passed else 'FAIL'} {result.name}: {result.detail}"
    print(line)
    assert result.passed, line


def test_verification_runtime(suite):
    _, elapsed = suite
    line = f"{'PASS' if elapsed < 30.0 else 'FAIL'} runtime: {elapsed:.2f}s < 30s"
    print(line)
    assert elapsed < 30.0, line


def test_repeat_runs_compare_equal():
    # The benchmark's repeat check compares run_all results with ==.
    first = run_all(7)
    assert first == run_all(7)
    assert [r.name for r in first] == list(CHECK_NAMES)


def test_detail_prints_the_bound_it_checks(monkeypatch):
    # The sub-linear slope bound comes from the criteria table, so the
    # report follows a change to the table.
    monkeypatch.setattr(verify, "SUBLINEAR_PER_TOL", 2e-2)
    text, _ = verify._check_orthogonal_slopes()[-1]
    assert text.endswith("<= 2e-3")


def _nan_last_speed(real):
    def planted(*args):
        series = real(*args)
        *head, last = series.samples
        return series._replace(samples=(*head, last._replace(v=math.nan)))
    return planted


def _nan_on_call(n):
    def plant(real):
        calls = []

        def planted(*args):
            calls.append(args)
            return math.nan if len(calls) == n else real(*args)
        return planted
    return plant


@pytest.mark.parametrize("module,name,plant,failing", [
    (verify, "speed_series", _nan_last_speed,
     {"pythagorean-sandwich", "base-point-independence"}),
    (verify, "uhp_distance", _nan_on_call(2), {"structural-consistency"}),
    (semigroup, "generator", _nan_on_call(2), {"repelling-point-diagnostics"}),
    # The 12th point of strip-slit/upper's radial approach, after its 1000
    # samples: min would pick a plateau beside the NaN ratio.
    (semigroup, "generator", _nan_on_call(1012), {"repelling-point-diagnostics"}),
], ids=["nan-speed", "nan-metric", "nan-generator", "nan-radial"])
def test_planted_nan_fails_its_criteria(monkeypatch, module, name, plant, failing):
    # Each NaN comes among finite values, which max and min would report
    # instead: only a comparison per value catches it, and the failing
    # detail prints nan in place of a passing-looking extreme.
    monkeypatch.setattr(module, name, plant(getattr(module, name)))
    failed = {r.name: r.detail for r in run_all() if not r.passed}
    assert failing <= failed.keys()
    for criterion in failing:
        assert "nan" in failed[criterion], failed[criterion]
