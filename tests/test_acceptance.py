"""Acceptance gate: every headline claim checked at its stated tolerance.

Each criterion prints one PASS/FAIL line with the measured numbers; run
with ``pytest -v -s tests/test_acceptance.py`` to see them all.
"""

import time

import pytest

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


def test_detail_prints_the_bound_it_checks(monkeypatch):
    # The sub-linear slope bound comes from the criteria table, so the
    # report follows a change to the table.
    from petallab import verify

    monkeypatch.setattr(verify, "SUBLINEAR_PER_TOL", 2e-2)
    detail = verify._check_orthogonal_slopes().detail
    assert detail.endswith("<= 2e-3")
