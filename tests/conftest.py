"""Fixtures that every test module shares."""

import pytest

from petallab import speeds


@pytest.fixture(autouse=True)
def fresh_base_readings():
    """Each test starts and ends with an empty base-reading memo
    (``speeds._base_reading``), so that a layer a test plants under it
    (``require_petal``, ``uhp_orbit``, ``_eta_frame``, ``uhp_log_framed``)
    is read, and so that no reading planted in one test is served in
    another."""
    speeds._base_reading.cache_clear()
    yield
    speeds._base_reading.cache_clear()
