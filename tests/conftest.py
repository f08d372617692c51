"""Shared test setup: every test starts from empty process-wide caches.

The counts of ``tests/counts.json`` (``test_ledger.py``) rely on it too: each
of its entries starts from ``clear_caches``, so a count is cold, whatever ran
before it.
"""

import pytest

from heckezeros import _kernels, oracles, trial_functions


def pytest_configure(config):
    config.addinivalue_line("markers", "slow: long-running end-to-end checks")


def clear_caches():
    """Empty the family-build cache, the F(0) memo, the oracle sample memo
    and the array-transform plan cache."""
    trial_functions._cached_build.cache_clear()
    trial_functions._cached_f0.cache_clear()
    oracles._samples.cache_clear()
    _kernels._array_plan.cache_clear()


@pytest.fixture(autouse=True)
def _fresh_build_cache():
    """Each test starts from empty caches (``clear_caches``), so no test sees
    codes, F(0), samples or plans an earlier test formed, and cache counts
    start from zero."""
    clear_caches()
