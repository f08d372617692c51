import pytest

from heckezeros import oracles, trial_functions


def pytest_configure(config):
    config.addinivalue_line("markers", "slow: long-running end-to-end checks")


@pytest.fixture(autouse=True)
def _fresh_build_cache():
    """Each test starts from an empty family-build cache, F(0) memo and
    oracle sample memo, so no test sees codes, F(0) or samples an earlier
    test formed, and cache counts start from zero."""
    trial_functions._cached_build.cache_clear()
    trial_functions._cached_f0.cache_clear()
    oracles._samples.cache_clear()
