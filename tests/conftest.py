import pytest

from heckezeros import trial_functions


def pytest_configure(config):
    config.addinivalue_line("markers", "slow: long-running end-to-end checks")


@pytest.fixture(autouse=True)
def _fresh_build_cache():
    """Each test starts from an empty family-build cache and F(0) memo, so
    no test sees codes or F(0) an earlier test formed, and cache counts start
    from zero."""
    trial_functions._cached_build.cache_clear()
    trial_functions._cached_f0.cache_clear()
