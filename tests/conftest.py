import pytest

from heckezeros import _kernels, oracles, trial_functions


def pytest_configure(config):
    config.addinivalue_line("markers", "slow: long-running end-to-end checks")


@pytest.fixture(autouse=True)
def _fresh_build_cache():
    """Each test starts from an empty family-build cache, F(0) memo, oracle
    sample memo and array-transform plan cache, so no test sees codes, F(0),
    samples or plans an earlier test formed, and cache counts start from
    zero."""
    trial_functions._cached_build.cache_clear()
    trial_functions._cached_f0.cache_clear()
    oracles._samples.cache_clear()
    _kernels._array_plan.cache_clear()
