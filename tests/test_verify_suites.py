"""Every oracle-backed property suite must be clean."""

import pytest

from heckezeros import verify


@pytest.mark.parametrize("name", sorted(verify.SUITES))
def test_suite_clean(name):
    reports = verify.run_suite(name)
    failures = [str(r) for r in reports if not r.passed]
    assert not failures, "\n".join(failures)


def test_reports_locate_by_plain_numbers():
    """A report's location holds plain Python numbers, so its line reads
    the same under any NumPy: ``at (0.125,)``, not ``at
    (np.float64(0.125),)``."""
    reports = {r.check: r for r in verify.suite_laplace()}
    selftest = reports["quadrature self-test on int t^7"]
    assert selftest.kind == "equality" and " at (0.125,) " in str(selftest)
    positive = reports["F positive on the real axis: TrialFunction(triangle, x0=2)"]
    assert positive.kind == "positivity" and " at (10.0,) " in str(positive)
    closed = reports["closed form vs quadrature: TrialFunction(triangle, x0=2)"]
    assert type(closed.location[0]) is complex
    assert not any("np." in str(r) for r in reports.values())
