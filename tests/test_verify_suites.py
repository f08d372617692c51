"""Every oracle-backed property suite must be clean."""

import numpy as np
import pytest

from heckezeros import dh, oracles, verify
from heckezeros.errors import InvalidParameterError


@pytest.mark.parametrize("name", sorted(verify.SUITES))
def test_suite_clean(name):
    reports = verify.run_suite(name)
    failures = [str(r) for r in reports if not r.passed]
    assert not failures, "\n".join(failures)


@pytest.mark.parametrize("name", ["nope", ["all"], None])
def test_an_unknown_suite_is_a_library_error(name):
    # this raised KeyError, and a list TypeError: unhashable; the wording is
    # errors.lookup's, which lists the suites but not 'all'
    with pytest.raises(InvalidParameterError) as err:
        verify.run_suite(name)
    assert str(err.value) == f"unknown suite {name!r}; available: {sorted(verify.SUITES)}"


def test_table_lists_are_the_catalogue_by_method():
    # the lists that suite_roots wrote by hand, in their order
    assert verify._table_keys("poly") == ["T3:quadratic", "T3:principal", "T4", "T5", "T9",
                                          "T10"]
    assert verify._table_keys("smoothed", "poly") == [
        "T2:quadratic", "T2:principal", "T3:quadratic", "T3:principal", "T4", "T5", "T6",
        "T7:nonprincipal", "T7:principal", "T8:nonprincipal", "T8:chi2-principal-real", "T9",
        "T10"]


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


def test_quartic_report_locates_its_worst_instance():
    """The quartic root check names the instance of its worst deviation as
    (case, b, lambda, J) in plain Python values, not the first instance, and
    not the quoted strings of a NumPy string array."""
    reports = {r.check: r for r in verify.suite_roots()}
    report = reports["quartic Newton root vs 1e-6 scan oracle on random polynomial instances"]
    name, b, lam, J = report.location
    assert name in dh.POLY_CASES and all(type(v) is float for v in (b, lam, J))
    assert f" at ({name!r}, {b!r}, {lam!r}, {J!r}) " in str(report)
    root = dh.solve_poly(name, b, lam, J).root
    scanned = oracles.scan_root(dh.poly_h(name, b, lam, J), 0.0, root + 1.0, 1e-6)
    assert abs(scanned - root) == report.worst_violation > 0.0


def test_reports_keep_a_mixed_location():
    # a location that mixes a name, an int and NumPy numbers keeps each as a
    # plain Python value; a location that is one value becomes a 1-tuple
    report = oracles.positivity_report("mixed", [1.0, -1.0],
                                       [("a", 1, 0.5), ("b", 2, np.float64(0.25))])
    assert report.location == ("b", 2, 0.25) and type(report.location[2]) is float
    assert " at ('b', 2, 0.25) " in str(report)
    assert oracles.equality_report("one", [0.0, 3.0], np.array([1.5, 2.5]), 1.0).location == (2.5,)
