"""The results ledger: every bundled bound the library computes, in one file,
and what computing it cost, in another.

``tests/ledger.json`` holds, as ``repr`` strings, every quartic row's searched
bound (``maximize_bound``), every smoothed row warm-chained by
``tables.regress`` at ``REGRESS_BUDGET`` and each table's summary, every T1
cell's density search at that budget, the zero-free-region widths, and the
full ``repr`` of a few searches at other budgets (the CLI's defaults among
them).

``tests/counts.json`` holds, as exact integers, the calls the same pass makes
to the functions of ``COUNTERS``: one entry per quartic table, per table
regression (T1's, whose pass also gives the T1 cells, included), and per
family, density and zero-free-region search.  Each entry starts from empty
caches (build, F(0), oracle samples and array plans,
``conftest.clear_caches``), so its counts are cold and do not depend on what ran before it; they rely on nothing else
keeping state between calls.  The counters replace module attributes while
a section runs, so the library's hot loops hold no counting code.

``test_ledger_holds_every_result`` recomputes a section of both files per
test (``-k regressed_tables`` runs the smoothed chains alone), and fails on
any difference, naming each moved entry of either file with its old and new
value, and each added or removed one.  The tests after it hold the counting
itself: each counter replaces a library function and fills a field, each
entry starts cold and holds only its own calls, and a counted call outside
every entry fails.

A change that moves results or counts on purpose rewrites both files with

    PYTHONPATH=src python tests/test_ledger.py

and their diff, one line per moved entry, is the evidence of what moved.
"""

import contextlib
import functools
import json
import math
import pathlib

import pytest

from conftest import clear_caches
from heckezeros import (_kernels, dh, optimizer, oracles, tables, trial_functions,
                        zero_density, zfr)
from test_search_snap import SEARCH_ROWS

LEDGER = pathlib.Path(__file__).with_name("ledger.json")
COUNTS = LEDGER.with_name("counts.json")

QUARTIC_TABLES = ("T3:quadratic", "T3:principal", "T4", "T5", "T9", "T10")
SMOOTHED_TABLES = ("T2:quadratic", "T2:principal", "T6", "T7:nonprincipal",
                   "T7:principal", "T8:nonprincipal", "T8:chi2-principal-real")

#: family searches at the default budget, ``SearchSpec.max_evals`` = 6000,
#: where ranks 2-3 and the re-descent run; sz-lp-principal at b = 1e-3 is the
#: row the re-descent lifts from 6.864062
SEARCHES_DEFAULT = (("sz-lp-principal", 1e-3), ("cc-l2-chi2-principal-real", 0.35),
                    ("cc-l2-nonprincipal", 0.3))

#: density searches at their default budget, ``optimizer.ZD_BUDGET``
DENSITY_DEFAULT = ((0.3, 0.0875), (0.2, 0.0))


def _quartic_rows(count):
    out = {}
    for key in QUARTIC_TABLES:
        table = tables.load_table(key)
        with count(f"maximize_bound {key}"):
            for i, row in enumerate(table.rows):
                res = optimizer.maximize_bound(optimizer.SearchSpec(table.case_name, row.b))
                out[f"maximize_bound {key} row {i:03d} b={row.b!r}"] = {
                    "lambda_star": repr(res.lambda_star), "lambda": repr(res.params["lambda"]),
                    "J": repr(res.params["J"]), "side_limited": repr(res.side_limited)}
    return out


def _regressed_tables(count):
    out = {}
    for key in SMOOTHED_TABLES:
        with count(f"regress {key}"):
            report = tables.regress(key)
        out[f"regress {key} summary"] = {"summary": report.summary()}
        for i, row in enumerate(report.rows):
            out[f"regress {key} row {i:03d} b={row.b!r}"] = {
                "computed": repr(row.computed), "in_band": repr(row.in_band)}
    return out


def _density_cells(count):
    """T1's regression and each of its cells' density search, in one pass:
    the cells are ``optimizer.optimize_zd``'s returns during
    ``tables.regress("T1")``, recorded in the order it takes them."""
    t1 = tables.load_table("T1")
    cells, search = [], optimizer.optimize_zd
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(optimizer, "optimize_zd", lambda lam, b, **kw:
                   cells.append((lam, b, search(lam, b, **kw))) or cells[-1][2])
        with count("regress T1"):
            report = tables.regress("T1")
    out = {"regress T1 summary": {"summary": report.summary()}}
    for lam, b, (n, params) in cells:
        i, j = t1.lambdas.index(lam), t1.b_values.index(b)
        out[f"optimize_zd T1 cell {i:02d},{j:02d} lambda={lam!r} b={b!r}"] = {
            "N": repr(n), "bound": repr(params.get("bound"))}
    return out


def _searched(count, searches):
    """``{key: {"repr": repr(search())}}`` of each ``{key: search}``, counted
    under its key."""
    out = {}
    for key, search in searches.items():
        with count(key):
            out[key] = {"repr": repr(search())}
    return out


def _zero_free_regions(count):
    return _searched(count, {f"zfr_optimize {case}": functools.partial(zfr.zfr_optimize, case)
                             for case in zfr.CASES} | {"zfr_order5": zfr.zfr_order5})


def _family_searches(count):
    return _searched(count, {
        f"optimize_family_smoothed {name} b={b!r} budget={budget}":
            functools.partial(optimizer.optimize_family_smoothed, name, b, budget=budget)
        for budget, rows in ((120, SEARCH_ROWS), (optimizer.SearchSpec.max_evals, SEARCHES_DEFAULT))
        for name, b in rows})


def _density_searches(count):
    return _searched(count, {
        f"optimize_zd lambda={lam!r} b={b!r} budget={optimizer.ZD_BUDGET}":
            functools.partial(optimizer.optimize_zd, lam, b) for lam, b in DENSITY_DEFAULT})


#: the ledger's sections: each key prefix (or tuple of them), and what
#: computes the entries whose keys begin with it (no key begins with two
#: sections' prefixes), given the ``_Tally.entry`` that counts each table or
#: search under its key.  T1's regression is the density cells' section, which
#: records the cells while it runs
SECTIONS = {"maximize_bound ": _quartic_rows,
            tuple(f"regress {key}" for key in SMOOTHED_TABLES): _regressed_tables,
            ("regress T1", "optimize_zd T1 cell "): _density_cells, "zfr_": _zero_free_regions,
            "optimize_family_smoothed ": _family_searches,
            "optimize_zd lambda=": _density_searches}


def _every(field):
    return lambda _: field


#: what ``tests/counts.json`` counts: (owner, attribute, the field a call that
#: returned a result counts in, given that result, or None for none).  F
#: passes count the private kernel the root kernels call and its public alias,
#: which ``TrialFunction.laplace_real`` and the density search call; F/F'
#: passes the derivative kernel of the search's Newton steps.  A smoothed
#: score is settled where the sign of h at its rival's root decides it (None)
#: and solved otherwise.  The winner solves are the one cold solve of each
#: search's winner
COUNTERS = (
    (optimizer._Budget, "spend", lambda spent: "budget_units" if spent else None),
    (trial_functions, "_search_code", _every("builds_asked")),
    (trial_functions, "_build", _every("builds_made")),
    (_kernels, "_f_real_scalar", _every("F")),
    (_kernels, "f_real_scalar", _every("F")),
    (_kernels, "_f_real_scalar_d", _every("F_dF")),
    (_kernels, "f_array", _every("f_array")),
    (dh, "_search_root", lambda root: "scores_settled" if root is None else "scores_solved"),
    (_kernels, "_bisect", _every("itp_solves")),
    (_kernels, "_p4_newton", _every("p4_newtons")),
    (optimizer, "_j_ceiling", _every("ceilings")),
    (dh, "_poly_at", _every("poly_builds")),
    (dh, "_poly_bound", _every("poly_scores")),
    (zero_density, "bound_if_admissible", _every("density_scores")),
    (dh, "solve_smoothed", _every("winner_solves")),
    (dh, "solve_poly", _every("winner_solves")),
    (zero_density, "n_lambda_bound", _every("winner_solves")),
)

#: every field of a counts entry, 0 where nothing was counted
FIELDS = ("budget_units", "builds_asked", "builds_made", "F", "F_dF", "f_array",
          "scores_settled", "scores_solved", "itp_solves", "p4_newtons", "ceilings",
          "poly_builds", "poly_scores", "density_scores", "winner_solves")


class _Tally:
    """The counts of each entry: the ``COUNTERS`` calls made inside its
    ``entry(key)`` block, which starts from empty caches.  A counted call
    outside every block raises."""

    def __init__(self):
        self.counts, self._now = {}, None

    @contextlib.contextmanager
    def entry(self, key):
        clear_caches()
        self._now = dict.fromkeys(FIELDS, 0)
        yield
        self.counts[key], self._now = self._now, None

    def counter(self, fn, field):
        def counted(*args, **kwargs):
            got = fn(*args, **kwargs)
            name = field(got)
            if name is not None:
                self._now[name] += 1
            return got
        return counted


def _computed(prefix):
    """(entries, counts) of one section, computed in one pass with the
    ``COUNTERS`` in place."""
    tally = _Tally()
    with pytest.MonkeyPatch.context() as mp:
        for owner, name, field in COUNTERS:
            mp.setattr(owner, name, tally.counter(getattr(owner, name), field))
        entries = SECTIONS[prefix](tally.entry)
    return entries, tally.counts


def _dumps(entries):
    """The ledger's text: a JSON object with sorted keys, one entry a line, so
    a moved entry is one changed line of a diff."""
    lines = [f"{json.dumps(key)}: {json.dumps(entries[key], sort_keys=True)}"
             for key in sorted(entries)]
    return "{\n" + ",\n".join(lines) + "\n}\n"


def _read(path):
    return json.loads(path.read_text(encoding="utf-8"))


def _differences(recorded, computed):
    """One line per entry that moved (each field with its recorded and its
    computed value), was added or was removed."""
    out = []
    for key in sorted(recorded.keys() | computed.keys()):
        old, new = recorded.get(key), computed.get(key)
        if old is None:
            out.append(f"added {key}: {new}")
        elif new is None:
            out.append(f"removed {key}: {old}")
        elif old != new:
            moved = ", ".join(f"{field} {old.get(field)} -> {new.get(field)}"
                              for field in sorted(old.keys() | new.keys())
                              if old.get(field) != new.get(field))
            out.append(f"moved {key}: {moved}")
    return out


@pytest.mark.parametrize("prefix", SECTIONS, ids=[f.__name__[1:] for f in SECTIONS.values()])
def test_ledger_holds_every_result(prefix):
    moved = []
    for path, computed in zip((LEDGER, COUNTS), _computed(prefix)):
        assert all(key.startswith(prefix) for key in computed)
        recorded = {key: value for key, value in _read(path).items() if key.startswith(prefix)}
        moved += [f"{path.name}: {line}" for line in _differences(recorded, computed)]
    assert not moved, ("results or counts differ from tests/ledger.json or tests/counts.json; "
                       "if on purpose, rewrite both with "
                       "`PYTHONPATH=src python tests/test_ledger.py`:\n" + "\n".join(moved))


@pytest.mark.parametrize("path", [LEDGER, COUNTS], ids=lambda p: p.name)
def test_every_entry_is_in_one_section(path):
    # an entry no section computes would never be compared: it is one that
    # was removed
    for key in _read(path):
        assert sum(key.startswith(prefix) for prefix in SECTIONS) == 1, f"removed {key}"


@pytest.mark.parametrize("path", [LEDGER, COUNTS], ids=lambda p: p.name)
def test_file_is_in_its_written_form(path):
    assert _dumps(_read(path)) == path.read_text(encoding="utf-8")


@pytest.mark.parametrize("path, prefix, field, move", [
    (LEDGER, "maximize_bound ", "lambda_star",
     lambda old: repr(math.nextafter(float(old), math.inf))),
    (COUNTS, "regress ", "builds_made", lambda old: old + 1),
], ids=["one ulp", "one count"])
def test_a_moved_value_is_named_with_both_values(tmp_path, path, prefix, field, move):
    # one entry of a copy moved by one ulp or one count: the comparison names
    # it, with the copy's value as recorded and the file's as computed, and
    # nothing else
    entries = _read(path)
    key = min(k for k in entries if k.startswith(prefix))
    old = entries[key][field]
    new = move(old)
    entries[key] = dict(entries[key], **{field: new})
    copy = tmp_path / path.name
    copy.write_text(_dumps(entries), encoding="utf-8")
    assert _differences(_read(copy), _read(path)) == [f"moved {key}: {field} {new} -> {old}"]


def _counter_id(owner, name):
    where = f"{owner.__module__}.{owner.__qualname__}" if isinstance(owner, type) else owner.__name__
    return f"{where.removeprefix('heckezeros.')}.{name}"


@pytest.mark.parametrize("owner, name, field", COUNTERS,
                         ids=[_counter_id(o, n) for o, n, _ in COUNTERS])
def test_every_counter_replaces_a_function_and_fills_a_field(owner, name, field):
    # the counted attribute is the library's own function, not a counter left
    # in place (a renamed one fails here by name), and every result it can
    # return is counted in a field of ``FIELDS`` or in none
    fn = getattr(owner, name)
    assert callable(fn) and fn.__module__.startswith("heckezeros.")
    for got in (None, True, False, 0, 1.0, (0.5, 0.25)):
        assert field(got) in FIELDS + (None,), got


def test_every_field_is_filled_by_a_counter():
    # a field no counter can fill would read 0 in every entry and show nothing
    filled = {field(got) for _, _, field in COUNTERS for got in (None, True, 1.0)}
    assert set(FIELDS) <= filled


def test_every_counts_entry_holds_every_field_as_a_count():
    for key, counts in _read(COUNTS).items():
        assert tuple(sorted(counts)) == tuple(sorted(FIELDS)), key
        assert all(type(v) is int and v >= 0 for v in counts.values()), key


def test_an_entry_starts_from_empty_caches():
    # the counts are cold: whatever ran before, an entry's first build, F(0),
    # oracle sample and array plan are misses
    trial_functions.autocorrelation(alpha=-1.0, s=10.0)
    assert trial_functions._cached_build.cache_info().currsize > 0
    tally = _Tally()
    with tally.entry("cold"):
        for cache in (trial_functions._cached_build, trial_functions._cached_f0,
                      oracles._samples, _kernels._array_plan):
            assert cache.cache_info().currsize == 0, cache


def test_an_entry_counts_only_the_calls_inside_it():
    tally = _Tally()
    hits = tally.counter(lambda x: x, _every("F"))
    spends = tally.counter(lambda spent: spent, COUNTERS[0][2])
    with tally.entry("first"):
        hits(1), hits(2), spends(True), spends(False)
    with tally.entry("second"):
        hits(3)
    assert tally.counts["first"] == dict.fromkeys(FIELDS, 0) | {"F": 2, "budget_units": 1}
    assert tally.counts["second"] == dict.fromkeys(FIELDS, 0) | {"F": 1}


def test_a_counted_call_outside_every_entry_raises():
    # a call outside every entry would be lost from the counts: it fails
    tally = _Tally()
    hits = tally.counter(lambda x: x, _every("F"))
    with pytest.raises(TypeError):
        hits(1)
    with tally.entry("one"):
        hits(1)
    with pytest.raises(TypeError):
        hits(2)
    assert tally.counts["one"]["F"] == 1


if __name__ == "__main__":
    ledger, counts = {}, {}
    for prefix in SECTIONS:
        entries, counted = _computed(prefix)
        ledger |= entries
        counts |= counted
    LEDGER.write_text(_dumps(ledger), encoding="utf-8")
    COUNTS.write_text(_dumps(counts), encoding="utf-8")
