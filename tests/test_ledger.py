"""The results ledger: every bundled bound the library computes, in one file.

``tests/ledger.json`` holds, as ``repr`` strings, every quartic row's searched
bound (``maximize_bound``), every smoothed row warm-chained by
``tables.regress`` at ``REGRESS_BUDGET`` and each table's summary, every T1
cell's density search at that budget, the zero-free-region widths, and the
full ``repr`` of a few searches at other budgets (the CLI's defaults among
them).  ``test_ledger_holds_every_result`` recomputes them, one section of the
file per test (``-k regressed_tables`` runs the smoothed chains alone), and
fails on any difference, naming each moved entry with its old and new value,
and each added or removed one.

A change that moves results on purpose rewrites the file with

    PYTHONPATH=src python tests/test_ledger.py

and its diff, one line per moved entry, is the evidence of what moved.
"""

import json
import math
import pathlib

import pytest

from heckezeros import optimizer, tables, zfr
from test_search_snap import SEARCH_ROWS

LEDGER = pathlib.Path(__file__).with_name("ledger.json")

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


def _quartic_rows():
    out = {}
    for key in QUARTIC_TABLES:
        table = tables.load_table(key)
        for i, row in enumerate(table.rows):
            res = optimizer.maximize_bound(optimizer.SearchSpec(table.case_name, row.b))
            out[f"maximize_bound {key} row {i:03d} b={row.b!r}"] = {
                "lambda_star": repr(res.lambda_star), "lambda": repr(res.params["lambda"]),
                "J": repr(res.params["J"]), "side_limited": repr(res.side_limited)}
    return out


def _regressed_tables():
    out = {}
    for key in SMOOTHED_TABLES + ("T1",):
        report = tables.regress(key)
        out[f"regress {key} summary"] = {"summary": report.summary()}
        if key == "T1":
            continue
        for i, row in enumerate(report.rows):
            out[f"regress {key} row {i:03d} b={row.b!r}"] = {
                "computed": repr(row.computed), "in_band": repr(row.in_band)}
    return out


def _density_cells():
    out = {}
    t1 = tables.load_table("T1")
    for i, lam in enumerate(t1.lambdas):
        for j, b in enumerate(t1.b_values):
            if t1.cells[i][j] is None:
                continue
            n, params = optimizer.optimize_zd(lam, b, budget=tables.REGRESS_BUDGET)
            out[f"optimize_zd T1 cell {i:02d},{j:02d} lambda={lam!r} b={b!r}"] = {
                "N": repr(n), "bound": repr(params.get("bound"))}
    return out


def _zero_free_regions():
    out = {f"zfr_optimize {case}": {"repr": repr(zfr.zfr_optimize(case))}
           for case in zfr.CASES}
    out["zfr_order5"] = {"repr": repr(zfr.zfr_order5())}
    return out


def _family_searches():
    out = {}
    for budget, rows in ((120, SEARCH_ROWS), (optimizer.SearchSpec.max_evals, SEARCHES_DEFAULT)):
        for name, b in rows:
            res = optimizer.optimize_family_smoothed(name, b, budget=budget)
            out[f"optimize_family_smoothed {name} b={b!r} budget={budget}"] = {"repr": repr(res)}
    return out


def _density_searches():
    return {f"optimize_zd lambda={lam!r} b={b!r} budget={optimizer.ZD_BUDGET}": {
        "repr": repr(optimizer.optimize_zd(lam, b))} for lam, b in DENSITY_DEFAULT}


#: the ledger's sections: each key prefix, and what computes the entries whose
#: keys begin with it (no key begins with two of the prefixes)
SECTIONS = {"maximize_bound ": _quartic_rows, "regress ": _regressed_tables,
            "optimize_zd T1 cell ": _density_cells, "zfr_": _zero_free_regions,
            "optimize_family_smoothed ": _family_searches,
            "optimize_zd lambda=": _density_searches}


def _entries():
    """Every ledger entry, computed: ``{key: {field: repr}}``."""
    return {key: value for compute in SECTIONS.values() for key, value in compute().items()}


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
    computed = SECTIONS[prefix]()
    assert all(key.startswith(prefix) for key in computed)
    recorded = {key: value for key, value in _read(LEDGER).items() if key.startswith(prefix)}
    moved = _differences(recorded, computed)
    assert not moved, ("results differ from tests/ledger.json; if on purpose, rewrite it "
                       "with `PYTHONPATH=src python tests/test_ledger.py`:\n" + "\n".join(moved))


def test_every_ledger_entry_is_in_one_section():
    # an entry no section computes would never be compared: it is one that
    # was removed
    for key in _read(LEDGER):
        assert sum(key.startswith(prefix) for prefix in SECTIONS) == 1, f"removed {key}"


def test_ledger_file_is_in_its_written_form():
    assert _dumps(_read(LEDGER)) == LEDGER.read_text(encoding="utf-8")


def test_a_one_ulp_move_is_named_with_both_values(tmp_path):
    # one entry of a copy moved by one ulp: the comparison names it, with the
    # copy's value as recorded and the ledger's as computed, and nothing else
    entries = _read(LEDGER)
    key = min(k for k in entries if k.startswith("maximize_bound "))
    old = entries[key]["lambda_star"]
    new = repr(math.nextafter(float(old), math.inf))
    entries[key] = dict(entries[key], lambda_star=new)
    copy = tmp_path / "ledger.json"
    copy.write_text(_dumps(entries), encoding="utf-8")
    assert _differences(_read(copy), _read(LEDGER)) == [
        f"moved {key}: lambda_star {new} -> {old}"]


if __name__ == "__main__":
    LEDGER.write_text(_dumps(_entries()), encoding="utf-8")
