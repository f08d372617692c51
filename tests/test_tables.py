"""Bundled datasets: integrity, regression, chains, serialization."""

import dataclasses
import json
import math

import pytest

from heckezeros import dh, tables
from heckezeros.errors import InvalidParameterError

ALL_BOUND_TABLES = ["T2:quadratic", "T2:principal", "T3:quadratic", "T3:principal",
                    "T4", "T5", "T6", "T7:nonprincipal", "T7:principal",
                    "T8:nonprincipal", "T8:chi2-principal-real", "T9", "T10"]
POLY_TABLES = ["T3:quadratic", "T3:principal", "T4", "T5", "T9", "T10"]


def test_manifest_complete():
    keys = tables.available_tables()
    assert set(keys) == set(ALL_BOUND_TABLES) | {"T1"}


@pytest.mark.parametrize("key", ["T2", "T2:"])
def test_a_table_with_variants_needs_one(key):
    with pytest.raises(InvalidParameterError) as info:
        tables.load_table(key)
    assert str(info.value) == ("table T2 has variants; use one of "
                               "['T2:quadratic', 'T2:principal']")


def test_a_table_without_variants_loads_by_its_id():
    assert isinstance(tables.load_table("T1"), tables.ZdTable)
    assert tables.load_table("T4").key == "T4"


@pytest.mark.parametrize("key", ALL_BOUND_TABLES)
def test_monotonicity_as_transcribed(key):
    assert tables.monotonicity_check(tables.load_table(key))


@pytest.mark.parametrize("key,n", [
    ("T2:quadratic", 25), ("T2:principal", 38), ("T3:quadratic", 22),
    ("T3:principal", 41), ("T4", 36), ("T5", 43), ("T6", 28),
    ("T7:nonprincipal", 63), ("T7:principal", 41), ("T8:nonprincipal", 37),
    ("T8:chi2-principal-real", 26), ("T9", 43), ("T10", 36),
])
def test_row_counts(key, n):
    assert len(tables.load_table(key).rows) == n


def test_poly_tables_carry_parameters():
    for key in POLY_TABLES:
        t = tables.load_table(key)
        assert all(r.lam is not None and r.J is not None for r in t.rows)


def test_smoothed_tables_carry_family_parameter():
    for key in ("T2:quadratic", "T6", "T8:nonprincipal"):
        t = tables.load_table(key)
        assert all(r.lam is not None for r in t.rows)


def test_cross_table_consistency_shared_rows():
    """The two second-zero/second-character computations coincide past 0.125."""
    t4 = {r.b: (r.lambda_star, r.lam, r.J) for r in tables.load_table("T4").rows}
    t9 = {r.b: (r.lambda_star, r.lam, r.J) for r in tables.load_table("T9").rows}
    shared = [b for b in t4 if b >= 0.125]
    assert len(shared) == 35
    for b in shared:
        assert t4[b] == t9[b]
    t5 = {r.b: (r.lambda_star, r.lam, r.J) for r in tables.load_table("T5").rows}
    t10 = {r.b: (r.lambda_star, r.lam, r.J) for r in tables.load_table("T10").rows}
    for b in (0.125, 0.20, 0.2909):
        assert t5[b] == t10[b]


def reference_column_check(table):
    """(b, listed, computed, deviation, tolerance, passed) of each row: the
    reference column against factor * log(1/b).

    A check of the bundled data alone, which no library code reads.  The
    stored values keep the printed precision, so the per-row tolerance is the
    half-ulp of the printed form plus a uniform slack of 5e-4.
    """
    out = []
    for r in table.rows:
        computed = table.reference_factor * math.log(1.0 / r.b)
        dec = tables._printed_decimals(r.raw.get("ref", ""))
        tol = 0.51 * 10.0 ** (-dec) + 5e-4 if dec else 5e-4
        dev = abs(computed - r.reference_col)
        out.append((r.b, r.reference_col, computed, dev, tol, dev <= tol))
    return out


class TestReferenceColumn:
    @pytest.mark.parametrize("key", ["T2:quadratic", "T2:principal", "T3:quadratic",
                                     "T3:principal", "T7:nonprincipal", "T7:principal"])
    def test_log_column(self, key):
        rows = reference_column_check(tables.load_table(key))
        assert rows and all(passed for *_, passed in rows)

    def test_first_rows_reference_values(self):
        t2 = tables.load_table("T2:quadratic")
        assert t2.rows[0].reference_col == 11.51
        assert 0.5 * math.log(1e10) == pytest.approx(11.5129, abs=1e-4)
        t2p = tables.load_table("T2:principal")
        assert t2p.rows[0].reference_col == 11.51
        assert math.log(1e5) == pytest.approx(11.5129, abs=1e-4)

    def test_no_reference_column(self):
        t4 = tables.load_table("T4")
        assert t4.reference_factor is None
        assert all(r.reference_col is None for r in t4.rows)


class TestPolyRegression:
    @pytest.mark.parametrize("key", POLY_TABLES)
    def test_full_regression(self, key):
        rep = tables.regress(key, tolerance=2e-4)
        assert rep.passed, rep.summary()
        assert not rep.suspects
        # 4-decimal rows must meet the hard tolerance as stated
        for row in rep.rows:
            if row.listed < 1.0:
                assert row.deviation <= 2e-4

    @pytest.mark.parametrize("tolerance", [math.inf, math.nan, -1.0])
    def test_bad_tolerance_rejected_before_any_solve(self, tolerance, monkeypatch):
        # inf passed every row, nan failed every row and -1 acted as 0
        def no_solve(*args, **kwargs):
            raise AssertionError("a row was solved")

        monkeypatch.setattr(tables.dh, "solve_poly", no_solve)
        with pytest.raises(InvalidParameterError, match="tolerance"):
            tables.regress("T4", tolerance=tolerance)

    def test_skipped_row_and_suspect(self):
        # a row without (lambda, J) fails unsolved; a row 10 tolerances off
        # its listed value is a transcription suspect
        t4 = tables.load_table("T4")
        first, second, *rest = t4.rows
        raw = {k: v for k, v in first.raw.items() if k not in ("lambda", "J")}
        first = dataclasses.replace(first, lam=None, J=None, raw=raw)
        second = dataclasses.replace(second, lambda_star=0.7,
                                     raw={**second.raw, "lambda_star": "0.7000"})
        rep = tables.regress(dataclasses.replace(t4, rows=(first, second, *rest)))
        skipped, off = rep.rows[:2]
        assert skipped.note == "skipped: missing (lambda, J)" and not skipped.in_band
        assert math.isnan(skipped.computed)
        assert not off.in_band
        assert rep.suspects == (off.b,) and not rep.passed
        assert rep.n_pass == rep.n_rows - 2

    def test_spot_row(self):
        rep = tables.regress("T3:quadratic")
        row = next(r for r in rep.rows if r.b == 0.2866)
        assert row.computed == pytest.approx(0.2868, abs=2e-4)

    def test_side_margins_within_printed_parameter_slack(self):
        for key in POLY_TABLES:
            t = tables.load_table(key)
            for r in t.rows:
                res = dh.solve_poly(t.case_name, r.b, r.lam, r.J)
                assert res.side_margin * r.lam ** 4 >= -tables.SIDE_MARGIN_SLACK


class TestZdTable:
    def test_shape_and_sentinels(self):
        t1 = tables.load_table("T1")
        assert len(t1.lambdas) == 21
        assert t1.b_values[0] == 0.0 and t1.b_values[3] == 0.1227
        row = dict(zip(t1.b_values, t1.cells[t1.lambdas.index(0.45)]))
        assert math.isinf(row[0.0])
        assert row[0.0875] == 41
        assert dict(zip(t1.b_values, t1.cells[4]))[0.0] == 4  # lambda = .2

    def test_blank_cells_parse_to_none(self):
        t1 = tables.load_table("T1")
        assert t1.cells[0][3] is None      # lambda=.1, b=.1227 not displayed


class TestZdRegression:
    def test_spot_heights_soft(self):
        t1 = tables.load_table("T1")
        rows = [t1.lambdas.index(lam) for lam in (0.1, 0.3)]
        spots = tables.ZdTable(t1.id, t1.caption, tuple(t1.lambdas[i] for i in rows),
                               t1.b_values, tuple(t1.cells[i] for i in rows))
        rep = tables.regress_zero_density(spots, budget=200)
        assert rep.passed
        assert rep.n_rows == 9   # 2 + 7 populated cells on those heights

    def test_computed_is_a_float_on_every_row(self):
        # the listed-inf cells where a finite N is flagged included
        rep = tables.regress_zero_density("T1", budget=60)
        assert all(type(r.computed) is float for r in rep.rows)
        flagged = [r for r in rep.rows if math.isinf(r.listed) and math.isfinite(r.computed)]
        assert len(flagged) == 9

    @pytest.mark.parametrize("key", ["T4", "T2:principal"])
    def test_bound_table_rejected(self, key):
        with pytest.raises(InvalidParameterError, match=f"table {key} is not"):
            tables.regress_zero_density(key, budget=5)

    @staticmethod
    def one_cell(lam, b, listed):
        return tables.ZdTable("T1", "", (lam,), (b,), ((listed,),))

    def test_default_budget_is_regress_budget(self):
        # 120 weights per cell, as through regress (it was 60 here): at
        # lambda = 0.25, b = 0 a budget of 60 finds N = 6 and 120 the listed 5
        cell = self.one_cell(0.25, 0.0, 5)
        rep = tables.regress_zero_density(cell)
        assert tables.REGRESS_BUDGET == 120
        assert rep == tables.regress_zero_density(cell, budget=120)
        assert rep.rows[0].computed == 5.0
        assert tables.regress_zero_density(cell, budget=60).rows[0].computed == 6.0

    def test_regress_takes_a_density_table(self):
        # the path of ``table --regress T1``
        cell = self.one_cell(0.25, 0.0, 5)
        assert tables.regress(cell, budget=80) == tables.regress_zero_density(cell, budget=80)
        assert tables.regress(cell) == tables.regress_zero_density(cell)

    def test_no_bound_found_fails_the_cell(self):
        # no weight of the family meets the preconditions at lambda = 0.5,
        # b = 0, where a finite N is listed here
        rep = tables.regress_zero_density(self.one_cell(0.5, 0.0, 7), budget=60)
        (row,) = rep.rows
        assert math.isinf(row.computed) and not row.in_band and not rep.passed
        assert row.note == "no bound found at lambda=0.5"

    @pytest.mark.slow
    def test_full_grid_soft(self):
        rep = tables.regress_zero_density("T1", budget=120)
        assert rep.passed
        assert rep.n_rows == 122


def test_data_dir_override(monkeypatch):
    import heckezeros.tables as tb
    real = tb._data_dir()
    monkeypatch.setenv("HECKEZEROS_DATA_DIR", real)
    assert tables.load_table("T4").rows[0].lambda_star == 0.7391
    monkeypatch.setenv("HECKEZEROS_DATA_DIR", "/nonexistent")
    with pytest.raises(OSError):
        tables.load_table("T4")


class TestChains:
    def test_quadratic_chain_structure(self):
        rows, b_min = tables.quadratic_chain()
        assert b_min == 1e-10
        assert rows[0] == (1e-9, 9.920)
        assert rows[-1] == (0.1227, 0.4665)
        assert len(rows) == 24 + 5

    def test_principal_chain_structure(self):
        rows, b_min = tables.principal_chain()
        assert b_min == 1e-5
        assert rows[0] == (1e-4, 9.324)
        assert rows[-1] == (0.0875, 1.836)


def json_fields(table):
    """The fields of ``table`` as ``tables.to_json`` writes them."""
    if isinstance(table, tables.ZdTable):
        return {"id": table.id, "method": "zero-density", "caption": table.caption,
                "lambdas": list(table.lambdas), "b_values": list(table.b_values),
                "cells": [["inf" if v == math.inf else v for v in row] for row in table.cells]}
    return {"id": table.id, "variant": table.variant, "caption": table.caption,
            "method": table.method, "case": table.case_name,
            "reference_factor": table.reference_factor, "rows": [r.raw for r in table.rows]}


class TestSerialization:
    @pytest.mark.parametrize("key", ["T4", "T2:quadratic", "T1"])
    def test_json_round_trip(self, key):
        t = tables.load_table(key)
        assert json.loads(tables.to_json(t)) == json_fields(t)

    def test_round_trip_regression_identical(self):
        # the JSON rows, read as the CSV's records are, regress as the table
        t = tables.load_table("T4")
        rows = tuple(map(tables._row_from_record, json.loads(tables.to_json(t))["rows"]))
        assert tables.regress(dataclasses.replace(t, rows=rows)) == tables.regress(t)

    def test_json_numbers_read_as_printed_text(self):
        t = tables.load_table("T4")
        rows = tuple(tables._row_from_record({k: float(v) for k, v in r.raw.items()})
                     for r in t.rows)
        clone = dataclasses.replace(t, rows=rows)
        assert clone == t
        assert clone.rows[0].raw["lambda_star"] == "0.7391"
        assert tables.regress(clone).passed

    def test_markdown_and_csv_render(self):
        t = tables.load_table("T4")
        md = tables.to_markdown(t)
        assert md.splitlines()[0].startswith("| b |")
        assert ".7391" in md
        csv_text = tables.to_csv(t)
        assert csv_text.splitlines()[0] == "b,lambda_star,lambda,J"
        t1 = tables.load_table("T1")
        assert "inf" in tables.to_csv(t1)
        # the text of ``table --name T1``: a blank for a cell not shown
        md = tables.to_markdown(t1).splitlines()
        assert md[0] == ("| lambda | b>=0 | b>=0.0875 | b>=0.1 | b>=0.1227 | b>=0.15"
                         " | b>=0.2 | b>=0.25 | b>=0.3 | b>=0.35 |")
        assert md[1] == "|" + "---|" * 10
        assert md[2] == "| 0.1 | 2 | 2 |  |  |  |  |  |  |  |"
        assert len(md) == 2 + len(t1.lambdas)
        assert "| inf |" in tables.to_markdown(t1)

    def test_unknown_table(self):
        with pytest.raises(InvalidParameterError):
            tables.load_table("T99")
