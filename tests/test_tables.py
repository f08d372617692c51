"""Bundled datasets: integrity, regression, chains, serialization."""

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


class TestReferenceColumn:
    @pytest.mark.parametrize("key", ["T2:quadratic", "T2:principal", "T3:quadratic",
                                     "T3:principal", "T7:nonprincipal", "T7:principal"])
    def test_log_column(self, key):
        rows = tables.reference_column_check(tables.load_table(key))
        assert all(r.passed for r in rows)

    def test_first_rows_reference_values(self):
        t2 = tables.load_table("T2:quadratic")
        assert t2.rows[0].reference_col == 11.51
        assert 0.5 * math.log(1e10) == pytest.approx(11.5129, abs=1e-4)
        t2p = tables.load_table("T2:principal")
        assert t2p.rows[0].reference_col == 11.51
        assert math.log(1e5) == pytest.approx(11.5129, abs=1e-4)

    def test_no_reference_column(self):
        with pytest.raises(InvalidParameterError):
            tables.reference_column_check(tables.load_table("T4"))


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
        rep = tables.regress_zero_density("T1", budget=200, lambdas=(0.1, 0.3))
        assert rep.passed
        assert rep.n_rows == 9   # 2 + 7 populated cells on those heights

    def test_computed_is_a_float_on_every_row(self):
        # the listed-inf cells where a finite N is flagged included
        rep = tables.regress_zero_density("T1", budget=60)
        assert all(type(r.computed) is float for r in rep.rows)
        flagged = [r for r in rep.rows if math.isinf(r.listed) and math.isfinite(r.computed)]
        assert len(flagged) == 9

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


class TestSerialization:
    @pytest.mark.parametrize("key", ["T4", "T2:quadratic", "T1"])
    def test_json_round_trip(self, key):
        t = tables.load_table(key)
        assert tables.from_json(tables.to_json(t)) == t

    def test_round_trip_regression_identical(self):
        t = tables.load_table("T4")
        rep1 = tables.regress(t)
        rep2 = tables.regress(tables.from_json(tables.to_json(t)))
        assert rep1 == rep2

    def test_json_numbers_read_as_printed_text(self):
        t = tables.load_table("T4")
        payload = json.loads(tables.to_json(t))
        payload["rows"] = [{k: float(v) for k, v in r.items()} for r in payload["rows"]]
        clone = tables.from_json(json.dumps(payload))
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

    def test_unknown_table(self):
        with pytest.raises(InvalidParameterError):
            tables.load_table("T99")
