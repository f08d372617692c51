"""Bundled reference tables of computed bounds, plus the regression harness.

The package ships machine-readable datasets of previously computed repulsion
and density bounds (ids T1..T10, some with case variants), stored as plain
CSV with a sidecar manifest so the transcription stays diffable.  Values are
kept at their printed precision.  The regression harness recomputes every row:

* polynomial rows rerun the exact solver with the row's (lambda, J) and must
  match lambda* to a hard tolerance;
* smoothed rows were produced with externally defined weight families, so
  they are re-derived with the substitute family optimized per row and judged
  against a soft ratio band, flagged rather than failed outside it;
* the zero-density grid is likewise soft (substitute family).

Any row failing a hard regression by more than 10x tolerance is a
transcription suspect and is listed separately in the report.
"""

import csv
import io
import json
import math
import os
from dataclasses import dataclass, field, asdict
from importlib import resources

from . import dh, optimizer
from .errors import InvalidParameterError

_ENV_DATA_DIR = "HECKEZEROS_DATA_DIR"


@dataclass(frozen=True)
class TableRow:
    """One bound-table row; ``raw`` keeps the printed strings."""

    b: float
    reference_col: float | None
    lambda_star: float
    lam: float | None
    J: float | None
    raw: dict = field(default_factory=dict, compare=False)


@dataclass(frozen=True)
class BoundTable:
    id: str
    variant: str | None
    caption: str
    method: str                  # 'smoothed' | 'poly'
    case_name: str
    reference_factor: float | None
    rows: tuple

    @property
    def key(self):
        return self.id if self.variant is None else f"{self.id}:{self.variant}"


@dataclass(frozen=True)
class ZdTable:
    id: str
    caption: str
    lambdas: tuple
    b_values: tuple
    cells: tuple                 # rows of (int | inf | None)

    @property
    def key(self):
        return self.id


def _data_dir():
    override = os.environ.get(_ENV_DATA_DIR)
    if override:
        return override
    return str(resources.files("heckezeros").joinpath("data"))


def _read_text(name):
    path = os.path.join(_data_dir(), name)
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def manifest():
    return json.loads(_read_text("manifest.json"))["tables"]


def available_tables():
    """Keys of every bundled dataset, e.g. 'T4' or 'T2:quadratic'."""
    out = []
    for entry in manifest():
        out.append(entry["id"] if entry["variant"] is None
                   else f"{entry['id']}:{entry['variant']}")
    return out


def _row_from_record(rec):
    """A TableRow from one record (a CSV or JSON row); ``raw`` keeps it as text."""
    raw = {k: "" if v is None else str(v) for k, v in rec.items()}
    return TableRow(
        b=float(raw["b"]),
        reference_col=float(raw["ref"]) if raw.get("ref") else None,
        lambda_star=float(raw["lambda_star"]),
        lam=float(raw["lambda"]) if raw.get("lambda") else None,
        J=float(raw["J"]) if raw.get("J") else None,
        raw=raw)


def _parse_bound_rows(text):
    return tuple(_row_from_record(rec) for rec in csv.DictReader(io.StringIO(text)))


def _bound_columns(table):
    """The bound-table columns, in file order, that some row fills."""
    return [c for c in ("b", "ref", "lambda_star", "lambda", "J")
            if any(r.raw.get(c) for r in table.rows)]


def _parse_zd(text, caption):
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    b_values = tuple(float("0." + h[1:]) if h != "b0" else 0.0 for h in header[1:])
    lambdas = []
    cells = []
    for rec in reader:
        lambdas.append(float(rec[0]))
        row = []
        for v in rec[1:]:
            if v == "":
                row.append(None)
            elif v == "inf":
                row.append(math.inf)
            else:
                row.append(int(v))
        cells.append(tuple(row))
    return ZdTable("T1", caption, tuple(lambdas), b_values, tuple(cells))


def load_table(key):
    """Load a bundled table by key ('T4', 'T2:quadratic', ...)."""
    tid, _, variant = key.partition(":")
    variant = variant or None
    for entry in manifest():
        if entry["id"] == tid and (variant is None or entry["variant"] == variant):
            if variant is None and entry["variant"] is not None and tid != "T1":
                raise InvalidParameterError(
                    f"table {tid} has variants; use one of "
                    f"{[e['id'] + ':' + e['variant'] for e in manifest() if e['id'] == tid]}")
            text = _read_text(entry["file"])
            if entry["method"] == "zero-density":
                return _parse_zd(text, entry["caption"])
            return BoundTable(entry["id"], entry["variant"], entry["caption"],
                              entry["method"], entry["case"],
                              entry["reference_factor"], _parse_bound_rows(text))
    raise InvalidParameterError(f"no bundled table {key!r}; available: {available_tables()}")


def load_all():
    return [load_table(k) for k in available_tables()]


# ---------------------------------------------------------------------------
# integrity checks
# ---------------------------------------------------------------------------

def monotonicity_check(table):
    """b strictly increasing, lambda* strictly decreasing, as transcribed."""
    bs = [r.b for r in table.rows]
    ls = [r.lambda_star for r in table.rows]
    ok_b = all(b2 > b1 for b1, b2 in zip(bs, bs[1:]))
    ok_l = all(l2 < l1 for l1, l2 in zip(ls, ls[1:]))
    return ok_b and ok_l


def _printed_decimals(s):
    s = s.strip().lower()
    if "e" in s or "." not in s:
        return 0
    return len(s.split(".")[1])


@dataclass(frozen=True)
class RefCheckRow:
    b: float
    listed: float
    computed: float
    deviation: float
    tolerance: float
    passed: bool


def reference_column_check(table):
    """Check the reference column equals factor * log(1/b) per row.

    The stored values keep the printed precision, so the per-row tolerance is
    the half-ulp of the printed form plus a uniform slack of 5e-4.
    """
    if table.reference_factor is None:
        raise InvalidParameterError(f"table {table.key} has no reference column")
    out = []
    for r in table.rows:
        computed = table.reference_factor * math.log(1.0 / r.b)
        dec = _printed_decimals(r.raw.get("ref", ""))
        tol = 0.51 * 10.0 ** (-dec) + 5e-4 if dec else 5e-4
        dev = abs(computed - r.reference_col)
        out.append(RefCheckRow(r.b, r.reference_col, computed, dev, tol, dev <= tol))
    return out


# ---------------------------------------------------------------------------
# regression
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RowReport:
    b: float
    listed: float
    computed: float
    deviation: float
    ratio: float
    in_band: bool
    side_ok: bool
    note: str = ""


@dataclass(frozen=True)
class RegressionReport:
    table: str
    method: str
    tolerance: float
    rows: tuple
    passed: bool
    n_pass: int
    n_rows: int
    suspects: tuple = ()

    def summary(self):
        return (f"{self.table} [{self.method}]: {self.n_pass}/{self.n_rows} rows pass"
                f" ({'PASS' if self.passed else 'FAIL'})")


#: soft acceptance band for substitute-family reproduction of smoothed rows
SMOOTHED_BAND = (0.80, 1.05)
#: required in-band fraction for a smoothed regression to pass
SMOOTHED_FRACTION = 0.90


def regress(table, tolerance=2e-4, budget=120):
    """Recompute every row of a bound table.

    Polynomial tables rerun the exact solver with the row's (lambda, J); every
    row must match to ``tolerance`` with the side condition holding.  Smoothed
    tables re-derive each row with the substitute family optimized per row
    (``budget`` objective evaluations per row, split evenly over the generator
    profiles with at least 40 each) and pass when at least 90% of rows land in
    the 0.80..1.05 ratio band; out-of-band rows are flagged.  Density tables
    take the same per-cell budget.  The tolerance must be finite and >= 0.
    """
    if not (math.isfinite(tolerance) and tolerance >= 0):
        raise InvalidParameterError(f"tolerance must be finite and >= 0, got {tolerance}")
    if isinstance(table, str):
        table = load_table(table)
    if isinstance(table, ZdTable):
        return regress_zero_density(table, budget=budget)
    if table.method == "poly":
        return _regress_poly(table, tolerance)
    return _regress_smoothed(table, budget)


#: relative slack on the quartic side condition attributable to the source's
#: 4-digit printing of (lambda, J): the listed optima sit on the constraint
#: boundary, so the rounded parameters can land the root past it by O(1e-4)
SIDE_MARGIN_SLACK = 5e-4


def _regress_poly(table, tolerance):
    rows = []
    suspects = []
    for r in table.rows:
        if r.lam is None or r.J is None:
            rows.append(RowReport(r.b, r.lambda_star, math.nan, math.nan, math.nan,
                                  False, False, "skipped: missing (lambda, J)"))
            continue
        res = dh.solve_poly(table.case_name, r.b, r.lam, r.J)
        # the listed values are equation roots at the source's pre-rounding
        # parameters, so compare against the root; the capped valid bound
        # differs from it by at most the same printing noise
        computed = res.root
        dev = abs(computed - r.lambda_star)
        # listed values >= 1 carry one fewer decimal, so allow their print ulp
        tol_row = max(tolerance, 0.51 * 10.0 ** (-_printed_decimals(r.raw["lambda_star"])))
        rel_margin = res.side_margin * r.lam ** 4
        side_ok = rel_margin >= -SIDE_MARGIN_SLACK
        note = ""
        if res.side_limited:
            note = (f"side condition at root holds only within printed-parameter "
                    f"slack (relative margin {rel_margin:.1e}); capped valid bound "
                    f"{res.lambda_star:.6f}")
        ok = dev <= tol_row and side_ok
        rows.append(RowReport(r.b, r.lambda_star, computed, dev,
                              computed / r.lambda_star, ok, side_ok, note))
        if dev > 10 * tolerance:
            suspects.append(r.b)
    n_pass = sum(1 for r in rows if r.in_band)
    return RegressionReport(table.key, "poly", tolerance, tuple(rows),
                            n_pass == len(rows), n_pass, len(rows), tuple(suspects))


def _regress_smoothed(table, budget):
    rows = []
    warm = None
    for r in table.rows:
        res = optimizer.optimize_family_smoothed(table.case_name, r.b,
                                                 budget=budget, seed_params=warm)
        if res is None:
            rows.append(RowReport(r.b, r.lambda_star, math.nan, math.nan, math.nan,
                                  False, False, "no admissible weight found"))
            warm = None
            continue
        warm = {k: res.params[k] for k in ("alpha", "s")}
        ratio = res.lambda_star / r.lambda_star
        in_band = SMOOTHED_BAND[0] <= ratio <= SMOOTHED_BAND[1]
        note = "" if in_band else "out of band (flagged, substitute family)"
        rows.append(RowReport(r.b, r.lambda_star, res.lambda_star,
                              abs(res.lambda_star - r.lambda_star), ratio,
                              in_band, res.side_ok, note))
    n_pass = sum(1 for r in rows if r.in_band)
    passed = n_pass >= SMOOTHED_FRACTION * len(rows)
    return RegressionReport(table.key, "smoothed", math.nan, tuple(rows),
                            passed, n_pass, len(rows))


def regress_zero_density(table, budget=60, lambdas=None):
    """Soft regression of the density grid with the substitute family.

    A cell passes when the recomputed integer bound lies in [1, listed + 3];
    'inf' cells pass when no admissible weight is found either, and are
    flagged (not failed) otherwise.
    """
    if isinstance(table, str):
        table = load_table(table)
    rows = []
    for i, lam in enumerate(table.lambdas):
        if lambdas is not None and lam not in lambdas:
            continue
        for j, b in enumerate(table.b_values):
            listed = table.cells[i][j]
            if listed is None:
                continue
            n, params = optimizer.optimize_zd(lam, b, budget=budget)
            if math.isinf(listed):
                ok = True
                note = "" if math.isinf(n) else "finite where listed inf (flagged)"
                rows.append(RowReport(b, math.inf, float(n), math.nan, math.nan, ok, True, note))
                continue
            if math.isinf(n):
                rows.append(RowReport(b, listed, math.inf, math.nan, math.nan,
                                      False, True, f"no bound found at lambda={lam}"))
                continue
            ok = 1 <= n <= listed + 3
            note = "" if ok else f"outside [1, listed+3] at lambda={lam}"
            rows.append(RowReport(b, float(listed), float(n), abs(n - listed),
                                  n / listed if listed else math.nan, ok, True, note))
    n_pass = sum(1 for r in rows if r.in_band)
    return RegressionReport(table.key, "zero-density", math.nan, tuple(rows),
                            n_pass == len(rows), n_pass, len(rows))


# ---------------------------------------------------------------------------
# summary chains
# ---------------------------------------------------------------------------

def quadratic_chain():
    """(rows, b_min) feeding the uniform-constant reducer, quadratic case.

    Small-width rows above the very-small regime (widths > 1e-10) chained
    with the medium-width rows up to 0.1227.
    """
    t2 = load_table("T2:quadratic")
    t3 = load_table("T3:quadratic")
    rows = [(r.b, r.lambda_star) for r in t2.rows if r.b > 1e-10]
    rows += [(r.b, r.lambda_star) for r in t3.rows if r.b <= 0.1227]
    return sorted(rows), 1e-10


def principal_chain():
    """(rows, b_min) for the principal case: small-width rows up to 0.0875."""
    t2 = load_table("T2:principal")
    rows = [(r.b, r.lambda_star) for r in t2.rows if 1e-5 < r.b <= 0.0875]
    return sorted(rows), 1e-5


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def to_json(table):
    """Schema-stable JSON text for a bound table (round-trips via from_json)."""
    if isinstance(table, ZdTable):
        payload = {"id": table.id, "method": "zero-density", "caption": table.caption,
                   "lambdas": list(table.lambdas), "b_values": list(table.b_values),
                   "cells": [["inf" if v is not None and math.isinf(v) else v
                              for v in row] for row in table.cells]}
    else:
        payload = {"id": table.id, "variant": table.variant, "caption": table.caption,
                   "method": table.method, "case": table.case_name,
                   "reference_factor": table.reference_factor,
                   "rows": [r.raw for r in table.rows]}
    return json.dumps(payload, indent=2, sort_keys=True)


def from_json(text):
    payload = json.loads(text)
    if payload["method"] == "zero-density":
        cells = tuple(tuple(math.inf if v == "inf" else v for v in row)
                      for row in payload["cells"])
        return ZdTable(payload["id"], payload["caption"],
                       tuple(payload["lambdas"]), tuple(payload["b_values"]), cells)
    return BoundTable(payload["id"], payload["variant"], payload["caption"],
                      payload["method"], payload["case"], payload["reference_factor"],
                      tuple(_row_from_record(rec) for rec in payload["rows"]))


def to_markdown(table):
    if isinstance(table, ZdTable):
        head = ["lambda"] + [f"b>={b:g}" for b in table.b_values]
        lines = ["| " + " | ".join(head) + " |",
                 "|" + "---|" * len(head)]
        for lam, row in zip(table.lambdas, table.cells):
            cells = ["" if v is None else ("inf" if math.isinf(v) else str(v)) for v in row]
            lines.append("| " + f"{lam:g} | " + " | ".join(cells) + " |")
        return "\n".join(lines)
    cols = _bound_columns(table)
    lines = ["| " + " | ".join(cols) + " |", "|" + "---|" * len(cols)]
    for r in table.rows:
        lines.append("| " + " | ".join(r.raw.get(c, "") for c in cols) + " |")
    return "\n".join(lines)


def to_csv(table):
    if isinstance(table, ZdTable):
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["lambda"] + ["b" + (f"{b:g}".replace("0.", "") if b else "0")
                                 for b in table.b_values])
        for lam, row in zip(table.lambdas, table.cells):
            w.writerow([f"{lam:g}"] + ["" if v is None else ("inf" if math.isinf(v) else v)
                                       for v in row])
        return buf.getvalue()
    cols = _bound_columns(table)
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(cols)
    for r in table.rows:
        w.writerow([r.raw.get(c, "") for c in cols])
    return buf.getvalue()


def report_to_dict(report):
    """Regression report as plain JSON-safe data (NaN/inf become strings)."""
    def clean(x):
        if isinstance(x, float) and not math.isfinite(x):
            return "inf" if math.isinf(x) else None
        if isinstance(x, dict):
            return {k: clean(v) for k, v in x.items()}
        if isinstance(x, (list, tuple)):
            return [clean(v) for v in x]
        return x

    return clean(asdict(report))
