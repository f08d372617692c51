"""Command-line interface.

Verbs: ``zfr`` (zero-free-region widths), ``dh`` (repulsion solvers),
``zd`` (zero-density bounds), ``table`` (bundled datasets and regression),
``optimize`` (parameter search), ``verify`` (oracle property suites).

Each command takes one *path* through its verb, chosen by its case or mode
in ``_path``, which names the options the path reads and the function that
runs it.  Every other given option is a usage error, refused before any
work.  A weight comes from one source: ``--family-file`` or
``--family``/``--params``, not both.  Output options join the same rule:
``--precision`` (default 6 significant digits) is read by the text output of
every path that prints computed numbers, ``--verbose`` by the text output of
``verify``, and ``--format md|csv`` by ``table --name``.  ``--json`` output
is schema-stable.

Exit codes: 0 success (also when the reader closes stdout early, as
``| head`` does; the rest of the output is dropped without a message),
1 computation error (no provable bound, failed preconditions), 2 usage
error.  Runs are deterministic: byte-identical output for identical
invocations.
"""

import argparse
import functools
import json
import math
import os
import sys

from . import dh, optimizer, tables, trial_functions, verify, zero_density, zfr
from ._kernels import backend
from .errors import HeckeZerosError


def _fmt(x, precision):
    if isinstance(x, float):
        if math.isinf(x):
            return "inf"
        return f"{x:.{precision}g}"
    return str(x)


def _pairs(items):
    """{key: value text} of ``key=value`` items, blank ones skipped; a key
    given twice is refused."""
    out = {}
    for item in filter(None, (item.strip() for item in items)):
        key, eq, val = (part.strip() for part in item.partition("="))
        if not eq:
            raise ValueError(f"malformed parameter {item!r}; expected key=value")
        if key in out:
            raise ValueError(f"key {key!r} is given twice")
        out[key] = val
    return out


def _family_from_args(args):
    if args.family_file is None:
        name = "triangle" if args.family is None else args.family
        params = _pairs((args.params or "").replace(";", ",").split(","))
    else:
        with open(args.family_file, "r", encoding="utf-8") as fh:
            params = _pairs(line.split("#", 1)[0] for line in fh)
        name = params.pop("family", None)
        if name is None:
            raise ValueError(f"family file {args.family_file} does not set 'family'")
    return trial_functions.build_family(name, **{k: float(v) for k, v in params.items()})


def _given(args, *dests):
    """The given ones of these options, as keyword arguments, so that an
    omitted one takes the default of the function that reads it."""
    return {dest: getattr(args, dest) for dest in dests
            if getattr(args, dest) is not None}


# ---------------------------------------------------------------------------
# paths: each runner takes (args, precision) and returns
# (json payload, text lines, exit status)
# ---------------------------------------------------------------------------

def _zfr_line(res, p):
    """Text line of a ZfrResult, with its side-limit and approximation notes."""
    notes = [note for note, on in (("side-condition limited", res.side_limited),
                                   ("approximate (substitute weight)", res.approximate))
             if on]
    return (f"zfr {res.case}: lambda = {_fmt(res.lam, p)} -> lambda_1 >= "
            f"{_fmt(res.lambda1, p)} (side condition {'OK' if res.side_ok else 'FAILED'})"
            + (f" [{', '.join(notes)}]" if notes else ""))


def _zfr_order5(args, p):
    val = zfr.zfr_order5(phi=args.phi)
    return {"case": "order5", "lambda1": val}, [f"zfr order5: lambda_1 >= {_fmt(val, p)}"], 0


def _zfr_order_ge6(args, p):
    f = _family_from_args(args)
    res = zfr.zfr_order_ge6(f, phi=args.phi)
    return ({"case": "order-ge6", "lambda1": res.lambda1, "approximate": True,
             "lambda_star": res.lam, "family": f.params}, [_zfr_line(res, p)], 0)


def _zfr_optimize(args, p):
    lam_opt, _ = zfr.zfr_optimize(args.case, phi=args.phi)
    res = zfr.zfr_solve(args.case, lam_opt, phi=args.phi)
    return ({"case": args.case, "lambda_opt": lam_opt, "lambda1": res.lambda1,
             "side_ok": res.side_ok, "side_limited": res.side_limited},
            [f"zfr {args.case}: best lambda = {_fmt(lam_opt, p)}", _zfr_line(res, p)], 0)


def _zfr_solve(args, p):
    if args.lam is None:
        raise HeckeZerosError(f"zfr {args.case} needs --lambda (or --optimize)")
    res = zfr.zfr_solve(args.case, args.lam, phi=args.phi)
    return ({"case": args.case, "lambda": res.lam, "lambda1": res.lambda1,
             "side_ok": res.side_ok, "side_limited": res.side_limited,
             "root": res.root, "residual": res.residual}, [_zfr_line(res, p)], 0)


def _bound(res, p):
    """Output of a BoundResult (dh and optimize): the bound, then its parameters."""
    return ({"case": res.case, "b": res.b, "lambda_star": res.lambda_star,
             "params": res.params, "side_ok": res.side_ok,
             "side_limited": res.side_limited, "residual": res.residual},
            [f"{res.case}: b={_fmt(res.b, p)} -> lambda* = {_fmt(res.lambda_star, p)}"
             f" (residual {res.residual:.1e})"
             + (" [side-condition limited]" if res.side_limited else ""),
             "  parameters: " + ", ".join(f"{k}={_fmt(v, p)}" for k, v in res.params.items())],
            0)


def _dh_poly(args, p):
    if args.lam is None or args.J is None:
        raise HeckeZerosError(f"polynomial case {args.case} needs --lambda and --J")
    return _bound(dh.solve_poly(args.case, args.b, args.lam, args.J, phi=args.phi), p)


def _dh_smoothed(args, p):
    f = _family_from_args(args)
    return _bound(dh.solve_smoothed(args.case, f, args.b, phi=args.phi), p)


def _optimize(args, p):
    budget = optimizer.SearchSpec.max_evals if args.budget is None else args.budget
    return _bound(optimizer.maximize_bound(optimizer.SearchSpec(
        args.case, args.b, max_evals=budget, phi=args.phi)), p)


def _zd_optimize(args, p):
    n, params = optimizer.optimize_zd(args.lam, args.b, vartheta=args.vartheta,
                                      phi=args.phi, **_given(args, "budget"))
    head = f"zd lambda={_fmt(args.lam, p)} b={_fmt(args.b, p)}: "
    if math.isinf(n):
        return ({"lambda": args.lam, "b": args.b, "n": "inf"},
                [head + "no admissible weight found (preconditions fail)"], 1)
    return ({"lambda": args.lam, "b": args.b, "n": n, "params": params},
            [head + f"N <= {n} (bound {_fmt(params['bound'], p)}, "
                    "optimized substitute weight)"], 0)


def _zd(args, p):
    f = _family_from_args(args)
    # raises unless both preconditions hold, so they are True below
    bound = zero_density.n_lambda_bound(
        zero_density.ZdQuery(f, args.lam, args.b, args.vartheta, args.phi))
    n = zero_density.int_bound(bound)
    return ({"lambda": args.lam, "b": args.b, "vartheta": args.vartheta,
             "cond1": True, "cond2": True, "bound": bound, "n": n},
            [f"zd lambda={_fmt(args.lam, p)} b={_fmt(args.b, p)}: "
             f"N <= {n} (bound {_fmt(bound, p)}; preconditions True, True)"], 0)


def _table_regress(args, p):
    rep = tables.regress(args.regress, **_given(args, "tolerance", "budget"))
    lines = [rep.summary()]
    lines += [f"  b={_fmt(row.b, p)}: listed {_fmt(row.listed, p)} "
              f"computed {_fmt(row.computed, p)} {'ok' if row.in_band else 'FLAG'} {row.note}"
              for row in rep.rows if not row.in_band or row.note]
    return tables.report_to_dict(rep), lines, 0 if rep.passed else 1


def _table_list(args, p):
    lines = ["bundled tables:"]
    lines += [f"  {key:26s} [{entry['method']}] {entry['caption']}"
              for key, entry in zip(tables.available_tables(), tables.manifest())]
    return {"tables": tables.available_tables()}, lines, 0


def _table_name(args, p, text):
    """``table --name``: the table as JSON, or as ``text(table)`` (markdown or csv)."""
    t = tables.load_table(args.name)
    return json.loads(tables.to_json(t)), text(t).splitlines(), 0


def _verify(args, p):
    reports = verify.run_suite(args.suite)
    failures = [r for r in reports if not r.passed]
    lines = [f"verification backend: {backend()}"]
    lines += [str(r) for r in (reports if args.verbose else failures)]
    lines.append(f"{len(reports) - len(failures)}/{len(reports)} checks pass")
    return ({"suite": args.suite, "backend": backend(), "n_checks": len(reports),
             "n_failures": len(failures), "failures": [str(r) for r in failures]},
            lines, 0 if not failures else 1)


#: the options, by dest, that some path does not read; each is None unless
#: given, so that a given one can be refused
_PATH_OPTIONS = {"--lambda": "lam", "--J": "J", "--optimize": "optimize",
                 "--family": "family", "--params": "params",
                 "--family-file": "family_file", "--name": "name",
                 "--tolerance": "tolerance", "--budget": "budget",
                 "--precision": "precision", "--verbose": "verbose"}

#: the options a regression reads, by the method of its table
_REGRESS_READS = {"poly": ("--tolerance",), "smoothed": ("--budget",),
                  "zero-density": ("--budget",)}


def _path(args):
    """(name, options read, runner) of the path that ``args`` take through
    their verb.  A weight path reads the family file alone where one is
    given, else --family and --params; text output alone reads --precision
    (where it prints computed numbers) and --verbose.

    - zfr: order5 nothing, order-ge6 a weight, order234 and principal
      --optimize where given, else --lambda;
    - dh: a poly case --lambda and --J, a smoothed case a weight;
    - zd: --lambda, and --optimize with --budget, or else a weight;
    - table: --regress with --tolerance for a polynomial table and --budget
      for a smoothed table or T1 (both for a name the manifest does not
      know), --name with --format md|csv, or else nothing (the listing);
    - optimize: --budget for a smoothed case, nothing for a poly case;
      verify: --verbose.
    """
    verb, json_out = args.verb, args.format == "json"
    prec = () if json_out else ("--precision",)
    file = getattr(args, "family_file", None) is not None
    weight = ("--family-file",) if file else ("--family", "--params")
    wname = " --family-file" if file else ""
    if verb == "zfr":
        name = f"zfr --case {args.case}"
        if args.case == "order5":
            read, runner = prec, _zfr_order5
        elif args.case == "order-ge6":
            name, read, runner = name + wname, prec + weight, _zfr_order_ge6
        elif args.optimize:
            read, runner = prec + ("--optimize",), _zfr_optimize
        else:
            read, runner = prec + ("--lambda",), _zfr_solve
    elif verb == "dh":
        name = f"dh --case {args.case}"
        if dh.get_case(args.case).method == "poly":
            read, runner = prec + ("--lambda", "--J"), _dh_poly
        else:
            name, read, runner = name + wname, prec + weight, _dh_smoothed
    elif verb == "zd":   # either path reads --lambda, which zd requires
        if args.optimize:
            name, runner = "zd --optimize", _zd_optimize
            read = prec + ("--lambda", "--optimize", "--budget")
        else:
            name, read, runner = "zd" + wname, prec + ("--lambda",) + weight, _zd
    elif verb == "table" and args.regress is not None:
        methods = dict(zip(tables.available_tables(),
                           (entry["method"] for entry in tables.manifest())))
        name, runner = f"table --regress {args.regress}", _table_regress
        read = prec + _REGRESS_READS.get(methods.get(args.regress), ("--tolerance", "--budget"))
    elif verb == "table" and args.name is not None:
        text = tables.to_csv if args.format == "csv" else tables.to_markdown
        name, read = "table --name", ("--name", "--format md", "--format csv")
        runner = functools.partial(_table_name, text=text)
    elif verb == "table":
        name, read, runner = "table", (), _table_list
    elif verb == "optimize":
        name, runner = f"optimize --case {args.case}", _optimize
        read = prec + (("--budget",) if dh.get_case(args.case).method == "smoothed" else ())
    else:
        name, read, runner = "verify", () if json_out else ("--verbose",), _verify
    return name + (" --json" if json_out else ""), read, runner


def _given_options(args):
    """The given options that some path does not read, in ``_PATH_OPTIONS`` order."""
    given = [flag for flag, dest in _PATH_OPTIONS.items()
             if getattr(args, dest, None) is not None]
    if args.format in ("md", "csv"):
        given.append(f"--format {args.format}")
    return given


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_common(sub, formats=("text", "json"), phi=True, precision=True):
    if precision:
        sub.add_argument("--precision", type=int, default=None,
                         help="text output: significant digits of the computed "
                              "numbers (default 6)")
    sub.add_argument("--format", choices=formats, default="text",
                     help="output format (default text)"
                          + ("; md and csv are read by --name alone" if "csv" in formats
                             else ""))
    sub.add_argument("--json", dest="format", action="store_const", const="json",
                     help="shorthand for --format json")
    if "csv" in formats:
        sub.add_argument("--csv", dest="format", action="store_const", const="csv",
                         help="shorthand for --format csv")
    if phi:
        sub.add_argument("--phi", type=float, default=dh.PHI,
                         help="critical-strip growth constant (default 1/4)")


def _add_family(sub):
    # None where not given (the triangle, no parameters): see _PATH_OPTIONS
    sub.add_argument("--family", default=None,
                     help="trial weight family (triangle | autocorrelation; default triangle)")
    sub.add_argument("--params", default=None,
                     help="family parameters, e.g. 'x0=2' or 'alpha=0.5,s=1.2'")
    sub.add_argument("--family-file", default=None,
                     help="key=value text file defining the family")


def build_parser():
    ap = argparse.ArgumentParser(
        prog="heckezeros",
        description="Explicit numerics for low-lying zeros of Hecke L-functions")
    sp = ap.add_subparsers(dest="verb", required=True)

    z = sp.add_parser("zfr", help="zero-free-region width by character order")
    z.add_argument("--case", required=True,
                   choices=("order-ge6", "order5", "order234", "principal"))
    z.add_argument("--lambda", dest="lam", type=float, default=None)
    z.add_argument("--optimize", action="store_true", default=None)
    _add_family(z)
    _add_common(z)

    d = sp.add_parser("dh", help="zero-repulsion bound for one case")
    d.add_argument("--case", required=True, choices=sorted(dh.CASES))
    d.add_argument("--b", type=float, required=True,
                   help="assumed upper bound on the exceptional width")
    d.add_argument("--lambda", dest="lam", type=float, default=None)
    d.add_argument("--J", type=float, default=None)
    _add_family(d)
    _add_common(d)

    y = sp.add_parser("zd", help="zero-density bound N(lambda)")
    y.add_argument("--lambda", dest="lam", type=float, required=True)
    y.add_argument("--b", type=float, default=0.0)
    y.add_argument("--vartheta", type=float, default=zero_density.VARTHETA)
    y.add_argument("--optimize", action="store_true", default=None,
                   help="optimize the substitute weight family")
    y.add_argument("--budget", type=int, default=None,
                   help="read with --optimize: weights the search scores (default "
                        f"{optimizer.ZD_BUDGET}), split over the two profiles with at least "
                        "40 each (so about 80 at any budget below 80)")
    _add_family(y)
    _add_common(y)

    t = sp.add_parser("table", help="bundled reference tables")
    t.add_argument("--name", default=None, help="table key, e.g. T4 or T2:quadratic")
    t.add_argument("--regress", default=None, metavar="NAME",
                   help="recompute a table and report deviations")
    t.add_argument("--tolerance", type=float, default=None,
                   help="read with --regress of a polynomial table: the deviation "
                        f"a row may show (default {tables.REGRESS_TOLERANCE:.0e})"
                        .replace("e-0", "e-"))   # 2e-4, not 2e-04
    t.add_argument("--budget", type=int, default=None,
                   help="read with --regress of a smoothed table or T1: weights a "
                        "search scores per row (T1: per cell; default "
                        f"{tables.REGRESS_BUDGET}), at least 40 per profile")
    _add_common(t, formats=("text", "md", "csv", "json"), phi=False)

    o = sp.add_parser("optimize", help="parameter search for a repulsion case")
    o.add_argument("--case", required=True, choices=sorted(dh.CASES))
    o.add_argument("--b", type=float, required=True)
    o.add_argument("--budget", type=int, default=None,
                   help="read with --case of a smoothed case: weights the search "
                        f"scores (default {optimizer.SearchSpec.max_evals}), at least "
                        "40 per profile, so about 80 at any budget below 80")
    _add_common(o)

    v = sp.add_parser("verify", help="run oracle-backed property suites")
    v.add_argument("--suite", default="all",
                   choices=sorted(verify.SUITES) + ["all"])
    v.add_argument("--verbose", action="store_true", default=None,
                   help="print passing checks too (text output)")
    _add_common(v, phi=False, precision=False)
    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    precision = getattr(args, "precision", None)   # verify offers no --precision
    if (precision or 0) < 0:
        ap.error(f"argument --precision: must be an integer >= 0, got {precision}")
    path, read, runner = _path(args)
    unread = [flag for flag in _given_options(args) if flag not in read]
    if unread:   # one line: no usage, as the command parsed
        ap.exit(2, f"{ap.prog}: error: {path} does not read {', '.join(unread)}\n")
    try:
        payload, lines, status = runner(args, 6 if precision is None else precision)
        if args.format == "json":
            print(json.dumps(payload, indent=2, sort_keys=True))
        else:
            print(*lines, sep="\n")
        sys.stdout.flush()   # a reader gone away shows here, not at exit
        return status
    except BrokenPipeError:
        # the reader closed the pipe (``| head``): stop quietly, with what is
        # still buffered sent to devnull, so the flush at exit fails on nothing
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0
    except HeckeZerosError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
