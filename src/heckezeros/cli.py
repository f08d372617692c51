"""Command-line interface.

Verbs: ``zfr`` (zero-free-region widths), ``dh`` (repulsion solvers),
``zd`` (zero-density bounds), ``table`` (bundled datasets and regression),
``optimize`` (parameter search), ``verify`` (oracle property suites).

Exit codes: 0 success (also when the reader closes stdout early, as
``| head`` does; the rest of the output is dropped without a message),
1 computation error (no provable bound, failed preconditions), 2 usage
error, which includes an input option that the chosen path of the verb
does not read (``_path``), refused before any work.  A command takes its
weight from one source: ``--family-file`` or ``--family``/``--params``,
not both.  All numeric output uses 6 significant digits unless
``--precision`` overrides it (every verb but ``verify``, whose check
reports fix their own format); ``--json`` output is schema-stable.
Runs are deterministic: byte-identical output for identical invocations.
"""

import argparse
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


def _parse_params(text):
    out = {}
    if not text:
        return out
    for item in text.replace(";", ",").split(","):
        item = item.strip()
        if not item:
            continue
        key, _, val = item.partition("=")
        if not _:
            raise ValueError(f"malformed parameter {item!r}; expected key=value")
        out[key.strip()] = float(val.strip())
    return out


def _read_family_file(path):
    name, params = None, {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            key, _, val = line.partition("=")
            key, val = key.strip(), val.strip()
            if key == "family":
                name = val
            else:
                params[key] = float(val)
    if name is None:
        raise ValueError(f"family file {path} does not set 'family'")
    return name, params


def _family_from_args(args):
    if args.family_file is not None:
        name, params = _read_family_file(args.family_file)
    else:
        name = "triangle" if args.family is None else args.family
        params = _parse_params(args.params)
    return trial_functions.build_family(name, **params)


#: the input options, by dest, that a path of some verb does not read.  A
#: verb with such a path leaves each None unless it is given, so that a given
#: one can be refused
_PATH_OPTIONS = {"--lambda": "lam", "--J": "J", "--optimize": "optimize",
                 "--family": "family", "--params": "params",
                 "--family-file": "family_file", "--name": "name",
                 "--regress": "regress", "--tolerance": "tolerance",
                 "--budget": "budget"}


def _weight_path(name, args):
    """(name, options read) of a path that reads a weight: the family file
    alone where one is given, else --family and --params."""
    if args.family_file is not None:
        return f"{name} --family-file", ("--family-file",)
    return name, ("--family", "--params")


def _path(args):
    """(name, options read) of the path that ``args`` take through their
    verb: the options of ``_PATH_OPTIONS`` that it reads.

    - zfr: order5 none, order-ge6 a weight, order234 and principal
      --optimize where given, else --lambda;
    - dh: a poly case --lambda and --J, a smoothed case a weight;
    - zd: --lambda, and --optimize with --budget, or else a weight;
    - table: --regress with --tolerance and --budget, or else --name;
    - optimize: --budget; verify: none of them.
    """
    if args.verb == "zfr":
        name = f"zfr --case {args.case}"
        if args.case == "order5":
            return name, ()
        if args.case == "order-ge6":
            return _weight_path(name, args)
        return name, ("--optimize",) if args.optimize else ("--lambda",)
    if args.verb == "dh":
        name = f"dh --case {args.case}"
        if dh.get_case(args.case).method == "poly":
            return name, ("--lambda", "--J")
        return _weight_path(name, args)
    if args.verb == "zd":   # either path reads --lambda, which zd requires
        if args.optimize:
            return "zd --optimize", ("--lambda", "--optimize", "--budget")
        name, read = _weight_path("zd", args)
        return name, ("--lambda",) + read
    if args.verb == "table":
        if args.regress is not None:
            return "table --regress", ("--regress", "--tolerance", "--budget")
        return "table", ("--name",)
    return args.verb, ("--budget",)   # optimize and verify: one path each


def _given(args, *dests):
    """The given ones of these options, as keyword arguments, so that an
    omitted one takes the default of the function that reads it."""
    return {dest: getattr(args, dest) for dest in dests
            if getattr(args, dest) is not None}


def _bound_lines(res, p):
    """Text lines of a BoundResult: the bound, then its parameters."""
    return [f"{res.case}: b={_fmt(res.b, p)} -> lambda* = {_fmt(res.lambda_star, p)}"
            f" (residual {res.residual:.1e})"
            + (" [side-condition limited]" if res.side_limited else ""),
            "  parameters: " + ", ".join(f"{k}={_fmt(v, p)}" for k, v in res.params.items())]


def _zfr_line(res, p):
    """Text line of a ZfrResult, with its side-limit and approximation notes."""
    notes = [note for note, on in (("side-condition limited", res.side_limited),
                                   ("approximate (substitute weight)", res.approximate))
             if on]
    return (f"zfr {res.case}: lambda = {_fmt(res.lam, p)} -> lambda_1 >= "
            f"{_fmt(res.lambda1, p)} (side condition {'OK' if res.side_ok else 'FAILED'})"
            + (f" [{', '.join(notes)}]" if notes else ""))


def _emit(payload, lines, args):
    """payload -> stdout as json, or the prepared text lines otherwise."""
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)


# ---------------------------------------------------------------------------
# verbs
# ---------------------------------------------------------------------------

def _cmd_zfr(args):
    p = args.precision
    if args.case == "order5":
        val = zfr.zfr_order5(phi=args.phi)
        _emit({"case": "order5", "lambda1": val},
              [f"zfr order5: lambda_1 >= {_fmt(val, p)}"], args)
        return 0
    if args.case == "order-ge6":
        f = _family_from_args(args)
        res = zfr.zfr_order_ge6(f, phi=args.phi)
        _emit({"case": "order-ge6", "lambda1": res.lambda1, "approximate": True,
               "lambda_star": res.lam, "family": f.params},
              [_zfr_line(res, p)], args)
        return 0
    if args.optimize:
        lam_opt, l1 = zfr.zfr_optimize(args.case, phi=args.phi)
        res = zfr.zfr_solve(args.case, lam_opt, phi=args.phi)
        _emit({"case": args.case, "lambda_opt": lam_opt, "lambda1": res.lambda1,
               "side_ok": res.side_ok, "side_limited": res.side_limited},
              [f"zfr {args.case}: best lambda = {_fmt(lam_opt, p)}", _zfr_line(res, p)],
              args)
        return 0
    if args.lam is None:
        raise HeckeZerosError(f"zfr {args.case} needs --lambda (or --optimize)")
    res = zfr.zfr_solve(args.case, args.lam, phi=args.phi)
    _emit({"case": args.case, "lambda": res.lam, "lambda1": res.lambda1,
           "side_ok": res.side_ok, "side_limited": res.side_limited,
           "root": res.root, "residual": res.residual},
          [_zfr_line(res, p)], args)
    return 0


def _cmd_dh(args):
    p = args.precision
    case = dh.get_case(args.case)
    if case.method == "poly":
        if args.lam is None or args.J is None:
            raise HeckeZerosError(f"polynomial case {case.name} needs --lambda and --J")
        res = dh.solve_poly(case, args.b, args.lam, args.J, phi=args.phi)
    else:
        f = _family_from_args(args)
        res = dh.solve_smoothed(case, f, args.b, phi=args.phi)
    _emit({"case": res.case, "b": res.b, "lambda_star": res.lambda_star,
           "params": res.params, "side_ok": res.side_ok,
           "side_limited": res.side_limited, "residual": res.residual},
          _bound_lines(res, p), args)
    return 0


def _cmd_zd(args):
    p = args.precision
    if args.optimize:
        n, params = optimizer.optimize_zd(args.lam, args.b, vartheta=args.vartheta,
                                          phi=args.phi, **_given(args, "budget"))
        if math.isinf(n):
            _emit({"lambda": args.lam, "b": args.b, "n": "inf"},
                  [f"zd lambda={_fmt(args.lam, p)} b={_fmt(args.b, p)}: "
                   "no admissible weight found (preconditions fail)"], args)
            return 1
        _emit({"lambda": args.lam, "b": args.b, "n": n, "params": params},
              [f"zd lambda={_fmt(args.lam, p)} b={_fmt(args.b, p)}: N <= {n} "
               f"(bound {_fmt(params['bound'], p)}, optimized substitute weight)"],
              args)
        return 0
    f = _family_from_args(args)
    # raises unless both preconditions hold, so they are True below
    bound = zero_density.n_lambda_bound(
        zero_density.ZdQuery(f, args.lam, args.b, args.vartheta, args.phi))
    n = zero_density.int_bound(bound)
    _emit({"lambda": args.lam, "b": args.b, "vartheta": args.vartheta,
           "cond1": True, "cond2": True, "bound": bound, "n": n},
          [f"zd lambda={_fmt(args.lam, p)} b={_fmt(args.b, p)}: "
           f"N <= {n} (bound {_fmt(bound, p)}; preconditions True, True)"], args)
    return 0


def _cmd_table(args):
    p = args.precision
    if args.regress:
        rep = tables.regress(args.regress, **_given(args, "tolerance", "budget"))
        lines = [rep.summary()]
        for row in rep.rows:
            if not row.in_band or row.note:
                lines.append(f"  b={_fmt(row.b, p)}: listed {_fmt(row.listed, p)} "
                             f"computed {_fmt(row.computed, p)} "
                             f"{'ok' if row.in_band else 'FLAG'} {row.note}")
        _emit(tables.report_to_dict(rep), lines, args)
        return 0 if rep.passed else 1
    if args.name is None:
        lines = ["bundled tables:"]
        for entry in tables.manifest():
            key = entry["id"] if entry["variant"] is None else f"{entry['id']}:{entry['variant']}"
            lines.append(f"  {key:26s} [{entry['method']}] {entry['caption']}")
        _emit({"tables": tables.available_tables()}, lines, args)
        return 0
    t = tables.load_table(args.name)
    if args.format == "json":
        print(tables.to_json(t))
    elif args.format == "csv":
        sys.stdout.write(tables.to_csv(t))
    else:
        print(tables.to_markdown(t))
    return 0


def _cmd_optimize(args):
    spec = optimizer.SearchSpec(args.case, args.b, max_evals=args.budget,
                                phi=args.phi)
    res = optimizer.maximize_bound(spec)
    _emit({"case": res.case, "b": res.b, "lambda_star": res.lambda_star,
           "params": res.params, "side_limited": res.side_limited},
          _bound_lines(res, args.precision), args)
    return 0


def _cmd_verify(args):
    reports = verify.run_suite(args.suite)
    failures = [r for r in reports if not r.passed]
    lines = [f"verification backend: {backend()}"]
    lines += [str(r) for r in (reports if args.verbose else failures)]
    lines.append(f"{len(reports) - len(failures)}/{len(reports)} checks pass")
    _emit({"suite": args.suite, "backend": backend(),
           "n_checks": len(reports), "n_failures": len(failures),
           "failures": [str(r) for r in failures]}, lines, args)
    return 0 if not failures else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_common(sub, formats=("text", "json"), phi=True, precision=True):
    if precision:
        sub.add_argument("--precision", type=int, default=6,
                         help="significant digits for numeric output (default 6)")
    sub.add_argument("--format", choices=formats, default="text")
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
    z.set_defaults(fn=_cmd_zfr)

    d = sp.add_parser("dh", help="zero-repulsion bound for one case")
    d.add_argument("--case", required=True, choices=sorted(dh.CASES))
    d.add_argument("--b", type=float, required=True,
                   help="assumed upper bound on the exceptional width")
    d.add_argument("--lambda", dest="lam", type=float, default=None)
    d.add_argument("--J", type=float, default=None)
    _add_family(d)
    _add_common(d)
    d.set_defaults(fn=_cmd_dh)

    y = sp.add_parser("zd", help="zero-density bound N(lambda)")
    y.add_argument("--lambda", dest="lam", type=float, required=True)
    y.add_argument("--b", type=float, default=0.0)
    y.add_argument("--vartheta", type=float, default=0.75)
    y.add_argument("--optimize", action="store_true", default=None,
                   help="optimize the substitute weight family")
    y.add_argument("--budget", type=int, default=None,
                   help="read with --optimize: weights the search scores (default "
                        "300), split over the two profiles with at least 40 each "
                        "(so about 80 at any budget below 80)")
    _add_family(y)
    _add_common(y)
    y.set_defaults(fn=_cmd_zd)

    t = sp.add_parser("table", help="bundled reference tables")
    t.add_argument("--name", default=None, help="table key, e.g. T4 or T2:quadratic")
    t.add_argument("--regress", default=None, metavar="NAME",
                   help="recompute a table and report deviations")
    t.add_argument("--tolerance", type=float, default=None,
                   help="read with --regress: the deviation a polynomial table's "
                        "row may show (default 2e-4)")
    t.add_argument("--budget", type=int, default=None,
                   help="read with --regress: weights a search scores per row "
                        "(T1: per cell; default 120), at least 40 per profile")
    _add_common(t, formats=("text", "md", "csv", "json"), phi=False)
    t.set_defaults(fn=_cmd_table)

    o = sp.add_parser("optimize", help="parameter search for a repulsion case")
    o.add_argument("--case", required=True, choices=sorted(dh.CASES))
    o.add_argument("--b", type=float, required=True)
    o.add_argument("--budget", type=int, default=6000,
                   help="evaluations of the search: (lambda, J) solves, or weights "
                        "(at least 40 per profile, so about 80 at any budget below 80)")
    _add_common(o)
    o.set_defaults(fn=_cmd_optimize)

    v = sp.add_parser("verify", help="run oracle-backed property suites")
    v.add_argument("--suite", default="all",
                   choices=sorted(verify.SUITES) + ["all"])
    v.add_argument("--verbose", action="store_true", help="print passing checks too")
    _add_common(v, phi=False, precision=False)
    v.set_defaults(fn=_cmd_verify)
    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    if getattr(args, "precision", 0) < 0:   # verify offers no --precision
        ap.error(f"argument --precision: must be >= 0, got {args.precision}")
    path, read = _path(args)
    unread = [flag for flag, dest in _PATH_OPTIONS.items()
              if getattr(args, dest, None) is not None and flag not in read]
    if unread:   # one line: no usage, as the command parsed
        ap.exit(2, f"{ap.prog}: error: {path} does not read {', '.join(unread)}\n")
    try:
        status = args.fn(args)
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
