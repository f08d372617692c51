"""Command-line interface: verbs, formats, exit codes, determinism."""

import argparse
import inspect
import json
import os
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from heckezeros import _kernels, cli, dh, optimizer, tables, trial_functions, verify, zfr
from heckezeros.errors import HeckeZerosError
from heckezeros.optimizer import SearchSpec, maximize_bound


def run(args, capsys):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestZfr:
    def test_order234(self, capsys):
        code, out, _ = run(["zfr", "--case", "order234", "--lambda", "0.9421"], capsys)
        assert code == 0
        assert "lambda_1 >= 0.122742" in out
        assert "side condition OK" in out

    def test_principal_json(self, capsys):
        code, out, _ = run(["zfr", "--case", "principal", "--lambda", "1.291",
                            "--json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert 0.0873 <= payload["lambda1"] <= 0.0878
        assert payload["side_ok"] and payload["side_limited"]

    def test_order5(self, capsys):
        code, out, _ = run(["zfr", "--case", "order5"], capsys)
        assert code == 0
        assert "0.148882" in out

    @pytest.mark.parametrize("extra, error", [
        ([], "InvalidParameterError: family 'triangle'"),
        (["--params", "bogus=1"], "InvalidParameterError: family 'triangle'"),
        # a key given twice, on the command line or in a family file
        (["--params", "x0=2,x0=3"], "error: key 'x0' is given twice"),
        (["--family-file", "family.cfg"], "error: key 'family' is given twice"),
        (["--family-file", "x0.cfg"], "error: key 'x0' is given twice"),
    ])
    def test_order_ge6_bad_family_params(self, capsys, tmp_path, monkeypatch, extra, error):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "family.cfg").write_text("family = triangle\nfamily = autocorrelation\n")
        (tmp_path / "x0.cfg").write_text("family = triangle\nx0 = 2\nx0 = 3\n")
        code, out, err = run(["zfr", "--case", "order-ge6", *extra], capsys)
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith(error)

    def test_missing_lambda_is_computation_error(self, capsys):
        code, _, err = run(["zfr", "--case", "order234"], capsys)
        assert code == 1
        assert "needs --lambda" in err

    @pytest.mark.parametrize("args, unread", [
        ("--case order5 --lambda 1e-320", "--lambda"),
        ("--case order5 --optimize", "--optimize"),
        ("--case order5 --family triangle --params x0=2", "--family, --params"),
        ("--case order5 --family-file weight.cfg", "--family-file"),
        ("--case order-ge6 --params x0=2 --lambda 0.5", "--lambda"),
        ("--case order-ge6 --params x0=2 --optimize", "--optimize"),
        ("--case order234 --lambda 0.9421 --family triangle", "--family"),
        ("--case principal --lambda 1.291 --params x0=2", "--params"),
        ("--case principal --optimize --family-file weight.cfg", "--family-file"),
        ("--case order234 --optimize --lambda 0.9421", "--lambda"),
        ("--case principal --optimize --lambda 1.291 --json", "--lambda"),
    ])
    def test_option_the_case_never_reads_is_a_usage_error(self, args, unread, capsys):
        # refused before any work (weight.cfg does not exist): nothing on
        # stdout, the unread options named on stderr, after the path, which
        # names json output
        with pytest.raises(SystemExit) as exc:
            cli.main(["zfr", *shlex.split(args)])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        path = f"zfr --case {args.split()[1]}" + (" --json" if "--json" in args else "")
        assert err.splitlines()[-1].endswith(f"error: {path} does not read {unread}")

    @pytest.mark.parametrize("args", [
        "--case order5 --phi 0.3",
        "--case order-ge6 --family triangle --params x0=4",
        "--case order234 --lambda 0.9421 --phi 0.3",
        "--case principal --optimize",
    ])
    def test_options_the_case_reads_are_accepted(self, args, capsys):
        code, out, _ = run(["zfr", *shlex.split(args)], capsys)
        assert code == 0 and out.startswith("zfr ")


class TestPathOptions:
    """Each verb's path reads its own input options (``cli._path``); any other
    given option is a usage error before any work, and an omitted one takes
    the default of the function that reads it."""

    @pytest.fixture
    def no_work(self, monkeypatch):
        # a refused command builds, solves, searches and loads nothing
        def fail(*args, **kwargs):
            raise AssertionError("a refused command did work")
        for module, name in [(dh, "solve_poly"), (dh, "solve_smoothed"),
                             (optimizer, "optimize_zd"), (tables, "regress"),
                             (tables, "load_table"), (trial_functions, "build_family"),
                             (zfr, "zfr_order5"), (verify, "run_suite")]:
            monkeypatch.setattr(module, name, fail)

    @pytest.mark.parametrize("args, path, unread", [
        ("dh --case sz-lp-principal --b 0.05 --lambda 3 --J 9 --params x0=1.5",
         "dh --case sz-lp-principal", "--lambda, --J"),
        ("dh --case cc-lp-nonprincipal --b 0.1227 --lambda 1.097 --J 0.7788 --family triangle",
         "dh --case cc-lp-nonprincipal", "--family"),
        ("dh --case cc-lp-nonprincipal --b 0.1 --lambda 1 --J 0.5 --family-file weight.cfg",
         "dh --case cc-lp-nonprincipal", "--family-file"),
        ("zd --lambda 0.2 --optimize --family triangle --params x0=99",
         "zd --optimize", "--family, --params"),
        ("zd --lambda 0.2 --optimize --budget 60 --family-file weight.cfg",
         "zd --optimize", "--family-file"),
        ("zd --lambda 0.2 --budget 60", "zd", "--budget"),
        ("zd --lambda 0.2 --family triangle --params x0=6 --budget 0", "zd", "--budget"),
        ("table --name T4 --budget 5 --tolerance 3", "table --name", "--tolerance, --budget"),
        ("table --tolerance 3", "table", "--tolerance"),
        ("table --regress T4 --name T4 --json", "table --regress T4 --json", "--name"),
        # a polynomial table's regression reads --tolerance, a smoothed one's
        # and T1's --budget
        ("table --regress T4 --budget 5", "table --regress T4", "--budget"),
        ("table --regress T2:principal --tolerance 0.5", "table --regress T2:principal",
         "--tolerance"),
        ("table --regress T1 --tolerance 0.5", "table --regress T1", "--tolerance"),
        # the quartic search of a polynomial case reads no budget
        ("optimize --case cc-lp-nonprincipal --b 0.1227 --budget 0",
         "optimize --case cc-lp-nonprincipal", "--budget"),
        # text output alone reads --precision and --verbose; table --name
        # alone reads --format md|csv, and prints no computed numbers
        ("zfr --case order5 --json --precision 3", "zfr --case order5 --json", "--precision"),
        ("verify --suite p4 --verbose --json", "verify --json", "--verbose"),
        ("table --format md", "table", "--format md"),
        ("table --regress T4 --csv", "table --regress T4", "--format csv"),
        ("table --name T4 --precision 3", "table --name", "--precision"),
        ("dh --case sz-lp-principal --b 0.05 --family-file weight.cfg --family "
         "autocorrelation --params x0=7", "dh --case sz-lp-principal --family-file",
         "--family, --params"),
        ("zd --lambda 0.2 --family-file weight.cfg --params x0=6",
         "zd --family-file", "--params"),
        ("zfr --case order-ge6 --family-file weight.cfg --family triangle",
         "zfr --case order-ge6 --family-file", "--family"),
    ])
    def test_option_the_path_does_not_read_is_a_usage_error(self, args, path, unread,
                                                             capsys, no_work):
        # weight.cfg does not exist: it is never opened
        with pytest.raises(SystemExit) as exc:
            cli.main(shlex.split(args))
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"heckezeros: error: {path} does not read {unread}\n"

    @pytest.mark.parametrize("args", [
        "dh --case cc-lp-nonprincipal --b 0.1227 --lambda 1.097 --J 0.7788",
        "dh --case sz-lp-principal --b 0.05 --family triangle --params x0=1.5",
        "dh --case sz-lp-principal --b 0.05 --family-file weight.cfg",
        "zd --lambda 0.2 --family triangle --params x0=6",
        "zd --lambda 0.2 --family-file triangle.cfg",
        "zd --lambda 0.2 --optimize --budget 60",
        "zfr --case order-ge6 --family-file triangle.cfg",
        "table --regress T4 --tolerance 3e-4 --precision 3",
        "table --regress T6 --budget 1",
        "table --name T4 --csv",
        "table --name T4 --format md --json",
        "table",
        "zfr --case order5 --json",
        "verify --suite p4 --verbose",
    ])
    def test_options_the_path_reads_are_accepted(self, args, capsys, tmp_path,
                                                 monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "weight.cfg").write_text(WEIGHT_CFG)
        (tmp_path / "triangle.cfg").write_text("family = triangle\nx0 = 6\n")
        code, out, err = run(shlex.split(args), capsys)
        assert (code, err) == (0, "") and out

    @pytest.mark.parametrize("args, module, fn, given", [
        ("zd --lambda 0.2 --optimize", optimizer, "optimize_zd", {}),
        ("zd --lambda 0.2 --optimize --budget 60", optimizer, "optimize_zd", {"budget": 60}),
        ("table --regress T4", tables, "regress", {}),
        ("table --regress T4 --tolerance 3e-4", tables, "regress", {"tolerance": 3e-4}),
        ("table --regress T1 --budget 0", tables, "regress", {"budget": 0}),
        ("table --regress T2:principal --budget 60", tables, "regress", {"budget": 60}),
    ])
    def test_omitted_option_takes_the_readers_default(self, args, module, fn, given,
                                                      monkeypatch):
        calls = []

        def stop(*args, **kwargs):
            calls.append(kwargs)
            raise HeckeZerosError("stop")
        monkeypatch.setattr(module, fn, stop)
        assert cli.main(shlex.split(args)) == 1
        assert [{k: v for k, v in kw.items() if k in ("budget", "tolerance")}
                for kw in calls] == [given]

    def test_optimize_budget_defaults_to_the_search_spec(self, monkeypatch):
        specs = []

        def stop(spec):
            specs.append(spec)
            raise HeckeZerosError("stop")
        monkeypatch.setattr(optimizer, "maximize_bound", stop)
        assert cli.main(shlex.split("optimize --case sz-lp-principal --b 0.1")) == 1
        assert [spec.max_evals for spec in specs] == [SearchSpec.max_evals]

    @pytest.mark.parametrize("verb, option, fn, name", [
        ("zd", "--budget", optimizer.optimize_zd, "budget"),
        ("table", "--budget", tables.regress, "budget"),
        ("table", "--tolerance", tables.regress, "tolerance"),
        ("optimize", "--budget", SearchSpec, "max_evals"),
    ])
    def test_help_gives_the_readers_default(self, verb, option, fn, name):
        # the function that reads the option keeps its default, which the
        # option's help names
        sub = next(a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)).choices[verb]
        text = next(a.help for a in sub._actions if option in a.option_strings)
        assert text.startswith("read with --")
        default = float(re.search(r"default ([0-9.e-]+)", text).group(1))
        assert default == inspect.signature(fn).parameters[name].default


class TestDh:
    def test_poly_case(self, capsys):
        code, out, _ = run(["dh", "--case", "cc-lp-nonprincipal", "--b", "0.1227",
                            "--lambda", "1.097", "--J", "0.7788"], capsys)
        assert code == 0
        assert "lambda* = 0.739121" in out

    def test_smoothed_case_with_family(self, capsys):
        code, out, _ = run(["dh", "--case", "sz-lp-principal", "--b", "0.05",
                            "--family", "triangle", "--params", "x0=1.5"], capsys)
        assert code == 0
        assert "lambda* =" in out

    def test_family_file(self, capsys, tmp_path):
        path = tmp_path / "weight.cfg"
        path.write_text("# substitute weight\nfamily = autocorrelation\n"
                        "alpha = -0.5\ns = 1.4\n")
        code, out, _ = run(["dh", "--case", "sz-lp-principal", "--b", "0.05",
                            "--family-file", str(path)], capsys)
        assert code == 0
        assert "alpha=-0.5" in out

    def test_no_bound_exit_code(self, capsys):
        code, _, err = run(["dh", "--case", "sz-lp-quadratic", "--b", "0.01",
                            "--family", "triangle", "--params", "x0=2"], capsys)
        assert code == 1
        assert "NoBoundError" in err

    def test_usage_error_exit_code(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["dh", "--case", "not-a-case", "--b", "0.1"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("args", [
        "verify --suite laplace --phi 7",           # --phi only where it is read
        "table --name T4 --phi 0.3",
        "dh --case sz-lp-principal --b 0.1 --csv",  # md and csv only on table
        "dh --case sz-lp-principal --b 0.1 --format md",
        "zfr --case order5 --precision -1",
        "verify --suite laplace --precision 2",     # its reports fix their own format
    ])
    def test_unread_or_invalid_option_is_a_usage_error(self, args, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(shlex.split(args))
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    def test_non_finite_phi_prints_no_bound(self, capsys):
        code, out, err = run(["dh", "--case", "cc-lp-nonprincipal", "--b", "0.1227",
                              "--lambda", "1.097", "--J", "0.7788", "--phi", "nan"],
                             capsys)
        assert code == 1
        assert out == ""
        assert "InvalidParameterError" in err


class TestZd:
    def test_direct_family(self, capsys):
        code, out, _ = run(["zd", "--lambda", "0.2", "--family", "triangle",
                            "--params", "x0=6"], capsys)
        assert code == 0
        assert "N <= 4" in out

    def test_precondition_failure(self, capsys):
        code, _, err = run(["zd", "--lambda", "1.5", "--family", "triangle",
                            "--params", "x0=0.2"], capsys)
        assert code == 1
        assert "BoundUnavailableError" in err

    @pytest.mark.parametrize("fmt", [[], ["--json"]])
    def test_one_transform_per_value(self, capsys, monkeypatch, fmt):
        # F(-b) and F(lambda - b), each once, for text and json alike
        kernel, calls = _kernels.f_real_scalar, []
        monkeypatch.setattr(_kernels, "f_real_scalar",
                            lambda *args: calls.append(args[-1]) or kernel(*args))
        code, out, _ = run(["zd", "--lambda", "0.2", "--family", "triangle",
                            "--params", "x0=6", *fmt], capsys)
        assert code == 0 and calls == [-0.0, 0.2]
        if fmt:
            assert json.loads(out)["cond1"] is json.loads(out)["cond2"] is True
        else:
            assert "preconditions True, True" in out


class TestInvalidInput:
    """Inadmissible input is a usage error reported before any search runs."""

    @pytest.mark.parametrize("args", [
        "zd --lambda 0.2 --vartheta 0.5 --optimize",
        "zd --lambda -0.1 --optimize",
        "zd --lambda nan --family triangle --params x0=8",
        # f(0) = 5.2e172: the density denominator's square leaves the float range
        "zd --lambda 0.2 --family autocorrelation --params alpha=5,s=40",
        "optimize --case sz-lp-principal --b nan",
        "optimize --case sz-lp-principal --b -1",
        "optimize --case cc-lp-nonprincipal --b nan",
        "optimize --case sz-lp-principal --b 0.1 --phi -0.25 --budget 10",
        "dh --case sz-lp-principal --b 0.1 --family triangle --params x0=2 --phi -0.25",
        "dh --case cc-lp-nonprincipal --b 0.1227 --lambda 1.097 --J 0.7788 --phi -0.25",
        "zfr --case order234 --lambda 0.9421 --phi -0.25",
        "zfr --case principal --optimize --phi -0.25",
        "zfr --case order-ge6 --params x0=2 --phi -0.25",
        "zfr --case order5 --phi nan",
        "zfr --case order5 --phi inf",
        "optimize --case sz-lp-principal --b 0.1 --budget 0",
        "zd --lambda 0.2 --optimize --budget -1",
        "table --regress T4 --tolerance inf",
        "table --regress T4 --tolerance nan",
        "table --regress T4 --tolerance -1",
        # a name that no bundled table has reads both --budget and
        # --tolerance, so the regression reports the name
        "table --regress NOPE",
        "table --regress NOPE --budget 5",
        "table --regress NOPE --tolerance 0.5",
        "table --regress T2 --budget 5",
    ])
    def test_one_error_line_and_no_output(self, args, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(shlex.split(args), capsys)
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("InvalidParameterError: ")


class TestTable:
    def test_listing(self, capsys):
        code, out, _ = run(["table"], capsys)
        assert code == 0
        assert "T2:quadratic" in out

    def test_markdown(self, capsys):
        code, out, _ = run(["table", "--name", "T4"], capsys)
        assert code == 0
        assert out.splitlines()[0].startswith("| b |")

    def test_regress_pass(self, capsys):
        code, out, _ = run(["table", "--regress", "T4"], capsys)
        assert code == 0
        assert "36/36 rows pass" in out

    def test_json_holds_the_loaded_table(self, capsys):
        code, out, _ = run(["table", "--name", "T4", "--json"], capsys)
        assert code == 0
        t4 = tables.load_table("T4")
        payload = json.loads(out)
        assert payload["rows"] == [r.raw for r in t4.rows]
        assert (payload["id"], payload["variant"], payload["method"], payload["case"],
                payload["caption"], payload["reference_factor"]) == (
            t4.id, t4.variant, t4.method, t4.case_name, t4.caption, t4.reference_factor)

    def test_csv_round_trip_values(self, capsys):
        code, out, _ = run(["table", "--name", "T2:quadratic", "--csv"], capsys)
        assert code == 0
        assert out.splitlines()[1] == "1e-10,11.51,10.99,.8010"


class TestVerify:
    def test_p4_suite(self, capsys):
        code, out, _ = run(["verify", "--suite", "p4"], capsys)
        assert code == 0
        assert "checks pass" in out


class TestDeterminism:
    def test_byte_identical_output(self, capsys):
        _, out1, _ = run(["optimize", "--case", "sz-lp-quadratic-medium",
                          "--b", "0.1227"], capsys)
        _, out2, _ = run(["optimize", "--case", "sz-lp-quadratic-medium",
                          "--b", "0.1227"], capsys)
        assert out1 == out2

    def test_precision_flag(self, capsys):
        _, out, _ = run(["zfr", "--case", "order234", "--lambda", "0.9421",
                         "--precision", "10"], capsys)
        assert "0.1227420581" in out

    def test_precision_flag_on_optimize(self, capsys):
        _, out, _ = run(["optimize", "--case", "cc-lp-nonprincipal", "--b", "0.1227",
                         "--precision", "10"], capsys)
        assert out.splitlines() == [
            "cc-lp-nonprincipal: b=0.1227 -> lambda* = 0.7391211676 (residual 0.0e+00)",
            "  parameters: lambda=1.096804324, J=0.7788367712"]

    def test_precision_flag_on_zfr_optimize(self, capsys):
        _, out, _ = run(["zfr", "--case", "principal", "--optimize",
                         "--precision", "10"], capsys)
        # the closed-form optimum, at the kink where the root meets the side
        # limit; a search to 1e-6 in lambda stopped 5.9e-8 short in width
        assert out.splitlines()[1] == (
            "zfr principal: lambda = 1.291742404 -> lambda_1 >= 0.08756718189"
            " (side condition OK) [side-condition limited]")

    @pytest.mark.parametrize("precision, width", [("6", "0.166568"), ("10", "0.1665681236")])
    def test_precision_flag_on_zfr_order_ge6(self, capsys, precision, width):
        _, out, _ = run(["zfr", "--case", "order-ge6", "--family", "triangle",
                         "--params", "x0=4", "--precision", precision], capsys)
        assert out == (f"zfr order-ge6: lambda = 0.3916 -> lambda_1 >= {width}"
                       " (side condition OK) [approximate (substitute weight)]\n")


#: ``$ heckezeros <args>`` lines, each followed by that command's exact stdout
TRANSCRIPT = Path(__file__).with_name("cli_transcript.txt")
README = Path(__file__).parents[1] / "README.md"
#: the weight file of the README's ``--family-file`` example
WEIGHT_CFG = "# weight.cfg\nfamily = autocorrelation\nalpha = -0.5\ns = 1.4\n"


#: (arguments, expected stdout) per transcript entry
GOLDEN = [tuple(block.split("\n", 1)) for block in
          re.split(r"(?m)^\$ heckezeros ", TRANSCRIPT.read_text(encoding="utf-8"))[1:]]


class TestGoldenOutput:
    """Every README CLI example prints exactly its pinned stdout.

    ``verify --suite all`` is left out: the acceptance gate runs it.
    """

    @pytest.mark.parametrize("command, expected", GOLDEN, ids=[c for c, _ in GOLDEN])
    def test_stdout_is_pinned(self, command, expected, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "weight.cfg").write_text(WEIGHT_CFG)
        code, out, _ = run(shlex.split(command), capsys)
        assert code == 0
        assert out == expected

    def test_transcript_covers_readme_examples(self):
        readme = README.read_text(encoding="utf-8")
        examples = re.findall(r"(?m)^heckezeros ([^#\n]*)", readme)
        examples += re.findall(r"`heckezeros ([^`]*)`", readme)
        commands = {c for c, _ in GOLDEN}
        missing = [e.strip() for e in examples
                   if e.strip() not in commands and e.strip() != "verify --suite all"]
        assert len(examples) >= 12 and not missing


def _env():
    """The environment with this checkout's package first on PYTHONPATH."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}


def test_python_dash_m_runs_the_cli():
    # ``python -m heckezeros`` is the ``heckezeros`` command: same stdout and
    # exit code as cli.main, the first transcript entry's here
    command, expected = GOLDEN[0]
    env = _env()
    proc = subprocess.run([sys.executable, "-m", "heckezeros", *shlex.split(command)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, expected, "")
    proc = subprocess.run([sys.executable, "-m", "heckezeros", "zfr"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2 and "usage" in proc.stderr


def test_closed_pipe_ends_quietly():
    # a reader that stops early, as in ``heckezeros table --name T1 | head -1``,
    # closes the pipe: the command exits 0 and writes nothing to stderr, no
    # error line and no failed flush at exit.  Here the pipe is closed before
    # the command writes
    proc = subprocess.Popen([sys.executable, "-m", "heckezeros", "table", "--name", "T1"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_env())
    proc.stdout.close()
    with proc.stderr:
        err = proc.stderr.read()
    assert (proc.wait(timeout=120), err) == (0, b"")


def test_smoothed_optimize(capsys):
    # ``optimize`` on a smoothed case runs maximize_bound's family search
    res = maximize_bound(SearchSpec("sz-lp-principal", 0.05, max_evals=80))
    code, out, err = run(["optimize", "--case", "sz-lp-principal", "--b", "0.05",
                          "--budget", "80"], capsys)
    assert (code, err) == (0, "")
    assert f"{res.lambda_star:.6g}" in out
