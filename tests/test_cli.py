"""Command-line interface: verbs, formats, exit codes, determinism."""

import json
import os
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from heckezeros import _kernels, cli, tables


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

    @pytest.mark.parametrize("extra", [[], ["--params", "bogus=1"]])
    def test_order_ge6_bad_family_params(self, capsys, extra):
        code, out, err = run(["zfr", "--case", "order-ge6", *extra], capsys)
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("InvalidParameterError: family 'triangle'")

    def test_missing_lambda_is_computation_error(self, capsys):
        code, _, err = run(["zfr", "--case", "order234"], capsys)
        assert code == 1
        assert "needs --lambda" in err


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
        "optimize --case cc-lp-nonprincipal --b 0.1227 --budget 0",
        "zd --lambda 0.2 --optimize --budget -1",
        "table --regress T4 --tolerance inf",
        "table --regress T4 --tolerance nan",
        "table --regress T4 --tolerance -1",
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

    def test_json_round_trips_through_loader(self, capsys):
        code, out, _ = run(["table", "--name", "T4", "--json"], capsys)
        assert code == 0
        clone = tables.from_json(out)
        assert tables.regress(clone) == tables.regress(tables.load_table("T4"))

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
        assert out.splitlines()[1] == (
            "zfr principal: lambda = 1.291742328 -> lambda_1 >= 0.0875671767"
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


def test_python_dash_m_runs_the_cli():
    # ``python -m heckezeros`` is the ``heckezeros`` command: same stdout and
    # exit code as cli.main, the first transcript entry's here
    command, expected = GOLDEN[0]
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}
    proc = subprocess.run([sys.executable, "-m", "heckezeros", *shlex.split(command)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, expected, "")
    proc = subprocess.run([sys.executable, "-m", "heckezeros", "zfr"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2 and "usage" in proc.stderr
