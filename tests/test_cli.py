"""Command-line interface: output contracts, exit codes, determinism."""

import dataclasses
import json
import os
import subprocess
import sys

import pytest

from implicitseries import UniSeries, cli
from implicitseries.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------- plain output

def test_solve_plain(capsys):
    code, out, err = run_cli(
        capsys, "solve", "--field", "q", "--poly", "X + Y^2", "--order", "6"
    )
    assert code == 0 and err == ""
    assert out == "0: 0\n1: 1\n2: 1\n3: 2\n4: 5\n5: 14\n6: 42\n"


def test_solve_plain_gf2_fixpoint(capsys):
    code, out, err = run_cli(
        capsys,
        "solve",
        "--field",
        "fp:2",
        "--poly",
        "X + Y^2",
        "--order",
        "8",
        "--method",
        "fixpoint",
    )
    assert code == 0 and err == ""
    assert out == "0: 0\n1: 1\n2: 1\n3: 0\n4: 1\n5: 0\n6: 0\n7: 0\n8: 1\n"


def test_lagrange_plain(capsys):
    code, out, err = run_cli(
        capsys,
        "lagrange",
        "--field",
        "q",
        "--phi",
        "(1+Y)^2",
        "--order",
        "3",
        "--variant",
        "char0",
    )
    assert code == 0 and err == ""
    assert out == "0: 0\n1: 1\n2: 2\n3: 5\n"


def test_verify_plain(capsys):
    code, out, err = run_cli(
        capsys, "verify", "--field", "fp:2", "--poly", "X + Y^2", "--order", "8"
    )
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == "methods: theorem fixpoint furstenberg"
    assert lines[1] == "agree: true"
    assert lines[2] == "residual_zero: true"
    assert lines[3:] == [
        "0: 0", "1: 1", "2: 1", "3: 0", "4: 1", "5: 0", "6: 0", "7: 0", "8: 1",
    ]


def test_verify_includes_char0_in_characteristic_zero(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--field", "q", "--poly", "X + Y^2", "--order", "4"
    )
    assert code == 0
    assert out.splitlines()[0] == "methods: theorem char0 fixpoint furstenberg"


def test_hasse_plain_both_box_spellings(capsys):
    expected = "0,0: 0\n0,1: 0\n0,2: 0\n"
    for box in ("0x4", "0,4"):
        code, out, err = run_cli(
            capsys,
            "hasse",
            "--field",
            "fp:2",
            "--poly",
            "(1+Y)^4",
            "--box",
            box,
            "--m",
            "2",
        )
        assert code == 0 and err == ""
        assert out == expected


def test_factor_plain(capsys):
    code, out, err = run_cli(
        capsys, "factor", "--field", "q", "--poly", "Y - X - Y^2", "--order", "2"
    )
    assert code == 0 and err == ""
    assert out == (
        "f 0: 0\nf 1: 1\nf 2: 1\n"
        "R 0,0: 1\nR 0,1: -1\nR 1,0: -1\nR 1,1: 0\nR 2,0: -1\nR 2,1: 0\n"
    )


def test_diag_plain(capsys):
    code, out, err = run_cli(
        capsys, "diag", "--field", "q", "--poly", "(1+X*Y)^3", "--order", "3"
    )
    assert code == 0 and err == ""
    assert out == "0: 1\n1: 3\n2: 3\n3: 1\n"


# -------------------------------------------------------------- json output

def test_solve_json_schema(capsys):
    code, out, err = run_cli(
        capsys,
        "solve",
        "--field",
        "q",
        "--poly",
        "X + Y^2",
        "--order",
        "4",
        "--output",
        "json",
    )
    assert code == 0 and err == ""
    assert out.count("\n") == 1 and out.endswith("\n")
    record = json.loads(out)
    assert list(record) == ["method", "field", "order", "coeffs", "residual_zero"]
    assert record == {
        "method": "theorem",
        "field": "q",
        "order": 4,
        "coeffs": ["0", "1", "1", "2", "5"],
        "residual_zero": True,
    }


def test_lagrange_json(capsys):
    code, out, _ = run_cli(
        capsys,
        "lagrange",
        "--field",
        "q",
        "--phi",
        "(1+Y)^2",
        "--order",
        "3",
        "--variant",
        "char0",
        "--output",
        "json",
    )
    assert code == 0
    record = json.loads(out)
    assert record["method"] == "lagrange-char0"
    assert record["coeffs"] == ["0", "1", "2", "5"]
    assert record["residual_zero"] is True


def test_verify_json(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify",
        "--field",
        "q",
        "--poly",
        "X + Y^2",
        "--order",
        "4",
        "--output",
        "json",
    )
    assert code == 0
    record = json.loads(out)
    assert list(record) == [
        "method", "field", "order", "methods", "agree", "residual_zero", "coeffs",
    ]
    assert record["methods"] == ["theorem", "char0", "fixpoint", "furstenberg"]
    assert record["agree"] is True


def test_factor_json(capsys):
    code, out, _ = run_cli(
        capsys,
        "factor",
        "--field",
        "q",
        "--poly",
        "Y - X - Y^2",
        "--order",
        "3",
        "--output",
        "json",
    )
    assert code == 0
    record = json.loads(out)
    assert record["f"] == ["0", "1", "1", "2"]
    assert record["r"][0] == ["1", "-1", "0"]
    # the cofactor's X-column tracks -f: R = 1 - f - Y
    assert [row[0] for row in record["r"]] == ["1", "-1", "-1", "-2"]


def test_json_big_integers_survive_as_strings(capsys):
    code, out, _ = run_cli(
        capsys,
        "solve",
        "--field",
        "q",
        "--poly",
        "X + Y^2",
        "--order",
        "20",
        "--output",
        "json",
    )
    assert code == 0
    record = json.loads(out)
    assert record["coeffs"][20] == "1767263190"
    assert all(isinstance(c, str) for c in record["coeffs"])


# ----------------------------------------------------------------- failures

def test_invalid_equation_exits_1(capsys):
    code, out, err = run_cli(
        capsys, "solve", "--field", "q", "--poly", "Y", "--order", "3"
    )
    assert code == 1 and out == ""
    assert err == "error: the coefficient of Y in P(0, Y) must vanish\n"


def test_syntax_error_exits_2(capsys):
    code, out, err = run_cli(
        capsys, "solve", "--field", "q", "--poly", "X +* Y", "--order", "3"
    )
    assert code == 2 and out == ""
    assert err == "error: expected a number, 'X', 'Y', or '(', found '*' (byte offset 3)\n"


def test_negative_exponent_exits_2(capsys):
    code, out, err = run_cli(
        capsys, "solve", "--field", "q", "--poly", "X^-2", "--order", "3"
    )
    assert code == 2
    assert err == "error: exponents must be nonnegative (byte offset 2)\n"


@pytest.mark.parametrize("poly", ["X + Y^9^9^9", "X + 2^9^9^9"])
def test_exponent_tower_reaching_2_64_exits_2(poly):
    # a fresh process with a timeout, so a tower folded exactly fails the
    # test instead of hanging it
    result = subprocess.run(
        [
            sys.executable, "-m", "implicitseries.cli",
            "solve", "--field", "q", "--poly", poly, "--order", "3",
        ],
        capture_output=True,
        text=True,
        timeout=10,
    )
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr == (
        "error: exponent tower reaches 2^64 or more (byte offset 6)\n"
    )


def test_composite_modulus_exits_1(capsys):
    code, out, err = run_cli(
        capsys, "solve", "--field", "fp:4", "--poly", "X + Y^2", "--order", "3"
    )
    assert code == 1
    assert err == "error: modulus 4 is not prime\n"


def test_char0_method_in_characteristic_p_exits_1(capsys):
    code, _, err = run_cli(
        capsys,
        "solve",
        "--field",
        "fp:3",
        "--poly",
        "X + Y^2",
        "--order",
        "3",
        "--method",
        "char0",
    )
    assert code == 1
    assert err == "error: the char0 method needs characteristic zero\n"


def test_bad_literal_exits_1(capsys):
    code, _, err = run_cli(
        capsys, "solve", "--field", "q", "--poly", "1/0", "--order", "3"
    )
    assert code == 1
    assert err == "error: literal with denominator zero (byte offset 0)\n"

    code, _, err = run_cli(
        capsys, "solve", "--field", "fp:2", "--poly", "X + 1/2*Y^2", "--order", "3"
    )
    assert code == 1
    assert (
        err
        == "error: denominator 2 is divisible by the characteristic 2 (byte offset 4)\n"
    )


@pytest.mark.parametrize(
    "broken, message",
    [
        ("fixpoint", "fixpoint disagrees with theorem at coefficient 3"),
        ("furstenberg", "furstenberg leaves a nonzero residual"),
    ],
    ids=["disagreement", "residual"],
)
def test_verify_names_the_failing_method(capsys, monkeypatch, broken, message):
    real = cli.solve_series

    def solve_with_one_fault(prob, n_max, method):
        report = real(prob, n_max, method)
        if method.value != broken:
            return report
        if broken == "furstenberg":
            return dataclasses.replace(report, residual_zero=False)
        coeffs = report.solution.coefficients()
        coeffs[3] += 1
        return dataclasses.replace(report, solution=UniSeries(prob.field, coeffs))

    monkeypatch.setattr(cli, "solve_series", solve_with_one_fault)
    code, out, err = run_cli(
        capsys, "verify", "--field", "q", "--poly", "X + Y^2", "--order", "5"
    )
    assert (code, out) == (1, "")
    assert err == f"error: verify failed: {message}\n"


def test_factor_without_linear_y_term_exits_1(capsys):
    code, _, err = run_cli(
        capsys, "factor", "--field", "q", "--poly", "X", "--order", "3"
    )
    assert code == 1
    assert err.startswith("error: ")


# ------------------------------------------------------------- deep input

@pytest.mark.parametrize(
    "poly, linear",
    [
        ("+".join(["X"] * 1200), "1200"),
        ("-" * 1200 + "X", "1"),
        ("X" + "^1" * 1200, "1"),
        ("(" * 100 + "X" + ")" * 100, "1"),
    ],
    ids=["sum", "negations", "tower", "parentheses-100"],
)
def test_deep_expressions_solve(capsys, poly, linear):
    # --poly= keeps a leading minus from reading as an option
    code, out, err = run_cli(
        capsys, "solve", "--field", "q", f"--poly={poly}", "--order", "3"
    )
    assert (code, err) == (0, "")
    assert out == f"0: 0\n1: {linear}\n2: 0\n3: 0\n"


@pytest.mark.parametrize("depth", [101, 400])
def test_parentheses_beyond_100_exit_2(capsys, depth):
    poly = "(" * depth + "X" + ")" * depth
    code, out, err = run_cli(
        capsys, "solve", "--field", "q", "--poly", poly, "--order", "3"
    )
    assert (code, out) == (2, "")
    assert err == "error: parentheses nested deeper than 100 (byte offset 100)\n"


# -------------------------------------------------------------- determinism

def test_repeat_invocations_are_identical(capsys):
    invocations = [
        ("solve", "--field", "q", "--poly", "X + Y^2", "--order", "6"),
        (
            "solve", "--field", "fp:2", "--poly", "X + Y^2",
            "--order", "8", "--method", "fixpoint",
        ),
        (
            "lagrange", "--field", "q", "--phi", "(1+Y)^2",
            "--order", "3", "--variant", "char0", "--output", "json",
        ),
    ]
    for argv in invocations:
        first = run_cli(capsys, *argv)
        second = run_cli(capsys, *argv)
        assert first == second
        assert first[0] == 0


def test_installed_entry_point():
    result = subprocess.run(
        [
            sys.executable, "-m", "implicitseries.cli",
            "solve", "--field", "q", "--poly", "X + Y^2", "--order", "4",
        ],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout == "0: 0\n1: 1\n2: 1\n3: 2\n4: 5\n"
    assert result.stderr == ""


def _fresh_process(argv, env):
    result = subprocess.run(
        [sys.executable, "-m", "implicitseries.cli", *argv],
        capture_output=True, text=True, env=env,
    )
    return result.returncode, result.stdout, result.stderr


def test_parser_reused_across_calls_in_one_process(capsys, monkeypatch):
    # main builds its parser once; later calls, subcommands and help
    # texts must read exactly as in a process of their own
    monkeypatch.setenv("COLUMNS", "80")
    env = dict(os.environ)
    calls = [
        ("solve", "--field", "q", "--poly", "X + Y^2", "--order", "6"),
        ("diag", "--field", "fp:7", "--poly", "(1+X*Y)^3", "--order", "3"),
    ]
    for argv in calls:
        assert run_cli(capsys, *argv) == _fresh_process(argv, env)
    helps = []
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        captured = capsys.readouterr()
        helps.append((exc.value.code, captured.out, captured.err))
    assert helps[0] == helps[1]
    assert helps[0] == _fresh_process(["--help"], env)
