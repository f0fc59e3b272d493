"""Command-line interface: output contracts, exit codes, determinism."""

import dataclasses
import decimal
import json
import math
import os
import random
import re
import resource
import subprocess
import sys
from fractions import Fraction

import pytest

from implicitseries import UniSeries, cli, series
from implicitseries.cli import main

from conftest import (
    FIELDS,
    lagrange_oracle,
    make_rng,
    random_nonzero_value,
    random_value,
    with_and_without_int_digit_limit,
)


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


def _box_refused(capsys, box):
    with pytest.raises(SystemExit) as exc:
        main(["hasse", "--field", "q", "--poly", "X", "--box", box, "--m", "0"])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    # argparse's usage block, then one error line
    last = captured.err.splitlines()[-1]
    assert last == (
        "implicitseries hasse: error: argument --box: expected a box like 4x3 "
        f"(x-order by y-order), got {box!r}"
    )


def test_malformed_box_exits_2(capsys):
    for box in ("4x", "4x3x2", "ax3", "4,3,", "1.5x3"):
        _box_refused(capsys, box)


def test_box_parts_read_as_order_is(capsys):
    # one rule for every integer option: 1_0 is 10 in --box as in --order
    argv = ["hasse", "--field", "q", "--poly", "X^10*Y^3", "--m", "1", "--box"]
    code, out, err = run_cli(capsys, *argv, "1_0x3")
    assert code == 0 and err == ""
    assert out.splitlines()[-1] == "10,2: 3"
    assert run_cli(capsys, *argv, "10x3") == (code, out, err)


def test_box_part_longer_than_4300_digits_exits_2(capsys):
    # each part is read as --order and --m are, so the message names the
    # digit cap instead of echoing every digit
    box = _LONG_NUMBER + "x1"
    argv = ["hasse", "--field", "q", "--poly", "X", "--box", box, "--m", "0"]
    _option_refused(capsys, argv, "--box")


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


def test_literal_longer_than_4300_digits_exits_2(capsys):
    # refused by the parser, not by int()'s digit limit, whose message
    # names an interpreter setting
    poly = "X + 1" + "0" * 4400 + "*X^2"
    for field in ("q", "fp:7"):
        code, out, err = run_cli(
            capsys, "solve", "--field", field, "--poly", poly, "--order", "3"
        )
        assert code == 2 and out == ""
        assert err == "error: number longer than 4300 digits (byte offset 4)\n"


def test_non_decimal_digit_exits_2(capsys):
    # '²' is a digit to str.isdigit but not a decimal one
    code, out, err = run_cli(
        capsys, "solve", "--field", "q", "--poly", "X+Y²", "--order", "3"
    )
    assert code == 2 and out == ""
    assert err == "error: unexpected character '²' (byte offset 3)\n"


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


def _capped_process(argv, megabytes):
    """Run the CLI in a fresh process with a 10 s timeout and an
    address-space cap, so a fault fails the test instead of hanging it or
    exhausting memory."""
    def cap_memory():
        limit = megabytes << 20
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    return subprocess.run(
        [sys.executable, "-m", "implicitseries.cli", *argv],
        capture_output=True,
        text=True,
        timeout=10,
        preexec_fn=cap_memory,
    )


@pytest.mark.parametrize("poly", ["X + 2^99^9", "X + Y^2*(2+X)^99999999999"])
def test_constant_power_over_q_beyond_the_cap_exits_1(poly):
    # a constant power computed exactly would hang or exhaust memory
    result = _capped_process(
        ["solve", "--field", "q", "--poly", poly, "--order", "3"], 400
    )
    assert (result.returncode, result.stdout) == (1, "")
    assert result.stderr.startswith("error: a constant term to the power ")
    assert result.stderr.endswith(" bits, more than 16384\n")
    assert result.stderr.count("\n") == 1


def test_power_with_large_cells_over_q_exits_1(capsys):
    # the constant term 1 passes the constant cap, but the power's cells on
    # the box would reach about 24 * 2000 bits
    poly = "X + Y^2*(1+2^2000*X+Y)^99"
    code, out, err = run_cli(capsys, "solve", "--field", "q", "--poly", poly, "--order", "12")
    assert (code, out) == (1, "")
    assert err == (
        "error: a polynomial to the power 99 would take about 48159 bits, "
        "more than 16384\n"
    )


def test_box_beyond_max_box_cells_exits_1():
    # order 8000 asks for P on a (8000, 8000) box; allocated, it raised
    # MemoryError in a 600 MB address space
    result = _capped_process(
        [
            "solve", "--field", "q", "--poly", "X+Y^2", "--order", "8000",
            "--method", "fixpoint",
        ],
        600,
    )
    assert (result.returncode, result.stdout) == (1, "")
    assert result.stderr == (
        "error: a truncation box of (8000, 8000) holds 64016001 cells, "
        "more than 4194304\n"
    )


def test_solve_lowers_on_the_order_box(capsys):
    # solve lowers P on (n, n): 2048^2 cells fit under MAX_BOX_CELLS = 2^22,
    # 2049^2 do not
    argv = ["solve", "--field", "fp:2", "--poly", "X", "--method", "fixpoint"]
    code, out, err = run_cli(capsys, *argv, "--order", "2047")
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == "2047: 0"
    code, out, err = run_cli(capsys, *argv, "--order", "2048")
    assert (code, out) == (1, "")
    assert err == (
        "error: a truncation box of (2048, 2048) holds 4198401 cells, "
        "more than 4194304\n"
    )


def test_answers_beyond_4300_digits_print():
    # f = X + c f^2 for c = 2^8192 has [X^2] f = c and [X^3] f = 2 c^2 =
    # 2^16385, of 4933 digits: beyond the digits str() prints by default
    result = _capped_process(
        ["solve", "--field", "q", "--poly", "X + 2^8192*Y^2", "--order", "3"], 600
    )
    with decimal.localcontext() as ctx:
        ctx.prec = 6000
        digits = [str(decimal.Decimal(2) ** e) for e in (8192, 16385)]
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout == f"0: 0\n1: 1\n2: {digits[0]}\n3: {digits[1]}\n"


def test_integers_read_at_the_smallest_digit_limit():
    # at the smallest limit on int digits (640), a literal, an --order and an
    # fp: modulus of 1001 digits are read as at the default limit: the
    # literal solves, the order meets the box cap, the modulus the range check
    big = 7 * 10**1000
    env = dict(os.environ, PYTHONINTMAXSTRDIGITS="640")

    def run(field, poly, order):
        argv = ["solve", "--field", field, "--poly", poly, "--order", order]
        return subprocess.run(
            [sys.executable, "-m", "implicitseries.cli", *argv],
            capture_output=True, text=True, timeout=10, env=env,
        )

    result = run("q", f"{big}*X + Y^2", "2")
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout == f"0: 0\n1: {big}\n2: {big ** 2}\n"
    result = run("q", "X + Y^2", str(big))
    assert (result.returncode, result.stdout) == (1, "")
    assert result.stderr == "error: a truncation box holds more than 4194304 cells\n"
    result = run(f"fp:{big}", "X + Y^2", "2")
    assert (result.returncode, result.stdout) == (1, "")
    assert result.stderr == f"error: modulus must satisfy 2 <= p < 2**31, got {big}\n"


def test_coefficient_text_is_str_within_its_limit():
    # one value beyond str()'s limit on digits sends every value of the list
    # through the piecewise conversion, which prints the others as str() does
    rng = random.Random("implicitseries:decimal")
    limit = sys.get_int_max_str_digits() or 4300
    values = [0, 1, -1, 10**3, 10 ** (limit - 1), -(10**limit - 1)]
    for bits in range(1, int(limit * 3.3), 97):
        n = rng.getrandbits(bits) + 2
        values += [n, -n, 10 ** (bits * 3 // 10), 10 ** (bits * 3 // 10) - 1]
        values.append(Fraction(-n, n + 1))
    texts = cli._texts(values + [10**limit])
    assert texts == [str(v) for v in values] + ["1" + "0" * limit]


def test_composite_modulus_exits_1(capsys):
    code, out, err = run_cli(
        capsys, "solve", "--field", "fp:4", "--poly", "X + Y^2", "--order", "3"
    )
    assert code == 1
    assert err == "error: modulus 4 is not prime\n"


def test_modulus_61_solves(capsys):
    # 61 is one of the Miller-Rabin witnesses, and prime
    code, out, err = run_cli(
        capsys, "solve", "--field", "fp:61", "--poly", "X + Y^2", "--order", "6"
    )
    assert code == 0 and err == ""
    assert out == "0: 0\n1: 1\n2: 1\n3: 2\n4: 5\n5: 14\n6: 42\n"


_LONG_NUMBER = "1" + "0" * 4400


def _option_refused(capsys, argv, option):
    def check():
        with pytest.raises(SystemExit) as exc:
            main(argv)
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert captured.err.splitlines()[-1].endswith(
            f"error: argument {option}: number longer than 4300 digits"
        )

    with_and_without_int_digit_limit(check)


def test_order_longer_than_4300_digits_exits_2(capsys):
    argv = ["solve", "--field", "q", "--poly", "X + Y^2", "--order", _LONG_NUMBER]
    _option_refused(capsys, argv, "--order")


def test_m_longer_than_4300_digits_exits_2(capsys):
    argv = ["hasse", "--field", "q", "--poly", "X", "--box", "2x2", "--m", _LONG_NUMBER]
    _option_refused(capsys, argv, "--m")


@pytest.mark.parametrize(
    "argv, option, value",
    [
        (["solve", "--field", "q", "--poly", "X", "--order"], "--order", "abc"),
        (["solve", "--field", "q", "--poly", "X", "--order"], "--order", "-1"),
        (["hasse", "--field", "q", "--poly", "X", "--box", "2x2", "--m"], "--m", "-1"),
    ],
    ids=["order-abc", "order-negative", "m-negative"],
)
def test_option_not_a_nonnegative_integer_exits_2(capsys, argv, option, value):
    with pytest.raises(SystemExit) as exc:
        main(argv + [value])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    kind = "an integer" if value == "abc" else "a nonnegative integer"
    assert captured.err.splitlines()[-1].endswith(
        f"error: argument {option}: expected {kind}, got {value!r}"
    )


def test_order_of_2151_digits_gets_the_box_message(capsys):
    # the box (10^2150, 10^2150) holds a cell count of 4301 digits,
    # one more than str() prints by default: the message then names only the cap
    def check():
        code, out, err = run_cli(
            capsys, "solve", "--field", "q", "--poly", "X + Y^2", "--order",
            "1" + "0" * 2150,
        )
        assert code == 1 and out == ""
        assert re.fullmatch(
            r"error: a truncation box (of \(\d+, \d+\) holds \d+ cells, "
            r"more than 4194304|holds more than 4194304 cells)\n",
            err,
        )

    with_and_without_int_digit_limit(check)


def test_modulus_longer_than_4300_digits_exits_1(capsys):
    def check():
        field = "fp:" + _LONG_NUMBER
        code, out, err = run_cli(
            capsys, "solve", "--field", field, "--poly", "X", "--order", "1"
        )
        assert code == 1 and out == ""
        assert err == "error: number longer than 4300 digits\n"

    with_and_without_int_digit_limit(check)


@pytest.mark.parametrize(
    "spec, message",
    [
        ("fp:abc", "unknown field 'fp:abc': use q or fp:<prime>"),
        ("fp:", "unknown field 'fp:': use q or fp:<prime>"),
        ("fp:-7", "modulus must satisfy 2 <= p < 2**31, got -7"),
    ],
)
def test_malformed_modulus_exits_1(capsys, spec, message):
    code, out, err = run_cli(
        capsys, "solve", "--field", spec, "--poly", "X + Y^2", "--order", "3"
    )
    assert code == 1 and out == ""
    assert err == f"error: {message}\n"


def test_modulus_spellings_that_parse_still_work(capsys):
    # int() reads underscores and non-ASCII decimal digits
    for spec in ("fp:1_0007", "fp:\u0667"):
        code, out, _ = run_cli(
            capsys, "solve", "--field", spec, "--poly", "X + Y^2", "--order", "3"
        )
        assert code == 0 and out == "0: 0\n1: 1\n2: 1\n3: 2\n", spec


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


# ----------------------------------------------------------------- lagrange

def test_lagrange_matches_the_textbook_formula(capsys):
    # f = X * phi(f) through cli lagrange, at every order from 1 to 8, is
    # the textbook formula over every field (the 1/n form over Q only)
    rng = make_rng("lagrange-vs-oracle")
    for field in FIELDS:
        phis = [[1, 1], [1, 2, 1]]  # 1 + Y and (1 + Y)^2
        for _ in range(4):
            coeffs = [random_value(rng, field) for _ in range(8)]
            phis.append([random_nonzero_value(rng, field)] + coeffs[1:])
        variants = ["general"] if field.characteristic else ["general", "char0"]
        for coeffs in phis:
            phi = UniSeries(field, coeffs)
            text = " + ".join(f"({c})*Y^{j}" for j, c in enumerate(coeffs))
            for variant in variants:
                want = ["0: 0"]
                for n in range(1, 9):
                    want.append(f"{n}: {lagrange_oracle(phi, n, variant)}")
                    code, out, err = run_cli(
                        capsys, "lagrange", "--field", field.tag, "--phi", text,
                        "--order", str(n), "--variant", variant,
                    )
                    assert (code, err) == (0, ""), (field.tag, text, variant, n)
                    assert out.splitlines() == want, (field.tag, text, variant, n)
    # the oracle itself: ballot numbers binom(2n, n - 1) / n for (1 + Y)^2
    phi = UniSeries(FIELDS[0], [1, 2, 1])
    for n in range(1, 9):
        for variant in ("general", "char0"):
            assert lagrange_oracle(phi, n, variant) == math.comb(2 * n, n - 1) // n


def test_lagrange_errors(capsys):
    x_in_phi = "error: variable X is not allowed in a one-variable expression in Y\n"
    phi_0 = "error: phi(0) must be nonzero\n"
    char0_in_p = "error: the 1/n-weighted form needs characteristic zero\n"
    cases = [
        # X is refused first, at every order and for every variant
        ("q", "1+X", 3, "general", x_in_phi),
        ("fp:3", "X*Y", 0, "char0", x_in_phi),
        # then, from order 1, phi(0) = 0, also for char0 over GF(p)
        ("q", "Y+Y^2", 1, "general", phi_0),
        ("fp:3", "0", 4, "char0", phi_0),
        # then char0 in characteristic p
        ("fp:3", "1+Y", 3, "char0", char0_in_p),
        ("fp:2", "1", 1, "char0", char0_in_p),
    ]
    for field, phi, order, variant, err in cases:
        got = run_cli(
            capsys, "lagrange", "--field", field, "--phi", phi,
            "--order", str(order), "--variant", variant,
        )
        assert got == (1, "", err), (field, phi, order, variant)
    # at order 0 no coefficient is computed, so neither phi(0) = 0 nor
    # char0 in characteristic p is an error
    for field in FIELDS:
        for phi in ("1+Y", "Y"):
            for variant in ("general", "char0"):
                got = run_cli(
                    capsys, "lagrange", "--field", field.tag, "--phi", phi,
                    "--order", "0", "--variant", variant,
                )
                assert got == (0, "0: 0\n", ""), (field.tag, phi, variant)


def test_lagrange_sweeps_the_box_n_by_n_minus_1(capsys, monkeypatch):
    # every term of P = X * phi(Y) carries X, so the sweep stops at m = n on
    # the box (7, 6), 56 cells; the bound m = 2n - 1 would need (7, 12)
    monkeypatch.setattr(series, "MAX_BOX_CELLS", 64)
    for variant in ("general", "char0"):
        code, out, err = run_cli(
            capsys, "lagrange", "--field", "q", "--phi", "(1+Y)^2", "--order", "7",
            "--variant", variant,
        )
        assert (code, err) == (0, "")
        assert out == "0: 0\n1: 1\n2: 2\n3: 5\n4: 14\n5: 42\n6: 132\n7: 429\n"


def test_lagrange_beyond_max_box_cells_exits_1_at_once():
    # the box (3000, 2999) is refused before any coefficient is computed
    result = _capped_process(
        ["lagrange", "--field", "q", "--phi", "1+Y", "--order", "3000"], 600
    )
    assert (result.returncode, result.stdout) == (1, "")
    assert result.stderr == (
        "error: a truncation box of (3000, 2999) holds 9003000 cells, "
        "more than 4194304\n"
    )


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


def test_closed_stdout_exits_1_without_a_traceback():
    # the reader takes one line of about a megabyte and closes the pipe,
    # as `| head -1` does; the writes after that must end the run quietly
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "implicitseries.cli",
            "hasse", "--field", "fp:7", "--poly", "X + Y^2",
            "--box", "300x300", "--m", "0",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    assert proc.stdout.readline() == "0,0: 0\n"
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=10) == 1
    assert stderr == ""  # no traceback


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
