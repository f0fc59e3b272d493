"""Command-line interface.

Six subcommands operate on polynomial expressions in X and Y (see
``expressions`` for the grammar):

* ``solve``: coefficients of the f with f = P(X, f(X)).
* ``lagrange``: coefficients of the f with f = X * phi(f), that is
  ``solve`` on P = X * phi(Y) by ``theorem`` (``--variant general``) or
  ``char0`` (``--variant char0``), the two forms of Lagrange inversion.
* ``hasse``: a Hasse derivative of P, as a coefficient grid.
* ``factor``: split Q = (Y - f) * R at a simple root f.
* ``verify``: run every applicable solve method and cross-check.
* ``diag``: the main diagonal of a bivariate series.

Exit status: 0 on success, 1 for domain or validation failures (bad
field, invalid problem, literal outside the field), 2 for syntax errors
in the expression or the command line; a stdout closed by its reader
ends the run quietly with 1.  Plain output is one value per line on
stdout; ``--output json`` emits a single JSON line.  All output is
deterministic: equal invocations produce byte-identical results.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import (
    ExpressionSyntaxError,
    ImplicitSeriesError,
    PositiveCharacteristicError,
    UnexpectedVariableError,
    ZeroConstantTermError,
)
from .expressions import MAX_LITERAL_DIGITS, lower_expression, parse_expression
from .fields import Field, PrimeField, RationalField, _decimal, _read_int
from .series import BiSeries
from .solver import (
    ImplicitProblem,
    RootProblem,
    SolveMethod,
    factor_out_root,
    furstenberg_solve,
    solve_series,
)


def _check_digits(text: str, error=ValueError) -> None:
    """Raise ``error`` if ``text`` has more than ``MAX_LITERAL_DIGITS``
    digits, before ``_read_int`` reads them."""
    if sum(map(str.isdecimal, text)) > MAX_LITERAL_DIGITS:
        raise error(f"number longer than {MAX_LITERAL_DIGITS} digits")


def make_field(spec: str) -> Field:
    """Build the coefficient field for a ``--field`` value.

    ``q`` is the rationals; ``fp:<p>`` is the prime field of order p.
    """
    if spec == "q":
        return RationalField()
    if spec.startswith("fp:"):
        _check_digits(spec)
        try:
            modulus = _read_int(spec[3:])
        except ValueError:
            pass  # not a number: the unknown-field message below
        else:
            return PrimeField(modulus)
    raise ValueError(f"unknown field {spec!r}: use q or fp:<prime>")


def _box_argument(text: str):
    parts = text.split("x") if "x" in text else text.split(",")
    try:
        if len(parts) == 2:
            return _nonnegative(parts[0]), _nonnegative(parts[1])
    except argparse.ArgumentTypeError as exc:
        if not str(exc).startswith("expected"):
            raise  # the digit cap's own message
    raise argparse.ArgumentTypeError(
        f"expected a box like 4x3 (x-order by y-order), got {text!r}"
    )


def _nonnegative(text: str) -> int:
    _check_digits(text, argparse.ArgumentTypeError)
    try:
        value = _read_int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"expected a nonnegative integer, got {text!r}"
        )
    return value


def _emit(args, method: str, field: Field, order, plain_lines, **body) -> int:
    if args.output == "json":
        record = {"method": method, "field": field.tag, "order": order, **body}
        print(json.dumps(record))
    else:
        for line in plain_lines:
            print(line)
    return 0


def _texts(payloads) -> list:
    """Each coefficient payload as ``str`` prints it: ``n`` or ``num/den``.

    ``str`` refuses ints beyond the interpreter's limit on digits; then
    every int and ``Fraction`` part goes through ``_decimal``.
    """
    try:
        return [str(c) for c in payloads]
    except ValueError:
        return [
            _decimal(c) if type(c) is int
            else f"{_decimal(c.numerator)}/{_decimal(c.denominator)}"
            for c in payloads
        ]


def _grid_strings(p: BiSeries) -> list:
    grid = [["0"] * (p.y_order + 1) for _ in range(p.x_order + 1)]
    terms = p.nonzero_terms()
    for (i, j, _), text in zip(terms, _texts([c for _, _, c in terms])):
        grid[i][j] = text
    return grid


def _coeff_lines(strings) -> list:
    return [f"{n}: {c}" for n, c in enumerate(strings)]


def _grid_lines(rows, prefix="") -> list:
    return [
        f"{prefix}{i},{j}: {c}"
        for i, row in enumerate(rows)
        for j, c in enumerate(row)
    ]


def _lower(args, text: str, nx: int, ny: int):
    """Make the field, parse ``text`` and lower it on the box (nx, ny)."""
    field = make_field(args.field)
    return field, lower_expression(parse_expression(text, field), field, nx, ny)


def _lower_to_order(args):
    """Lower ``--poly`` on (n, max(n, 1)) for ``--order`` n: only terms
    X^i Y^j with i + j <= n reach [X^n] f, and the linear-Y validation
    always has a column to inspect."""
    n = args.order
    return _lower(args, args.poly, n, max(n, 1))


def _implicit_problem(args):
    field, p = _lower_to_order(args)
    return field, ImplicitProblem(p)


def cmd_solve(args) -> int:
    field, prob = _implicit_problem(args)
    report = solve_series(prob, args.order, SolveMethod(args.method))
    coeffs = _texts(report.solution._c)
    return _emit(
        args, report.method.value, field, args.order, _coeff_lines(coeffs),
        coeffs=coeffs, residual_zero=report.residual_zero,
    )


def cmd_lagrange(args) -> int:
    # f = X * phi(f) is f = P(X, f) for P = X * phi(Y), on which theorem's
    # sum is Lagrange inversion and char0's its 1/n-weighted form
    field = make_field(args.field)
    code = parse_expression(args.phi, field)
    if ("var", "X") in code:
        raise UnexpectedVariableError(
            "variable X is not allowed in a one-variable expression in Y"
        )
    n = args.order
    x_phi = code + [("var", "X"), ("*", None)]
    p = lower_expression(x_phi, field, n, max(n - 1, 0))
    method = SolveMethod.THEOREM  # at order 0 the answer is 0 in any field
    if n:
        if not p.coeff(1, 0):
            raise ZeroConstantTermError("phi(0) must be nonzero")
        if args.variant == "char0":
            if field.characteristic:
                raise PositiveCharacteristicError(
                    "the 1/n-weighted form needs characteristic zero"
                )
            method = SolveMethod.CHAR0
    report = solve_series(ImplicitProblem(p), n, method)
    coeffs = _texts(report.solution._c)
    return _emit(
        args, f"lagrange-{args.variant}", field, n, _coeff_lines(coeffs),
        coeffs=coeffs, residual_zero=report.residual_zero,
    )


def cmd_hasse(args) -> int:
    field, p = _lower(args, args.poly, *args.box)
    h = p.hasse_derivative(args.m)
    grid = _grid_strings(h)
    return _emit(
        args, "hasse", field, [h.x_order, h.y_order], _grid_lines(grid), coeffs=grid
    )


def cmd_factor(args) -> int:
    n = args.order
    field, q = _lower_to_order(args)
    rp = RootProblem(q)
    f = furstenberg_solve(rp, n)
    r = factor_out_root(rp, f)
    fs = _texts(f._c)
    rs = _grid_strings(r)
    lines = [f"f {n}: {c}" for n, c in enumerate(fs)]
    lines.extend(_grid_lines(rs, prefix="R "))
    return _emit(args, "factor", field, n, lines, f=fs, r=rs)


def cmd_verify(args) -> int:
    field, prob = _implicit_problem(args)
    methods = [SolveMethod.THEOREM, SolveMethod.FIXED_POINT, SolveMethod.FURSTENBERG]
    if not field.characteristic:
        methods.insert(1, SolveMethod.CHAR0)
    reports = [solve_series(prob, args.order, m) for m in methods]
    baseline = reports[0].solution
    for r in reports:
        if r.solution != baseline:
            pairs = zip(r.solution._c, baseline._c)
            n = next(n for n, (a, b) in enumerate(pairs) if a != b)
            failure = f"{r.method.value} disagrees with theorem at coefficient {n}"
        elif not r.residual_zero:
            failure = f"{r.method.value} leaves a nonzero residual"
        else:
            continue
        print(f"error: verify failed: {failure}", file=sys.stderr)
        return 1
    coeffs = _texts(baseline._c)
    names = [m.value for m in methods]
    lines = [
        "methods: " + " ".join(names),
        "agree: true",
        "residual_zero: true",
    ]
    lines.extend(_coeff_lines(coeffs))
    return _emit(
        args, "verify", field, args.order, lines,
        methods=names, agree=True, residual_zero=True, coeffs=coeffs,
    )


def cmd_diag(args) -> int:
    field, p = _lower(args, args.poly, args.order, args.order)
    coeffs = _texts(p.diagonal()._c)
    return _emit(args, "diag", field, args.order, _coeff_lines(coeffs), coeffs=coeffs)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="implicitseries",
        description="exact power-series solvers for implicit equations",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--field",
        required=True,
        help="coefficient field: q (rationals) or fp:<p> (prime field)",
    )
    common.add_argument(
        "--output",
        choices=("plain", "json"),
        default="plain",
        help="plain value lines (default) or a single JSON record",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def poly_command(name, func, help_text, poly_help="P as an expression in X, Y"):
        cmd = sub.add_parser(name, parents=[common], help=help_text)
        cmd.add_argument("--poly", required=True, help=poly_help)
        cmd.add_argument("--order", required=True, type=_nonnegative)
        cmd.set_defaults(func=func)
        return cmd

    p_solve = poly_command("solve", cmd_solve, "solve f = P(X, f(X))")
    p_solve.add_argument(
        "--method",
        choices=[m.value for m in SolveMethod],
        default=SolveMethod.THEOREM.value,
    )

    p_lag = sub.add_parser(
        "lagrange", parents=[common], help="solve f = X * phi(f)"
    )
    p_lag.add_argument("--phi", required=True, help="phi as an expression in Y")
    p_lag.add_argument("--order", required=True, type=_nonnegative)
    p_lag.add_argument(
        "--variant",
        choices=("general", "char0"),
        default="general",
    )
    p_lag.set_defaults(func=cmd_lagrange)

    p_hasse = sub.add_parser(
        "hasse", parents=[common], help="Hasse derivative of P in Y"
    )
    p_hasse.add_argument("--poly", required=True, help="P as an expression in X, Y")
    p_hasse.add_argument(
        "--box",
        required=True,
        type=_box_argument,
        help="truncation box as x-order by y-order (for example 4x3)",
    )
    p_hasse.add_argument("--m", required=True, type=_nonnegative)
    p_hasse.set_defaults(func=cmd_hasse)

    poly_command(
        "factor", cmd_factor, "split Q = (Y - f) * R at its root",
        "Q as an expression in X, Y",
    )
    poly_command("verify", cmd_verify, "cross-check every solve method")
    poly_command("diag", cmd_diag, "main diagonal of a series", "expression in X, Y")
    return parser


_parser = None  # built by the first call of main, then reused


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at exit
        return code
    except ExpressionSyntaxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ImplicitSeriesError, ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader closed stdout: stop quietly, with stdout's descriptor on
        # devnull so the interpreter's final flush does not raise again
        # (Python docs, "Note on SIGPIPE"); a stdout without one is left be
        try:
            fd = sys.stdout.fileno()
        except (AttributeError, OSError):
            return 1
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, fd)
        os.close(devnull)
        return 1


if __name__ == "__main__":
    sys.exit(main())
