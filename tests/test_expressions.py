"""Expression parsing, lowering onto coefficient grids, and formatting."""

from fractions import Fraction

import pytest

from implicitseries import (
    BiSeries,
    ExponentNegativeError,
    ExpressionSyntaxError,
    LiteralNotInFieldError,
    PrimeField,
    RationalField,
    UnexpectedVariableError,
    UniSeries,
    format_biseries,
    lower_expression,
    lower_univariate,
    parse_expression,
)

from conftest import FIELDS, make_rng, random_biseries

Q = RationalField()
F2 = PrimeField(2)
F7 = PrimeField(7)


def lower(text, field=Q, nx=6, ny=6):
    return lower_expression(parse_expression(text, field), field, nx, ny)


# ------------------------------------------------------------------ parsing

def test_lowering_examples():
    p = lower("X + Y^2", Q, 3, 3)
    assert p == BiSeries.from_terms(Q, [(1, 0, 1), (0, 2, 1)], 3, 3)

    q = lower("Y - X - Y^2", F7, 3, 3)
    assert q.coeff(0, 1).value == 1
    assert q.coeff(1, 0).value == 6
    assert q.coeff(0, 2).value == 6

    sq = lower("(1+Y)^2", Q, 0, 4)
    assert sq == BiSeries.from_terms(Q, [(0, 0, 1), (0, 1, 2), (0, 2, 1)], 0, 4)


def test_rational_literals():
    p = lower("1/2 + 3/4*X", Q, 2, 0)
    assert str(p.coeff(0, 0).value) == "1/2"
    assert str(p.coeff(1, 0).value) == "3/4"
    # division only applies to integer literals, not subexpressions
    with pytest.raises(ExpressionSyntaxError):
        parse_expression("X/2", Q)


def test_precedence_and_associativity():
    # unary minus binds looser than ^
    assert lower("-X^2", Q, 3, 0) == lower("-(X^2)", Q, 3, 0)
    # exponent towers associate to the right, in the integers
    assert lower("2^3^2", Q, 0, 0).coeff(0, 0).value == 512
    assert lower("X^2^3", Q, 8, 0) == lower("X^8", Q, 8, 0)
    assert lower("(X^2)^3", Q, 8, 0) == lower("X^6", Q, 8, 0)
    # product binds tighter than sum
    assert lower("1 + 2*3", Q, 0, 0).coeff(0, 0).value == 7


def test_truncation_during_lowering():
    # terms beyond the grid are dropped, consistent with quotient-ring semantics
    p = lower("(1+Y)^4", Q, 0, 2)
    assert p == BiSeries.from_terms(Q, [(0, 0, 1), (0, 1, 4), (0, 2, 6)], 0, 2)


def test_syntax_errors_carry_byte_offsets():
    with pytest.raises(ExpressionSyntaxError) as e:
        parse_expression("X +* Y", Q)
    assert "byte offset 3" in str(e.value)

    with pytest.raises(ExpressionSyntaxError) as e:
        parse_expression("X + ", Q)
    assert "byte offset 4" in str(e.value)

    with pytest.raises(ExpressionSyntaxError) as e:
        parse_expression("(X + Y", Q)
    assert "')'" in str(e.value) and "byte offset 6" in str(e.value)

    with pytest.raises(ExpressionSyntaxError) as e:
        parse_expression("X Y", Q)
    assert "end of input" in str(e.value) and "byte offset 2" in str(e.value)

    with pytest.raises(ExpressionSyntaxError) as e:
        parse_expression("X + $", Q)
    assert "byte offset 4" in str(e.value)

    with pytest.raises(ExpressionSyntaxError):
        parse_expression("", Q)

    with pytest.raises(ExpressionSyntaxError) as e:
        parse_expression("x + y", Q)  # variables are upper-case only
    assert "byte offset 0" in str(e.value)


def test_negative_exponents_rejected():
    with pytest.raises(ExponentNegativeError) as e:
        parse_expression("X^-2", Q)
    assert "byte offset 2" in str(e.value)
    with pytest.raises(ExponentNegativeError):
        parse_expression("2^3^-1", Q)
    # ...but unary minus on the base is fine
    assert lower("-X^2 + X^2", Q, 3, 0).is_zero()


def test_literals_validated_against_field():
    with pytest.raises(LiteralNotInFieldError) as e:
        parse_expression("X + 1/2*Y^2", F2)
    msg = str(e.value)
    assert "denominator 2" in msg and "characteristic 2" in msg
    assert "byte offset 4" in msg

    with pytest.raises(LiteralNotInFieldError) as e:
        parse_expression("1/0", Q)
    assert "denominator zero" in str(e.value)
    assert "byte offset 0" in str(e.value)

    # 1/2 is a perfectly good scalar mod 7
    p = lower("1/2", F7, 0, 0)
    assert p.coeff(0, 0).value == 4


def test_multibyte_offsets_are_in_bytes():
    # a two-byte character before the error shifts the byte offset by two
    with pytest.raises(ExpressionSyntaxError) as e:
        parse_expression("Xé", Q)
    assert "byte offset 1" in str(e.value)


# ----------------------------------------------------------------- univariate

def test_lower_univariate():
    phi = lower_univariate(parse_expression("(1+Y)^2", Q), Q, 4)
    assert phi == UniSeries(Q, [1, 2, 1, 0, 0])
    assert lower_univariate(parse_expression("3", F7), F7, 2) == UniSeries(
        F7, [3, 0, 0]
    )
    with pytest.raises(UnexpectedVariableError):
        lower_univariate(parse_expression("X + Y", Q), Q, 4)


# ------------------------------------------------------------------ deep input

def test_long_sums_negations_and_towers():
    # each repeats 1200 times, far beyond the interpreter's recursion limit
    assert lower("+".join(["X"] * 1200), Q, 2, 0) == lower("1200*X", Q, 2, 0)
    assert lower("-" * 1200 + "X", Q, 2, 0) == lower("X", Q, 2, 0)
    assert lower("-" * 1201 + "X", Q, 2, 0) == lower("-X", Q, 2, 0)
    assert lower("X" + "^1" * 1200, Q, 2, 0) == lower("X", Q, 2, 0)


def test_parentheses_nest_at_most_100_deep():
    assert lower("(" * 100 + "X" + ")" * 100, Q, 2, 0) == lower("X", Q, 2, 0)
    for depth in (101, 400):
        with pytest.raises(ExpressionSyntaxError) as e:
            parse_expression("(" * depth + "X" + ")" * depth, Q)
        # the offset is that of the first parenthesis beyond the limit
        assert str(e.value) == "parentheses nested deeper than 100 (byte offset 100)"


# ------------------------------------------------------------------ formatting

def test_format_biseries_examples():
    # terms come out row-major: all Y-powers of X^0, then of X^1, ...
    p = BiSeries.from_terms(Q, [(1, 0, 1), (0, 2, 1)], 3, 3)
    assert format_biseries(p) == "Y^2 + X"
    q = BiSeries.from_terms(Q, [(0, 1, 1), (1, 0, -1), (0, 2, -1)], 3, 3)
    assert format_biseries(q) == "Y - Y^2 - X"
    assert format_biseries(BiSeries.zero(Q, 2, 2)) == "0"
    neg = BiSeries.from_terms(Q, [(0, 0, -3), (1, 1, 5)], 2, 2)
    assert format_biseries(neg) == "-3 + 5*X*Y"
    half = BiSeries.from_terms(Q, [(2, 0, Fraction(1, 2))], 3, 0)
    assert format_biseries(half) == "1/2*X^2"


def test_format_round_trips_through_parser():
    rng = make_rng("format-round-trip")
    for field in FIELDS:
        for _ in range(50):
            p = random_biseries(rng, field, 5, 5)
            text = format_biseries(p)
            again = lower_expression(
                parse_expression(text, field), field, p.x_order, p.y_order
            )
            assert again == p, text
