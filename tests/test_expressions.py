"""Expression parsing, lowering onto coefficient grids, and formatting."""

import hashlib
import itertools
import math
import operator
from fractions import Fraction

import pytest

from implicitseries import (
    BiSeries,
    BoxTooLargeError,
    ConstantPowerTooLargeError,
    ExponentNegativeError,
    ExponentTooLargeError,
    ExpressionSyntaxError,
    ImplicitSeriesError,
    LiteralNotInFieldError,
    PrimeField,
    RationalField,
    UniSeries,
    lower_expression,
    parse_expression,
)
from implicitseries.expressions import MAX_CONSTANT_POWER_BITS, MAX_LITERAL_DIGITS
from implicitseries.series import MAX_BOX_CELLS

from conftest import (
    FIELDS,
    make_rng,
    random_nonzero_value,
    random_value,
    with_and_without_int_digit_limit,
)

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


def test_exponent_towers_reaching_2_64_rejected():
    # folded exactly, 9^9^9 would never finish: a tower is refused, at the
    # offset of its first exponent, once any part of its fold reaches 2^64
    for text in ["Y^9^9^9", "2^9^9^9", "Y^2^64", "Y^3^41", "Y^0^99^99", "2^2^2^2^2^2"]:
        with pytest.raises(ExponentTooLargeError) as e:
            parse_expression("X + " + text, Q)
        assert str(e.value) == "exponent tower reaches 2^64 or more (byte offset 6)"
    assert isinstance(e.value, ExpressionSyntaxError)
    # just below the limit, towers still fold; single exponents are not limited
    assert lower("X + Y^2^63 + Y^3^40", Q, 2, 2) == lower("X", Q, 2, 2)
    assert lower("2^2^2^2 + 1^99^9", Q, 0, 0).coeff(0, 0).value == 65537
    assert lower("X^18446744073709551616", Q, 2, 0).is_zero()


def test_boxes_beyond_max_box_cells_refused_before_lowering():
    # the box is checked before the code runs: this code fails on its
    # unknown operation once it runs
    bogus = [("bogus", None)]
    for nx, ny in [(MAX_BOX_CELLS, 0), (0, MAX_BOX_CELLS), (2048, 2047), (8000, 15999)]:
        with pytest.raises(BoxTooLargeError):
            lower_expression(bogus, Q, nx, ny)
    with pytest.raises(BoxTooLargeError):
        lower_expression(parse_expression("1 + Y", Q), Q, 0, MAX_BOX_CELLS)
    with pytest.raises(ValueError, match="not a postfix operation"):
        lower_expression(bogus, Q, 2047, 2047)
    assert issubclass(BoxTooLargeError, ImplicitSeriesError)
    assert not issubclass(BoxTooLargeError, ExpressionSyntaxError)


def test_constant_powers_over_q_capped():
    # over Q, c^m is computed exactly: refused before that once m times the
    # bits of c's numerator or denominator exceed MAX_CONSTANT_POWER_BITS
    assert MAX_CONSTANT_POWER_BITS == 1 << 14
    for text in [
        "X + 2^99^9",
        "X + Y^2*(2+X)^99999999999",
        "X + (1/2 - Y)^99999999999",
        "2^8193",
        "(-3/4*X + 5/4)^5462",
    ]:
        with pytest.raises(ConstantPowerTooLargeError):
            lower(text)
    assert issubclass(ConstantPowerTooLargeError, ImplicitSeriesError)
    assert not issubclass(ConstantPowerTooLargeError, ExpressionSyntaxError)
    # just below the cap, or with a constant term of 0 or +-1, or over GF(p),
    # powers still lower
    assert lower("2^8192", Q, 0, 0).coeff(0, 0).value == 2**8192
    assert lower("(5/4 + X)^5461", Q, 1, 0).coeff(1, 0).value == 5461 * Fraction(
        5, 4
    ) ** 5460
    assert lower("(-1+X)^99999999999 + (1-Y)^99999999999", Q, 1, 1) == lower(
        "-99999999999*Y - 1 + 99999999999*X + 1", Q, 1, 1
    )
    assert lower("(X+Y)^99999999999 + 0^99999999999", Q, 3, 3).is_zero()
    assert lower("X + 2^99^9", F7, 1, 0) == lower(f"X + {pow(2, 99**9, 7)}", F7, 1, 0)
    assert lower("(2+X)^99999999999", F7, 1, 1).coeff(1, 0).value == (
        99999999999 * pow(2, 99999999998, 7) % 7
    )


def test_whole_powers_over_q_capped():
    # over Q, every cell of a^m on the box is bounded, not only its constant
    # term: (1 + 2^2000 X)^m holds 2^(2000 m) at X^m, 16000 bits for m = 8
    assert lower("(1 + 2^2000*X)^8", Q, 12, 12).coeff(8, 0).value == 2**16000
    for text, m in [
        ("(1 + 2^2000*X)^9", 9),
        ("X + Y^2*(1 + 2^2000*X + Y)^99", 99),
        ("(2^4000*X)^2000", 2000),
        ("(1 + X + Y)^99999999999", 99999999999),
    ]:
        with pytest.raises(ConstantPowerTooLargeError) as e:
            lower(text, Q, 12, 2047)
        assert str(e.value).startswith(f"a polynomial to the power {m} would take ")
    # only the powers of the non-constant part that reach the box count
    assert lower("(1 + 2^2000*X)^99999999999", Q, 0, 7) == lower("1", Q, 0, 7)
    two = pow(2, 2000, 7)
    assert lower("(1 + 2^2000*X)^9", F7) == lower(f"(1 + {two}*X)^9", F7)


def _random_base(rng, field, nx, ny):
    """Postfix code and its series for a random sum of two to four terms
    c X^i Y^j with i <= nx, j <= ny, often with a constant term."""
    terms = [(0, 0, random_value(rng, field))] if rng.random() < 0.7 else []
    for _ in range(rng.randint(1, 3)):
        terms.append((rng.randint(0, nx), rng.randint(0, ny), random_value(rng, field)))
    text = " + ".join(f"({c})*X^{i}*Y^{j}" for i, j, c in terms)
    code = parse_expression(text, field)
    return code, lower_expression(code, field, nx, ny)


def test_powers_of_every_exponent_match_repeated_products():
    # every a^m lowers as one sum of C(m, k) t^(m-k) R^k over k <= min(m, K),
    # K = x_order + y_order, t a term of least total degree: for each m from
    # 0 to K + 40 it must equal BiSeries.pow, on a zero base and one-term
    # bases (the k = 0 term alone) and on several terms with and without a
    # constant term; over Q with m <= K, the loop that finds Lucas's p^s > K
    # must not run (it would multiply by p = 0 forever)
    rng = make_rng("power-every-exponent")
    for field in (Q, F2, PrimeField(3), PrimeField(5), PrimeField(10007)):
        for _ in range(6):
            nx, ny = rng.randint(0, 3), rng.randint(0, 3)

            def term(constant=False):
                i, j = (0, 0) if constant else rng.choice(
                    [(i, j) for i in range(nx + 2) for j in range(ny + 2) if i + j]
                )
                return f"({random_nonzero_value(rng, field)})*X^{i}*Y^{j}"

            # the least-degree term may come anywhere in the sum
            several = [term() for _ in range(rng.randint(1, 3))]
            with_constant = several + [term(constant=True)]
            rng.shuffle(with_constant)
            for text in (
                "0",
                term(constant=True),
                term(),
                " + ".join(with_constant),
                " + ".join([term()] + several),
            ):
                code = parse_expression(text, field)
                a = lower_expression(code, field, nx, ny)
                for m in range(nx + ny + 41):
                    got = lower_expression(code + [("^", m)], field, nx, ny)
                    assert got == a.pow(m), (field.tag, text, nx, ny, m)
    # a zero power leaves no zero payload behind for a later power to invert
    assert lower("(0^2 + X)^3 + 0^5*Y") == lower("X^3")


def test_powers_with_huge_exponents_lower_quickly():
    # the period of a^m on the (4, 4) box over GF(3) divides 18: a unit
    # constant c has c^2 = 1, and (c + R)^9 = c^9 + R^9 = c there
    f3 = PrimeField(3)
    rng = make_rng("power-huge-exponent")
    m = 10**4000 + 7
    for _ in range(20):
        code, a = _random_base(rng, f3, 4, 4)
        assert lower_expression(code + [("^", m)], f3, 4, 4) == a.pow(m % 18)
    # Lucas: C(10^4000, k) mod p from 10^4000 mod p^s
    f = PrimeField(10007)
    big = lower_expression(parse_expression("1+X", f) + [("^", 10**4000)], f, 2047, 2047)
    assert len(big.nonzero_terms()) == 2048
    assert [big.coeff(k, 0).value for k in range(6)] == [
        math.comb(10**4000, k) % 10007 for k in range(6)
    ]
    # (1 + X + Y)^m holds C(m, a + b) C(a + b, a) at X^a Y^b, for m below
    # and far above K = 200; squaring full (100, 100) term maps took about
    # half a second at m = 100 and did not finish in 20 s at the larger m
    for m, field in itertools.product((100, 99999999999), (Q, f)):
        p = lower(f"X + Y^2*(1+X+Y)^{m}", field, 100, 100)
        assert p.coeff(1, 0).value == 1
        for a, b in ((0, 0), (3, 5), (40, 58), (98, 0)):
            expected = math.comb(m, a + b) * math.comb(a + b, a)
            assert p.coeff(a, b + 2).value == field.normalize(expected)


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
    # offsets count UTF-8 bytes: "é" and the whitespace U+00A0 take two
    # bytes each, the whitespace U+3000 three
    cases = [
        ("Xé", "unexpected character 'é' (byte offset 1)"),
        ("X\u00a0+\u3000$", "unexpected character '$' (byte offset 7)"),
        ("\u3000X\u00a0Y", "expected end of input, found 'Y' (byte offset 6)"),
        ("X +\u3000\u00a0", "found end of input (byte offset 8)"),
        ("\u00a0" * 3 + "X + \u3000" * 2 + "*", "found '*' (byte offset 20)"),
        # a digit that is not a decimal digit is not part of a number
        ("X+Y²", "unexpected character '²' (byte offset 3)"),
        ("X^²", "unexpected character '²' (byte offset 2)"),
    ]
    for text, message in cases:
        with pytest.raises(ExpressionSyntaxError) as e:
            parse_expression(text, Q)
        assert str(e.value).endswith(message), text


def test_non_ascii_decimal_digits_are_numbers():
    # Arabic-Indic three and fullwidth four read as 3 and 4
    assert parse_expression("\uff14*X+Y^\u0663", Q) == parse_expression("4*X+Y^3", Q)


def test_literal_errors_follow_syntax_errors_in_text_order():
    with pytest.raises(LiteralNotInFieldError) as e:
        parse_expression("1/3 + 1/0 + 2/0", Q)
    assert str(e.value) == "literal with denominator zero (byte offset 6)"
    # the whole text is parsed before a bad literal is reported
    with pytest.raises(ExpressionSyntaxError) as e:
        parse_expression("1/0 + (X", Q)
    assert str(e.value) == "expected ')', found end of input (byte offset 8)"


def test_each_literal_converted_once(monkeypatch):
    calls = []
    for cls in (RationalField, PrimeField):
        def counting(self, num, den, original=cls.from_rational):
            calls.append((num, den))
            return original(self, num, den)

        monkeypatch.setattr(cls, "from_rational", counting)
    for field in (Q, F7):
        calls.clear()
        code = parse_expression("1/2*Y + 3 - 4*Y^2 + (5*Y)^3 - 6", field)
        lower_expression(code, field, 3, 3)
        lower_expression(code, field, 0, 3)
        assert calls == [(1, 2), (3, 1), (4, 1), (5, 1), (6, 1)], field


# every input of up to four symbols from this alphabet, over q and fp:2
_SHORT_ALPHABET = "X120()-+*^/ "
SHORT_INPUTS_DIGEST = (
    "933a01d26848530f0b4ece11d1afdabb475551d0907c260ae9cab56382e4d7cc"
)


def test_every_short_input_keeps_its_outcome():
    """One digest over 45242 outcomes: the series lowered on the box
    (3, 3), or the error class and its message with the byte offset.
    It was recorded with the recursive-descent parser this module used
    before, so every syntax error text and offset is pinned."""
    digest = hashlib.sha256()
    for field in (Q, F2):
        for n in range(5):
            for chars in itertools.product(_SHORT_ALPHABET, repeat=n):
                text = "".join(chars)
                try:
                    outcome = repr(lower(text, field, 3, 3))
                except ImplicitSeriesError as exc:
                    outcome = f"{type(exc).__name__}: {exc}"
                digest.update(f"{field.tag}\0{text}\0{outcome}\n".encode())
    assert digest.hexdigest() == SHORT_INPUTS_DIGEST


# -------------------------------------------------------------- lowering oracle

_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul}


def box_lower(code, field, x_order, y_order):
    """Lowering as it was first written: every leaf and every intermediate
    value is a full series on the box, combined by series arithmetic.
    Slow, but a direct reading of the quotient-ring semantics."""
    values = []
    for op, arg in code:
        if op == "const":
            values.append(BiSeries.from_terms(field, [(0, 0, arg)], x_order, y_order))
        elif op == "var":
            i, j = (1, 0) if arg == "X" else (0, 1)
            values.append(BiSeries.from_terms(field, [(i, j, 1)], x_order, y_order))
        elif op == "neg":
            values.append(-values.pop())
        elif op == "^":
            values.append(values.pop().pow(arg))
        else:
            right = values.pop()
            values.append(_BINARY[op](values.pop(), right))
    return values.pop()


ORACLE_FIELDS = [Q, F2, F7, PrimeField(2147483647)]
ORACLE_BOXES = [(0, 0), (0, 5), (5, 0), (3, 7)]
# bases that may take an exponent far beyond any box (a constant to such a
# power would be a huge integer over Q)
_HUGE_BASES = ["X", "Y", "0", "(X+Y)", "(1+X)", "(1-Y)", "(X*Y-2*X)", "(1+X+Y)"]
# constructs every corpus must contain at least once
_FEATURES = ["0^0", "X^0", "^99999999999", ")^", "---", "/"]


def _random_atom(rng, field):
    roll = rng.random()
    if roll < 0.3:
        return rng.choice(["X", "Y"])
    num = rng.randint(0, 12)
    if roll < 0.55:
        return str(num)
    dens = [d for d in range(2, 10) if d % (field.characteristic or 11)]
    return f"{num}/{rng.choice(dens)}"


def random_expression_text(rng, field, depth=0):
    """Seeded random text mixing sums, products, minus chains, powers of
    sums, powers of zero, zeroth powers and powers beyond any box."""
    roll = rng.random()
    if depth >= 3 or roll < 0.25:
        return _random_atom(rng, field)
    if roll < 0.45:
        ops = [rng.choice(["+", "-", "*"]) for _ in range(rng.randint(1, 3))]
        text = random_expression_text(rng, field, depth + 1)
        for op in ops:
            text += op + random_expression_text(rng, field, depth + 1)
        return text
    if roll < 0.6:
        inner = random_expression_text(rng, field, depth + 1)
        return f"({inner})^{rng.randint(0, 6)}"
    if roll < 0.7:
        inner = random_expression_text(rng, field, depth + 1)
        return "-" * rng.randint(1, 4) + f"({inner})"
    if roll < 0.8:
        return rng.choice(["0^0", "X^0", "(0)^0", "Y^0", "0^3", "(X-X)^0"])
    if roll < 0.9:
        power = rng.choice([6, 8, 99999999999])
        return f"{rng.choice(_HUGE_BASES)}^{power}"
    left = random_expression_text(rng, field, depth + 1)
    right = random_expression_text(rng, field, depth + 1)
    return f"({left})*({right})"


def test_lowering_matches_box_oracle():
    rng = make_rng("lowering-oracle")
    texts = []
    for field in ORACLE_FIELDS:
        for _ in range(128):
            text = random_expression_text(rng, field)
            texts.append(text)
            code = parse_expression(text, field)
            for nx, ny in ORACLE_BOXES:
                expected = box_lower(code, field, nx, ny)
                assert lower_expression(code, field, nx, ny) == expected, (
                    field, nx, ny, text
                )
    assert len(texts) >= 500
    for feature in _FEATURES:
        assert any(feature in text for text in texts), feature


def test_lowering_never_multiplies_box_series(monkeypatch):
    field = PrimeField(10007)
    rng = make_rng("lowering-structure")
    dense = " + ".join(
        f"{rng.randrange(1, 10007)}*X^{i}*Y^{j}"
        for i in range(7) for j in range(7 - i)
    )
    dense_y = " + ".join(f"{rng.randrange(1, 10007)}*Y^{j}" for j in range(7))
    cases = [
        (dense, 40, 79), ("(1+X+Y)^5", 8, 8), (dense_y, 0, 79), ("(1+Y+Y^2)^5", 0, 8)
    ]
    expected = [box_lower(parse_expression(t, field), field, nx, ny)
                for t, nx, ny in cases]

    def refuse(*args):
        raise AssertionError("lowering multiplied box-sized series")

    for cls in (BiSeries, UniSeries):
        monkeypatch.setattr(cls, "__mul__", refuse)
        monkeypatch.setattr(cls, "pow", refuse)
    for (text, nx, ny), want in zip(cases, expected):
        assert lower_expression(parse_expression(text, field), field, nx, ny) == want


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


def test_parentheses_parse_from_a_deep_stack():
    # the parser keeps its own stack, so the 100 levels it accepts do not
    # depend on how much of the interpreter's stack the caller has used
    text = "(" * 100 + "X" + ")" * 100

    def nested(frames):
        return nested(frames - 1) if frames else parse_expression(text, Q)

    assert lower_expression(nested(900), Q, 2, 0) == lower("X", Q, 2, 0)


def test_literals_longer_than_4300_digits_refused():
    # CPython's default int-from-string limit: a literal of that many digits
    # parses as a numerator, a denominator or an exponent
    assert MAX_LITERAL_DIGITS == 4300
    big = "1" + "0" * (MAX_LITERAL_DIGITS - 1)
    assert lower(f"X + {big}", Q, 1, 0).coeff(0, 0).value == 10**4299
    assert lower(f"X + 1/{big}", Q, 1, 0).coeff(0, 0).value == Fraction(1, 10**4299)
    assert lower(f"X + Y^{big}", Q, 1, 0) == lower("X", Q, 1, 0)
    # one digit more is a syntax error at the literal's offset, whatever
    # the interpreter's own limit (0 lifts it, where it exists)
    long = big + "0"
    cases = [
        (f"X + {long}", 4),
        (f"X + 1/{long}", 6),
        (f"X^{long}", 2),
        (f"X^2^{long}", 4),
        (f"Y*(X + {long}/3)", 7),
    ]

    def all_refused():
        for text, offset in cases:
            with pytest.raises(ExpressionSyntaxError) as e:
                parse_expression(text, Q)
            message = f"number longer than 4300 digits (byte offset {offset})"
            assert str(e.value) == message and e.value.offset == offset

    with_and_without_int_digit_limit(all_refused)

