"""Parsing of polynomial expressions in X and Y.

The accepted grammar, whitespace-insensitive between tokens::

    expr     := term (('+' | '-') term)*
    term     := factor ('*' factor)*
    factor   := '-'* power
    power    := atom ('^' exponent)?
    exponent := INT ('^' INT)*               # right-associative, in Z
    atom     := INT ('/' INT)? | 'X' | 'Y' | '(' expr ')'

``/`` appears only inside rational literals such as ``1/2``; variable
names are case-sensitive.  Exponents are literal nonnegative integers
evaluated during parsing, so ``X^2^3`` is ``X^8`` and ``2^3^2`` is
``512``; a tower whose fold reaches 2^64 raises
:class:`ExponentTooLargeError`.  Parsing is one left-to-right pass with
an explicit stack of pending operators (shunting-yard), so no construct
costs interpreter stack; parentheses nest at most ``MAX_PAREN_DEPTH``
(100) deep, a number has at most ``MAX_LITERAL_DIGITS`` (4300) digits,
and everything else may repeat without bound.  The pass
converts each literal to the field once and emits postfix code, which
lowering runs on sparse term maps cut to the box, so its cost follows
the terms of the expression, not the size of the box; over Q it refuses
a constant power too large to compute exactly with
:class:`ConstantPowerTooLargeError`.  Syntax problems
raise :class:`ExpressionSyntaxError` with the byte offset of the
offending token; a rational literal that does not denote an element of
the target field (zero denominator, or denominator divisible by the
characteristic) raises :class:`LiteralNotInFieldError`.
"""

from __future__ import annotations

from .errors import (
    ConstantPowerTooLargeError,
    ExponentNegativeError,
    ExponentTooLargeError,
    ExpressionSyntaxError,
    LiteralNotInFieldError,
)
from .fields import Field
from .series import BiSeries, _binary_pow, _check_cells

_SYMBOLS = set("+-*/^()")
MAX_PAREN_DEPTH = 100
# CPython's default limit on int-from-string conversion: a longer digit run
# is a syntax error before int() reads it, whatever the interpreter's setting
MAX_LITERAL_DIGITS = 4300
# over Q, c^m for a constant term c other than 0 and +-1 is refused when
# m times the bit length of c's numerator or denominator exceeds this:
# every later product pays for the size of c^m
MAX_CONSTANT_POWER_BITS = 1 << 14


def _tokenize(text: str) -> list:
    """Split into (kind, value, byte_offset) triples, ending with 'end'."""
    tokens = []
    i = 0
    n = len(text)
    # UTF-8 byte offset of text[seen], advanced token by token so the
    # whole scan stays linear
    seen = offset = 0
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        offset += len(text[seen:i].encode("utf-8"))
        seen = i
        if ch.isdecimal():
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            if j - i > MAX_LITERAL_DIGITS:
                raise ExpressionSyntaxError(
                    f"number longer than {MAX_LITERAL_DIGITS} digits", offset
                )
            tokens.append(("int", int(text[i:j]), offset))
            i = j
        elif ch in ("X", "Y"):
            tokens.append(("var", ch, offset))
            i += 1
        elif ch in _SYMBOLS:
            tokens.append(("sym", ch, offset))
            i += 1
        else:
            raise ExpressionSyntaxError(f"unexpected character {ch!r}", offset)
    tokens.append(("end", None, offset + len(text[seen:].encode("utf-8"))))
    return tokens


def _fail(expected: str, tok):
    kind, value, offset = tok
    found = "end of input" if kind == "end" else repr(str(value))
    raise ExpressionSyntaxError(f"expected {expected}, found {found}", offset)


# binding strength of what waits on the stack; "(" yields to nothing
_PRECEDENCE = {"(": 0, "+": 1, "-": 1, "*": 2, "neg": 3}


def parse_expression(text: str, field: Field) -> list:
    """Parse ``text`` into postfix code over ``field``.

    The code is a list of ``(op, arg)`` pairs, each operator after its
    operands: ``("const", payload)`` with the literal already converted
    to a ``field`` payload, ``("var", "X" | "Y")``, ``("neg", None)``,
    ``("+" | "-" | "*", None)`` and ``("^", m)`` with the exponent tower
    already folded.  Lower it with :func:`lower_expression`.  Syntax
    errors take precedence over literals outside the field; of several
    such literals, the first in the text is reported.
    """
    tokens = _tokenize(text)
    code = []
    pending = []  # operators awaiting their right operand, and open "("
    depth = 0
    bad_literal = None
    want_operand = True
    pos = 0
    while True:
        kind, value, offset = tok = tokens[pos]
        pos += 1
        if want_operand:
            if kind == "sym" and value == "-":
                pending.append("neg")
                continue
            if kind == "sym" and value == "(":
                if depth == MAX_PAREN_DEPTH:
                    raise ExpressionSyntaxError(
                        f"parentheses nested deeper than {MAX_PAREN_DEPTH}", offset
                    )
                depth += 1
                pending.append("(")
                continue
            if kind == "int":
                den = 1
                if tokens[pos][:2] == ("sym", "/"):
                    den_tok = tokens[pos + 1]
                    if den_tok[0] != "int":
                        _fail("an integer denominator", den_tok)
                    den = den_tok[1]
                    pos += 2
                try:
                    code.append(("const", field.from_rational(value, den)))
                except LiteralNotInFieldError as exc:
                    bad_literal = bad_literal or LiteralNotInFieldError(
                        f"{exc} (byte offset {offset})"
                    )
            elif kind == "var":
                code.append(("var", value))
            else:
                _fail("a number, 'X', 'Y', or '('", tok)
            want_operand = False
        elif kind == "sym" and value in "+-*":
            while pending and _PRECEDENCE[pending[-1]] >= _PRECEDENCE[value]:
                code.append((pending.pop(), None))
            pending.append(value)
            want_operand = True
            continue
        elif kind == "sym" and value == ")" and depth:
            while (op := pending.pop()) != "(":
                code.append((op, None))
            depth -= 1
        elif kind == "end" and not depth:
            break
        else:
            _fail("')'" if depth else "end of input", tok)
        # an atom has just ended: it may carry one exponent tower, which
        # associates to the right and is folded in the integers
        tower, start = [], pos + 1
        while tokens[pos][:2] == ("sym", "^"):
            kind, value, offset = tokens[pos + 1]
            if kind == "sym" and value == "-":
                raise ExponentNegativeError("exponents must be nonnegative", offset)
            if kind != "int":
                _fail("an integer exponent", tokens[pos + 1])
            tower.append(value)
            pos += 2
        if tower:
            m = tower.pop()
            for e in reversed(tower):
                # e^m >= 2^((bits(e) - 1) * m): refuse 2^64 or more before
                # computing it, since a tower like 9^9^9 would never finish
                if e > 1 and (e.bit_length() - 1) * m >= 64 or (m := e**m) >> 64:
                    raise ExponentTooLargeError(
                        "exponent tower reaches 2^64 or more", tokens[start][2]
                    )
            code.append(("^", m))
    code.extend((op, None) for op in reversed(pending))
    if bad_literal:
        raise bad_literal
    return code


def lower_expression(code, field: Field, x_order: int, y_order: int) -> BiSeries:
    """Run postfix ``code`` to a series on the box ``(x_order, y_order)``.

    Every intermediate value is a sparse term map ``{(i, j): payload}``
    holding only nonzero, normalized payloads inside the box, and one
    series is built at the end, so lowering costs time in proportion to
    the terms of the expression, not to the box.  Monomials beyond the
    box truncate away silently, consistent with reading the expression
    in the quotient ring; ``a^0`` is 1 for every ``a``, including zero.
    Over Q, ``a^m`` raises :class:`ConstantPowerTooLargeError` when the
    constant term of ``a`` is not 0 or +-1 and its m-th power would
    exceed ``MAX_CONSTANT_POWER_BITS``.  A box of more than
    ``series.MAX_BOX_CELLS`` cells raises :class:`BoxTooLargeError` before
    the code runs.
    """
    _check_cells(x_order, y_order)
    norm = field.normalize
    p = field.characteristic

    def product(a, b):
        out = {}
        for (ia, ja), ca in a.items():
            for (ib, jb), cb in b.items():
                i, j = ia + ib, ja + jb
                if i <= x_order and j <= y_order:
                    out[i, j] = out.get((i, j), 0) + ca * cb
        return {key: v for key, c in out.items() if (v := norm(c))}

    def power(base, m):
        # the constant term of base^m is c^m, computed exactly over Q
        c = base.get((0, 0), 0)
        if not p and m > 1 and c not in (0, 1, -1):
            bits = m * max(abs(c.numerator).bit_length(), c.denominator.bit_length())
            if bits > MAX_CONSTANT_POWER_BITS:
                raise ConstantPowerTooLargeError(
                    f"a constant term to the power {m} would take about {bits} "
                    f"bits, more than {MAX_CONSTANT_POWER_BITS}"
                )
        if len(base) == 1:
            ((i, j), c), = base.items()
            if i * m > x_order or j * m > y_order:
                return {}
            return {(i * m, j * m): pow(c, m, p) if p else c**m}
        return _binary_pow(base, m, {(0, 0): 1}, product)

    values = []  # operands awaiting the operator that consumes them
    for op, arg in code:
        if op == "const":
            values.append({(0, 0): arg} if arg else {})
        elif op == "var":
            i, j = (1, 0) if arg == "X" else (0, 1)
            values.append({(i, j): 1} if i <= x_order and j <= y_order else {})
        elif op == "neg":
            values.append({key: norm(-c) for key, c in values.pop().items()})
        elif op == "*":
            right = values.pop()
            values.append(product(values.pop(), right))
        elif op == "^":
            values.append(power(values.pop(), arg))
        elif op in ("+", "-"):
            # every map on the stack is unshared: add into the left one in
            # place, so a long sum costs time linear in its terms
            right = values.pop()
            left = values[-1]
            sign = 1 if op == "+" else -1
            for key, c in right.items():
                c = norm(left.get(key, 0) + sign * c)
                if c:
                    left[key] = c
                else:
                    left.pop(key, None)
        else:
            raise ValueError(f"not a postfix operation: {op!r}")
    terms = [(i, j, c) for (i, j), c in values.pop().items()]
    return BiSeries.from_terms(field, terms, x_order, y_order)

