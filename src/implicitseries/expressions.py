"""Parsing and printing of polynomial expressions in X and Y.

The accepted grammar, whitespace-insensitive between tokens::

    expr     := term (('+' | '-') term)*
    term     := factor ('*' factor)*
    factor   := '-' factor | power
    power    := atom ('^' exponent)?
    exponent := INT ('^' exponent)?          # right-associative, in Z
    atom     := INT ('/' INT)? | 'X' | 'Y' | '(' expr ')'

``/`` appears only inside rational literals such as ``1/2``; variable
names are case-sensitive.  Exponents are literal nonnegative integers
evaluated during parsing, so ``X^2^3`` is ``X^8`` and ``2^3^2`` is
``512``.  Syntax problems raise :class:`ExpressionSyntaxError` with the
byte offset of the offending token; a rational literal that does not
denote an element of the target field (zero denominator, or denominator
divisible by the characteristic) raises :class:`LiteralNotInFieldError`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    ExponentNegativeError,
    ExpressionSyntaxError,
    LiteralNotInFieldError,
    UnexpectedVariableError,
)
from .fields import Field
from .series import BiSeries, UniSeries

_SYMBOLS = set("+-*/^()")


@dataclass(frozen=True)
class IntLiteral:
    value: int


@dataclass(frozen=True)
class RationalLiteral:
    numerator: int
    denominator: int
    offset: int  # byte offset, for error reporting


@dataclass(frozen=True)
class Variable:
    name: str  # "X" or "Y"


@dataclass(frozen=True)
class Negate:
    operand: object


@dataclass(frozen=True)
class Add:
    left: object
    right: object


@dataclass(frozen=True)
class Sub:
    left: object
    right: object


@dataclass(frozen=True)
class Mul:
    left: object
    right: object


@dataclass(frozen=True)
class Power:
    base: object
    exponent: int


def _byte_offset(text: str, index: int) -> int:
    return len(text[:index].encode("utf-8"))


def _tokenize(text: str) -> list:
    """Split into (kind, value, byte_offset) triples, ending with 'end'."""
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        start = _byte_offset(text, i)
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("int", int(text[i:j]), start))
            i = j
        elif ch in ("X", "Y"):
            tokens.append(("var", ch, start))
            i += 1
        elif ch in _SYMBOLS:
            tokens.append(("sym", ch, start))
            i += 1
        else:
            raise ExpressionSyntaxError(f"unexpected character {ch!r}", start)
    tokens.append(("end", None, _byte_offset(text, n)))
    return tokens


def _describe(tok) -> str:
    kind, value, _ = tok
    if kind == "end":
        return "end of input"
    return repr(str(value))


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        tok = self.tokens[self.pos]
        if tok[0] != "end":
            self.pos += 1
        return tok

    def fail(self, expected, tok):
        raise ExpressionSyntaxError(
            f"expected {expected}, found {_describe(tok)}", tok[2]
        )

    def at_sym(self, *chars) -> bool:
        kind, value, _ = self.peek()
        return kind == "sym" and value in chars

    def parse_expr(self):
        node = self.parse_term()
        while self.at_sym("+", "-"):
            op = self.take()[1]
            right = self.parse_term()
            node = Add(node, right) if op == "+" else Sub(node, right)
        return node

    def parse_term(self):
        node = self.parse_factor()
        while self.at_sym("*"):
            self.take()
            node = Mul(node, self.parse_factor())
        return node

    def parse_factor(self):
        if self.at_sym("-"):
            self.take()
            return Negate(self.parse_factor())
        return self.parse_power()

    def parse_power(self):
        node = self.parse_atom()
        if self.at_sym("^"):
            self.take()
            node = Power(node, self.parse_exponent())
        return node

    def parse_exponent(self) -> int:
        tok = self.peek()
        if tok[0] == "sym" and tok[1] == "-":
            raise ExponentNegativeError("exponents must be nonnegative", tok[2])
        if tok[0] != "int":
            self.fail("an integer exponent", tok)
        base = self.take()[1]
        if self.at_sym("^"):
            self.take()
            return base ** self.parse_exponent()
        return base

    def parse_atom(self):
        tok = self.peek()
        kind, value, offset = tok
        if kind == "int":
            self.take()
            if self.at_sym("/"):
                self.take()
                den_tok = self.peek()
                if den_tok[0] != "int":
                    self.fail("an integer denominator", den_tok)
                self.take()
                return RationalLiteral(value, den_tok[1], offset)
            return IntLiteral(value)
        if kind == "var":
            self.take()
            return Variable(value)
        if kind == "sym" and value == "(":
            self.take()
            node = self.parse_expr()
            closing = self.peek()
            if not self.at_sym(")"):
                self.fail("')'", closing)
            self.take()
            return node
        self.fail("a number, 'X', 'Y', or '('", tok)


def _nodes(tree):
    """Every node of ``tree`` in pre-order, left operands first."""
    stack = [tree]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, Negate):
            stack.append(node.operand)
        elif isinstance(node, (Add, Sub, Mul)):
            stack.extend((node.right, node.left))
        elif isinstance(node, Power):
            stack.append(node.base)


def parse_expression(text: str, field: Field):
    """Parse ``text`` and check every literal denotes a ``field`` element.

    Returns the syntax tree; lower it with :func:`lower_expression` or
    :func:`lower_univariate`.
    """
    parser = _Parser(_tokenize(text))
    node = parser.parse_expr()
    trailing = parser.peek()
    if trailing[0] != "end":
        parser.fail("end of input", trailing)
    for sub_node in _nodes(node):
        if isinstance(sub_node, RationalLiteral):
            try:
                field.from_rational(sub_node.numerator, sub_node.denominator)
            except LiteralNotInFieldError as exc:
                raise LiteralNotInFieldError(
                    f"{exc} (byte offset {sub_node.offset})"
                ) from None
    return node


def lower_expression(node, field: Field, x_order: int, y_order: int) -> BiSeries:
    """Evaluate a syntax tree to a series on the box ``(x_order, y_order)``.

    Monomials beyond the box truncate away silently, consistent with
    reading the expression in the quotient ring.
    """
    if isinstance(node, IntLiteral):
        return BiSeries.monomial(field, node.value, 0, 0, x_order, y_order)
    if isinstance(node, RationalLiteral):
        value = field.from_rational(node.numerator, node.denominator)
        return BiSeries.monomial(field, value, 0, 0, x_order, y_order)
    if isinstance(node, Variable):
        i, j = (1, 0) if node.name == "X" else (0, 1)
        return BiSeries.monomial(field, 1, i, j, x_order, y_order)
    if isinstance(node, Negate):
        return -lower_expression(node.operand, field, x_order, y_order)
    if isinstance(node, Add):
        return lower_expression(
            node.left, field, x_order, y_order
        ) + lower_expression(node.right, field, x_order, y_order)
    if isinstance(node, Sub):
        return lower_expression(
            node.left, field, x_order, y_order
        ) - lower_expression(node.right, field, x_order, y_order)
    if isinstance(node, Mul):
        return lower_expression(
            node.left, field, x_order, y_order
        ) * lower_expression(node.right, field, x_order, y_order)
    if isinstance(node, Power):
        return lower_expression(node.base, field, x_order, y_order).pow(
            node.exponent
        )
    raise TypeError(f"not an expression node: {node!r}")


def lower_univariate(node, field: Field, order: int) -> UniSeries:
    """Evaluate a syntax tree in Y alone to a one-variable series.

    The X variable is rejected with :class:`UnexpectedVariableError`;
    the result is the series in the single remaining variable, truncated
    at ``order``.
    """
    if Variable("X") in _nodes(node):
        raise UnexpectedVariableError(
            "variable X is not allowed in a one-variable expression in Y"
        )
    grid = lower_expression(node, field, 0, order)
    return UniSeries._raw(field, list(grid._rows[0]))


def format_biseries(p: BiSeries) -> str:
    """Render a series as an expression the parser accepts.

    Terms appear in row-major order; over the rationals a negative
    coefficient prints with a binary minus, so the output round-trips
    through :func:`parse_expression` and :func:`lower_expression` on
    the same box.
    """
    terms = p.nonzero_terms()
    if not terms:
        return "0"
    rendered = []
    for i, j, c in terms:
        negative = c < 0
        magnitude = -c if negative else c
        parts = []
        if magnitude != 1 or (i == 0 and j == 0):
            parts.append(str(magnitude))
        if i:
            parts.append("X" if i == 1 else f"X^{i}")
        if j:
            parts.append("Y" if j == 1 else f"Y^{j}")
        rendered.append((negative, "*".join(parts)))
    first_neg, first_body = rendered[0]
    out = [("-" if first_neg else "") + first_body]
    for negative, body in rendered[1:]:
        out.append((" - " if negative else " + ") + body)
    return "".join(out)
