"""Parsing and printing of polynomial expressions in X and Y.

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
``512``.  Parentheses nest at most ``MAX_PAREN_DEPTH`` (100) deep; every
other construct may repeat without bound, because the syntax tree is
walked by one iterative traversal (``_nodes``) for literal checks,
variable checks and lowering.  Lowering evaluates on sparse term maps cut
to the box, so its cost follows the terms of the expression, not the
size of the box.  Syntax problems raise
:class:`ExpressionSyntaxError` with the byte offset of the offending
token; a rational literal that does not denote an element of the target
field (zero denominator, or denominator divisible by the characteristic)
raises :class:`LiteralNotInFieldError`.
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
MAX_PAREN_DEPTH = 100


@dataclass(frozen=True)
class Literal:
    numerator: int
    denominator: int  # 1 for an integer literal
    offset: int  # byte offset, for error reporting


@dataclass(frozen=True)
class Variable:
    name: str  # "X" or "Y"


@dataclass(frozen=True)
class Negate:
    operand: object


@dataclass(frozen=True)
class BinOp:
    op: str  # "+", "-" or "*"
    left: object
    right: object


@dataclass(frozen=True)
class Power:
    base: object
    exponent: int


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
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
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


def _describe(tok) -> str:
    kind, value, _ = tok
    if kind == "end":
        return "end of input"
    return repr(str(value))


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0  # parentheses currently open

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
            node = BinOp(op, node, self.parse_term())
        return node

    def parse_term(self):
        node = self.parse_factor()
        while self.at_sym("*"):
            self.take()
            node = BinOp("*", node, self.parse_factor())
        return node

    def parse_factor(self):
        negations = 0
        while self.at_sym("-"):
            self.take()
            negations += 1
        node = self.parse_power()
        for _ in range(negations):
            node = Negate(node)
        return node

    def parse_power(self):
        node = self.parse_atom()
        if self.at_sym("^"):
            self.take()
            node = Power(node, self.parse_exponent())
        return node

    def parse_exponent(self) -> int:
        tower = []
        while True:
            tok = self.peek()
            if tok[0] == "sym" and tok[1] == "-":
                raise ExponentNegativeError("exponents must be nonnegative", tok[2])
            if tok[0] != "int":
                self.fail("an integer exponent", tok)
            tower.append(self.take()[1])
            if not self.at_sym("^"):
                break
            self.take()
        # towers associate to the right: fold from the top down
        value = tower.pop()
        while tower:
            value = tower.pop() ** value
        return value

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
                return Literal(value, den_tok[1], offset)
            return Literal(value, 1, offset)
        if kind == "var":
            self.take()
            return Variable(value)
        if kind == "sym" and value == "(":
            # each level costs a few stack frames of this recursive
            # descent; a fixed bound keeps deep input an ordinary error
            if self.depth == MAX_PAREN_DEPTH:
                raise ExpressionSyntaxError(
                    f"parentheses nested deeper than {MAX_PAREN_DEPTH}", offset
                )
            self.take()
            self.depth += 1
            node = self.parse_expr()
            closing = self.peek()
            if not self.at_sym(")"):
                self.fail("')'", closing)
            self.take()
            self.depth -= 1
            return node
        self.fail("a number, 'X', 'Y', or '('", tok)


def _nodes(tree) -> list:
    """Every node of ``tree`` in post-order: each after its operands,
    left operands first (so leaves appear in the order of the text)."""
    order = []
    stack = [tree]
    while stack:
        node = stack.pop()
        order.append(node)
        if isinstance(node, Negate):
            stack.append(node.operand)
        elif isinstance(node, BinOp):
            stack.extend((node.left, node.right))
        elif isinstance(node, Power):
            stack.append(node.base)
    order.reverse()
    return order


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
        if isinstance(sub_node, Literal):
            try:
                field.from_rational(sub_node.numerator, sub_node.denominator)
            except LiteralNotInFieldError as exc:
                raise LiteralNotInFieldError(
                    f"{exc} (byte offset {sub_node.offset})"
                ) from None
    return node


def lower_expression(node, field: Field, x_order: int, y_order: int) -> BiSeries:
    """Evaluate a syntax tree to a series on the box ``(x_order, y_order)``.

    Every intermediate value is a sparse term map ``{(i, j): payload}``
    holding only nonzero, normalized payloads inside the box, and one
    series is built at the end, so lowering costs time in proportion to
    the terms of the expression, not to the box.  Monomials beyond the
    box truncate away silently, consistent with reading the expression
    in the quotient ring; ``a^0`` is 1 for every ``a``, including zero.
    """
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
        if len(base) == 1:
            ((i, j), c), = base.items()
            if i * m > x_order or j * m > y_order:
                return {}
            return {(i * m, j * m): pow(c, m, p) if p else c**m}
        result = {(0, 0): 1}
        while m:
            if m & 1:
                result = product(result, base)
            m >>= 1
            if m:
                base = product(base, base)
        return result

    values = []  # operands awaiting the node that consumes them
    for sub_node in _nodes(node):
        if isinstance(sub_node, Literal):
            value = field.from_rational(sub_node.numerator, sub_node.denominator)
            values.append({(0, 0): value} if value else {})
        elif isinstance(sub_node, Variable):
            i, j = (1, 0) if sub_node.name == "X" else (0, 1)
            values.append({(i, j): 1} if i <= x_order and j <= y_order else {})
        elif isinstance(sub_node, Negate):
            values.append({key: norm(-c) for key, c in values.pop().items()})
        elif isinstance(sub_node, BinOp) and sub_node.op == "*":
            right = values.pop()
            values.append(product(values.pop(), right))
        elif isinstance(sub_node, BinOp):
            # every map on the stack is unshared: add into the left one in
            # place, so a long sum costs time linear in its terms
            right = values.pop()
            left = values[-1]
            sign = 1 if sub_node.op == "+" else -1
            for key, c in right.items():
                c = norm(left.get(key, 0) + sign * c)
                if c:
                    left[key] = c
                else:
                    left.pop(key, None)
        elif isinstance(sub_node, Power):
            values.append(power(values.pop(), sub_node.exponent))
        else:
            raise TypeError(f"not an expression node: {sub_node!r}")
    terms = [(i, j, c) for (i, j), c in values.pop().items()]
    return BiSeries.from_terms(field, terms, x_order, y_order)


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
