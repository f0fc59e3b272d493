"""Dense truncated power series in one and two variables.

Truncation is part of the value: a :class:`UniSeries` of order ``N``
is a series known modulo ``X^(N+1)``, and a :class:`BiSeries` with
orders ``(Nx, Ny)`` is known modulo the ideal ``(X^(Nx+1), Y^(Ny+1))``.
Arithmetic requires operands to agree on both the field and the
truncation orders; callers align shapes explicitly with ``resized``.

Coefficients are stored as raw, normalized field payloads (see
``fields``) so the hot loops run on plain int/Fraction arithmetic;
``coeff`` wraps results as :class:`FieldElement`.  Multiplication walks
the nonzero support of both operands, which keeps polynomial inputs
(the common case) fast while staying an exact dense convolution.
"""

from __future__ import annotations

from math import comb

from .errors import (
    FieldMismatchError,
    IndexOutOfTruncationError,
    NonzeroConstantTermError,
    NotAUnitError,
    OrderExceededError,
    ShapeMismatchError,
)
from .fields import Field, FieldElement


def _binary_pow(base, m: int, one):
    """``base`` to the m-th power by binary exponentiation, from ``one``."""
    if m < 0:
        raise ValueError("exponent must be >= 0")
    result = one
    while m:
        if m & 1:
            result = result * base
        m >>= 1
        if m:
            base = base * base
    return result


class UniSeries:
    """A truncated power series in one variable.

    >>> from implicitseries.fields import RationalField
    >>> q = RationalField()
    >>> one_plus = UniSeries(q, [1, 1, 0])
    >>> (one_plus * one_plus).coefficients()
    [FieldElement(q, 1), FieldElement(q, 2), FieldElement(q, 1)]
    """

    __slots__ = ("field", "_c")

    def __init__(self, field: Field, coeffs):
        self.field = field
        self._c = [field.coerce(c) for c in coeffs]
        if not self._c:
            raise ValueError("a series stores at least its constant coefficient")

    @classmethod
    def _raw(cls, field: Field, coeffs: list) -> "UniSeries":
        # internal: coeffs must already be normalized payloads
        obj = object.__new__(cls)
        obj.field = field
        obj._c = coeffs
        return obj

    @classmethod
    def zero(cls, field: Field, order: int) -> "UniSeries":
        if order < 0:
            raise ValueError("order must be >= 0")
        return cls._raw(field, [0] * (order + 1))

    @property
    def order(self) -> int:
        return len(self._c) - 1

    def coeff(self, n: int) -> FieldElement:
        if not 0 <= n <= self.order:
            raise IndexOutOfTruncationError(
                f"index {n} outside truncation order {self.order}"
            )
        return FieldElement(self.field, self._c[n])

    def coefficients(self) -> list:
        """All stored coefficients as wrapped elements, order 0 upward."""
        return [FieldElement(self.field, c) for c in self._c]

    def is_zero(self) -> bool:
        return all(not c for c in self._c)

    def resized(self, order: int) -> "UniSeries":
        """Truncate or zero-pad to the given order."""
        if order < 0:
            raise ValueError("order must be >= 0")
        c = self._c[: order + 1]
        if len(c) < order + 1:
            c = c + [0] * (order + 1 - len(c))
        return UniSeries._raw(self.field, c)

    def _check_op(self, other):
        if not isinstance(other, UniSeries):
            raise TypeError(f"expected a UniSeries, got {type(other).__name__}")
        if other.field != self.field:
            raise FieldMismatchError(
                f"series over {self.field.tag} combined with series over {other.field.tag}"
            )
        if other.order != self.order:
            raise ShapeMismatchError(
                f"orders differ: {self.order} vs {other.order}; resize explicitly"
            )

    def __add__(self, other):
        self._check_op(other)
        norm = self.field.normalize
        return UniSeries._raw(
            self.field, [norm(a + b) for a, b in zip(self._c, other._c)]
        )

    def __sub__(self, other):
        self._check_op(other)
        norm = self.field.normalize
        return UniSeries._raw(
            self.field, [norm(a - b) for a, b in zip(self._c, other._c)]
        )

    def __neg__(self):
        norm = self.field.normalize
        return UniSeries._raw(self.field, [norm(-a) for a in self._c])

    def __mul__(self, other):
        self._check_op(other)
        n = self.order
        out = [0] * (n + 1)
        oc = other._c
        for i, a in enumerate(self._c):
            if a:
                for j in range(n - i + 1):
                    b = oc[j]
                    if b:
                        out[i + j] += a * b
        if self.field.characteristic:
            norm = self.field.normalize
            out = [norm(v) for v in out]
        return UniSeries._raw(self.field, out)

    def pow(self, m: int) -> "UniSeries":
        """Truncated m-th power, by binary exponentiation."""
        return _binary_pow(self, m, UniSeries._raw(self.field, [1] + [0] * self.order))

    def derivative(self) -> "UniSeries":
        """Ordinary derivative; the order drops by one (floor at zero)."""
        if self.order == 0:
            return UniSeries.zero(self.field, 0)
        norm = self.field.normalize
        return UniSeries._raw(
            self.field, [norm((k + 1) * c) for k, c in enumerate(self._c[1:])]
        )

    def __eq__(self, other):
        if not isinstance(other, UniSeries):
            return NotImplemented
        return other.field == self.field and other._c == self._c

    def __hash__(self):
        return hash((self.field, tuple(self._c)))

    def __repr__(self):
        return f"UniSeries({self.field.tag}, {self._c!r})"


class BiSeries:
    """A truncated power series in two variables X and Y.

    The grid ``rows[i][j]`` holds the coefficient of ``X^i Y^j`` for
    ``i <= x_order`` and ``j <= y_order``.
    """

    __slots__ = ("field", "_rows")

    def __init__(self, field: Field, rows):
        self.field = field
        grid = [[field.coerce(c) for c in row] for row in rows]
        if not grid or not grid[0]:
            raise ValueError("the grid stores at least the constant coefficient")
        width = len(grid[0])
        if any(len(row) != width for row in grid):
            raise ValueError("all grid rows must have equal length")
        self._rows = grid

    @classmethod
    def _raw(cls, field: Field, rows: list) -> "BiSeries":
        # internal: rows must already be rectangular, normalized payloads
        obj = object.__new__(cls)
        obj.field = field
        obj._rows = rows
        return obj

    @classmethod
    def zero(cls, field: Field, x_order: int, y_order: int) -> "BiSeries":
        if x_order < 0 or y_order < 0:
            raise ValueError("orders must be >= 0")
        return cls._raw(field, [[0] * (y_order + 1) for _ in range(x_order + 1)])

    @classmethod
    def one(cls, field: Field, x_order: int, y_order: int) -> "BiSeries":
        out = cls.zero(field, x_order, y_order)
        out._rows[0][0] = 1
        return out

    @classmethod
    def monomial(
        cls, field: Field, value, i: int, j: int, x_order: int, y_order: int
    ) -> "BiSeries":
        """``value * X^i Y^j`` on the given box.

        A monomial beyond the box truncates to the zero series, in line
        with the quotient-ring reading of truncation.
        """
        if i < 0 or j < 0:
            raise ValueError("monomial exponents must be >= 0")
        out = cls.zero(field, x_order, y_order)
        if i <= x_order and j <= y_order:
            out._rows[i][j] = field.coerce(value)
        return out

    @classmethod
    def from_terms(cls, field: Field, terms, x_order: int, y_order: int) -> "BiSeries":
        """Build a series from ``(i, j, value)`` triples; later terms add."""
        out = cls.zero(field, x_order, y_order)
        rows = out._rows
        norm = field.normalize
        for i, j, value in terms:
            if i < 0 or j < 0:
                raise ValueError("term exponents must be >= 0")
            if i <= x_order and j <= y_order:
                rows[i][j] = norm(rows[i][j] + field.coerce(value))
        return out

    @classmethod
    def from_uniseries(cls, f: UniSeries, y_order: int) -> "BiSeries":
        """Embed a series in X on the box ``(f.order, y_order)``."""
        out = cls.zero(f.field, f.order, y_order)
        for i, c in enumerate(f._c):
            out._rows[i][0] = c
        return out

    @property
    def x_order(self) -> int:
        return len(self._rows) - 1

    @property
    def y_order(self) -> int:
        return len(self._rows[0]) - 1

    def coeff(self, i: int, j: int) -> FieldElement:
        if not (0 <= i <= self.x_order and 0 <= j <= self.y_order):
            raise IndexOutOfTruncationError(
                f"index ({i}, {j}) outside truncation box "
                f"({self.x_order}, {self.y_order})"
            )
        return FieldElement(self.field, self._rows[i][j])

    def nonzero_terms(self) -> list:
        """All nonzero ``(i, j, payload)`` triples in row-major order."""
        return [
            (i, j, c)
            for i, row in enumerate(self._rows)
            for j, c in enumerate(row)
            if c
        ]

    def is_zero(self) -> bool:
        return all(not c for row in self._rows for c in row)

    def resized(self, x_order: int, y_order: int) -> "BiSeries":
        """Truncate or zero-pad each axis to the given orders."""
        if x_order < 0 or y_order < 0:
            raise ValueError("orders must be >= 0")
        rows = []
        width = y_order + 1
        for i in range(x_order + 1):
            if i < len(self._rows):
                row = self._rows[i][:width]
                if len(row) < width:
                    row = row + [0] * (width - len(row))
            else:
                row = [0] * width
            rows.append(row)
        return BiSeries._raw(self.field, rows)

    def column(self, j: int) -> UniSeries:
        """The coefficient of ``Y^j`` as a series in X."""
        if not 0 <= j <= self.y_order:
            raise IndexOutOfTruncationError(
                f"column {j} outside truncation order {self.y_order}"
            )
        return UniSeries._raw(self.field, [row[j] for row in self._rows])

    def _check_op(self, other):
        if not isinstance(other, BiSeries):
            raise TypeError(f"expected a BiSeries, got {type(other).__name__}")
        if other.field != self.field:
            raise FieldMismatchError(
                f"series over {self.field.tag} combined with series over {other.field.tag}"
            )
        if other.x_order != self.x_order or other.y_order != self.y_order:
            raise ShapeMismatchError(
                f"boxes differ: ({self.x_order}, {self.y_order}) vs "
                f"({other.x_order}, {other.y_order}); resize explicitly"
            )

    def __add__(self, other):
        self._check_op(other)
        norm = self.field.normalize
        return BiSeries._raw(
            self.field,
            [
                [norm(a + b) for a, b in zip(ra, rb)]
                for ra, rb in zip(self._rows, other._rows)
            ],
        )

    def __sub__(self, other):
        self._check_op(other)
        norm = self.field.normalize
        return BiSeries._raw(
            self.field,
            [
                [norm(a - b) for a, b in zip(ra, rb)]
                for ra, rb in zip(self._rows, other._rows)
            ],
        )

    def __neg__(self):
        norm = self.field.normalize
        return BiSeries._raw(
            self.field, [[norm(-a) for a in row] for row in self._rows]
        )

    def __mul__(self, other):
        self._check_op(other)
        nx, ny = self.x_order, self.y_order
        out = [[0] * (ny + 1) for _ in range(nx + 1)]
        a_terms = self.nonzero_terms()
        b_terms = other.nonzero_terms()
        if a_terms and b_terms:
            if len(b_terms) < len(a_terms):
                a_terms, b_terms = b_terms, a_terms
            for ia, ja, ca in a_terms:
                xcap = nx - ia
                ycap = ny - ja
                for ib, jb, cb in b_terms:
                    if ib <= xcap and jb <= ycap:
                        out[ia + ib][ja + jb] += ca * cb
        if self.field.characteristic:
            norm = self.field.normalize
            out = [[norm(v) for v in row] for row in out]
        return BiSeries._raw(self.field, out)

    def pow(self, m: int) -> "BiSeries":
        """Truncated m-th power, by binary exponentiation.

        ``pow(a, 0)`` is the constant-one series on the same box, for
        any ``a`` including zero.
        """
        return _binary_pow(self, m, BiSeries.one(self.field, self.x_order, self.y_order))

    def partial_y(self) -> "BiSeries":
        """Ordinary partial derivative in Y; y_order drops by one.

        A series with ``y_order == 0`` maps to the zero series on the
        same box, there being no lower row to move to.
        """
        ny = self.y_order
        if ny == 0:
            return BiSeries.zero(self.field, self.x_order, 0)
        norm = self.field.normalize
        return BiSeries._raw(
            self.field,
            [[norm((j + 1) * row[j + 1]) for j in range(ny)] for row in self._rows],
        )

    def hasse_derivative(self, m: int) -> "BiSeries":
        """The m-th Hasse derivative in Y.

        Coefficientwise, ``Y^j`` picks up ``binom(j + m, m)`` times the
        coefficient of ``Y^(j+m)``; over GF(p) this stays meaningful
        where the ordinary m-th derivative would need division by m!.
        The binomials are computed exactly in Z and mapped through the
        ring map, never as factorial quotients in the field.
        """
        if m < 0:
            raise ValueError("derivative order must be >= 0")
        ny = self.y_order
        if m > ny:
            raise OrderExceededError(
                f"Hasse order {m} exceeds truncation order {ny}"
            )
        if m == 0:
            return self
        norm = self.field.normalize
        width = ny - m + 1
        binom = [comb(j + m, m) for j in range(width)]
        return BiSeries._raw(
            self.field,
            [
                [norm(binom[j] * row_[j + m]) for j in range(width)]
                for row_ in self._rows
            ],
        )

    def subst_y(self, f: UniSeries) -> UniSeries:
        """Substitute ``Y = f(X)``, by Horner evaluation over the columns.

        Requires ``f(0) = 0`` (so the substitution respects truncation)
        and ``f.order >= x_order``.  The result has order ``x_order``.
        """
        if not isinstance(f, UniSeries):
            raise TypeError(f"expected a UniSeries, got {type(f).__name__}")
        if f.field != self.field:
            raise FieldMismatchError(
                f"substituting a {f.field.tag} series into a {self.field.tag} series"
            )
        if f._c[0]:
            raise NonzeroConstantTermError(
                "substituted series must vanish at the origin"
            )
        nx = self.x_order
        if f.order < nx:
            raise ShapeMismatchError(
                f"substituted series has order {f.order}, need at least {nx}"
            )
        fx = f.resized(nx)
        # all-zero top columns contribute nothing; start at the highest
        # nonzero one (lowering often leaves many above the support)
        top = self.y_order
        while top and not any(row[top] for row in self._rows):
            top -= 1
        acc = self.column(top)
        for j in range(top - 1, -1, -1):
            acc = acc * fx + self.column(j)
        return acc

    def subst_x_times_y(self) -> "BiSeries":
        """Substitute ``X -> X*Y``: the term ``X^i Y^j`` moves to
        ``X^i Y^(i+j)``.  The output box is ``(x_order, x_order + y_order)``.
        """
        nx, ny = self.x_order, self.y_order
        out = [[0] * (nx + ny + 1) for _ in range(nx + 1)]
        for i, row in enumerate(self._rows):
            orow = out[i]
            for j, c in enumerate(row):
                if c:
                    orow[i + j] = c
        return BiSeries._raw(self.field, out)

    def reciprocal(self) -> "BiSeries":
        """Multiplicative inverse on the same box.

        The constant term must be a unit; the inverse is produced by
        the standard convolution recurrence, so ``u * u.reciprocal()``
        is exactly one on the box.
        """
        c00 = self._rows[0][0]
        if not c00:
            raise NotAUnitError("constant term is zero, series is not a unit")
        field = self.field
        r = field.invert(c00)
        nx, ny = self.x_order, self.y_order
        terms = [(i, j, c) for (i, j, c) in self.nonzero_terms() if i or j]
        norm = field.normalize
        char = field.characteristic
        v = [[0] * (ny + 1) for _ in range(nx + 1)]
        v[0][0] = r
        for i in range(nx + 1):
            vi = v[i]
            for j in range(ny + 1):
                if i == 0 and j == 0:
                    continue
                s = 0
                for k, l, c in terms:
                    if k <= i and l <= j:
                        w = v[i - k][j - l]
                        if w:
                            s += c * w
                if s:
                    val = -(r * s)
                    vi[j] = norm(val) if char else val
        return BiSeries._raw(field, v)

    def diagonal(self) -> UniSeries:
        """The series of coefficients of ``X^n Y^n``, one variable, up to
        order ``min(x_order, y_order)``."""
        top = min(self.x_order, self.y_order)
        return UniSeries._raw(self.field, [self._rows[n][n] for n in range(top + 1)])

    def __eq__(self, other):
        if not isinstance(other, BiSeries):
            return NotImplemented
        return other.field == self.field and other._rows == self._rows

    def __hash__(self):
        return hash((self.field, tuple(tuple(r) for r in self._rows)))

    def __repr__(self):
        return (
            f"BiSeries({self.field.tag}, box=({self.x_order}, {self.y_order}), "
            f"terms={self.nonzero_terms()!r})"
        )
