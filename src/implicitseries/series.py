"""Dense truncated power series in one and two variables.

Truncation is part of the value: a :class:`UniSeries` of order ``N``
is a series known modulo ``X^(N+1)``, and a :class:`BiSeries` with
orders ``(Nx, Ny)`` is known modulo the ideal ``(X^(Nx+1), Y^(Ny+1))``.
Arithmetic requires operands to agree on both the field and the
truncation orders; callers align shapes explicitly with ``resized``.

Both types store one flat list ``_c`` of raw, normalized field payloads
(see ``fields``), so the hot loops run on plain int/Fraction arithmetic;
``coeff`` wraps results as :class:`FieldElement`.  A ``BiSeries`` keeps
its box row-major, ``_w = y_order + 1`` entries per power of X, so the
coefficient of ``X^i Y^j`` sits at ``_c[i * _w + j]``; a ``UniSeries``
is the one-column case ``_w == 1``.  The shared base ``_Series`` holds
the operand check, ``+``, ``-``, negation, the exact quotient ``/``,
``==`` and ``hash`` for both.  Each series also carries ``_nz``, its
support: the sorted flat indices of its nonzero entries, found once when
first asked for (``_support``) or handed over by the product that built
the series.

Both types multiply through ``_product``.  Over GF(p), once the nonzero
terms make ``_KRON_MIN_PAIRS`` pairs and the box has at most
``_KRON_CELLS_PER_PAIR`` cells per pair, ``_kron_mul`` packs the window
of nonzero rows and columns of each operand into one int, makes one
big-int multiply and writes the coefficients back from the sum of the
windows' corners (Kronecker substitution).  Every other product, and
every product over Q, is one schoolbook loop over the pairs of the two
supports that land in the box.  On a box of more than
``_SPARSE_CELLS_PER_PAIR`` cells per pair, it sums into a dict and
normalizes only the cells it touched, so a sparse product costs per
nonzero pair, plus one zero fill of the result list.  Over Q the loop
always multiplies ints: a factor that holds a ``Fraction`` is scaled to
integers over the lcm of its denominators (``_integral``), and each
result cell becomes one ``Fraction`` over the product of the two lcms,
so a product pays a gcd per result cell, not per term pair.
``BiSeries._horner`` runs Horner's scheme for ``Y = f`` and yields each
partial sum as integers over one denominator: over Q it scales its two
operands the same way once, so it adds and multiplies only ints.
``subst_y`` starts it at the highest column that reaches its order and
divides the last partial sum once (``_over``), one gcd per cell;
``solver.factor_out_root`` keeps them all as its cofactor.

The exact quotient ``/`` solves a cell at a time (``_cell_quotient``) or,
over GF(p) from ``_KRON_MIN_QUOTIENT``, a row at a time on ints packed by
``_kron_pack``, one big-int step per divisor term (``_kron_quotient``).

``zero``, which ``from_terms`` and ``BiSeries.resized`` start from, refuses
a box of more than ``MAX_BOX_CELLS`` cells with :class:`BoxTooLargeError`
before allocating it.
"""

from __future__ import annotations

import sys
from array import array
from collections import defaultdict
from fractions import Fraction
from itertools import chain, compress
from math import comb, lcm

from .errors import (
    BoxTooLargeError,
    FieldMismatchError,
    IndexOutOfTruncationError,
    NonzeroConstantTermError,
    NotAUnitError,
    OrderExceededError,
    ShapeMismatchError,
)
from .fields import Field, FieldElement, _demote


# The most cells a truncation box may hold, 32 MB of list per series on a
# 64-bit build: ``zero`` and ``lower_expression`` refuse a larger box before
# allocating it.  The CLI lowers P on (n, max(n, 1)), so this admits orders
# up to 2047.
MAX_BOX_CELLS = 1 << 22


def _check_cells(x_order: int, y_order: int) -> None:
    """Raise ``BoxTooLargeError`` if the box (x_order, y_order) holds more
    than ``MAX_BOX_CELLS`` cells."""
    cells = (x_order + 1) * (y_order + 1)
    if cells > MAX_BOX_CELLS:
        try:
            message = (
                f"a truncation box of ({x_order}, {y_order}) holds {cells} cells, "
                f"more than {MAX_BOX_CELLS}"
            )
        except ValueError:  # sizes beyond the interpreter's limit on digits
            message = f"a truncation box holds more than {MAX_BOX_CELLS} cells"
        raise BoxTooLargeError(message)


def _top_column(c: list, w: int, top: int) -> int:
    """The highest column ``j <= top`` of the row-major list ``c``, ``w``
    entries per row, with a nonzero entry; 0 when there is none."""
    while top and not any(c[top::w]):
        top -= 1
    return top


# A product over GF(p) goes through ``_kron_mul`` when its nonzero terms
# make at least ``_KRON_MIN_PAIRS`` pairs and the box has at most
# ``_KRON_CELLS_PER_PAIR`` cells per pair; otherwise packing and unpacking
# the whole box costs more than the loop.  Timed both ways on the GF(p)
# products of the benchmark workloads and of theorem on sparse P, the loop
# won 754 of 755 products with a cell or more per pair; 1000 pairs was within
# 3% of best everywhere (300 made cli-small's products 9-15% slower); 2
# cells per pair, not 1, leaves a full box times one term to the pairs.
_KRON_MIN_PAIRS = 1000
_KRON_CELLS_PER_PAIR = 2

# A quotient of BiSeries over GF(p) goes through ``_kron_quotient`` when
# the divisor's non-constant terms times the row width reach this: timed on
# furstenberg's units, the cell recurrence won below 300 and lost above 900.
_KRON_MIN_QUOTIENT = 600

# The schoolbook loop sums into a dict, not the result list, when the box
# has more than this many cells per pair of nonzero terms.
_SPARSE_CELLS_PER_PAIR = 8

_NATIVE_BIG_ENDIAN = sys.byteorder == "big"


def _kron_pack(c: list, nb: int) -> int:
    """The payloads ``c``, each below 2**31, as one int with ``nb`` bytes
    per slot, ``c[0]`` in the lowest."""
    values = array("I", c)
    if _NATIVE_BIG_ENDIAN:
        values.byteswap()
    raw, step = values.tobytes(), values.itemsize
    buf = bytearray(nb * len(c))
    # payloads are below 2**31: their low four bytes hold them
    for t in range(min(nb, 4)):
        buf[t::nb] = raw[t::step]
    return int.from_bytes(buf, "little")


def _kron_lane(raw: bytes, first: int, nb: int, count: int) -> array:
    """Bytes ``first`` to ``first + 7`` of each ``nb``-byte slot of
    ``raw`` (those that exist), as one unsigned 64-bit value per slot."""
    buf = bytearray(8 * count)
    for t in range(first, min(nb, first + 8)):
        buf[t - first :: 8] = raw[t : nb * count : nb]
    lane = array("Q", buf)
    if _NATIVE_BIG_ENDIAN:
        lane.byteswap()
    return lane


def _kron_mul(p: int, a: list, b: list, w: int, k: int) -> list:
    """The normalized product over GF(p) of two payload lists on one box,
    by Kronecker substitution (Harvey, arXiv:0712.4046).

    ``a`` and ``b`` are row-major, ``w`` entries per row, and hold
    residues in ``[0, p)``; ``k >= 1`` bounds how many products meet in
    one cell (the smaller nonzero count does).  Each operand's window,
    from its first nonzero row (``ra`` for a) and column (``ca``) to the
    last nonzero one that can reach the box, becomes one int with ``nb``
    bytes per slot; the ints are multiplied once, and the product's slots
    are read back, reduced and written from row ``ra + rb``, column ``ca +
    cb``.  A slot sums at most ``k`` products below ``(p - 1)^2``, so
    ``nb`` bytes hold it without a carry into the next slot.  Rows are
    ``s`` slots apart, the two window widths' sum less 1: a product's
    columns span fewer, so no term wraps into the next row.
    """
    size = len(a)
    rows = size // w
    out = [0] * size
    # a zero operand's first row is ``rows``: the product starts past the box
    ra, rb = (next(compress(range(size), c), size) // w for c in (a, b))
    if ra + rb >= rows:
        return out
    windows = []
    for c, r, other in ((a, ra, rb), (b, rb, ra)):
        last = size - 1 - next(compress(range(size), reversed(c)))
        c = c[r * w : min(rows - other, last // w + 1) * w]
        windows.append((c, next(j for j in range(w) if any(c[j::w]))))
    (x, ca), (y, cb) = windows
    r0, c0 = ra + rb, ca + cb
    if c0 >= w:
        return out
    wa = _top_column(x, w, w - 1 - cb) - ca + 1
    wb = _top_column(y, w, w - 1 - ca) - cb + 1
    s = wa + wb - 1
    nb = (2 * (p - 1).bit_length() + k.bit_length() + 7) // 8
    cw = min(s, w - c0)  # the product's columns inside the box
    count = s * (min(rows - r0, (len(x) + len(y)) // w - 1) - 1) + cw
    px = _kron_pack(_kron_window(x, w, ca, wa, s), nb)
    prod = px * (px if b is a else _kron_pack(_kron_window(y, w, cb, wb, s), nb))
    slots = _kron_unpack(prod, nb, count, p)
    if cw == s == w:  # whole rows, nothing between them
        out[r0 * w : r0 * w + count] = slots
    else:
        for i, t in zip(range(0, count, s), range(r0 * w + c0, size, w)):
            out[t : t + cw] = slots[i : i + cw]
    return out


def _kron_window(c: list, w: int, first: int, width: int, s: int) -> list:
    """Columns ``first`` to ``first + width - 1`` of each row of ``c``
    (``w`` per row), laid ``s`` slots apart, as ``_kron_pack`` takes them."""
    if width == w == s:
        return c
    out = [0] * (s * (len(c) // w - 1) + width)
    for i, t in zip(range(0, len(out), s), range(first, len(c), w)):
        out[i : i + width] = c[t : t + width]
    return out


def _kron_unpack(x: int, nb: int, count: int, p: int) -> list:
    """The first ``count`` slots of ``x``, ``nb`` bytes each, reduced mod
    ``p``; slots above them are ignored."""
    raw = x.to_bytes(max(nb * count, (x.bit_length() + 7) // 8), "little")
    slots = _kron_lane(raw, 0, nb, count)
    if nb > 8:  # only near p = 2**31: the sums outgrow 64 bits
        high = _kron_lane(raw, 8, nb, count)
        slots = [lo + (hi << 64) for lo, hi in zip(slots, high)]
    return list(map(p.__rmod__, slots))


def _kron_quotient(field, a: list, u: list, w: int) -> list:
    """The quotient ``a / u`` of payload lists over GF(p), row by row on
    ints packed ``nb`` bytes per Y-slot: ``g_i = inv0 * (a_i + sum (p -
    u_kl) Y^l g_(i-k))`` over the T nonzero cells of u with 1 <= k <= i,
    with ``inv0 = 1 / u_0 mod Y^w``.  A slot sums at most T + 1 terms below
    ``(p - 1)^2``, or w in the product by ``inv0``, which a constant
    ``u_0`` skips by scaling a and the cells instead."""
    p = field.characteristic
    cells = [(t // w, t % w, u[t]) for t in compress(range(w, len(u)), u[w:])]
    row0 = [(t, 0, u[t]) for t in compress(range(1, w), u[1:w])]
    inv0 = _cell_quotient(field, [1] + [0] * (w - 1), u[0], row0, 1)
    scale = 1 if row0 else inv0[0]
    nb = ((max(len(cells) + 1, w) * (p - 1) ** 2).bit_length() + 7) // 8
    cells = [(k, 8 * nb * l, (p - v) * scale % p) for k, l, v in cells]
    packed_inv = _kron_pack(inv0, nb)
    rows, out = [], []
    for i, t in enumerate(range(0, len(a), w)):  # i rows are done
        row = a[t : t + w]
        acc = scale * _kron_pack(row, nb) if any(row) else 0
        for k, shift, v in cells:
            if k > i:
                break
            acc += v * (rows[-k] << shift)  # rows[-k] is row i - k
        g = _kron_unpack(acc, nb, w, p)
        if row0:
            g = _kron_unpack(_kron_pack(g, nb) * packed_inv, nb, w, p)
        rows.append(_kron_pack(g, nb))
        out += g
    return out


def _integral(values: list):
    """``(den, ints)`` for a list of rational payloads: ``den`` is the lcm
    of their denominators and ``ints`` holds the integers ``den * v``, in
    order.  Without a ``Fraction`` among them it is ``(1, values)``."""
    if Fraction not in map(type, values):
        return 1, values
    # a list, not a generator: lcm(*generator) grows and shrinks its
    # argument tuple, which CPython then frees into the free list of
    # another size, so each call would keep one more tuple alive
    den = lcm(*[v.denominator for v in values])
    return den, [v.numerator * (den // v.denominator) for v in values]


def _over(ints: list, den: int) -> list:
    """The payloads ``v / den`` of integers ``v`` over one denominator, each
    one normalized ``Fraction``, an int when integral; ``ints`` itself
    when ``den == 1``."""
    if den == 1:
        return ints
    return [_demote(Fraction(v, den)) if v else 0 for v in ints]


def _product(x, y):
    """The product of two series of one type on one box, ``x * y``.

    ``_kron_mul`` computes it where it pays (see ``_KRON_MIN_PAIRS``),
    else one loop over the factors' supports (``_Series._support``, found
    once per series) does.  The sparser factor drives it; each of its
    terms walks the other factor's terms in flat order, up to the first
    whose flat sum leaves the box, and skips those whose columns sum past
    ``w - 1``, so nothing wraps into the next row.  When the box has more
    than ``_SPARSE_CELLS_PER_PAIR`` cells per pair, the loop sums into a
    dict keyed by flat index, only the touched cells are normalized and
    the product gets its support, so only the zero fill of the result list
    costs per cell; otherwise the loop sums into the result list and the
    normalize pass skips the zero sums in C.

    Over Q, when a factor holds a ``Fraction``, the loop runs on integers
    over one common denominator: ``da`` and ``db``, the lcms of the
    denominators on each factor's support (``_integral``), scale the
    factors to integers, and each touched cell becomes one normalized
    ``Fraction(v, da * db)``, an int when integral.  So a product pays one
    gcd per result cell, not one per term pair.  Products of ints are
    final as they are.
    """
    field, a, b, w = x.field, x._c, y._c, x._w
    size = len(a)
    p = field.characteristic
    if p:  # count in C when the supports are not known yet
        na = size - a.count(0) if x._nz is None else len(x._nz)
        nb = size - b.count(0) if y._nz is None else len(y._nz)
        if na * nb >= _KRON_MIN_PAIRS and na * nb * _KRON_CELLS_PER_PAIR >= size:
            return x._raw(field, _kron_mul(p, a, b, w, min(na, nb)), w)
    nz_a, nz_b = x._support(), y._support()
    if len(nz_b) < len(nz_a):
        a, b, nz_a, nz_b = b, a, nz_b, nz_a
    norm = field.normalize if p else None
    if not p:
        payloads = chain(map(a.__getitem__, nz_a), map(b.__getitem__, nz_b))
        if Fraction in map(type, payloads):
            # the loop reads a and b on the supports only: dicts of the
            # integers there stand in for them
            da, ints = _integral(list(map(a.__getitem__, nz_a)))
            a = dict(zip(nz_a, ints))
            db, ints = _integral(list(map(b.__getitem__, nz_b)))
            b = dict(zip(nz_b, ints))
            den = da * db

            def norm(v):
                return _demote(Fraction(v, den))

    sparse = len(nz_a) * len(nz_b) * _SPARSE_CELLS_PER_PAIR < size
    terms = [(t, t % w, b[t]) for t in nz_b]
    out = defaultdict(int) if sparse else [0] * size
    for s in nz_a:
        ca, end, ycap = a[s], size - s, w - 1 - s % w
        for t, l, cb in terms:
            if t >= end:
                break
            if l <= ycap:
                out[s + t] += ca * cb
    if sparse:
        if norm:
            out = {k: norm(v) for k, v in out.items()}
        c = [0] * size
        for k, v in out.items():
            c[k] = v
        return x._raw(field, c, w, sorted(compress(out, out.values())))
    if norm:
        for k in compress(range(size), out):
            out[k] = norm(out[k])
    return x._raw(field, out, w)


def _cell_quotient(field, v: list, c0, terms: list, w: int) -> list:
    """``v`` (overwritten) divided cell by cell by the divisor with constant
    ``c0`` and non-constant ``terms``, ``(flat index, column, payload)``."""
    # a term X^k Y^l reaches cell X^i Y^j when its flat index is at most
    # the cell's and l <= j (which then forces k <= i)
    r, norm = field.invert(c0), field.normalize
    for p in range(len(v)):
        j = p % w
        s = v[p]
        for t, l, ct in terms:
            if t > p:
                break
            if l <= j:
                x = v[p - t]
                if x:
                    s -= ct * x
        v[p] = norm(r * s) if s else 0
    return v


class _Series:
    """Flat coefficient storage and the coefficientwise ring operations.

    Subclasses name their shape for error messages: ``_SHAPES`` is the
    plural noun and ``_shape()`` the value, e.g. ``orders`` and ``3``.
    """

    __slots__ = ("field", "_c", "_w", "_nz")

    @classmethod
    def _raw(cls, field: Field, coeffs: list, w: int = 1, nz=None):
        # internal: coeffs must already be normalized payloads, w per row;
        # nz is their support, or None until first asked for
        obj = object.__new__(cls)
        obj.field = field
        obj._c = coeffs
        obj._w = w
        obj._nz = nz
        return obj

    def _support(self) -> list:
        """The sorted flat indices of the nonzero entries, found once.

        It is stored in ``_nz``, so the entries must not change after the
        first call; ``from_terms``, which fills a fresh ``zero()`` list,
        does not call it before its writes end.
        """
        nz = self._nz
        if nz is None:
            c = self._c
            nz = self._nz = list(compress(range(len(c)), c))
        return nz

    def _check_op(self, other):
        if not isinstance(other, type(self)):
            raise TypeError(
                f"expected a {type(self).__name__}, got {type(other).__name__}"
            )
        if other.field != self.field:
            raise FieldMismatchError(
                f"series over {self.field.tag} combined with series over {other.field.tag}"
            )
        if other._w != self._w or len(other._c) != len(self._c):
            raise ShapeMismatchError(
                f"{self._SHAPES} differ: {self._shape()} vs {other._shape()}; "
                "resize explicitly"
            )

    def __add__(self, other):
        self._check_op(other)
        norm = self.field.normalize
        return self._raw(
            self.field, [norm(a + b) for a, b in zip(self._c, other._c)], self._w
        )

    def __sub__(self, other):
        self._check_op(other)
        norm = self.field.normalize
        return self._raw(
            self.field, [norm(a - b) for a, b in zip(self._c, other._c)], self._w
        )

    def __neg__(self):
        norm = self.field.normalize
        return self._raw(self.field, [norm(-a) for a in self._c], self._w)

    def __truediv__(self, other):
        """The exact quotient ``self / other`` on the same shape.

        The divisor's constant term must be a unit.  Starting from the
        dividend, the cells are solved in flat (row-major) order from
        ``other * q == self`` (``_cell_quotient``), so ``other * (self /
        other)`` is exactly ``self`` on the shape.  For a ``UniSeries``
        (``w == 1``) this is the usual power series division.  Over GF(p),
        a ``BiSeries`` divisor whose non-constant terms times ``w`` reach
        ``_KRON_MIN_QUOTIENT`` is solved a row at a time on packed ints
        (``_kron_quotient``), with the same result.
        """
        self._check_op(other)
        c = other._c
        if not c[0]:
            raise NotAUnitError("constant term is zero, series is not a unit")
        field, w = self.field, self._w
        # (flat index, column, payload) of the divisor's non-constant terms
        terms = [(t, t % w, c[t]) for t in other._support() if t]
        if field.characteristic and w > 1 and len(terms) * w >= _KRON_MIN_QUOTIENT:
            return self._raw(field, _kron_quotient(field, self._c, c, w), w)
        return self._raw(field, _cell_quotient(field, list(self._c), c[0], terms, w), w)

    def pow(self, m: int):
        """Truncated m-th power, by binary exponentiation; ``pow(a, 0)`` is
        the constant one on the same shape, for any ``a`` including zero."""
        if m < 0:
            raise ValueError("exponent must be >= 0")
        result = self._raw(self.field, [1] + [0] * (len(self._c) - 1), self._w)
        base = self
        while m:
            if m & 1:
                result = result * base
            m >>= 1
            if m:
                base = base * base
        return result

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return other.field == self.field and other._w == self._w and other._c == self._c

    def __hash__(self):
        return hash((self.field, self._w, tuple(self._c)))


# perfbench/tracing.py patches traced methods via cls.__dict__: keep them on each class.


class UniSeries(_Series):
    """A truncated power series in one variable.

    >>> from implicitseries.fields import RationalField
    >>> q = RationalField()
    >>> one_plus = UniSeries(q, [1, 1, 0])
    >>> (one_plus * one_plus).coefficients()
    [FieldElement(q, 1), FieldElement(q, 2), FieldElement(q, 1)]
    """

    __slots__ = ()
    _SHAPES = "orders"

    def __init__(self, field: Field, coeffs):
        self.field = field
        self._c = [field.coerce(c) for c in coeffs]
        self._w = 1
        self._nz = None
        if not self._c:
            raise ValueError("a series stores at least its constant coefficient")

    @classmethod
    def zero(cls, field: Field, order: int) -> "UniSeries":
        if order < 0:
            raise ValueError("order must be >= 0")
        _check_cells(order, 0)
        return cls._raw(field, [0] * (order + 1))

    @property
    def order(self) -> int:
        return len(self._c) - 1

    def _shape(self):
        return self.order

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
        return not any(self._c) if self._nz is None else not self._nz

    def resized(self, order: int) -> "UniSeries":
        """Truncate or zero-pad to the given order.

        Series are never changed once built, so the series itself is
        returned when it already has that order.
        """
        if order < 0:
            raise ValueError("order must be >= 0")
        if order == self.order:
            return self
        c = self._c[: order + 1]
        if len(c) < order + 1:
            c = c + [0] * (order + 1 - len(c))
        return UniSeries._raw(self.field, c)

    def __mul__(self, other):
        self._check_op(other)
        return _product(self, other)

    def __repr__(self):
        return f"UniSeries({self.field.tag}, {self._c!r})"


class BiSeries(_Series):
    """A truncated power series in two variables X and Y.

    The coefficient of ``X^i Y^j``, for ``i <= x_order`` and
    ``j <= y_order``, is ``_c[i * _w + j]`` with ``_w = y_order + 1``.
    ``zero`` and ``from_terms`` build one.
    """

    __slots__ = ()
    _SHAPES = "boxes"

    @classmethod
    def zero(cls, field: Field, x_order: int, y_order: int) -> "BiSeries":
        if x_order < 0 or y_order < 0:
            raise ValueError("orders must be >= 0")
        _check_cells(x_order, y_order)
        return cls._raw(field, [0] * ((x_order + 1) * (y_order + 1)), y_order + 1)

    @classmethod
    def from_terms(cls, field: Field, terms, x_order: int, y_order: int) -> "BiSeries":
        """A series on the box from ``(i, j, value)`` triples: later terms
        add, terms beyond the box are dropped (the quotient-ring reading of
        truncation), and a negative exponent raises ``ValueError``."""
        out = cls.zero(field, x_order, y_order)
        c, w = out._c, out._w
        norm = field.normalize
        for i, j, value in terms:
            if i < 0 or j < 0:
                raise ValueError("term exponents must be >= 0")
            if i <= x_order and j <= y_order:
                c[i * w + j] = norm(c[i * w + j] + field.coerce(value))
        return out

    @property
    def x_order(self) -> int:
        return len(self._c) // self._w - 1

    @property
    def y_order(self) -> int:
        return self._w - 1

    def _shape(self):
        return (self.x_order, self.y_order)

    def coeff(self, i: int, j: int) -> FieldElement:
        if not (0 <= i <= self.x_order and 0 <= j <= self.y_order):
            raise IndexOutOfTruncationError(
                f"index ({i}, {j}) outside truncation box "
                f"({self.x_order}, {self.y_order})"
            )
        return FieldElement(self.field, self._c[i * self._w + j])

    def nonzero_terms(self) -> list:
        """All nonzero ``(i, j, payload)`` triples in row-major order."""
        c, w = self._c, self._w
        return [(k // w, k % w, c[k]) for k in self._support()]

    def is_zero(self) -> bool:
        return not any(self._c) if self._nz is None else not self._nz

    def resized(self, x_order: int, y_order: int) -> "BiSeries":
        """Truncate or zero-pad each axis to the given orders; the series
        itself when it already has them."""
        if x_order == self.x_order and y_order == self.y_order:
            return self
        out = BiSeries.zero(self.field, x_order, y_order)
        w, wo = self._w, out._w
        keep = min(w, wo)
        for i in range(min(self.x_order, x_order) + 1):
            out._c[i * wo : i * wo + keep] = self._c[i * w : i * w + keep]
        return out

    def column(self, j: int) -> UniSeries:
        """The coefficient of ``Y^j`` as a series in X."""
        if not 0 <= j <= self.y_order:
            raise IndexOutOfTruncationError(
                f"column {j} outside truncation order {self.y_order}"
            )
        return UniSeries._raw(self.field, self._c[j :: self._w])

    def __mul__(self, other):
        self._check_op(other)
        return _product(self, other)

    pow = _Series.pow  # bound here too: the tracer reads BiSeries.__dict__["pow"]

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
        c, w = self._c, self._w
        binom = [comb(j + m, m) for j in range(w - m)]
        row_starts = range(0, len(c), w)
        return BiSeries._raw(
            self.field,
            [norm(b * c[k + m + j]) for k in row_starts for j, b in enumerate(binom)],
            w - m,
        )

    def subst_y(self, f: UniSeries) -> UniSeries:
        """Substitute ``Y = f(X)``: the last of Horner's partial sums
        (``_horner``), divided once.

        Requires ``f(0) = 0`` (so the substitution respects truncation)
        and ``f.order >= x_order``; the result has order ``x_order``.  As
        f(0) = 0, a term ``X^i Y^j`` adds only to orders i + j and up, so
        Horner starts at the highest column j with a nonzero cell in a row
        i <= x_order - j.  That is exact: the columns above it add only to
        orders above x_order.
        """
        c, w, nx = self._c, self._w, self.x_order
        top = min(self.y_order, nx)
        while top and not any(c[top : (nx - top + 1) * w : w]):
            top -= 1
        for ints, den in self._horner(f, top):
            pass  # hold one partial sum at a time
        return UniSeries._raw(self.field, _over(ints, den))

    def _horner(self, f: UniSeries, top=None):
        """Horner's scheme for ``Y = f(X)`` over the columns ``C_j``, from
        ``top`` down: yields each partial sum ``h_top = C_top``, ``h_j =
        C_j + f * h_(j+1)``, ..., ``h_0 = self(X, f)`` as ``(ints, den)``,
        the payloads ``_over(ints, den)``; ``top`` is the highest nonzero
        column unless given (``subst_y`` gives the highest that reaches
        order x_order).  Kept, the partial sums are synthetic division by
        ``Y - f``: h_top ... h_1 are the cofactor's columns top - 1 ... 0
        and h_0 is the remainder.  Checks f as ``subst_y`` states.

        Over Q, Horner runs on integers.  With ``f = F / d`` and this
        series ``C / e`` (``_integral`` on f and on this series' support),
        ``acc <- acc * F + d^(top - j) * C_j`` holds ``den = e * d^(top -
        j)`` times ``h_j``; over GF(p), ``den = 1``.
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
        field, c, w = self.field, self._c, self._w
        if top is None:  # lowering often leaves all-zero columns on top
            top = _top_column(c, w, self.y_order)
        d = e = 1
        if not field.characteristic:
            d, ints = _integral(fx._c)
            fx = UniSeries._raw(field, ints)
            nz = self._support()
            e, ints = _integral(list(map(c.__getitem__, nz)))
            if e > 1:
                c = [0] * len(c)
                for t, v in zip(nz, ints):
                    c[t] = v
        norm = field.normalize
        acc, scale = c[top::w], 1
        yield acc, e
        for j in range(top - 1, -1, -1):
            scale *= d
            acc = (UniSeries._raw(field, acc) * fx)._c  # a fresh list
            col = c[j::w]
            for k in compress(range(len(col)), col):
                acc[k] = norm(acc[k] + scale * col[k])
            yield acc, e * scale

    def reciprocal(self) -> "BiSeries":
        """Multiplicative inverse on the same box: ``one / self``."""
        one = BiSeries.from_terms(self.field, [(0, 0, 1)], self.x_order, self.y_order)
        return one / self

    def diagonal(self) -> UniSeries:
        """The series of coefficients of ``X^n Y^n``, one variable, up to
        order ``min(x_order, y_order)``."""
        top = min(self.x_order, self.y_order)
        step = self._w + 1
        return UniSeries._raw(self.field, self._c[: top * step + 1 : step])

    def __repr__(self):
        return (
            f"BiSeries({self.field.tag}, box=({self.x_order}, {self.y_order}), "
            f"terms={self.nonzero_terms()!r})"
        )
