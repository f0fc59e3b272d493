"""Series arithmetic: ring axioms, derivatives, substitutions, quotients."""

import math
from fractions import Fraction

import pytest

from implicitseries import (
    BiSeries,
    BoxTooLargeError,
    FieldMismatchError,
    IndexOutOfTruncationError,
    NonzeroConstantTermError,
    NotAUnitError,
    OrderExceededError,
    PrimeField,
    RationalField,
    ShapeMismatchError,
    UniSeries,
    series,
)

from conftest import (
    FIELDS,
    embed_x,
    fraction_horner,
    make_rng,
    random_biseries,
    random_uniseries,
    random_value,
)

Q = RationalField()


# ---------------------------------------------------------------- UniSeries

def test_uniseries_examples():
    one_plus = UniSeries(Q, [1, 1, 0, 0])
    sq = one_plus * one_plus
    assert [c.value for c in sq.coefficients()] == [1, 2, 1, 0]
    assert one_plus.pow(3)._c == [1, 3, 3, 1]
    assert (one_plus - one_plus).is_zero()
    geom = UniSeries(Q, [1, 1, 1, 1])
    assert (geom * UniSeries(Q, [1, -1, 0, 0]))._c == [1, 0, 0, 0]

    f2 = PrimeField(2)
    frob = UniSeries(f2, [1, 1])
    assert frob.pow(2).resized(1)._c == [1, 0]  # (1+X)^2 = 1 + X^2


def test_uniseries_truncation_is_part_of_value():
    a = UniSeries(Q, [1, 2])
    assert a.order == 1
    assert a.resized(3)._c == [1, 2, 0, 0]
    assert a.resized(0)._c == [1]
    assert a.resized(1) is a  # series never change once built
    assert a != a.resized(3)  # different truncation orders differ as values
    with pytest.raises(ShapeMismatchError):
        a + a.resized(3)
    with pytest.raises(FieldMismatchError):
        a + UniSeries(PrimeField(5), [1, 2])
    with pytest.raises(TypeError):
        a + 1
    assert a != 3 and not a == 3
    with pytest.raises(IndexOutOfTruncationError):
        a.coeff(2)
    with pytest.raises(ValueError):
        UniSeries(Q, [])
    with pytest.raises(ValueError, match="^order must be >= 0$"):
        UniSeries.zero(Q, -1)
    with pytest.raises(ValueError, match="^order must be >= 0$"):
        a.resized(-1)
    with pytest.raises(ValueError):
        a.pow(-1)


def test_uniseries_ring_axioms_randomized():
    rng = make_rng("uni-ring")
    for field in FIELDS:
        for _ in range(200):
            order = rng.randint(0, 6)
            a = random_uniseries(rng, field, order)
            b = random_uniseries(rng, field, order)
            c = random_uniseries(rng, field, order)
            assert a + b == b + a
            assert a * b == b * a
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert (a - b) + b == a
            assert a + (-a) == UniSeries.zero(field, order)
            assert a.pow(3) == a * a * a


def test_uniseries_repr_and_hash():
    a = UniSeries(Q, [1, Fraction(1, 2)])
    assert repr(a) == "UniSeries(q, [1, Fraction(1, 2)])"
    assert hash(a) == hash(UniSeries(Q, [1, Fraction(2, 4)]))


def test_uniseries_quotient_randomized_and_guards():
    rng = make_rng("uniseries-quotient")
    not_a_unit = r"^constant term is zero, series is not a unit$"
    for field in FIELDS:
        for _ in range(25):
            n = rng.randint(0, 8)
            a = random_uniseries(rng, field, n)
            u = random_uniseries(rng, field, n)
            if not u.coeff(0):
                with pytest.raises(NotAUnitError, match=not_a_unit):
                    a / u
                u = u + UniSeries(field, [1] + [0] * n)
            assert u * (a / u) == a
            assert (a * u) / u == a
    # 1 / (1 - X) is the geometric series
    one = UniSeries(Q, [1, 0, 0, 0])
    assert one / UniSeries(Q, [1, -1, 0, 0]) == UniSeries(Q, [1, 1, 1, 1])
    with pytest.raises(NotAUnitError, match=not_a_unit):
        one / UniSeries(Q, [0, 1, 0, 0])
    with pytest.raises(TypeError, match="^expected a UniSeries, got int$"):
        one / 2
    with pytest.raises(TypeError, match="^expected a UniSeries, got BiSeries$"):
        one / BiSeries.from_terms(Q, [(0, 0, 1)], 3, 0)
    with pytest.raises(FieldMismatchError):
        one / UniSeries(PrimeField(2), [1, 0, 0, 0])
    with pytest.raises(ShapeMismatchError, match=r"^orders differ: 3 vs 4"):
        one / one.resized(4)


# ----------------------------------------------------------------- BiSeries

def test_biseries_construction_and_access():
    p = BiSeries.from_terms(Q, [(0, 2, 1), (1, 0, 1)], 1, 2)  # Y^2 + X
    assert p.x_order == 1 and p.y_order == 2
    assert p.coeff(0, 2).value == 1
    assert p.coeff(1, 0).value == 1
    assert p.nonzero_terms() == [(0, 2, 1), (1, 0, 1)]
    assert p.column(0)._c == [0, 1]
    with pytest.raises(IndexOutOfTruncationError):
        p.coeff(2, 0)
    with pytest.raises(IndexOutOfTruncationError):
        p.column(3)


def test_biseries_builders():
    # from_terms is the one builder
    m = BiSeries.from_terms(Q, [(1, 2, 5)], 3, 3)
    assert m.nonzero_terms() == [(1, 2, 5)]
    # beyond the box, in either axis, truncates to zero, matching the
    # quotient-ring view; a negative exponent is refused, in either axis
    assert BiSeries.from_terms(Q, [(4, 0, 5)], 3, 3).is_zero()
    assert BiSeries.from_terms(Q, [(0, 4, 5)], 3, 3).is_zero()
    for i, j in ((-1, 0), (0, -1)):
        with pytest.raises(ValueError, match="^term exponents must be >= 0$"):
            BiSeries.from_terms(Q, [(i, j, 5)], 3, 3)
    # later terms add, and may cancel
    s = BiSeries.from_terms(Q, [(0, 1, 2), (0, 1, 3), (9, 9, 1)], 2, 2)
    assert s.nonzero_terms() == [(0, 1, 5)]
    assert BiSeries.from_terms(Q, [(1, 1, 2), (1, 1, -2)], 2, 2).is_zero()
    # values are coerced into the field: 1 + 13 = 0 and 1/2 = 4 in GF(7)
    terms = [(0, 0, 1), (0, 0, 13), (1, 0, Fraction(1, 2))]
    gf7 = BiSeries.from_terms(PrimeField(7), terms, 1, 1)
    assert gf7.nonzero_terms() == [(1, 0, 4)]


def test_boxes_beyond_max_box_cells_refused():
    # zero() refuses a box of more than MAX_BOX_CELLS cells before
    # allocating it, and so do from_terms and resized, which start from it
    cap = series.MAX_BOX_CELLS
    assert len(UniSeries.zero(Q, cap - 1)._c) == cap
    refused = [
        lambda: UniSeries.zero(Q, cap),
        lambda: BiSeries.zero(Q, 2048, 2047),
        lambda: BiSeries.zero(Q, 0, cap),
        lambda: BiSeries.from_terms(Q, [(1, 0, 1)], cap, 1),
        lambda: BiSeries.from_terms(Q, [(0, 0, 1)], 1, 1).resized(4096, 1023),
        # a cell count of 6001 digits, beyond what str() prints by default
        lambda: BiSeries.zero(Q, 10**3000, 2 * 10**3000 - 1),
    ]
    for make in refused:
        with pytest.raises(BoxTooLargeError, match=f"more than {cap}"):
            make()


def test_biseries_resized_and_shape_checks():
    p = BiSeries.from_terms(Q, [(1, 1, 3)], 2, 2)
    small = p.resized(1, 1)
    assert small.nonzero_terms() == [(1, 1, 3)]
    assert p.resized(0, 0).is_zero()
    assert p.resized(2, 2) is p
    grown = p.resized(3, 4)
    assert grown.x_order == 3 and grown.y_order == 4
    with pytest.raises(ShapeMismatchError):
        p + grown
    with pytest.raises(FieldMismatchError):
        p + BiSeries.zero(PrimeField(3), 2, 2)
    with pytest.raises(TypeError):
        p * UniSeries(Q, [1])
    with pytest.raises(ValueError, match="^orders must be >= 0$"):
        BiSeries.zero(Q, -1, 0)


def _sparse_terms(rng, field, nx, ny, count):
    """``count`` random ``(i, j, value)`` triples on the box (nx, ny)."""
    return [
        (rng.randint(0, nx), rng.randint(0, ny), random_value(rng, field))
        for _ in range(count)
    ]


def _sparse_or_dense_biseries(rng, field, nx, ny):
    if rng.random() < 0.5:
        return random_biseries(rng, field, nx, ny)
    terms = _sparse_terms(rng, field, nx, ny, rng.randint(0, 3))
    return BiSeries.from_terms(field, terms, nx, ny)


def _textbook_product(a, b):
    """The double loop over the coefficients of ``a`` and ``b``, cut to the box."""
    nx, ny = a.x_order, a.y_order
    return BiSeries.from_terms(
        a.field,
        [
            (i + k, j + l, c * d)
            for i, j, c in a.nonzero_terms()
            for k, l, d in b.nonzero_terms()
            if i + k <= nx and j + l <= ny
        ],
        nx,
        ny,
    )


def test_products_match_the_textbook_convolution():
    # both series types against the double loop over the coefficients, on
    # empty-width, empty-height and non-square boxes
    rng = make_rng("mul-definition")
    for field in FIELDS:
        boxes = [(0, 0), (0, 5), (5, 0), (1, 6), (6, 1), (2, 4), (4, 2)]
        boxes += [(rng.randint(0, 6), rng.randint(0, 6)) for _ in range(8)]
        for nx, ny in boxes:
            a = _sparse_or_dense_biseries(rng, field, nx, ny)
            b = _sparse_or_dense_biseries(rng, field, nx, ny)
            assert a * b == _textbook_product(a, b)
            u, v = a.column(0), b.column(ny)
            assert (u * v).coefficients() == [
                sum(u.coeff(i) * v.coeff(n - i) for i in range(n + 1))
                for n in range(nx + 1)
            ]
        # order 0 on both series types
        u, v = UniSeries(field, [random_value(rng, field)]), UniSeries(field, [3])
        assert (u * v)._c == [field.normalize(3 * u._c[0])]
        a = BiSeries.from_terms(field, [(0, 0, random_value(rng, field))], 0, 0)
        b = BiSeries.from_terms(field, [(0, 0, 3)], 0, 0)
        assert a * b == _textbook_product(a, b)
        # a term in the last column times Y leaves the box; it must not wrap
        # into column 0 of the next row
        y = BiSeries.from_terms(field, [(0, 1, 1)], 4, 3)
        for i in range(5):
            edge = BiSeries.from_terms(field, [(i, 3, 1)], 4, 3)
            assert (edge * y).is_zero() and (y * edge).is_zero()
            assert (edge + y) * y == _textbook_product(edge + y, y)

    # the powers P^2 .. P^255 of Catalan's X + Y^2 on (128, 255), few terms
    # on a large box, each built from the last, so the supports the sparse
    # loop hands its results are carried through the chain; both operand
    # orders
    for field in (Q, PrimeField(10007)):
        p = BiSeries.from_terms(field, [(1, 0, 1), (0, 2, 1)], 128, 255)
        power = p
        for k in range(2, 256):
            expected = _textbook_product(p, power)
            assert power * p == expected
            power = p * power
            assert power == expected
            if k % 16 == 0:
                assert power * power == _textbook_product(power, power)


def _support_of(s):
    return [k for k, c in enumerate(s._c) if c]


def test_sparse_products_match_the_textbook_convolution():
    # few terms on large boxes, so the loop sums into a dict: against the
    # double loop in both operand orders, with the support the result carries
    rng = make_rng("sparse-definition")
    for field in (Q, PrimeField(10007), PrimeField(2)):
        for nx, ny in [(0, 400), (400, 0), (60, 90), (90, 60), (30, 300)]:
            for _ in range(6):
                a, b = (
                    BiSeries.from_terms(field, _sparse_terms(rng, field, nx, ny, k), nx, ny)
                    for k in (5, 9)
                )
                for x, y in ((a, b), (b, a)):
                    product = x * y
                    assert product == _textbook_product(x, y)
                    assert product._nz == _support_of(product)
    # sums that cancel leave the support: (1 + X)(1 - X) = 1 - X^2, and the
    # Fraction sums normalize to ints: (1/2 + 1/2 Y)(2 - 2 Y) = 1 - Y^2
    u = UniSeries(Q, [1, 1] + [0] * 99)
    v = UniSeries(Q, [1, -1] + [0] * 99)
    assert (u * v)._c == [1, 0, -1] + [0] * 98 and (u * v)._nz == [0, 2]
    half = BiSeries.from_terms(Q, [(0, 0, Fraction(1, 2)), (0, 1, Fraction(1, 2))], 9, 9)
    two = BiSeries.from_terms(Q, [(0, 0, 2), (0, 1, -2)], 9, 9)
    product = half * two
    assert product.nonzero_terms() == [(0, 0, 1), (0, 2, -1)]
    assert all(type(c) is int for c in product._c) and product._nz == [0, 2]
    # over GF(p) too: (1 + X)(1 + 6 X) = 1 + 6 X^2 over GF(7)
    f7 = PrimeField(7)
    product = UniSeries(f7, [1, 1] + [0] * 40) * UniSeries(f7, [1, 6] + [0] * 40)
    assert product._c == [1, 0, 6] + [0] * 39 and product._nz == [0, 2]


def _normalized_over_q(s):
    """Whether every payload of ``s`` is an int or a non-integral Fraction."""
    return all(
        type(c) is int or (type(c) is Fraction and c.denominator > 1) for c in s._c
    )


def test_products_over_q_match_the_textbook_convolution():
    # over Q a product runs on integers over one common denominator: factors
    # with coprime denominators, all-Fraction factors, an int factor times a
    # Fraction factor, negative values and zero, on the list path (dense
    # factors, small box) and the dict path (few terms, large box; only it
    # hands the product its support), for both series types
    rng = make_rng("q-definition")

    def rational(nx, ny, count, dens):
        values = [Fraction(rng.randint(-20, 20), rng.choice(dens)) for _ in range(count)]
        terms = [(rng.randint(0, nx), rng.randint(0, ny), v) for v in values]
        return BiSeries.from_terms(Q, terms, nx, ny)

    denominators = [((2, 3), (5, 7)), ((6, 4), (10, 14)), ((1,), (2, 3, 5, 7))]
    for nx, ny, count, sparse in ((4, 5, 40, False), (40, 60, 6, True)):
        for dens_a, dens_b in denominators:
            for _ in range(4):
                a, b = rational(nx, ny, count, dens_a), rational(nx, ny, count, dens_b)
                zero = BiSeries.zero(Q, nx, ny)
                for x, y in ((a, b), (b, a), (b, b), (a, zero), (zero, b)):
                    product = x * y
                    assert product == _textbook_product(x, y)
                    assert _normalized_over_q(product)
                    # a zero factor makes no pairs: its product takes the dict path
                    on_dict = sparse or zero in (x, y)
                    assert (product._nz is not None) == on_dict
                    if on_dict:
                        assert product._nz == _support_of(product)
                    u, v = x.column(0), y.column(ny)
                    textbook = _textbook_product(
                        embed_x(u, 0), embed_x(v, 0)
                    )
                    assert (u * v)._c == textbook._c
                    assert _normalized_over_q(u * v)
    # Fraction sums that are integral are stored as ints, on both paths:
    # (1/2 - 1/2 X)(1 - X) = 1/2 - X + 1/2 X^2 and
    # (1/3 + 2/3 X)(3/5 + 6/5 X) = 1/5 + 4/5 X + 4/5 X^2, whose X
    # coefficients are one sum of two Fractions each
    for order in (3, 300):
        pad = [0] * (order - 1)
        half = UniSeries(Q, [Fraction(1, 2), Fraction(-1, 2)] + pad)
        product = half * UniSeries(Q, [1, -1] + pad)
        assert product._c == [Fraction(1, 2), -1, Fraction(1, 2)] + pad[1:]
        assert type(product._c[1]) is int
        thirds = UniSeries(Q, [Fraction(1, 3), Fraction(2, 3)] + pad)
        fifths = UniSeries(Q, [Fraction(3, 5), Fraction(6, 5)] + pad)
        assert (thirds * fifths)._c == [Fraction(1, 5), Fraction(4, 5), Fraction(4, 5)] + pad[1:]
        twos = UniSeries(Q, [Fraction(1, 2), Fraction(3, 2)] + pad)
        product = twos * UniSeries(Q, [Fraction(3, 2), Fraction(-1, 2)] + pad)
        # 3/4 + (-1/4 + 9/4) X - 3/4 X^2
        assert product._c == [Fraction(3, 4), 2, Fraction(-3, 4)] + pad[1:]
        assert type(product._c[1]) is int


def test_support_matches_the_entries():
    # _nz is None until asked for, then the sorted nonzero flat indices; the
    # builders that write into a fresh zero() list, the coefficientwise
    # operations and every product path leave it equal to the entries
    rng = make_rng("support")
    fp = PrimeField(10007)
    made = []
    for field in (Q, fp):
        f = UniSeries(field, [0, 1, 4, 0])
        a = BiSeries.from_terms(field, _sparse_terms(rng, field, 6, 9, 6), 6, 9)
        dense = random_biseries(rng, field, 6, 9)
        unit = BiSeries.from_terms(field, [(0, 0, 1)], 6, 9) + a * BiSeries.from_terms(
            field, [(1, 0, 1)], 6, 9
        )
        made += [
            BiSeries.zero(field, 3, 4), UniSeries.zero(field, 5),
            BiSeries.from_terms(field, [(0, 0, 1)], 6, 9),
            BiSeries.from_terms(field, [(2, 5, 3)], 6, 9),
            BiSeries.from_terms(field, [(7, 0, 3)], 6, 9), a, dense, f,
            embed_x(f, 4), a.resized(9, 3), a.resized(3, 12),
            a + dense, a - a, -a, dense / unit, a / unit, f.resized(9),
            a * a, a * dense, dense * dense, f * f, a.column(1), a.diagonal(),
            a.hasse_derivative(2), dense.subst_y(UniSeries(field, list(range(7)))),
        ]
    # the Kronecker kernel, over GF(p)
    big = random_biseries(rng, fp, 24, 47)
    made.append(big * big)
    for s in made:
        assert s._nz is None or s._nz == _support_of(s)
        assert s._support() == _support_of(s)
        assert s.is_zero() == (not any(s._c))
    # a product reads its operands' supports and keeps them
    x = BiSeries.from_terms(Q, [(0, 1, 1), (2, 0, 3)], 20, 20)
    assert x._nz is None
    y = x * x
    assert x._nz == [1, 42] and y._nz == _support_of(y) == [2, 43, 84]
    assert not y.is_zero()
    assert (x * BiSeries.from_terms(Q, [(20, 20, 1)], 20, 20)).is_zero()


def test_sparse_loop_runs_only_where_it_pays(kron_calls):
    # the dict loop runs, and sets the product's support, once the box has
    # more than _SPARSE_CELLS_PER_PAIR cells per pair of nonzero terms;
    # otherwise the loop sums into the result list and leaves it unset
    c = series._SPARSE_CELLS_PER_PAIR
    for field in (Q, PrimeField(10007)):
        x = UniSeries(field, [0, 1] + [0] * 8 * c)
        for order, dict_loop in ((8 * c - 1, False), (8 * c, True)):
            # 8 nonzero terms times X: 8 pairs on order + 1 cells
            b = UniSeries(field, [1] * 8 + [0] * (order - 7))
            product = x.resized(order) * b
            assert product._c == [0] + b._c[:-1]
            assert (product._nz is not None) == dict_loop
    # over GF(p), the Kronecker test reads known supports: the sparse powers
    # of a chain stay on the loop, a dense product goes to the kernel
    fp = PrimeField(10007)
    p = BiSeries.from_terms(fp, [(1, 0, 1), (0, 2, 1)], 64, 127)
    power = p
    for _ in range(40):
        power = p * power
        assert power._nz is not None
    assert kron_calls == []
    dense = random_biseries(make_rng("sparse-dispatch"), fp, 24, 47)
    dense._support()
    dense * dense
    assert len(kron_calls) == 1


def _dense_below(rng, field, nx, ny, top):
    """A random series on the box (nx, ny), nonzero exactly in the columns
    up to ``top``."""
    p = field.characteristic
    return BiSeries.from_terms(
        field,
        [(i, j, rng.randrange(1, p)) for i in range(nx + 1) for j in range(top + 1)],
        nx,
        ny,
    )


def _window_series(rng, field, box, rows, cols):
    """A random series on ``box``, nonzero exactly on the cells in the row
    range ``rows`` and the column range ``cols``."""
    p = field.characteristic
    terms = [(i, j, rng.randrange(1, p)) for i in rows for j in cols]
    return BiSeries.from_terms(field, terms, *box)


@pytest.fixture
def kron_packs(monkeypatch):
    """The bit length of every int ``_kron_pack`` returns in the test."""
    sizes = []
    packer = series._kron_pack

    def recorded(*args):
        x = packer(*args)
        sizes.append(x.bit_length())
        return x

    monkeypatch.setattr(series, "_kron_pack", recorded)
    return sizes


@pytest.fixture
def kron_calls(monkeypatch):
    """The argument tuples of every ``_kron_mul`` call the test makes."""
    calls = []
    kernel = series._kron_mul
    monkeypatch.setattr(
        series, "_kron_mul", lambda *args: calls.append(args) or kernel(*args)
    )
    return calls


def test_kronecker_products_match_the_textbook_convolution(kron_calls, kron_packs):
    # products large enough for the Kronecker kernel, against the double loop
    rng = make_rng("kron-definition")
    primes = [f for f in FIELDS if f.characteristic] + [PrimeField(2**31 - 1)]
    for field in primes:
        p = field.characteristic
        worst = BiSeries.from_terms(
            field, [(i, j, p - 1) for i in range(8) for j in range(10)], 7, 9
        )
        cases = [
            # every product sum at its bound: 80 terms of (p - 1)^2 meet
            # in the corner cell
            (worst, worst),
            # w == 1: a BiSeries with y_order 0, and a UniSeries below
            (_dense_below(rng, field, 40, 0, 0), _dense_below(rng, field, 40, 0, 0)),
            # x_order 0
            (_dense_below(rng, field, 0, 40, 40), _dense_below(rng, field, 0, 40, 40)),
            # non-square boxes, and top columns that differ: the rows are
            # packed the two window widths less 1 slots apart
            (_dense_below(rng, field, 12, 20, 2), _dense_below(rng, field, 12, 20, 20)),
            (_dense_below(rng, field, 30, 5, 5), _dense_below(rng, field, 30, 5, 1)),
            (_dense_below(rng, field, 6, 30, 17), _dense_below(rng, field, 6, 30, 9)),
        ]
        for a, b in cases:
            before = len(kron_calls)
            assert a * b == _textbook_product(a, b)
            assert a * a == _textbook_product(a, a)
            assert len(kron_calls) == before + 2
        a, b = cases[1]
        assert a.column(0) * b.column(0) == _textbook_product(a, b).column(0)
        assert len(kron_calls) == before + 3
        zero = [0] * len(worst._c)
        assert series._kron_mul(p, zero, worst._c, worst._w, 1) == zero
        assert series._kron_mul(p, worst._c, zero, worst._w, 1) == zero

    # the kernel packs each operand's window of nonzero rows and columns:
    # products of windows off the origin against the double loop
    rng = make_rng("kron-windows")
    box = (20, 19)
    for field in (PrimeField(2), PrimeField(10007), PrimeField(2**31 - 1)):
        shifted = _window_series(rng, field, box, range(3, 21), range(5, 20))
        cases = [
            # windows that start at row > 0 and column > 0, of other widths
            (shifted, _window_series(rng, field, box, range(2, 15), range(4, 11))),
            (_window_series(rng, field, box, range(0, 9), range(9, 20)), shifted),
            # a one-column window
            (_window_series(rng, field, box, range(0, 21), range(7, 8)), shifted),
            (shifted, _window_series(rng, field, box, range(4, 21), range(0, 1))),
        ]
        for a, b in cases:
            before = len(kron_calls)
            assert a * b == _textbook_product(a, b)
            assert len(kron_calls) == before + 1
        # a * a on a shifted window squares one packed int
        before, packs = len(kron_calls), len(kron_packs)
        assert shifted * shifted == _textbook_product(shifted, shifted)
        assert len(kron_calls) == before + 1 and len(kron_packs) == packs + 1
        # products whose windows start past the box, in X or in Y: zero,
        # with nothing packed or multiplied
        low = _window_series(rng, field, box, range(11, 21), range(0, 20))
        right = _window_series(rng, field, box, range(0, 21), range(10, 20))
        zero = BiSeries.zero(field, *box)
        for a, b in ((low, low), (right, right)):
            before, packs = len(kron_calls), len(kron_packs)
            assert a * b == zero == _textbook_product(a, b)
            assert len(kron_calls) == before + 1 and len(kron_packs) == packs
        # a UniSeries of valuation 5 times a dense one, and its square
        p = field.characteristic
        u = UniSeries(field, [0] * 5 + [rng.randrange(1, p) for _ in range(56)])
        v = UniSeries(field, [rng.randrange(1, p) for _ in range(61)])
        for a, b in ((u, v), (v, u), (u, u)):
            before = len(kron_calls)
            expected = _textbook_product(embed_x(a, 0), embed_x(b, 0)).column(0)
            assert a * b == expected
            assert len(kron_calls) == before + 1


def test_kronecker_kernel_packs_only_the_windows(kron_calls, kron_packs):
    # two series nonzero only in rows >= 8 and columns >= 8 of (20, 19):
    # each window holds rows 8 to 12 and columns 8 to 11, the last that can
    # reach the box against the other's 8, so each packed int holds at most
    # 5 rows times the stride (the two window widths less 1) times nb bytes;
    # the whole box would take 800 slots
    field = PrimeField(10007)
    rng = make_rng("kron-pack-window")
    a, b = (
        _window_series(rng, field, (20, 19), range(8, 21), range(8, 20)) for _ in range(2)
    )
    assert a * b == _textbook_product(a, b)
    assert len(kron_calls) == 1 and len(kron_packs) == 2
    k = 13 * 12  # nonzero terms per operand
    nb = (2 * (10007 - 1).bit_length() + k.bit_length() + 7) // 8
    rows, stride = 21 - 8 - 8, 4 + 4 - 1
    assert all(bits <= 8 * rows * stride * nb for bits in kron_packs)


def test_kronecker_kernel_runs_only_where_it_pays(kron_calls, monkeypatch):
    rng = make_rng("kron-dispatch")
    fp = PrimeField(10007)
    a, b = random_biseries(rng, fp, 24, 47), random_biseries(rng, fp, 24, 47)
    product = a * b
    assert len(kron_calls) == 1
    # over Q the loop runs, whatever the size
    kron_calls.clear()
    c = BiSeries.from_terms(
        Q, [(i, j, rng.randint(1, 9)) for i in range(17) for j in range(32)], 16, 31
    )
    u = UniSeries(Q, [rng.randint(1, 9) for _ in range(100)])
    c * c
    u * u
    # and over GF(p) for a sparse product on a large box, although its
    # terms make more than _KRON_MIN_PAIRS pairs
    sparse = BiSeries.from_terms(fp, [(0, 0, 1), (1, 3, 2)], 100, 199)
    cells = rng.sample(range(101 * 200), 513)
    many = BiSeries.from_terms(
        fp, [(k // 200, k % 200, 1 + k % 97) for k in cells], 100, 199
    )
    assert sparse * many == _textbook_product(sparse, many)
    assert many * sparse == _textbook_product(many, sparse)
    assert kron_calls == []
    # over GF(p), the kernel runs from _KRON_MIN_PAIRS nonzero pairs on
    t = series._KRON_MIN_PAIRS
    x = UniSeries(fp, [0, 1] + [0] * (t - 1))
    below = UniSeries(fp, [1] * (t - 1) + [0, 0])
    at = UniSeries(fp, [1] * t + [0])
    assert (below * x)._c == [0] + below._c[:-1]
    assert kron_calls == []
    assert (at * x)._c == [0] + at._c[:-1]
    assert len(kron_calls) == 1
    # the dense product again, by the schoolbook loop
    monkeypatch.setattr(series, "_KRON_MIN_PAIRS", float("inf"))
    assert a * b == product
    assert len(kron_calls) == 1


def test_biseries_ring_axioms_randomized():
    rng = make_rng("bi-ring")
    for field in FIELDS:
        for _ in range(200):
            nx = rng.randint(0, 4)
            ny = rng.randint(0, 4)
            a = random_biseries(rng, field, nx, ny)
            b = random_biseries(rng, field, nx, ny)
            c = random_biseries(rng, field, nx, ny)
            assert a + b == b + a
            assert a * b == b * a
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert (a - b) + b == a
            assert a.pow(3) == a * a * a
            assert a * BiSeries.from_terms(field, [(0, 0, 2)], nx, ny) == a + a
            assert a * BiSeries.from_terms(field, [(0, 0, 1)], nx, ny) == a


def test_hasse_derivative_matches_binomial_rule():
    rng = make_rng("hasse-binomial")
    for field in FIELDS:
        for _ in range(40):
            nx = rng.randint(0, 3)
            ny = rng.randint(0, 5)
            m = rng.randint(0, ny)
            p = random_biseries(rng, field, nx, ny)
            h = p.hasse_derivative(m)
            assert h.x_order == nx and h.y_order == ny - m
            for i in range(nx + 1):
                for j in range(ny - m + 1):
                    expected = p.coeff(i, j + m) * math.comb(j + m, m)
                    assert h.coeff(i, j) == expected


def test_hasse_derivative_examples_and_guards():
    # (1+Y)^4: second Hasse derivative is binom(4,2)(1+Y)^2 = 6(1+Y)^2
    p = BiSeries.from_terms(Q, [(0, j, math.comb(4, j)) for j in range(5)], 0, 4)
    h = p.hasse_derivative(2)
    assert h.y_order == 2 and [h.coeff(0, j) for j in range(3)] == [6, 12, 6]
    # over GF(2) the same derivative vanishes; the plain second
    # derivative could not even be normalized by 2! there
    f2 = PrimeField(2)
    p2 = BiSeries.from_terms(f2, [(0, j, math.comb(4, j)) for j in range(5)], 0, 4)
    assert p2.hasse_derivative(1).is_zero()
    assert p2.hasse_derivative(2).is_zero()
    # ... but the fourth one is exactly 1, where a 4!-division would fail
    assert p2.hasse_derivative(4).nonzero_terms() == [(0, 0, 1)]
    assert p.hasse_derivative(0) == p
    with pytest.raises(OrderExceededError):
        p.hasse_derivative(5)
    with pytest.raises(ValueError):
        p.hasse_derivative(-1)


def test_hasse_composition_law():
    # applying Hasse orders k then m equals binom(k+m, m) times order k+m
    rng = make_rng("hasse-compose")
    for field in FIELDS:
        for _ in range(30):
            ny = rng.randint(0, 6)
            p = random_biseries(rng, field, 2, ny)
            k = rng.randint(0, ny)
            m = rng.randint(0, ny - k)
            lhs = p.hasse_derivative(k).hasse_derivative(m)
            scale = BiSeries.from_terms(
                field, [(0, 0, math.comb(k + m, m))], 2, ny - k - m
            )
            rhs = p.hasse_derivative(k + m) * scale
            assert lhs == rhs


def test_multinomial_collapse_identity():
    # the alternating multinomial sum collapses to the Kronecker delta;
    # checked in plain integer arithmetic with literal factorials
    for j in range(13):
        for k in range(j + 1):
            total = sum(
                math.factorial(j)
                // (math.factorial(j - m) * math.factorial(m - k) * math.factorial(k))
                * (-1) ** (m - k)
                for m in range(k, j + 1)
            )
            assert total == (1 if j == k else 0)


def test_subst_y_examples():
    # P = X + Y^2 at the start of the Catalan series reproduces it
    p = BiSeries.from_terms(Q, [(1, 0, 1), (0, 2, 1)], 4, 4)
    f = UniSeries(Q, [0, 1, 1, 2, 5])
    assert p.subst_y(f) == f
    # constant substitution collapses to column zero
    z = UniSeries.zero(Q, 4)
    assert p.subst_y(z)._c == [0, 1, 0, 0, 0]
    # a polynomial identity: (1 + Y)^2 at Y = X + X^2
    sq = BiSeries.from_terms(Q, [(0, 0, 1), (0, 1, 2), (0, 2, 1)], 2, 2)
    g = UniSeries(Q, [0, 1, 1])
    assert sq.subst_y(g)._c == [1, 2, 3]


def test_subst_y_guards():
    p = BiSeries.from_terms(Q, [(1, 0, 1), (0, 2, 1)], 4, 4)
    with pytest.raises(NonzeroConstantTermError):
        p.subst_y(UniSeries(Q, [1, 0, 0, 0, 0]))
    with pytest.raises(ShapeMismatchError):
        p.subst_y(UniSeries(Q, [0, 1]))  # order below x_order
    with pytest.raises(FieldMismatchError):
        p.subst_y(UniSeries.zero(PrimeField(3), 4))
    with pytest.raises(TypeError):
        p.subst_y([0, 1])


def test_subst_y_agrees_with_term_expansion():
    rng = make_rng("subst-expand")
    for field in FIELDS:
        for _ in range(25):
            nx = rng.randint(0, 4)
            ny = rng.randint(0, 4)
            p = random_biseries(rng, field, nx, ny)
            f = random_uniseries(rng, field, nx, zero_constant=True)
            direct = p.subst_y(f)
            total = UniSeries.zero(field, nx)
            for j in range(ny + 1):
                total = total + p.column(j) * f.pow(j)
            assert direct == total
    # the columns above a random top hold only cells past the reach
    # i + j <= nx, which subst_y skips: the expansion still sums them all
    for field in FIELDS:
        for _ in range(25):
            nx, top = rng.randint(1, 5), rng.randint(0, 3)
            ny = rng.randint(top + 1, nx + 3)
            p = random_biseries(rng, field, nx, top).resized(nx, ny)
            far = [
                (rng.randint(max(0, nx - j + 1), nx), j, 1)
                for j in range(top + 1, ny + 1) if j <= nx or rng.random() < 0.5
            ]
            p = p + BiSeries.from_terms(field, far, nx, ny)
            f = random_uniseries(rng, field, nx, zero_constant=True)
            total = UniSeries.zero(field, nx)
            for j in range(ny + 1):
                total = total + p.column(j) * f.pow(j)
            assert p.subst_y(f) == total, (p, f)


def test_subst_y_skips_the_columns_past_the_reach(monkeypatch):
    # X^3 Y^40 cannot reach order 20 (3 + 40 > 20), so Horner runs over
    # the columns 0 .. 2 alone: two products, not forty
    p = BiSeries.from_terms(Q, [(1, 0, 1), (0, 2, 1), (3, 40, 1)], 20, 40)
    rng = make_rng("subst-skip")
    f = random_uniseries(rng, Q, 20, zero_constant=True)
    products = []
    mul = UniSeries.__mul__

    def record(self, other):
        products.append(other)
        return mul(self, other)

    monkeypatch.setattr(UniSeries, "__mul__", record)
    got = p.subst_y(f)
    assert len(products) <= 2
    monkeypatch.undo()
    assert got == p.column(0) + f * f


def test_subst_y_over_q_matches_fraction_horner():
    # over Q, subst_y runs Horner on integers over the lcms of f's and P's
    # denominators: a Horner loop on Fractions gives the same payloads, for
    # a fractional f, a fractional P, both, and f known beyond P's box
    rng = make_rng("subst-fraction-horner")

    def value(fractional):
        if fractional and rng.random() < 0.5:
            return Fraction(rng.randint(-9, 9), rng.randint(2, 12))
        return rng.randint(-9, 9)

    for f_frac, p_frac, extra in [
        (True, False, 0), (False, True, 0), (True, True, 0), (True, True, 3),
    ]:
        for _ in range(30):
            nx, ny = rng.randint(0, 6), rng.randint(0, 5)
            terms = [
                (rng.randint(0, nx), rng.randint(0, ny), value(p_frac))
                for _ in range(rng.randint(0, 8))
            ]
            p = BiSeries.from_terms(Q, terms, nx, ny)
            f = UniSeries(Q, [0] + [value(f_frac) for _ in range(nx + extra)])
            assert repr(p.subst_y(f)._c) == repr(fraction_horner(p, f)), (p, f)


def test_reciprocal_geometric_grid():
    # 1/(1 - X - Y): the coefficient grid is the Pascal table binom(i+j, i)
    u = BiSeries.from_terms(Q, [(0, 0, 1), (1, 0, -1), (0, 1, -1)], 6, 6)
    r = u.reciprocal()
    for i in range(7):
        for j in range(7):
            assert r.coeff(i, j).value == math.comb(i + j, i)
    assert r.coeff(2, 2).value == 6
    assert r.diagonal()._c[:5] == [1, 2, 6, 20, 70]
    # independent oracle: geometric sum of powers of (X + Y)
    s = BiSeries.zero(Q, 6, 6)
    xy = BiSeries.from_terms(Q, [(1, 0, 1), (0, 1, 1)], 6, 6)
    for k in range(13):
        s = s + xy.pow(k)
    assert s == r


def test_reciprocal_randomized_and_guards():
    rng = make_rng("reciprocal")
    for field in FIELDS:
        for _ in range(25):
            nx = rng.randint(0, 4)
            ny = rng.randint(0, 4)
            u = random_biseries(rng, field, nx, ny)
            if not u.coeff(0, 0):
                with pytest.raises(NotAUnitError):
                    u.reciprocal()
                u = u + BiSeries.from_terms(field, [(0, 0, 1)], nx, ny)
            assert u * u.reciprocal() == BiSeries.from_terms(field, [(0, 0, 1)], nx, ny)
    with pytest.raises(NotAUnitError):
        BiSeries.from_terms(Q, [(1, 0, 1)], 2, 2).reciprocal()


def test_quotient_randomized_and_guards():
    rng = make_rng("quotient")
    boxes = [(0, 0), (0, 3), (4, 0), (1, 5), (5, 2)]
    for field in FIELDS:
        for _ in range(25):
            nx, ny = rng.choice(boxes + [(rng.randint(0, 4), rng.randint(0, 4))])
            a = random_biseries(rng, field, nx, ny)
            u = random_biseries(rng, field, nx, ny)
            if not u.coeff(0, 0):
                with pytest.raises(NotAUnitError):
                    a / u
                u = u + BiSeries.from_terms(field, [(0, 0, 1)], nx, ny)
            assert u * (a / u) == a
            with pytest.raises(ShapeMismatchError):
                a / u.resized(nx + 1, ny)
    with pytest.raises(NotAUnitError):
        BiSeries.from_terms(Q, [(0, 0, 1)], 2, 2) / BiSeries.from_terms(
            Q, [(1, 0, 1)], 2, 2
        )
    with pytest.raises(TypeError):
        BiSeries.from_terms(Q, [(0, 0, 1)], 1, 1) / 2


def test_quotient_stores_integral_rationals_as_ints():
    u = BiSeries.from_terms(Q, [(0, 0, 2), (1, 0, 4), (0, 1, 2)], 2, 2)
    a = BiSeries.from_terms(Q, [(0, 0, 1), (2, 2, Fraction(1, 3))], 2, 2)
    for result in (u.reciprocal(), a / u, (u * u) / u):
        assert result.nonzero_terms()
        assert not any(
            isinstance(c, Fraction) and c.denominator == 1 for c in result._c
        )
    assert (u * u) / u == u


@pytest.fixture
def packed_quotients(monkeypatch):
    """The divisors of every ``_kron_quotient`` call the test makes."""
    calls = []
    kernel = series._kron_quotient
    monkeypatch.setattr(
        series,
        "_kron_quotient",
        lambda field, a, u, w: calls.append(u) or kernel(field, a, u, w),
    )
    return calls


def _both_quotients(monkeypatch, a, u):
    """``a / u`` by the cell recurrence and by the packed rows."""
    out = []
    for bound in (float("inf"), 0):
        monkeypatch.setattr(series, "_KRON_MIN_QUOTIENT", bound)
        out.append(a / u)
    return out


PACKED_PRIMES = [PrimeField(p) for p in (2, 3, 10007, 2**31 - 1)]


def test_packed_quotient_matches_the_cell_recurrence(monkeypatch, packed_quotients):
    rng = make_rng("packed-quotient")
    for field in PACKED_PRIMES:
        p = field.characteristic
        top = p - 1

        def cells(nx, ny, value):
            return [(i, j, value()) for i in range(nx + 1) for j in range(ny + 1)]

        def const(c, nx, ny):
            # c at the origin, random rows 1 and 3, nothing else in row 0
            terms = [(0, 0, c)] + [
                (i, j, rng.randrange(p)) for i in (1, 3) for j in range(ny + 1)
            ]
            return BiSeries.from_terms(field, terms, nx, ny)

        worst = BiSeries.from_terms(field, cells(9, 11, lambda: top), 9, 11)
        # a quotient of p - 1 in every cell by a divisor of ones makes each
        # packed slot sum T + 1 products (p - 1)^2, the bound nb must hold
        ones = BiSeries.from_terms(field, cells(9, 11, lambda: 1), 9, 11)
        below = cells(9, 11, lambda: 1)[12:]  # rows 1 to 9, for a constant u_0
        ones_u0 = BiSeries.from_terms(field, [(0, 0, 1)] + below, 9, 11)
        # 1 / (1 + Y) alternates 1 and p - 1: its product with a row of p - 1
        # sums about w / 2 products (p - 1)^2 per slot, more than T + 1
        alt = BiSeries.from_terms(field, [(0, 0, 1), (0, 1, 1), (1, 0, 1)], 1, 199)
        wide = BiSeries.from_terms(field, cells(1, 199, lambda: top), 1, 199)
        terms = cells(6, 20, lambda: rng.randrange(p))
        # a unit whose row 0 has a Y term
        terms[0], terms[3] = (0, 0, rng.randrange(1, p)), (0, 3, rng.randrange(1, p))
        dense = BiSeries.from_terms(field, terms, 6, 20)
        cases = [
            (worst, worst),  # every cell at p - 1, u_0 with Y terms
            (ones * worst, ones),
            (ones_u0 * worst, ones_u0),
            (alt * wide, alt),
            (random_biseries(rng, field, 6, 20), dense),
            (random_biseries(rng, field, 5, 7), const(top, 5, 7)),  # u_0 = p - 1
            (random_biseries(rng, field, 5, 7), const(1, 5, 7)),
            (random_biseries(rng, field, 0, 9), dense.resized(0, 9)),  # x_order 0
            (BiSeries.zero(field, 6, 20), dense),
            (random_biseries(rng, field, 3, 129), worst.resized(3, 129)),  # w >= 128
        ]
        for a, u in cases:
            packed_quotients.clear()
            by_cells, by_rows = _both_quotients(monkeypatch, a, u)
            assert packed_quotients == [u._c]
            assert by_rows._c == by_cells._c
            assert u * by_rows == a


def test_packed_quotient_guards(monkeypatch, packed_quotients):
    for field in PACKED_PRIMES:
        a = BiSeries.from_terms(field, [(0, 0, 1), (2, 3, 1)], 4, 5)
        for bound in (float("inf"), 0):
            monkeypatch.setattr(series, "_KRON_MIN_QUOTIENT", bound)
            with pytest.raises(NotAUnitError):
                a / BiSeries.from_terms(field, [(0, 1, 1), (1, 0, 1)], 4, 5)
            with pytest.raises(ShapeMismatchError):
                a / BiSeries.from_terms(field, [(0, 0, 1)], 4, 6)
    assert packed_quotients == []


def test_packed_quotient_runs_only_where_it_pays(packed_quotients):
    rng = make_rng("packed-dispatch")
    fp = PrimeField(10007)

    def unit(field, n, pairs):
        # furstenberg's divisor for P = sum of X^i Y^j over pairs, at order n
        terms = [(i, i + j - 1, rng.randrange(1, 10007)) for i, j in pairs]
        return BiSeries.from_terms(field, [(0, 0, 1)] + terms, n, n - 1)

    dense = [(i, j) for i in range(7) for j in range(7) if i + j > 1 or i]
    small = unit(fp, 64, [(1, 0), (0, 2)])
    assert len(small._support()) == 3
    small.reciprocal()
    for field in (Q, fp):
        wide = unit(field, 32, dense)
        assert len(wide._support()) == 48
        wide.reciprocal()
    u = UniSeries(fp, [rng.randrange(1, 10007) for _ in range(800)])
    u / u
    assert packed_quotients == [wide._c]


def test_diagonal():
    p = BiSeries.from_terms(Q, [(0, 0, 2), (1, 1, 3), (2, 2, 4), (1, 2, 9)], 3, 2)
    assert p.diagonal()._c == [2, 3, 4]  # order min(3, 2)
    assert BiSeries.zero(Q, 2, 5).diagonal() == UniSeries.zero(Q, 2)


def test_grid_equality_includes_box():
    a = BiSeries.from_terms(Q, [(0, 1, 1)], 1, 1)
    assert a != a.resized(1, 2)
    assert a == BiSeries.from_terms(Q, [(0, 1, 1)], 1, 1)
    assert hash(a) == hash(BiSeries.from_terms(Q, [(0, 1, Fraction(2, 2))], 1, 1))
    # both boxes hold 8 cells: only the row width tells them apart
    tall, wide = BiSeries.zero(Q, 1, 3), BiSeries.zero(Q, 3, 1)
    assert tall != wide
    with pytest.raises(ShapeMismatchError, match=r"^boxes differ: \(1, 3\) vs \(3, 1\)"):
        tall + wide
