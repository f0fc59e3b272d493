"""Field arithmetic: construction guards, axioms, the integer ring map."""

from fractions import Fraction
from math import isqrt

import pytest

from implicitseries import (
    FieldElement,
    FieldMismatchError,
    LiteralNotInFieldError,
    PrimeField,
    RationalField,
)
from implicitseries.fields import _is_prime

from conftest import FIELDS, make_rng, random_value


def test_rational_field_basic():
    q = RationalField()
    assert q.characteristic == 0
    assert q.tag == "q"
    half = FieldElement(q, q.coerce(Fraction(1, 2)))
    third = FieldElement(q, q.coerce(Fraction(1, 3)))
    assert half + third == Fraction(5, 6)
    assert half * 2 == 1
    assert (half / third) == Fraction(3, 2)
    assert str(half - half) == "0"
    assert FieldElement(q, q.coerce(Fraction(10, 2))).value == 5  # demoted to int


def test_prime_field_basic():
    f7 = PrimeField(7)
    assert f7.characteristic == 7
    assert f7.tag == "fp:7"
    a = FieldElement(f7, f7.coerce(3))
    b = FieldElement(f7, f7.coerce(5))
    assert (a + b).value == 1
    assert (a * b).value == 1
    assert (a - b).value == 5
    assert (-a).value == 4
    assert (1 / a).value == 5
    assert (b / a).value == 4


def test_prime_field_construction_guards():
    with pytest.raises(ValueError):
        PrimeField(1)
    with pytest.raises(ValueError):
        PrimeField(4)
    with pytest.raises(ValueError):
        PrimeField(2**31)  # prime bound is exclusive
    with pytest.raises(ValueError):
        PrimeField(2**31 + 11)
    # the largest allowed modulus, a Mersenne prime
    assert PrimeField(2**31 - 1).characteristic == 2**31 - 1
    # the square of a prime above the trial divisors, below 2**31: only the
    # Miller-Rabin witnesses refuse it
    with pytest.raises(ValueError, match="^modulus 2147117569 is not prime$"):
        PrimeField(46337**2)


def test_is_prime_matches_trial_division():
    for n in range(20000):
        trial = n > 1 and all(n % d for d in range(2, isqrt(n) + 1))
        assert _is_prime(n) == trial, n


def test_integer_ring_map():
    for field in FIELDS:
        assert field.coerce(0) == 0
        assert field.coerce(1) == 1
        if field.characteristic:
            assert field.coerce(field.characteristic) == 0
            assert field.coerce(-1) == field.characteristic - 1
    with pytest.raises(TypeError):
        RationalField().coerce(1.5)
    with pytest.raises(TypeError):
        RationalField().coerce(True)


def test_ring_map_is_homomorphism():
    rng = make_rng("ring-map")
    for field in FIELDS:
        for _ in range(200):
            a = rng.randint(-10**6, 10**6)
            b = rng.randint(-10**6, 10**6)
            ea = FieldElement(field, field.coerce(a))
            eb = FieldElement(field, field.coerce(b))
            assert FieldElement(field, field.coerce(a + b)) == ea + eb
            assert FieldElement(field, field.coerce(a * b)) == ea * eb
            assert FieldElement(field, field.coerce(-a)) == -ea


def test_field_axioms_randomized():
    rng = make_rng("field-axioms")
    for field in FIELDS:
        zero = FieldElement(field, field.coerce(0))
        one = FieldElement(field, field.coerce(1))
        for _ in range(1000):
            a = FieldElement(field, field.coerce(random_value(rng, field)))
            b = FieldElement(field, field.coerce(random_value(rng, field)))
            c = FieldElement(field, field.coerce(random_value(rng, field)))
            assert a + b == b + a
            assert a * b == b * a
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + zero == a
            assert a * one == a
            assert a - a == zero
            assert a + (-a) == zero
            if b != zero:
                assert b * (1 / b) == one
                assert (a / b) * b == a


def test_division_by_zero():
    for field in FIELDS:
        one = FieldElement(field, field.coerce(1))
        zero = FieldElement(field, field.coerce(0))
        with pytest.raises(ZeroDivisionError):
            one / zero


def test_from_rational():
    q = RationalField()
    assert q.from_rational(3, 6) == Fraction(1, 2)
    assert q.from_rational(4, 2) == 2
    with pytest.raises(LiteralNotInFieldError):
        q.from_rational(1, 0)
    f5 = PrimeField(5)
    assert f5.from_rational(1, 2) == 3  # 2 * 3 = 6 = 1 mod 5
    assert f5.from_rational(7, 3) == 4  # 2 / 3 = 2 * 2 = 4 mod 5
    with pytest.raises(LiteralNotInFieldError):
        f5.from_rational(1, 10)
    with pytest.raises(LiteralNotInFieldError):
        f5.from_rational(1, 0)


def test_prime_field_coerces_fractions():
    f7 = PrimeField(7)
    assert FieldElement(f7, f7.coerce(Fraction(1, 2))).value == 4
    with pytest.raises(LiteralNotInFieldError):
        FieldElement(f7, f7.coerce(Fraction(1, 7)))


def test_cross_field_mixing_rejected():
    q = RationalField()
    f5 = PrimeField(5)
    with pytest.raises(FieldMismatchError) as e:
        FieldElement(q, q.coerce(1)) + FieldElement(f5, f5.coerce(1))
    assert str(e.value) == "element of fp:5 used where q is required"
    with pytest.raises(FieldMismatchError) as e:
        FieldElement(f5, f5.coerce(2)) * 2 + FieldElement(q, q.coerce(1))
    assert str(e.value) == "element of q used where fp:5 is required"
    assert FieldElement(q, q.coerce(1)) != FieldElement(f5, f5.coerce(1))
    other_f5 = PrimeField(5)
    assert FieldElement(f5, f5.coerce(2)) == FieldElement(other_f5, other_f5.coerce(7))


def test_element_python_protocol():
    f5 = PrimeField(5)
    a = FieldElement(f5, f5.coerce(3))
    assert 1 + a == 4 and 1 - a == 3 and 2 * a == 1 and 1 / a == 2
    assert bool(a) and not bool(FieldElement(f5, f5.coerce(0)))
    assert repr(a) == "FieldElement(fp:5, 3)"
    other_f5 = PrimeField(5)
    assert hash(FieldElement(f5, f5.coerce(2))) == hash(
        FieldElement(other_f5, other_f5.coerce(7))
    )
    with pytest.raises(TypeError):
        a + 1.5
    with pytest.raises(TypeError):
        FieldElement(f5, f5.coerce(True))


def test_field_equality_and_hash():
    assert RationalField() == RationalField()
    assert PrimeField(5) == PrimeField(5)
    assert PrimeField(5) != PrimeField(7)
    assert RationalField() != PrimeField(5)
    assert hash(PrimeField(5)) == hash(PrimeField(5))
    assert len({RationalField(), RationalField(), PrimeField(3)}) == 2
