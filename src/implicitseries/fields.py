"""Exact coefficient fields: the rationals and the prime fields GF(p).

A field object plays two roles.  It is the descriptor that series and
solver objects carry around (two values may only combine when their
descriptors compare equal), and it implements arithmetic on *raw*
coefficient payloads: plain ``int`` / ``fractions.Fraction`` values for
the rationals, ``int`` residues in ``[0, p)`` for GF(p).  The series
layer works on raw payloads in its inner loops and normalizes once per
result entry; :class:`FieldElement` wraps a payload together with its
field for safe use at the API boundary.
"""

from __future__ import annotations

import operator
from fractions import Fraction

from .errors import FieldMismatchError, LiteralNotInFieldError

MAX_MODULUS = 2**31

# The smallest limit on decimal digits that sys.set_int_max_str_digits
# accepts: int() and str() convert this many digits under any setting
_SAFE_DIGITS = 640
# str() of an int of at most this many bits has fewer than _SAFE_DIGITS digits
_STR_BITS = 2000

# Deterministic Miller-Rabin witnesses: for an n coprime to all three the
# test is exact below 4759123141 (Jaeschke, Math. Comp. 61, 1993), so for the
# whole supported modulus range.
_MR_WITNESSES = (2, 7, 61)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for a in _MR_WITNESSES:  # a multiple of a witness is prime only as itself
        if n % a == 0:
            return n == a
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Field:
    """Common interface of the supported coefficient fields.

    Subclasses provide the raw-payload protocol used throughout the
    series layer: ``normalize`` (canonicalize after accumulation),
    ``_embed`` (the image of an int or a fraction, for ``coerce``),
    ``invert`` and ``from_rational``; a division multiplies by the
    inverse.  The raw zero and one are the plain ints 0 and 1 for both
    fields.  ``tag`` is the short name the command line and output
    records use.
    """

    __slots__ = ()

    characteristic: int = 0

    def coerce(self, x):
        """The payload of ``x``: an int, a ``Fraction`` or an element of
        this field."""
        if isinstance(x, FieldElement):
            if x.field != self:
                raise FieldMismatchError(
                    f"element of {x.field.tag} used where {self.tag} is required"
                )
            return x.value
        if isinstance(x, bool) or not isinstance(x, (int, Fraction)):
            raise TypeError(f"cannot use {type(x).__name__} as a {self.tag} value")
        return self._embed(x)


def _read_int(text: str) -> int:
    """``int(text)`` for decimal text, whatever the interpreter's limit on
    digits.

    It reads what ``int`` reads: whitespace around, one sign, any decimal
    digits with single underscores between them.  A longer text is read in
    chunks of ``_SAFE_DIGITS`` digits.  Raises ``ValueError`` where ``int``
    would.
    """
    if len(text) <= _SAFE_DIGITS:
        return int(text)
    body = text.strip()
    sign = -1 if body[:1] == "-" else 1
    if body[:1] in ("+", "-"):
        body = body[1:]
    parts = body.split("_")
    if not all(map(str.isdecimal, parts)):  # an empty part is a stray "_"
        raise ValueError("not a decimal integer")
    digits = "".join(parts)
    value = 0
    for k in range(0, len(digits), _SAFE_DIGITS):
        chunk = digits[k : k + _SAFE_DIGITS]
        value = value * 10 ** len(chunk) + int(chunk)
    return sign * value


def _decimal(n: int) -> str:
    """``str(n)``, also for ints beyond the interpreter's limit on digits.

    A big int is split by a power of ten into two halves, each printed the
    same way, the low half zero-padded to its width.
    """
    if n < 0:
        return "-" + _decimal(-n)
    if n.bit_length() <= _STR_BITS:
        return str(n)
    # n has about bits * log10(2) digits; the low half gets half of them
    k = n.bit_length() * 3 // 20
    high, low = divmod(n, 10**k)
    return _decimal(high) + _decimal(low).zfill(k)


def _demote(f: Fraction):
    """Represent integral fractions as plain ints."""
    return f.numerator if f.denominator == 1 else f


class RationalField(Field):
    """The field of rational numbers with exact arbitrary precision.

    Raw payloads are ints and ``Fraction`` values (always in lowest
    terms with positive denominator, which ``Fraction`` guarantees);
    integral values are kept as plain ints.
    """

    __slots__ = ()

    @property
    def tag(self) -> str:
        return "q"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash(RationalField)

    def __repr__(self):
        return "RationalField()"

    def normalize(self, x):
        # int and Fraction arithmetic stays exact; only integral
        # Fraction results need landing back on ints
        if type(x) is Fraction and x.denominator == 1:
            return x.numerator
        return x

    _embed = normalize

    def invert(self, x):
        if x == 0:
            raise ZeroDivisionError("inverse of zero")
        return _demote(1 / Fraction(x))

    def from_rational(self, num: int, den: int):
        if den == 0:
            raise LiteralNotInFieldError("literal with denominator zero")
        return _demote(Fraction(num, den))


class PrimeField(Field):
    """The finite field GF(p), p prime, 2 <= p < 2**31.

    Raw payloads are int residues in ``[0, p)``.  Inversion uses the
    extended-Euclid modular inverse behind ``pow(x, -1, p)``.
    """

    __slots__ = ("modulus",)

    def __init__(self, modulus: int):
        if not isinstance(modulus, int) or isinstance(modulus, bool):
            raise TypeError("modulus must be an int")
        if not 2 <= modulus < MAX_MODULUS:
            raise ValueError(
                f"modulus must satisfy 2 <= p < 2**31, got {_decimal(modulus)}"
            )
        if not _is_prime(modulus):
            raise ValueError(f"modulus {modulus} is not prime")
        self.modulus = modulus

    @property
    def characteristic(self) -> int:
        return self.modulus

    @property
    def tag(self) -> str:
        return f"fp:{self.modulus}"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.modulus == self.modulus

    def __hash__(self):
        return hash((PrimeField, self.modulus))

    def __repr__(self):
        return f"PrimeField({self.modulus})"

    def normalize(self, x):
        return x % self.modulus

    def _embed(self, x):
        if isinstance(x, int):
            return x % self.modulus
        return self.from_rational(x.numerator, x.denominator)

    def invert(self, x):
        x %= self.modulus
        if x == 0:
            raise ZeroDivisionError(f"inverse of zero in GF({self.modulus})")
        return pow(x, -1, self.modulus)

    def from_rational(self, num: int, den: int):
        if den % self.modulus == 0:
            raise LiteralNotInFieldError(
                f"denominator {den} is divisible by the characteristic {self.modulus}"
            )
        return num * pow(den % self.modulus, -1, self.modulus) % self.modulus


class FieldElement:
    """A field value paired with its field descriptor.

    Arithmetic demands matching descriptors; ints (and fractions, where
    they embed) coerce implicitly since the ring map is canonical.
    """

    __slots__ = ("field", "value")

    def __init__(self, field: Field, value):
        self.field = field
        self.value = value

    def _binary(self, other, op, reflected=False):
        """``op`` on the payloads (swapped if ``reflected``), normalized and
        wrapped; ``NotImplemented`` where the field cannot coerce ``other``."""
        try:
            v = self.field.coerce(other)
        except TypeError:
            return NotImplemented
        a, b = (v, self.value) if reflected else (self.value, v)
        return FieldElement(self.field, self.field.normalize(op(a, b)))

    def __add__(self, other):
        return self._binary(other, operator.add)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binary(other, operator.sub)

    def __rsub__(self, other):
        return self._binary(other, operator.sub, reflected=True)

    def __mul__(self, other):
        return self._binary(other, operator.mul)

    __rmul__ = __mul__

    def _divide(self, a, b):
        return a * self.field.invert(b)

    def __truediv__(self, other):
        return self._binary(other, self._divide)

    def __rtruediv__(self, other):
        return self._binary(other, self._divide, reflected=True)

    def __neg__(self):
        return FieldElement(self.field, self.field.normalize(-self.value))

    def __pos__(self):
        return self

    def __eq__(self, other):
        if isinstance(other, FieldElement) and other.field != self.field:
            return False
        try:
            return self.value == self.field.coerce(other)
        except TypeError:
            return NotImplemented

    def __hash__(self):
        return hash((self.field, self.value))

    def __bool__(self):
        return self.value != 0

    def __str__(self):
        return str(self.value)

    def __repr__(self):
        return f"FieldElement({self.field.tag}, {self.value})"
