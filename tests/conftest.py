"""Shared fixtures: the field roster and seeded random generators.

Randomized tests draw from ``random.Random`` seeded per test label, so
every run exercises identical cases; failures are reproducible from the
label alone.
"""

import random
import sys
from fractions import Fraction

from implicitseries import BiSeries, PrimeField, RationalField, UniSeries
from implicitseries.solver import _require_box

FIELDS = [
    RationalField(),
    PrimeField(2),
    PrimeField(3),
    PrimeField(5),
    PrimeField(7),
    PrimeField(101),
]


def make_rng(label: str) -> random.Random:
    return random.Random(f"implicitseries:{label}")


def random_value(rng, field):
    """A small raw value; over the rationals, occasionally a fraction."""
    if field.characteristic:
        return rng.randrange(field.characteristic)
    if rng.random() < 0.25:
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    return rng.randint(-9, 9)


def random_nonzero_value(rng, field):
    if field.characteristic:
        return rng.randrange(1, field.characteristic)
    num = rng.choice([n for n in range(-9, 10) if n])
    if rng.random() < 0.25:
        return Fraction(num, rng.randint(1, 9))
    return num


def with_and_without_int_digit_limit(check):
    """Run ``check`` at the interpreter's limit on int digits, then with the
    limit lifted (0), where the interpreter has one."""
    check()
    if hasattr(sys, "set_int_max_str_digits"):
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            check()
        finally:
            sys.set_int_max_str_digits(saved)


def random_uniseries(rng, field, order, zero_constant=False):
    coeffs = [random_value(rng, field) for _ in range(order + 1)]
    if zero_constant:
        coeffs[0] = 0
    return UniSeries(field, coeffs)


def random_biseries(rng, field, x_order, y_order):
    terms = [
        (i, j, random_value(rng, field))
        for i in range(x_order + 1)
        for j in range(y_order + 1)
    ]
    return BiSeries.from_terms(field, terms, x_order, y_order)


def random_implicit_poly(rng, field, x_order, y_order, max_degree=4, n_terms=3):
    """A random polynomial with a00 = a01 = 0: a valid implicit-problem P.

    Term exponents stay within ``max_degree`` in each variable; a term
    that would land on a forbidden slot is pushed up in X instead.
    """
    terms = []
    for _ in range(n_terms):
        i = rng.randint(0, max_degree)
        j = rng.randint(0, max_degree)
        if (i, j) in ((0, 0), (0, 1)):
            i += 1
        terms.append((i, j, random_value(rng, field)))
    return BiSeries.from_terms(field, terms, x_order, y_order)


def random_root_poly(rng, field, x_order, y_order, max_degree=4, n_terms=3):
    """A random polynomial with q00 = 0 and q01 invertible: a RootProblem Q."""
    terms = []
    for _ in range(n_terms):
        i = rng.randint(0, max_degree)
        j = rng.randint(0, max_degree)
        if (i, j) in ((0, 0), (0, 1)):
            i += 1
        terms.append((i, j, random_value(rng, field)))
    terms.append((0, 1, random_nonzero_value(rng, field)))
    return BiSeries.from_terms(field, terms, x_order, y_order)


def embed_x(f, y_order):
    """The series ``f`` in X on the box ``(f.order, y_order)``."""
    terms = [(i, 0, c) for i, c in enumerate(f._c)]
    return BiSeries.from_terms(f.field, terms, f.order, y_order)


def tail_term_count(prob, n_max, char_zero_form=False):
    """The nonzero terms the extraction sweep would add past its bound.

    Every factor of P^m brings an X or a Y^2, so [X^n Y^(m-1)] D * P^m
    vanishes for m > 2n - 1, and for m > n when every term of P carries
    X.  For the 4 values of m just past that bound on ``n_max``, this
    counts the nonzero [X^n Y^(m-1)] of D * P^m with n <= n_max, where
    D = 1 - dP/dY, or D = 1 for the char0 form.  It forms P^(bound+1)
    with ``BiSeries.pow`` and the later powers by running products,
    without the sweep it checks, so a zero count shows that stopping the
    sweep at the bound loses nothing.
    """
    field = prob.field
    # the same terms and bound as the sweep: those in reach of n <= n_max
    terms = [
        t for t in prob.p.nonzero_terms() if t[0] <= n_max and t[1] <= 2 * n_max - 1
    ]
    bound = n_max if all(i for i, _, _ in terms) else 2 * n_max - 1
    # columns up to bound + 3 are read; dP/dY needs one more
    ny = bound + 3
    p = BiSeries.from_terms(field, prob.p.nonzero_terms(), n_max, ny + 1)
    d = BiSeries.from_terms(field, [(0, 0, 1)], n_max, ny)
    if not char_zero_form:
        d = d - p.hasse_derivative(1)
    p = p.resized(n_max, ny)
    power = p.pow(bound + 1)
    count = 0
    for m in range(bound + 1, bound + 5):
        term = d * power
        count += sum(1 for n in range(n_max + 1) if term.coeff(n, m - 1))
        power = power * p
    return count


def linear_fixed_point(prob, n_max):
    """The ground truth for every solve method: iterate f <- P(X, f) from 0.

    The iteration is a contraction for the X-adic distance: each pass
    fixes at least one further coefficient.  ``f = 0`` is already right
    through order 0, so ``n_max`` rounds suffice, and the loop stops as
    soon as two successive iterates agree.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    p = prob.p
    if not prob.is_polynomial:
        _require_box(p, n_max, n_max)
    work = p.resized(n_max, min(p.y_order, n_max))
    f = UniSeries.zero(prob.field, n_max)
    for _ in range(n_max):
        nxt = work.subst_y(f)
        if nxt == f:
            break
        f = nxt
    return f


def lagrange_oracle(phi, n, variant="general"):
    """[X^n] f for f = X * phi(f), phi(0) != 0, by the textbook formula.

    The general form is [Y^(n-1)] phi^n - [Y^(n-2)] phi' * phi^(n-1), in
    every characteristic; the "char0" form is (1/n) [Y^(n-1)] phi^n.  It is
    built from ``UniSeries`` products and coefficient reads alone, apart
    from the solvers, whose ``theorem`` and ``char0`` sums on
    P = X * phi(Y) it checks.  Takes n >= 1 and returns the raw payload.
    """
    field = phi.field
    w = phi.resized(n - 1)
    pw = UniSeries(field, [1] + [0] * (n - 1))  # phi^(n-1), by n - 1 products
    for _ in range(n - 1):
        pw = pw * w
    top = (pw * w)._c[n - 1]
    if variant == "char0":
        return field.normalize(top * field.invert(n))
    if n == 1:
        return top
    dphi = UniSeries(field, [k * c for k, c in enumerate(w._c)][1:])
    return field.normalize(top - (dphi * pw.resized(n - 2))._c[n - 2])
