"""Shared fixtures: the field roster and seeded random generators.

Randomized tests draw from ``random.Random`` seeded per test label, so
every run exercises identical cases; failures are reproducible from the
label alone.
"""

import random
import sys
from fractions import Fraction

from implicitseries import (
    BiSeries,
    ImplicitProblem,
    PrimeField,
    RationalField,
    UniSeries,
)
from implicitseries.solver import _extraction_vectors, _reaching_terms, _require_box

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


def catalan_problem(field, n_max: int) -> ImplicitProblem:
    """f = X + f^2, whose coefficients are the Catalan numbers, on the box
    (n_max, max(1, 2 n_max - 1)).  An exact P needs no particular box: the
    solvers read only its terms."""
    p = BiSeries.from_terms(
        field, [(1, 0, 1), (0, 2, 1)], n_max, max(1, 2 * n_max - 1)
    )
    return ImplicitProblem(p)


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


def _fraction_step(field, col, fc, acc):
    """``col + f * acc`` through the order of ``col``, on the field's
    payloads, each term pair multiplied and added and normalized on its
    own: over Q on ``Fraction``s, with none of the series layer's scaling
    to integers.  ``fc`` holds f's coefficients."""
    norm = field.normalize
    nx = len(col) - 1
    out = list(col)
    for a, x in enumerate(acc):
        for b in range(nx + 1 - a):
            out[a + b] = norm(out[a + b] + norm(x * fc[b]))
    return out


def fraction_horner(p, f):
    """The payloads of ``p.subst_y(f)`` by Horner over P's columns, one
    ``_fraction_step`` per column.  Reads f through ``p.x_order``."""
    fc = f._c[: p.x_order + 1]
    acc = [0] * (p.x_order + 1)
    for j in range(p.y_order, -1, -1):
        acc = _fraction_step(p.field, p._c[j :: p._w], fc, acc)
    return acc


def synthetic_division(q, f):
    """``(r, remainder)``: Q divided by ``Y - f`` as payload lists, by the
    textbook synthetic division on the columns C_j of Q on the box (nx,
    ny), nx = min(q.x_order, f.order): ``r[ny-1] = C_ny`` and ``r[j-1] =
    C_j + f * r[j]``, one ``_fraction_step`` each, and the remainder is
    ``C_0 + f * r[0]``.  ``r`` is row-major on the box (nx, ny - 1), as
    ``factor_out_root``'s cofactor stores it."""
    nx, ny = min(q.x_order, f.order), q.y_order
    fc = f._c[: nx + 1]
    cols = [q._c[j :: q._w][: nx + 1] for j in range(ny + 1)]
    r = [None] * ny
    r[ny - 1] = cols[ny]
    for j in range(ny - 1, 0, -1):
        r[j - 1] = _fraction_step(q.field, cols[j], fc, r[j])
    remainder = _fraction_step(q.field, cols[0], fc, r[0])
    return [r[j][i] for i in range(nx + 1) for j in range(ny)], remainder


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


def theorem_sums(prob, n_max):
    """The raw payloads the theorem's sweep sums for n <= n_max, on the
    terms of P that reach order ``n_max``, as ``solve_series`` passes them."""
    return _extraction_vectors(prob.field, _reaching_terms(prob.p, n_max), n_max)[0]


def flajolet_soria_sum(prob, n_max):
    """char0's answer by the paper's sum, over Q: the payloads of
    ``sum_m [X^n Y^(m-1)] P^m / m`` for n <= n_max.

    Like ``tail_term_count``, it forms the powers of P by running products
    on the box (n_max, 2 n_max - 2) and reads column m - 1 of P^m, for m
    up to 2 n_max - 1, apart from the frame the char0 method works in.
    """
    field = prob.field
    sums = [0] * (n_max + 1)
    m_top = 2 * n_max - 1
    if m_top < 1:
        return sums
    p = BiSeries.from_terms(field, prob.p.nonzero_terms(), n_max, m_top - 1)
    power = p
    for m in range(1, m_top + 1):
        for n in range(n_max + 1):
            sums[n] += Fraction(power.coeff(n, m - 1).value, m)
        if m < m_top:
            power = power * p
    return [field.normalize(v) for v in sums]


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
