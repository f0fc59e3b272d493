"""Lagrange inversion as a case of the implicit function theorem.

For equations of the shape f = X * phi(f) the coefficients of f have a
closed form.  The classical statement divides by n:

    [X^n] f = (1/n) [Y^(n-1)] phi(Y)^n

which is unavailable over GF(p) whenever p divides n.  The division-free
form replaces the 1/n weight with a correction term:

    [X^n] f = [Y^(n-1)] phi^n - [Y^(n-2)] (phi' * phi^(n-1))

and works over every field.  Both are what the extraction methods compute
on P = X * phi(Y), where P^m = X^m phi^m and 1 - P_Y = 1 - X phi'.  The
theorem's sum of [X^n Y^(m-1)] (1 - P_Y) * P^m keeps m = n, which gives
[Y^(n-1)] phi^n, and m = n - 1, which gives the correction: the
division-free form.  The char0 sum of [X^n Y^(m-1)] P^m / m keeps m = n
alone: the classical form, which char0 computes for all n at once as one
exact quotient, the log-derivative of 1 / (1 - P(ZY, Y)/Y) in Z.  Here phi = (1+Y)^2, whose inversion counts
plane trees by edges: [X^n] f = binom(2n, n-1) / n.
"""

import math

from implicitseries import (
    BiSeries,
    ImplicitProblem,
    PrimeField,
    RationalField,
    solve_series,
)

N_MAX = 10


def x_times_phi(field):
    """P = X * (1 + Y)^2 = X + 2 X Y + X Y^2 on the box (N_MAX, N_MAX - 1)."""
    terms = [(1, 0, 1), (1, 1, 2), (1, 2, 1)]
    return ImplicitProblem(BiSeries.from_terms(field, terms, N_MAX, N_MAX - 1))


prob = x_times_phi(RationalField())
general = solve_series(prob, N_MAX, "theorem").solution.coefficients()
weighted = solve_series(prob, N_MAX, "char0").solution.coefficients()
print("inversion problem: f = X * (1 + f)^2, that is f = P(X, f) for")
print("P = X * (1 + Y)^2\n")
print(f"{'n':>3s}  {'theorem':>12s}  {'char0':>9s}  {'binom(2n,n-1)/n':>15s}")
for n in range(1, N_MAX + 1):
    closed = math.comb(2 * n, n - 1) // n
    assert general[n].value == weighted[n].value == closed
    print(f"{n:3d}  {general[n].value:12d}  {weighted[n].value:9d}  {closed:15d}")

print("\nover GF(3) only the theorem (the division-free form) applies; it")
print("gives the same numbers reduced mod 3:")
f3 = solve_series(x_times_phi(PrimeField(3)), N_MAX, "theorem").solution
values = [c.value for c in f3.coefficients()[1:]]
print(f"  {values}")
assert values == [math.comb(2 * n, n - 1) // n % 3 for n in range(1, N_MAX + 1)]
