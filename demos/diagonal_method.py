"""Extracting an algebraic root as the diagonal of a rational series.

Given a polynomial Q(X, Y) with Q(0,0) = 0 and an invertible linear-Y
coefficient, the unique root f with f(0) = 0 can be read off as the
principal diagonal of the bivariate rational series

    Y * d/dY Q(XY, Y)  /  ( Q(XY, Y) / Y )

— no iteration: [X^n] f is the coefficient of X^n Y^(n-1) in the single
exact quotient  d/dY Q(XY, Y) / (Q(XY, Y) / Y),  computed on the box
(n, n - 1) where nothing else is read.  This demo uses it to compute
Motzkin numbers: unary-binary trees satisfy g = X + X*g + X*g^2, i.e.
Q(X, Y) = Y - X - X*Y - X*Y^2.
"""

from implicitseries import (
    PrimeField,
    RationalField,
    RootProblem,
    furstenberg_solve,
    lower_expression,
    parse_expression,
)

ORDER = 12

field = RationalField()
q = lower_expression(
    parse_expression("Y - X - X*Y - X*Y^2", field), field, ORDER, ORDER
)
f = furstenberg_solve(RootProblem(q), ORDER)

motzkin = [1, 1, 2, 4, 9, 21, 51, 127, 323, 835, 2188, 5798]
print("equation: g = X + X*g + X*g^2  (unary-binary trees by nodes+1)")
print(f"\n{'n':>3s}  {'[X^n] g':>8s}  {'Motzkin M(n-1)':>14s}")
for n in range(1, ORDER + 1):
    value = f.coeff(n).value
    assert value == motzkin[n - 1]
    print(f"{n:3d}  {value:8d}  {motzkin[n - 1]:14d}")

print("\nthe diagonal method needs no characteristic-zero assumptions:")
f5 = furstenberg_solve(
    RootProblem(
        lower_expression(
            parse_expression("Y - X - X*Y - X*Y^2", PrimeField(5)),
            PrimeField(5),
            ORDER,
            ORDER,
        )
    ),
    ORDER,
)
print(f"  over GF(5): {[f5.coeff(n).value for n in range(1, ORDER + 1)]}")
print(f"  reduction of the above mod 5 matches: "
      f"{[m % 5 for m in motzkin] == [f5.coeff(n).value for n in range(1, ORDER + 1)]}")
