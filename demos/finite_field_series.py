"""Series solving in positive characteristic.

Over GF(2) the Catalan equation f = X + f^2 collapses: squaring is the
Frobenius endomorphism, so the solution is the sparse series
f = X + X^2 + X^4 + X^8 + ...  (a power of X exactly at each power of 2).
That is the reduction mod 2 of the Catalan numbers — C_{n-1} is odd
precisely when n is a power of two.

The classical 1/m-weighted extraction formula would divide by the
characteristic; the general extraction formula never divides, so it works
here unchanged.
"""

from implicitseries import (
    BiSeries,
    ImplicitProblem,
    PositiveCharacteristicError,
    PrimeField,
    SolveMethod,
    solve_series,
)

ORDER = 32

field = PrimeField(2)
p = BiSeries.from_terms(field, [(1, 0, 1), (0, 2, 1)], ORDER, 2 * ORDER - 1)
problem = ImplicitProblem(p)

print("equation: f = X + f^2 over GF(2)\n")

f = solve_series(problem, ORDER, SolveMethod.THEOREM).solution
nonzero = [n for n in range(ORDER + 1) if f.coeff(n)]
print(f"nonzero coefficients through order {ORDER}: {nonzero}")
assert nonzero == [1, 2, 4, 8, 16, 32]
print("exactly the powers of two, as the Frobenius identity predicts\n")

for method in (SolveMethod.FIXED_POINT, SolveMethod.FURSTENBERG):
    other = solve_series(problem, ORDER, method).solution
    print(f"  {method.value:12s} agrees: {other == f}")

print("\nthe 1/m-weighted variant refuses to run in characteristic 2:")
try:
    solve_series(problem, 4, SolveMethod.CHAR0)
except PositiveCharacteristicError as exc:
    print(f"  PositiveCharacteristicError: {exc}")

print("\nsame equation over GF(7):")
f7 = solve_series(
    ImplicitProblem(
        BiSeries.from_terms(PrimeField(7), [(1, 0, 1), (0, 2, 1)], 10, 19)
    ),
    10,
    SolveMethod.THEOREM,
).solution
print(f"  coefficients mod 7: {[f7.coeff(n).value for n in range(11)]}")
print("  (the Catalan numbers 0,1,1,2,5,14,42,... reduced mod 7)")
