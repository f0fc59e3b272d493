"""Exact truncated power series over Q and GF(p), and solvers for the
implicit equation f(X) = P(X, f(X)).

Quick start::

    >>> from implicitseries import (
    ...     RationalField, BiSeries, ImplicitProblem, solve_series,
    ... )
    >>> q = RationalField()
    >>> # X + Y^2; the solvers read only its terms, so any box holding them does
    >>> p = BiSeries.from_terms(q, [(1, 0, 1), (0, 2, 1)], 6, 2)
    >>> report = solve_series(ImplicitProblem(p), 6, "theorem")
    >>> [str(c) for c in report.solution.coefficients()]
    ['0', '1', '1', '2', '5', '14', '42']

The same equation can be solved by fixed-point iteration, by the
characteristic-zero weighted extraction, or through the diagonal of a
rational bivariate series; all agree, over any coefficient field.
"""

from .errors import (
    BoxTooLargeError,
    ConstantPowerTooLargeError,
    ExponentNegativeError,
    ExponentTooLargeError,
    ExpressionSyntaxError,
    FieldMismatchError,
    ImplicitSeriesError,
    IndexOutOfTruncationError,
    InsufficientTruncationError,
    LiteralNotInFieldError,
    NonzeroConstantTermError,
    NonzeroLinearYTermError,
    NotARootError,
    NotAUnitError,
    OrderExceededError,
    PositiveCharacteristicError,
    ShapeMismatchError,
    UnexpectedVariableError,
    ZeroConstantTermError,
    ZeroLinearYTermError,
)
from .expressions import lower_expression, parse_expression
from .fields import Field, FieldElement, PrimeField, RationalField
from .series import BiSeries, UniSeries
from .solver import (
    ImplicitProblem,
    RootProblem,
    SolveMethod,
    SolveReport,
    factor_out_root,
    furstenberg_solve,
    solve_fixed_point,
    solve_series,
    taylor_residual,
)

__version__ = "1.0.0"

__all__ = [
    "BiSeries",
    "BoxTooLargeError",
    "ConstantPowerTooLargeError",
    "ExponentNegativeError",
    "ExponentTooLargeError",
    "ExpressionSyntaxError",
    "Field",
    "FieldElement",
    "FieldMismatchError",
    "ImplicitProblem",
    "ImplicitSeriesError",
    "IndexOutOfTruncationError",
    "InsufficientTruncationError",
    "LiteralNotInFieldError",
    "NonzeroConstantTermError",
    "NonzeroLinearYTermError",
    "NotARootError",
    "NotAUnitError",
    "OrderExceededError",
    "PositiveCharacteristicError",
    "PrimeField",
    "RationalField",
    "RootProblem",
    "ShapeMismatchError",
    "SolveMethod",
    "SolveReport",
    "UnexpectedVariableError",
    "UniSeries",
    "ZeroConstantTermError",
    "ZeroLinearYTermError",
    "factor_out_root",
    "furstenberg_solve",
    "lower_expression",
    "parse_expression",
    "solve_fixed_point",
    "solve_series",
    "taylor_residual",
]
