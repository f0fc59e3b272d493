"""Solvers for the implicit series equation f(X) = P(X, f(X)).

Given a bivariate series P with P(0,0) = 0 and vanishing linear-Y
coefficient, the equation has exactly one solution f with f(0) = 0, in
any characteristic.  This module offers four independent routes to its
coefficients plus the surrounding machinery:

* ``fixpoint`` (``solve_fixed_point``): Newton iteration on
  f = P(X, f), doubling the known coefficients per step.  The linear
  substitution iteration f <- P(X, f), the ground truth all four
  methods are tested against, lives in the tests.
* ``theorem``: [X^n] f as a finite sum over m of the coefficient of
  X^n Y^(m-1) in (1 - dP/dY) * P^m.  Works over any field; the sum
  stops at m = 2n - 1, or at m = n when every term of P carries X.
* ``char0``: the characteristic-zero variant that weights the m-th
  term by 1/m and drops the derivative factor.
* ``furstenberg`` (``furstenberg_solve``): reads the root of
  Q(X, Y) = 0 off the main diagonal of a rational bivariate series,
  after the substitution X -> X*Y; the diagonal entries come from one
  exact quotient (``BiSeries`` ``/``) on the box (n, n - 1).

On P = X * phi(Y) the two sums are Lagrange inversion: theorem's is
[Y^(n-1)] phi^n - [Y^(n-2)] phi' * phi^(n-1), in any characteristic, and
char0's is (1/n) [Y^(n-1)] phi^n.

Over Q both extraction sweeps run in integers: with d the lcm of the
denominators of P on the working box, d * P is integral, and the m-th
term is the extraction from (d - d * dP/dY) * (d * P)^m divided by
d^(m+1) (theorem), or from (d * P)^m divided by m * d^m (char0).  So
the products see no ``Fraction`` and skip the gcd per cell, leaving one
rational operation per nonzero (n, m) term; for integral P, d = 1 and the
sweep is the plain one.  ``furstenberg`` divides integers the same way,
by the substitution in ``furstenberg_solve``.  Every other product over
Q (Newton's substitutions, the residual check, ``factor_out_root``)
multiplies integers over one common denominator inside the series
layer.  The exact quotient ``/`` stays on ``Fraction``s: Newton's
divisor 1 - P_Y(X, f) has denominators that grow with the order, so
scaling it to integers costs more than it saves; only furstenberg's
divisor keeps the fixed denominators of P.

``solve_series`` is the single entry point that runs any of them on an
``ImplicitProblem`` and re-substitutes the result into its equation;
``furstenberg_solve`` and ``factor_out_root`` also take a
``RootProblem`` Q(X, f) = 0 directly.

``taylor_residual`` checks the finite Taylor-style expansion of P
around a substituted series (with Hasse derivatives supplying the
divided powers), and ``factor_out_root`` splits off an exact root by
synthetic division.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress

from .errors import (
    FieldMismatchError,
    InsufficientTruncationError,
    NonzeroConstantTermError,
    NonzeroLinearYTermError,
    NotARootError,
    PositiveCharacteristicError,
    ZeroLinearYTermError,
)
from .fields import _demote
from .series import BiSeries, UniSeries, _integral, _top_column


class SolveMethod(enum.Enum):
    """The implemented solution methods, named as on the command line."""

    THEOREM = "theorem"
    CHAR0 = "char0"
    FIXED_POINT = "fixpoint"
    FURSTENBERG = "furstenberg"


class ImplicitProblem:
    """A validated instance of f = P(X, f(X)).

    ``is_polynomial`` records that ``p`` is exact (all omitted
    coefficients are truly zero), which licenses resizing to whatever
    working box a method needs; for genuinely truncated input the
    methods instead check that the stored box is large enough.
    """

    __slots__ = ("field", "p", "is_polynomial")

    def __init__(self, p: BiSeries, *, is_polynomial: bool = True):
        if p.coeff(0, 0):
            raise NonzeroConstantTermError("P(0, 0) must vanish")
        if p.y_order >= 1 and p.coeff(0, 1):
            raise NonzeroLinearYTermError(
                "the coefficient of Y in P(0, Y) must vanish"
            )
        self.field = p.field
        self.p = p
        self.is_polynomial = bool(is_polynomial)

    def __repr__(self):
        return f"ImplicitProblem({self.p!r}, is_polynomial={self.is_polynomial})"


class RootProblem:
    """A validated instance of Q(X, f(X)) = 0 with a simple Y-root at 0.

    Requires Q(0, 0) = 0 and an invertible linear-Y coefficient, so the
    root f with f(0) = 0 exists and is unique.
    """

    __slots__ = ("field", "q")

    def __init__(self, q: BiSeries):
        if q.coeff(0, 0):
            raise NonzeroConstantTermError("Q(0, 0) must vanish")
        if q.y_order < 1 or not q.coeff(0, 1):
            raise ZeroLinearYTermError(
                "the coefficient of Y in Q(0, Y) must be nonzero"
            )
        self.field = q.field
        self.q = q

    def __repr__(self):
        return f"RootProblem({self.q!r})"


@dataclass(frozen=True)
class SolveReport:
    """Outcome of ``solve_series``.

    ``m_terms_used`` lists the m-range summed by the extraction
    methods (empty for the others); ``residual_zero`` records the
    literal re-substitution check of the solution.
    """

    method: SolveMethod
    solution: UniSeries
    residual_zero: bool
    m_terms_used: tuple


def _require_box(series: BiSeries, nx: int, ny: int, name: str = "P") -> None:
    """Raise unless ``series`` is known on a box of at least (nx, ny)."""
    if series.x_order < nx or series.y_order < ny:
        raise InsufficientTruncationError(
            f"need {name} on a box of at least ({nx}, {ny}), "
            f"have ({series.x_order}, {series.y_order})"
        )


def solve_fixed_point(prob: ImplicitProblem, n_max: int) -> UniSeries:
    """Solve by Newton iteration, doubling the known coefficients per step.

    With f known through order k, one step
    ``f <- f + (P(X, f) - f) / (1 - P_Y(X, f))`` on order 2k + 1 makes
    it right through 2k + 1 (Brent & Kung 1978).  The divisor is a
    unit because ``P_Y(0, 0) = 0``, so the step holds in every
    characteristic.  The linear iteration ``f <- P(X, f)``, one
    coefficient per pass, lives on in the tests as the ground truth for
    this and the other methods.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    field = prob.field
    if n_max == 0:
        return UniSeries.zero(field, 0)
    p = prob.p
    if not prob.is_polynomial:
        _require_box(p, n_max, n_max)
    # f vanishes at 0, so Y^j with j > n_max cannot reach order n_max;
    # columns above P's highest nonzero one on the box add nothing
    top = _top_column(p._c, p._w, min(p.y_order, n_max), (n_max + 1) * p._w)
    work = p.resized(n_max, top)
    dwork = work.hasse_derivative(1) if top else None
    # f = 0 is right through order 0 and P_Y(0, 0) = 0, so the first
    # step gives f = P(X, 0) through order 1
    f = work.column(0).resized(1)
    k = 1
    while k < n_max:
        k = min(2 * k + 1, n_max)
        f = f.resized(k)
        r = work.resized(k, top).subst_y(f) - f
        if r.is_zero():
            continue  # f is already right through order k
        if dwork is not None:
            py = dwork.resized(k, top - 1).subst_y(f)
            r = r / (UniSeries._raw(field, [1] + [0] * k) - py)
        f = f + r
    return f


def _extraction_vectors(prob, n_max, char_zero_form=False):
    """Shared sweep behind the extraction formulas.

    Each m adds the coefficients of X^n Y^(m-1) in D * P^m, for
    D = 1 - dP/dY (theorem) or D = 1 with weight 1/m (char0), into one
    sum per n.  Returns ``(sums, m_stop)``: ``sums[n]`` as a raw payload,
    and ``m_stop``, the largest m actually accumulated.  Every factor of
    P^m brings an X or a Y^2, so the terms with m > 2n - 1 vanish and
    the sweep runs to m_top = 2 n_max - 1; the tests check that bound
    with an oracle of their own, which forms D * P^m just past it.  P^m
    is maintained as a running product and the sweep stops early once
    the power vanishes on the working box (all later terms are then
    identically zero).  When every term of P carries X, P^m has no term
    below X^m, so the sweep stops at m = n_max and its box is
    (n_max, n_max - 1), not (n_max, 2 n_max - 2).

    Over Q, with ``den`` the lcm of the denominators on the working box,
    the sweep multiplies the integral ``den * P`` instead, with
    ``den - den * dP/dY`` for D, and weights term m by 1/den^(m+1)
    (theorem) or 1/(m * den^m) (char0); the weight is the only rational
    factor, applied once per nonzero coefficient of a term.  ``den = 1``
    (every integral P, and GF(p), where den is not taken) leaves P, D
    and the weights 1 and 1/m as they are.
    """
    field = prob.field
    p = prob.p
    sums = [0] * (n_max + 1)
    if n_max == 0:
        return sums, 0
    if not prob.is_polynomial:
        _require_box(p, n_max, 2 * n_max - 1)
    m_top = 2 * n_max - 1
    # columns up to m_top - 1 feed the extractions; the derivative
    # factor additionally reads P's column m_top
    terms = [t for t in p.nonzero_terms() if t[0] <= n_max and t[1] <= m_top]
    if all(i for i, _, _ in terms):
        # every term carries X, so P^m vanishes on the box for m > n_max
        m_top = n_max
        terms = [t for t in terms if t[1] <= m_top]
    # over Q, scale P to the integral den * P (see above)
    den = 1
    if not field.characteristic:
        den, ints = _integral([c for _, _, c in terms])
        terms = [(i, j, v) for (i, j, _), v in zip(terms, ints)]
    norm = field.normalize
    if char_zero_form:
        d = [(0, 0, 1)]  # no derivative factor; weight 1/m instead
    else:
        # den - (den * P)_Y, where X^i Y^j of den * P gives -j X^i Y^(j-1);
        # no two terms share a cell, as P has no lone Y term
        d = [(0, 0, den)] + [
            (i, j - 1, v) for i, j, c in terms if j and (v := norm(-j * c))
        ]
    # D by powers of Y: b -> [(a, c), ...] for its terms c X^a Y^b, a rising
    d_cols = {}
    for a, b, c in sorted(d):
        d_cols.setdefault(b, []).append((a, c))
    factor = BiSeries.from_terms(
        field, [t for t in terms if t[1] < m_top], n_max, m_top - 1
    )
    # the inner loop reads each power's flat row-major list directly, for
    # speed: X^i Y^j sits at i * width + j
    width = factor._w
    cur = factor
    m_stop = m_top
    for m in range(1, m_top + 1):
        col = m - 1
        if char_zero_form:
            w = Fraction(1, m * den**m)
        else:
            w = Fraction(1, den ** (m + 1)) if den > 1 else 1
        flat = cur._c
        acc = [0] * (n_max + 1)  # the term of m for each n, before weighting
        for b, col_terms in d_cols.items():
            if b <= col:
                # X^r Y^(col-b) of the power; compress skips its zeros in C
                column = flat[col - b :: width]
                for r, v in compress(enumerate(column), column):
                    for a, c in col_terms:
                        if r + a > n_max:
                            break
                        acc[r + a] += c * v
        for n in compress(range(n_max + 1), acc):
            sums[n] += w * acc[n]
        if m < m_top:
            cur = cur * factor
            if cur.is_zero():
                m_stop = m
                break  # all later powers vanish on the box too
    return [norm(v) for v in sums], m_stop


def taylor_residual(p: BiSeries, f: UniSeries) -> BiSeries:
    """P minus its finite Taylor-style expansion around Y = f(X).

    The expansion sums (Y - f)^m times the m-th Hasse derivative of P
    evaluated at Y = f, for m = 0 .. y_order; on the truncation box the
    higher terms vanish, so the contract is a residual of exactly
    zero.  Requires f(0) = 0 and f.order >= p.x_order.
    """
    nx, ny = p.x_order, p.y_order
    # Y - f, over the field of f: subst_y below checks the field, f(0) = 0
    # and the order of f
    terms = [(0, 1, 1)] + [(i, 0, -c) for i, c in enumerate(f._c)]
    base = BiSeries.from_terms(f.field, terms, nx, ny)
    residual = p
    pw = BiSeries.from_terms(p.field, [(0, 0, 1)], nx, ny)
    for m in range(ny + 1):
        value = p.hasse_derivative(m).subst_y(f)
        terms = [(i, 0, c) for i, c in enumerate(value._c)]
        residual = residual - pw * BiSeries.from_terms(p.field, terms, nx, ny)
        if m < ny:
            pw = pw * base
    return residual


def factor_out_root(rp: RootProblem, f: UniSeries) -> BiSeries:
    """Divide Q exactly by (Y - f), returning the cofactor R.

    Synthetic division in Y over truncated series in X; the remainder
    is Q(X, f(X)) and must vanish on the working precision, otherwise
    ``NotARootError`` is raised.  The result lives on the box
    ``(min(q.x_order, f.order), q.y_order - 1)`` and satisfies
    ``(Y - f) * R = Q`` there.
    """
    q = rp.q
    if f.field != q.field:
        raise FieldMismatchError(
            f"root over {f.field.tag} for a polynomial over {q.field.tag}"
        )
    if f._c[0]:
        raise NonzeroConstantTermError("the root must vanish at the origin")
    nx = min(q.x_order, f.order)
    ny = q.y_order
    qw = q.resized(nx, ny)
    fw = f.resized(nx)
    cols = [qw.column(j) for j in range(ny + 1)]
    r = [None] * ny
    r[ny - 1] = cols[ny]
    for j in range(ny - 1, 0, -1):
        r[j - 1] = cols[j] + fw * r[j]
    remainder = cols[0] + fw * r[0]
    if not remainder.is_zero():
        raise NotARootError(
            "substituting the claimed root into Q leaves a nonzero remainder"
        )
    terms = [(i, j, c) for j, col in enumerate(r) for i, c in enumerate(col._c) if c]
    return BiSeries.from_terms(q.field, terms, nx, ny - 1)


def furstenberg_solve(rp: RootProblem, n_max: int) -> UniSeries:
    """Solve Q(X, f) = 0 by the diagonal method.

    After the substitution X -> X*Y the root becomes readable off the
    main diagonal:  f = diag(Y * dQ/dY(XY, Y) / Q(XY, Y)), where one
    factor of Y cancels against Q(XY, Y) (whose terms all carry Y) so
    the division is by a genuine unit.  [X^k] f is then [X^k Y^(k-1)]
    of the quotient g, and truncation modulo (X^(n_max+1), Y^n_max) is
    a ring map, so numerator, unit and g all live on the box
    (n_max, n_max - 1) and g is one exact quotient there.  Requires q
    stored on a box of at least (n_max, n_max).

    Over Q the quotient runs on integers.  With e the lcm of the
    denominators of Q's terms on the box and c0 = e * q01, the terms of
    e * Q are substituted X -> c0 X, Y -> c0 Y one by one, so the unit
    U(c0 X, c0 Y) / c0 is integral with constant term 1 and the numerator
    N(c0 X, c0 Y) is integral.  Their quotient is c0 * g(c0 X, c0 Y), and
    [X^k] f is its entry at X^k Y^(k-1) over c0^(2k): one ``Fraction`` per
    coefficient of the answer.  For e = 1 and c0 = +-1 (Catalan, and
    every P - Y with integral P) the answer needs no division.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    field = rp.field
    if n_max == 0:
        return UniSeries.zero(field, 0)
    q = rp.q
    _require_box(q, n_max, n_max, "Q")
    # Q(XY, Y) / Y and dQ/dY(XY, Y) both move X^i Y^j to X^i Y^(i+j-1),
    # where i + j >= 1 since Q(0, 0) = 0; terms with i + j > n_max fall
    # outside the box
    terms = [t for t in q.nonzero_terms() if t[0] + t[1] <= n_max]
    c0 = 1
    if not field.characteristic:
        # e * Q(c0 X, c0 Y) with c0 = e * q01, term by term (see above);
        # X^i Y^j of Q moves to X^i Y^(i+j-1), a factor c0^(2i+j-1)
        e, ints = _integral([c for _, _, c in terms])
        c0 = e * q._c[1]  # q01 sits at flat index 1
        terms = [(i, j, v * c0 ** (2 * i + j - 1)) for (i, j, _), v in zip(terms, ints)]
    # the unit's constant term is c0 / c0 = 1 over Q, the invertible q01
    # over GF(p); c // c0 is exact
    unit = BiSeries.from_terms(
        field, [(i, i + j - 1, c // c0) for i, j, c in terms], n_max, n_max - 1
    )
    numer = BiSeries.from_terms(
        field, [(i, i + j - 1, j * c) for i, j, c in terms if j], n_max, n_max - 1
    )
    g = numer / unit
    # X^k Y^(k-1) sits at flat index k * n_max + k - 1
    diag = g._c[n_max :: n_max + 1]
    if c0 * c0 != 1:
        scale, c2 = 1, c0 * c0
        for k, v in enumerate(diag):
            scale *= c2
            diag[k] = _demote(Fraction(v, scale))
    return UniSeries._raw(field, [0] + diag)


def _implicit_residual_zero(prob: ImplicitProblem, f: UniSeries) -> bool:
    """Whether ``f = P(X, f)`` holds through the order of ``f``."""
    work = prob.p.resized(f.order, min(prob.p.y_order, f.order))
    return work.subst_y(f) == f


def _as_root_problem(prob: ImplicitProblem, n_max: int) -> RootProblem:
    """Rewrite f = P(X, f) as the root problem Q = P - Y = 0."""
    p = prob.p
    if not prob.is_polynomial:
        _require_box(p, n_max, n_max)
    ny = max(n_max, 1)
    work = p.resized(n_max, ny)
    q = work - BiSeries.from_terms(prob.field, [(0, 1, 1)], n_max, ny)
    return RootProblem(q)


def solve_series(prob: ImplicitProblem, n_max: int, method) -> SolveReport:
    """Compute f through order ``n_max`` with the chosen method.

    The report carries the solution, the m-range the extraction methods
    summed, and the outcome of re-substituting the solution into
    f = P(X, f).  Only an :class:`ImplicitProblem` is accepted; for a
    root problem Q(X, f) = 0 call :func:`furstenberg_solve` instead.
    """
    if not isinstance(method, SolveMethod):
        method = SolveMethod(method)
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    if not isinstance(prob, ImplicitProblem):
        raise TypeError(f"expected an ImplicitProblem, got {type(prob).__name__}")

    m_terms = ()
    if method is SolveMethod.FIXED_POINT:
        f = solve_fixed_point(prob, n_max)
    elif method is SolveMethod.FURSTENBERG:
        f = furstenberg_solve(_as_root_problem(prob, n_max), n_max)
    else:  # the two extraction formulas
        char0 = method is SolveMethod.CHAR0
        if char0 and prob.field.characteristic:
            raise PositiveCharacteristicError(
                "the char0 method needs characteristic zero"
            )
        sums, m_stop = _extraction_vectors(prob, n_max, char_zero_form=char0)
        f = UniSeries._raw(prob.field, sums)
        m_terms = tuple(range(1, m_stop + 1))
    return SolveReport(method, f, _implicit_residual_zero(prob, f), m_terms)
