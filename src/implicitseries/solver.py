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
  X^n Y^(m-1) in D * P^m, D = 1 - dP/dY, for m up to 2n - 1.  Works over
  any field.
* ``char0``: the characteristic-zero variant (Flajolet and Soria) that
  weights the m-th term by 1/m and drops the derivative factor.
* ``furstenberg`` (``furstenberg_solve``): reads the root of
  Q(X, Y) = 0 off the main diagonal of a rational bivariate series.

The last three work in the frame X = Z*Y (Furstenberg, J. Algebra 7,
1967).  There X^i Y^j of P becomes Z^i Y^(i+j-1) of Ph = P(ZY, Y) / Y,
and with Dh = D(ZY, Y),

    [X^n Y^(m-1)] D * P^m  =  [Z^n Y^(n-1)] Dh * Ph^m      for every m,

so only the terms of P with i + j <= n reach [X^n] f, in f = P(X, f)
too, where X^i f^j starts at order i + j.  Every method reads just
those (``_reaching_terms``).  ``theorem`` expands the sum term by term,
one product per m; ``char0`` and ``furstenberg`` divide by the unit
1 - Ph once, with the numerators Z Ph_Z and Dh (``_diagonal_quotient``).
So ``verify`` still pits an expansion against two quotients.  The
residual check that ``solve_series`` makes substitutes P's first n + 1
rows whole: ``subst_y`` itself skips the columns that cannot reach order n.

On P = X * phi(Y) the two sums are Lagrange inversion: theorem's is
[Y^(n-1)] phi^n - [Y^(n-2)] phi' * phi^(n-1), in any characteristic, and
char0's is (1/n) [Y^(n-1)] phi^n.

Over Q every method runs on integers, with one ``Fraction`` per
coefficient of the answer.  ``fixpoint``, ``char0`` and ``furstenberg``
solve for Eisenstein's integral P' = P(e^2 X, e Y) / e (``_eisenstein``),
e the lcm of the terms' denominators, and read f_k = g_k / e^(2k-1) off
its solution g (``_unscale``).  The theorem's sweep takes d * P, d the
same lcm, weights its terms by integer powers of d and divides each sum
once; and ``BiSeries.subst_y``, which the residual check calls on the
original P, and ``factor_out_root`` run one Horner on integers.

``solve_series`` is the single entry point that runs any of them on an
``ImplicitProblem`` and re-substitutes the result into its equation;
``furstenberg_solve`` and ``factor_out_root`` also take a
``RootProblem`` Q(X, f) = 0 directly.

``taylor_residual`` checks the finite Taylor-style expansion of P
around a substituted series (with Hasse derivatives supplying the
divided powers), and ``factor_out_root`` splits off an exact root by
synthetic division, which is ``subst_y``'s Horner with the partial sums
kept (``BiSeries._horner``).
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
from .series import BiSeries, UniSeries, _integral, _over


class SolveMethod(enum.Enum):
    """The implemented solution methods, named as on the command line."""

    THEOREM = "theorem"
    CHAR0 = "char0"
    FIXED_POINT = "fixpoint"
    FURSTENBERG = "furstenberg"


class ImplicitProblem:
    """A validated instance of f = P(X, f(X)).

    ``is_polynomial`` records that ``p`` is exact (all omitted
    coefficients are truly zero), so any order can be solved; for
    genuinely truncated input the methods instead check that the stored
    box holds (n, n) at order n.
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

    ``m_terms_used`` lists the m-range the theorem's sweep summed
    (empty for the others, char0 included); ``residual_zero`` records the
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


def _reaching_terms(series: BiSeries, n_max: int) -> list:
    """The nonzero terms ``(i, j, c)`` of ``series`` with i + j <= n_max,
    the only ones that reach [X^n] f for n <= n_max (see above)."""
    return [t for t in series.nonzero_terms() if t[0] + t[1] <= n_max]


def solve_fixed_point(prob: ImplicitProblem, n_max: int) -> UniSeries:
    """Solve f = P(X, f) by Newton iteration (``_newton``)."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    if not prob.is_polynomial:
        _require_box(prob.p, n_max, n_max)
    return _newton(prob.field, _reaching_terms(prob.p, n_max), n_max)


def _newton(field, terms, n_max: int) -> UniSeries:
    """fixpoint: Newton iteration, doubling the known coefficients per step.

    With f known through order k, one step
    ``f <- f + (P(X, f) - f) / (1 - P_Y(X, f))`` on order 2k + 1 makes
    it right through 2k + 1 (Brent & Kung 1978).  The divisor is a
    unit because ``P_Y(0, 0) = 0``, so the step holds in every
    characteristic.

    P is ``terms`` on the box (n_max, top), top their highest Y-degree.
    Over Q the loop solves g = P'(X, g) for Eisenstein's integral
    ``P' = P(e^2 X, e Y) / e`` (``_eisenstein``): g and the divisor
    ``1 - P'_Y(X, g)``, with constant term 1, are integral, so every
    product and the quotient run on ints, and ``_unscale`` reads f.
    """
    e, terms = _eisenstein(terms)
    top = max([j for _, j, _ in terms], default=0)
    work = BiSeries.zero(field, n_max, top)
    for i, j, c in terms:  # normalized payloads, as _eisenstein leaves them
        work._c[i * work._w + j] = c
    dwork = work.hasse_derivative(1) if top else None
    # f = 0 is right through order 0 and P_Y(0, 0) = 0, so the first
    # step gives f = P(X, 0) through order 1 (at n_max = 0, f = 0)
    f = work.column(0).resized(min(n_max, 1))
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
    return _unscale(field, f._c, e)


def _eisenstein(terms):
    """``(e, terms')``: the nonzero terms ``(i, j, c)`` of P as those of
    Eisenstein's integral ``P' = P(e^2 X, e Y) / e``.

    Over Q, e is the lcm of the denominators, and c X^i Y^j becomes
    (e c) e^(2i+j-2) X^i Y^j, an integer as 2i + j >= 2.  Without a
    ``Fraction``, over GF(p) in particular, e = 1 and the terms pass
    through."""
    e, values = _integral([c for _, _, c in terms])
    if e == 1:
        return 1, terms
    return e, [(i, j, v * e ** (2 * i + j - 2)) for (i, j, _), v in zip(terms, values)]


def _unscale(field, g: list, e: int, over_k: bool = False) -> UniSeries:
    """f from the coefficients g of the solution for ``P'``:
    ``f(X) = e g(X / e^2)`` gives ``f_k = g_k / e^(2k - 1)``, one
    ``Fraction`` each; char0's ``g_k`` also carries a factor k (``over_k``)."""
    if e == 1 and not over_k:
        return UniSeries._raw(field, g)
    out, scale = [0], e
    for k in range(1, len(g)):
        out.append(_demote(Fraction(g[k], k * scale if over_k else scale)))
        scale *= e * e
    return UniSeries._raw(field, out)


def _extraction_vectors(field, terms, n_max: int):
    """The theorem's sweep: ``[X^n] f = sum_m [X^n Y^(m-1)] D * P^m``.

    Term m is the cell (n, n - 1) of Dh * Ph^m, for every n at once, so the
    running power Ph^m lives on the box (n_max, n_max - 1).  Returns
    ``(sums, m_stop)``: ``sums[n]`` as a raw payload, and ``m_stop``, the
    largest m accumulated.  The cell (n, n - 1) has total degree 2n - 1 and
    every term of Ph at least 1, so the sweep runs to m = 2 n_max - 1, or
    until the power vanishes on the box, as all later terms then do.

    ``terms`` are P's nonzero ``(i, j, c)`` with i + j <= n_max.  Over Q
    the sweep multiplies ``den * Ph`` in integers, den the lcm of their
    denominators, with ``den - den * dP/dY`` for D.  Term m needs the
    weight 1/den^(m+1): the sums take the int den^(m_top - m) instead and
    are divided once, by den^(m_top + 1), at the end.  Dh's term (a, b)
    reads the power's diagonal j = b + 1 - a, the cells (r, r - j), for the
    cells (r + a, r + a - 1) of the product.  So each m adds each diagonal
    that D reads once into its band, with that weight, and D's terms are
    applied to the bands once, after the sweep.  ``solve_series`` reports
    ``range(1, m_stop + 1)`` as the theorem's ``m_terms_used``; char0, one
    quotient, reports ``()``.
    """
    sums = [0] * (n_max + 1)
    if n_max == 0:
        return sums, 0
    # X^i Y^j becomes the cell (i, i + j - 1) of den * Ph
    den, values = _integral([c for _, _, c in terms])
    terms = [(i, i + j - 1, v) for (i, j, _), v in zip(terms, values)]
    norm = field.normalize
    # X^i Y^j of den * P gives -j v X^i Y^(j-1) of D, so Dh has -j v at the
    # cell (i, k) of Ph, j = k - i + 1; no two terms share a cell
    d = [(0, 0, den)] + [
        (i, k, c) for i, k, v in terms if k >= i and (c := norm((i - k - 1) * v))
    ]
    # j >= 1; in the power's flat row-major list (width n_max) the diagonal
    # j is one slice of stride n_max + 1 from row j
    bands = {b + 1 - a: [0] * (n_max + 1) for a, b, _ in d}
    factor = BiSeries.from_terms(field, terms, n_max, n_max - 1)
    cur = factor
    m_top = m_stop = 2 * n_max - 1
    for m in range(1, m_top + 1):
        w = den ** (m_top - m)  # 1/den^(m+1), times den^(m_top+1)
        flat = cur._c
        for j, band in bands.items():
            cells = flat[j * n_max :: n_max + 1]
            # compress skips the power's zeros in C
            for r, v in compress(enumerate(cells, j), cells):
                band[r] += w * v
        if m < m_top:
            cur = cur * factor
            if cur.is_zero():
                m_stop = m
                break  # all later powers vanish on the box too
    for a, b, c in d:  # applied to the bands once
        for k in range(b + 1, n_max + 1):
            sums[k] += c * bands[b + 1 - a][k - a]
    # over GF(p), den is 1 and norm reduces the sums
    return [norm(v) for v in _over(sums, den ** (m_top + 1))], m_stop


def _diagonal_quotient(field, terms, n_max: int, char0: bool) -> UniSeries:
    """char0 and furstenberg: one exact quotient by ``U = 1 - Ph'``.

    ``terms`` are P's nonzero ``(i, j, c)`` with i + j <= n_max.  Each
    becomes a term of ``P' = P(e^2 X, e Y) / e``
    (``_eisenstein``), then the cell (i, i + j - 1) of Ph' = P'(ZY, Y) / Y.
    The solution g of g = P'(X, g) is g_n = [Z^n Y^(n-1)] N / U, read off
    the diagonal of the box (n_max, n_max - 1), and ``_unscale`` turns it
    into f.  furstenberg's numerator N is ``Dh' = 1 - P'_Y(ZY, Y)``.
    char0 sums ``Ph'^m / m``, which is ``-log(U)``: its N is ``Z Ph'_Z``,
    and its g_n carries a factor n.
    """
    if n_max == 0:
        return UniSeries.zero(field, 0)
    e, terms = _eisenstein(terms)
    unit = [(0, 0, 1)] + [(i, i + j - 1, -c) for i, j, c in terms]
    if char0:
        numer = [(i, i + j - 1, i * c) for i, j, c in terms if i]
    else:
        numer = [(0, 0, 1)] + [(i, i + j - 1, -j * c) for i, j, c in terms if j]
    box = (n_max, n_max - 1)
    g = BiSeries.from_terms(field, numer, *box) / BiSeries.from_terms(field, unit, *box)
    # Z^k Y^(k-1) sits at flat index k * n_max + k - 1
    return _unscale(field, [0] + g._c[n_max :: n_max + 1], e, char0)


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

    Synthetic division in Y over truncated series in X is Horner's
    scheme for Q(X, f) with the partial sums kept (``BiSeries._horner``):
    h_top ... h_1 are R's columns top - 1 ... 0, and the remainder h_0 =
    Q(X, f(X)) must vanish on the working precision, otherwise
    ``NotARootError`` is raised.  f must vanish at the origin.  The
    result lives on the box ``(min(q.x_order, f.order), q.y_order - 1)``
    and satisfies ``(Y - f) * R = Q`` there.
    """
    q = rp.q
    if f.field != q.field:
        raise FieldMismatchError(
            f"root over {f.field.tag} for a polynomial over {q.field.tag}"
        )
    nx = min(q.x_order, f.order)
    *sums, (remainder, _) = q.resized(nx, q.y_order)._horner(f)
    if any(remainder):
        raise NotARootError(
            "substituting the claimed root into Q leaves a nonzero remainder"
        )
    r = BiSeries.zero(q.field, nx, q.y_order - 1)
    for j, (ints, den) in enumerate(reversed(sums)):
        r._c[j :: r._w] = _over(ints, den)
    return r


def furstenberg_solve(rp: RootProblem, n_max: int) -> UniSeries:
    """Solve Q(X, f) = 0 by the diagonal method.

    The root of Q is the fixed point of ``P = Y - Q / q01``, made with one
    inverse and one pass over Q's nonzero terms.  In the frame X = Z*Y,
    [X^k] f is then [Z^k Y^(k-1)] of ``Dh / (1 - Ph)``, one exact quotient
    on the box (n_max, n_max - 1), over Q in Eisenstein's integral frame
    (``_diagonal_quotient``).  Requires q on a box of at least
    (n_max, n_max).
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    field, q = rp.field, rp.q
    _require_box(q, n_max, n_max, "Q")
    norm = field.normalize
    r = field.invert(q._c[1])  # q01 sits at flat index 1
    terms = _reaching_terms(q, n_max)
    terms = [(i, j, norm(-c * r)) for i, j, c in terms if (i, j) != (0, 1)]
    return _diagonal_quotient(field, terms, n_max, False)


def _implicit_residual_zero(prob: ImplicitProblem, f: UniSeries) -> bool:
    """Whether ``f = P(X, f)`` holds through the order n of ``f``: P's
    first n + 1 rows, substituted whole (``subst_y`` skips the columns
    that cannot reach order n)."""
    return prob.p.resized(f.order, prob.p.y_order).subst_y(f) == f


def solve_series(prob: ImplicitProblem, n_max: int, method) -> SolveReport:
    """Compute f through order ``n_max`` with the chosen method.

    The report carries the solution, the m-range the theorem's sweep
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
    if not prob.is_polynomial:  # only terms with i + j <= n_max reach f
        _require_box(prob.p, n_max, n_max)

    char0 = method is SolveMethod.CHAR0
    if char0 and prob.field.characteristic:
        raise PositiveCharacteristicError("the char0 method needs characteristic zero")

    field, terms = prob.field, _reaching_terms(prob.p, n_max)
    m_terms = ()
    if method is SolveMethod.FIXED_POINT:
        f = _newton(field, terms, n_max)
    elif method is SolveMethod.THEOREM:
        sums, m_stop = _extraction_vectors(field, terms, n_max)
        f = UniSeries._raw(field, sums)
        m_terms = tuple(range(1, m_stop + 1))
    else:
        f = _diagonal_quotient(field, terms, n_max, char0)
    return SolveReport(method, f, _implicit_residual_zero(prob, f), m_terms)
