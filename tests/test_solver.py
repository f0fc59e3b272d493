"""Solver methods: validation, the four routes to f, and their identities."""

import itertools
import math
import re
from fractions import Fraction

import pytest

from implicitseries import (
    BiSeries,
    FieldMismatchError,
    ImplicitProblem,
    InsufficientTruncationError,
    NonzeroConstantTermError,
    NonzeroLinearYTermError,
    NotARootError,
    PositiveCharacteristicError,
    PrimeField,
    RationalField,
    RootProblem,
    SolveMethod,
    UniSeries,
    ZeroLinearYTermError,
    factor_out_root,
    furstenberg_solve,
    solve_fixed_point,
    solve_series,
    taylor_residual,
)
from implicitseries import series, solver
from implicitseries.expressions import lower_expression, parse_expression
from implicitseries.series import _Series
from implicitseries.solver import _reaching_terms

from conftest import (
    FIELDS,
    catalan_problem,
    embed_x,
    flajolet_soria_sum,
    linear_fixed_point,
    make_rng,
    random_biseries,
    random_implicit_poly,
    random_nonzero_value,
    random_root_poly,
    random_uniseries,
    random_value,
    synthetic_division,
    tail_term_count,
    theorem_sums,
)

Q = RationalField()
F2 = PrimeField(2)


def catalan(n: int) -> int:
    """C_{n-1} for n >= 1: the reference count for f = X + f^2."""
    return math.comb(2 * n - 2, n - 1) // n


# --------------------------------------------------------------- validation

def test_implicit_problem_validation():
    p = BiSeries.from_terms(Q, [(1, 0, 1), (0, 2, 1)], 3, 3)
    assert ImplicitProblem(p).p is p
    with pytest.raises(NonzeroLinearYTermError):
        ImplicitProblem(BiSeries.from_terms(Q, [(0, 1, 1)], 3, 3))  # P = Y
    with pytest.raises(NonzeroConstantTermError):
        ImplicitProblem(BiSeries.from_terms(Q, [(0, 0, 1), (1, 0, 1)], 3, 3))
    # a Y-free series is fine: there is no linear-Y coefficient to check
    assert ImplicitProblem(BiSeries.from_terms(Q, [(1, 0, 1)], 3, 0)).is_polynomial


def test_root_problem_validation():
    q = BiSeries.from_terms(Q, [(0, 1, 1), (1, 0, -1), (0, 2, -1)], 3, 3)
    assert RootProblem(q).q is q
    with pytest.raises(NonzeroConstantTermError):
        RootProblem(BiSeries.from_terms(Q, [(0, 0, 1)], 3, 3))
    with pytest.raises(ZeroLinearYTermError):
        RootProblem(BiSeries.from_terms(Q, [(1, 0, 1)], 3, 3))
    with pytest.raises(ZeroLinearYTermError):
        RootProblem(BiSeries.from_terms(Q, [(1, 0, 1)], 3, 0))  # no Y column at all


# ---------------------------------------------------- fixed point by Newton

def test_fixed_point_catalan():
    f = solve_fixed_point(catalan_problem(Q, 6), 6)
    assert f._c == [0, 1, 1, 2, 5, 14, 42]
    f20 = solve_fixed_point(catalan_problem(Q, 20), 20)
    assert f20._c == [0] + [catalan(n) for n in range(1, 21)]


def test_fixed_point_geometric():
    # f = X + X f  has the geometric series as its solution
    p = BiSeries.from_terms(Q, [(1, 0, 1), (1, 1, 1)], 8, 8)
    assert solve_fixed_point(ImplicitProblem(p), 8)._c == [0] + [1] * 8


def test_fixed_point_frobenius_gf2():
    f = solve_fixed_point(catalan_problem(F2, 16), 16)
    assert f._c == [1 if n and n & (n - 1) == 0 else 0 for n in range(17)]


def test_fixed_point_truncated_input_needs_box():
    p = BiSeries.from_terms(Q, [(1, 0, 1), (0, 2, 1)], 4, 4)
    prob = ImplicitProblem(p, is_polynomial=False)
    assert solve_fixed_point(prob, 4)._c == [0, 1, 1, 2, 5]
    with pytest.raises(InsufficientTruncationError):
        solve_fixed_point(prob, 5)
    # the same data declared polynomial extends freely
    assert solve_fixed_point(ImplicitProblem(p), 5)._c == [0, 1, 1, 2, 5, 14]
    with pytest.raises(ValueError, match="^n_max must be >= 0$"):
        solve_fixed_point(prob, -1)


def newton_problem(rng, field, n_max, y_degree):
    """A seeded polynomial P of exactly the given Y-degree.

    Its box is random around ``n_max``, but at least 3 in X, so the
    term that sets the Y-degree always fits.
    """
    terms = [(rng.randint(1, 2), 0, random_nonzero_value(rng, field))]
    if y_degree:
        i = rng.randint(1 if y_degree == 1 else 0, 3)
        terms.append((i, y_degree, random_nonzero_value(rng, field)))
    for _ in range(rng.randint(1, 4)):
        i, j = rng.randint(0, 6), rng.randint(0, y_degree)
        if i == 0 and j < 2:
            i = 1  # P(0, 0) and [Y] P(0, Y) must vanish
        terms.append((i, j, random_value(rng, field)))
    x_box = rng.randint(max(3, n_max // 2), n_max + 3)
    return BiSeries.from_terms(field, terms, x_box, y_degree + rng.randint(0, 2))


def test_newton_matches_the_linear_iteration():
    rng = make_rng("newton-vs-linear")
    for field in FIELDS:
        for n_max in (0, 1, 2, 3, 6, 17, 40):
            for y_degree in (0, 1, 2, 3, 6):
                prob = ImplicitProblem(newton_problem(rng, field, n_max, y_degree))
                assert solve_fixed_point(prob, n_max) == linear_fixed_point(prob, n_max)
        # truncated input known exactly on the (n_max, n_max) box
        for n_max in (0, 1, 2, 5, 9):
            terms = [
                (i, j, random_value(rng, field))
                for i in range(n_max + 1)
                for j in range(n_max + 1)
                if (i, j) not in ((0, 0), (0, 1))
            ]
            p = BiSeries.from_terms(field, terms, n_max, n_max)
            prob = ImplicitProblem(p, is_polynomial=False)
            assert solve_fixed_point(prob, n_max) == linear_fixed_point(prob, n_max)
            with pytest.raises(InsufficientTruncationError):
                solve_fixed_point(prob, n_max + 1)


# ------------------------------------------------------ coefficient extraction

def test_extraction_examples():
    prob = catalan_problem(Q, 4)
    assert solve_series(prob, 4, "theorem").solution.coeff(4) == 5
    assert solve_series(catalan_problem(Q, 1), 1, "theorem").solution.coeff(1) == 1
    assert solve_series(catalan_problem(F2, 8), 8, "theorem").solution.coeff(8) == 1
    with pytest.raises(ValueError):
        solve_series(prob, -1, "theorem")


def test_extraction_char0_examples():
    assert solve_series(catalan_problem(Q, 5), 5, "char0").solution.coeff(5) == 14
    p = BiSeries.from_terms(Q, [(1, 0, 1), (1, 1, 1)], 3, 5)
    assert solve_series(ImplicitProblem(p), 3, "char0").solution.coeff(3) == 1
    with pytest.raises(PositiveCharacteristicError):
        solve_series(catalan_problem(PrimeField(5), 3), 3, "char0")


def test_extraction_truncated_input_needs_box():
    # only the terms with i + j <= n reach [X^n] f, so every method needs
    # truncated input on the box (n, n) and no more
    narrow = ImplicitProblem(
        BiSeries.from_terms(Q, [(1, 0, 1), (0, 2, 1)], 4, 3), is_polynomial=False
    )
    wide = ImplicitProblem(
        BiSeries.from_terms(Q, [(1, 0, 1), (0, 2, 1)], 4, 5), is_polynomial=False
    )
    for method in SolveMethod:
        with pytest.raises(InsufficientTruncationError, match=r"\(4, 4\)"):
            solve_series(narrow, 4, method)
        assert solve_series(wide, 4, method).solution.coeff(4) == 5


def test_extraction_whole_vector_matches_oracle():
    rng = make_rng("extraction-vs-oracle")
    for field in FIELDS:
        for _ in range(10):
            p = random_implicit_poly(rng, field, 8, 8)
            prob = ImplicitProblem(p)
            oracle = linear_fixed_point(prob, 8)
            plain = theorem_sums(prob, 8)
            assert plain == oracle._c
            assert tail_term_count(prob, 8) == 0


def test_extraction_sums_unchanged_by_tail_window():
    # the truncation bound: every term with m > 2n - 1 vanishes, so the
    # terms just past the sweep's m_top are all zero, in either form (the
    # char0 sums only over Q, where that form is defined)
    rng = make_rng("extraction-tail-window")
    for field in FIELDS:
        problems = [catalan_problem(field, 6)] + [
            ImplicitProblem(random_implicit_poly(rng, field, 6, 6))
            for _ in range(6)
        ]
        for prob in problems:
            oracle = linear_fixed_point(prob, 6)._c
            for char0 in (False, True):
                count = tail_term_count(prob, 6, char0)
                assert count == 0, (field.tag, char0, prob.p)
            plain = theorem_sums(prob, 6)
            assert plain == oracle, (field.tag, prob.p)
            if not field.characteristic:
                weighted = solve_series(prob, 6, "char0").solution._c
                assert repr(weighted) == repr(flajolet_soria_sum(prob, 6)), prob.p
                assert weighted == oracle, prob.p


def test_terms_past_the_reach_change_nothing():
    # only the terms X^i Y^j with i + j <= n reach [X^n] f: random terms
    # added past that, inside the box, leave the terms the methods read,
    # each method's solution, residual and m-range as they were, and every
    # solution equals the linear iteration's on the original P, which reads
    # all of P
    rng = make_rng("reaching-terms")
    for field in FIELDS:
        char0 = () if field.characteristic else (SolveMethod.CHAR0,)
        methods = (SolveMethod.THEOREM, SolveMethod.FIXED_POINT, SolveMethod.FURSTENBERG) + char0
        for _ in range(6):
            n = rng.randint(1, 8)
            p = random_implicit_poly(rng, field, n, n + 3)
            extra = []
            for _ in range(rng.randint(1, 4)):
                i = rng.randint(0, n)
                j = rng.randint(n + 1 - i, n + 3)  # i + j > n, inside the box
                extra.append((i, j, random_nonzero_value(rng, field)))
            padded = BiSeries.from_terms(field, p.nonzero_terms() + extra, n, n + 3)
            assert _reaching_terms(padded, n) == _reaching_terms(p, n)
            oracle = linear_fixed_point(ImplicitProblem(p), n)
            for polynomial in (True, False):
                prob = ImplicitProblem(p, is_polynomial=polynomial)
                wide = ImplicitProblem(padded, is_polynomial=polynomial)
                for method in methods:
                    report = solve_series(wide, n, method)
                    assert report == solve_series(prob, n, method), (field.tag, p, extra)
                    assert report.solution == oracle and report.residual_zero


def _fractional_problems():
    """(P, n, lcm of the denominators of P's terms with i + j <= n) over Q."""
    f = Fraction
    cases = [
        # coprime denominators
        ([(1, 0, f(1, 2)), (1, 1, f(1, 3)), (0, 2, f(1, 5)), (0, 3, f(1, 7))], 7, 13, 210),
        # negative fractions
        ([(1, 0, f(-1, 3)), (0, 2, f(-5, 4)), (1, 2, f(-7, 6)), (2, 0, -2)], 6, 11, 12),
        # one Fraction among int coefficients
        ([(1, 0, 2), (0, 2, 3), (1, 1, f(1, 3)), (0, 3, -4)], 6, 11, 3),
        # Y-free: f = P(X)
        ([(1, 0, f(1, 2)), (2, 0, f(2, 3)), (5, 0, f(-1, 9))], 6, 11, 18),
        # integral: the plain path
        ([(1, 0, 1), (0, 2, -2), (1, 3, 5)], 7, 13, 1),
        # the Fraction lies beyond the box in X, so it is left out
        ([(1, 0, 1), (0, 2, 1), (7, 0, f(1, 2))], 6, 11, 1),
        # the Fraction lies in the box, but i + j = 7 > n: it cannot reach f
        ([(1, 0, 1), (0, 2, 1), (2, 5, f(1, 2))], 6, 11, 1),
    ]
    for terms, n, ny, den in cases:
        yield BiSeries.from_terms(Q, terms, max(n, 7), ny), n, den
    # truncated input, known exactly on a box that holds (n, n)
    p = BiSeries.from_terms(Q, [(1, 0, f(3, 5)), (0, 2, f(1, 4)), (2, 3, f(-1, 6))], 5, 9)
    yield p, 5, 60


def test_extraction_over_q_with_a_common_denominator():
    # over Q the sweep runs on den * P in integers, den the lcm of the
    # denominators of the terms with i + j <= n, and divides term m by
    # den^(m+1), and char0's quotient runs on integers scaled by powers of
    # den: the answers are the oracles', payload for payload, and the terms
    # past m_top are still zero
    for polynomial in (True, False):
        for p, n, den in _fractional_problems():
            assert _reaching_lcm(p, n) == den
            prob = ImplicitProblem(p, is_polynomial=polynomial)
            oracle = linear_fixed_point(prob, n)
            plain = theorem_sums(prob, n)
            assert repr(plain) == repr(oracle._c), p
            weighted = solve_series(prob, n, "char0").solution._c
            assert repr(weighted) == repr(flajolet_soria_sum(prob, n)), p
            assert repr(weighted) == repr(oracle._c), p
            for char0 in (False, True):
                assert tail_term_count(prob, n, char0) == 0, (p, char0)
                method = "char0" if char0 else "theorem"
                report = solve_series(prob, n, method)
                assert report.solution == oracle and report.residual_zero


def test_extraction_over_q_multiplies_only_ints(monkeypatch):
    # with P scaled by its common denominator, no product the sweep makes
    # and neither operand of char0's quotient holds a Fraction, so none
    # pays a gcd per cell
    operands = {"__mul__": [], "__truediv__": []}

    def recording(name):
        op = getattr(BiSeries, name)

        def record(self, other):
            operands[name].extend((self._c, other._c))
            return op(self, other)

        return record

    for name in operands:
        monkeypatch.setattr(BiSeries, name, recording(name))
    for p, n, den in _fractional_problems():
        for method, name in (("theorem", "__mul__"), ("char0", "__truediv__")):
            operands[name].clear()
            report = solve_series(ImplicitProblem(p), n, method)
            assert report.residual_zero
            assert operands[name]
            assert not any(
                type(c) is Fraction for c in itertools.chain(*operands[name])
            )


def test_fixpoint_over_q_multiplies_only_ints(monkeypatch):
    # Newton runs on the integral P(e^2 X, e Y) / e, e the lcm of the
    # denominators of the terms with i + j <= n, and reads no frame: no
    # product it makes and neither operand of its quotient holds a
    # Fraction.  The residual check substitutes into the original P, also
    # on ints.
    oracles = [linear_fixed_point(ImplicitProblem(p), n) for p, n, _ in _fractional_problems()]
    operands = {"__mul__": [], "__truediv__": []}

    def recording(name):
        op = getattr(UniSeries, name)

        def record(self, other):
            operands[name].extend((self._c, other._c))
            return op(self, other)

        return record

    for name in operands:
        monkeypatch.setattr(UniSeries, name, recording(name))
    seen = []
    subst_y = BiSeries.subst_y

    def substituted(self, f):
        seen.append(self)
        return subst_y(self, f)

    def refuse(*args):
        raise AssertionError("fixpoint reads the frame")

    scales = []
    unscale = solver._unscale

    def unscaled(field, g, e, *args):
        scales.append(e)
        return unscale(field, g, e, *args)

    monkeypatch.setattr(BiSeries, "subst_y", substituted)
    monkeypatch.setattr(solver, "_extraction_vectors", refuse)
    monkeypatch.setattr(solver, "_diagonal_quotient", refuse)
    monkeypatch.setattr(solver, "_unscale", unscaled)
    for (p, n, den), oracle in zip(_fractional_problems(), oracles):
        seen.clear()
        scales.clear()
        report = solve_series(ImplicitProblem(p), n, "fixpoint")
        assert repr(report.solution) == repr(oracle), p
        assert report.residual_zero
        assert scales == [den], p
        # the residual substitutes into P's own terms that reach order n
        assert seen[-1].nonzero_terms() == [
            t for t in p.nonzero_terms() if t[0] <= n and t[1] <= n
        ]
    for name, values in operands.items():
        assert values, name
        assert not any(type(c) is Fraction for c in itertools.chain(*values)), name


@pytest.mark.parametrize(
    "text, n",
    [
        ("1/3*X + 5/7*Y^2 + 1/11*X*Y", 12),
        ("1/2*X + X*Y - Y^2 + 3/4*X^2*Y^3", 10),
        ("-2/9*X + 5/6*Y^3 + X^2 + 7/10*X^3*Y^2", 9),
        ("1/2*X + Y^2 + 1/3*X^9", 6),  # X^9 lies beyond the box: e = 2
        # X^2 Y^2 lies in the box (3, 5), but 2 + 2 > 3: e = 2, top = 2
        ("1/2*X + Y^2 + 1/3*X^2*Y^2", 3),
    ],
)
def test_fixpoint_frame_is_the_lowered_substitution(monkeypatch, text, n):
    # over Q, Newton substitutes into P(e^2 X, e Y) / e on the box (n, top),
    # built from the terms X^i Y^j with i + j <= n, e the lcm of their
    # denominators and top their highest Y-degree: the text of that series,
    # lowered, is the integral series it builds, less the terms past i + j <= n
    p = lower_expression(parse_expression(text, Q), Q, n, 2 * n - 1)
    seen = []
    subst_y = BiSeries.subst_y

    def record(self, f):
        seen.append(self)
        return subst_y(self, f)

    monkeypatch.setattr(BiSeries, "subst_y", record)
    f = solve_fixed_point(ImplicitProblem(p), n)
    monkeypatch.undo()
    work = next(s for s in seen if s.x_order == n)  # P' comes before P'_Y
    kept = [(i, j, c) for i, j, c in p.nonzero_terms() if i + j <= n]
    top = max(j for _, j, _ in kept)
    e = math.lcm(*(Fraction(c).denominator for _, _, c in kept))
    assert work.y_order == top
    assert e > 1 and all(type(c) is int for c in work._c)
    frame = text.replace("X", f"({e}^2*X)").replace("Y", f"({e}*Y)")
    lowered = lower_expression(parse_expression(f"1/{e}*({frame})", Q), Q, n, top)
    reaching = [t for t in lowered.nonzero_terms() if t[0] + t[1] <= n]
    assert work == BiSeries.from_terms(Q, reaching, n, top)
    assert f == linear_fixed_point(ImplicitProblem(p), n)


def test_residual_check_skips_a_heavy_term_past_the_reach(monkeypatch):
    # X^150 Y^150 lies in the box (256, 256) but cannot reach order 256
    # (150 + 150 > 256): the residual check substitutes P through its
    # columns 0 .. 2 alone, two products, not 150
    terms = [(1, 0, Fraction(1, 2)), (0, 2, 1), (1, 1, -1)]
    heavy = BiSeries.from_terms(Q, terms + [(150, 150, Fraction(1, 999983))], 256, 256)
    light = solve_series(ImplicitProblem(BiSeries.from_terms(Q, terms, 256, 2)), 256, "fixpoint")
    prob = ImplicitProblem(heavy)
    report = solve_series(prob, 256, "fixpoint")
    assert report.residual_zero and report.solution == light.solution
    products = []
    mul = UniSeries.__mul__

    def record(self, other):
        products.append(other)
        return mul(self, other)

    monkeypatch.setattr(UniSeries, "__mul__", record)
    assert solver._implicit_residual_zero(prob, report.solution)
    assert 0 < len(products) <= 2


def test_per_m_term_groups_differ_but_totals_agree():
    # the two extraction formulas distribute the answer differently over
    # m; only the totals coincide.  For P = X + Y^2 at n = 4 the general
    # form needs the correction term (-30 at m = 6), the weighted form
    # puts everything at m = 7.
    n = 4
    m_top = 2 * n - 1
    p = BiSeries.from_terms(Q, [(1, 0, 1), (0, 2, 1)], n, m_top)
    work = p.resized(n, m_top)
    d = BiSeries.from_terms(Q, [(0, 0, 1)], n, m_top - 1) - work.hasse_derivative(1)
    base = work.resized(n, m_top - 1)
    cur = base
    general, weighted = [], []
    for m in range(1, m_top + 1):
        general.append((d * cur).coeff(n, m - 1).value)
        weighted.append(Fraction(1, m) * cur.coeff(n, m - 1).value)
        cur = cur * base
    assert general == [0, 0, 0, 0, 0, -30, 35]
    assert weighted == [0, 0, 0, 0, 0, 0, 5]
    assert sum(general) == sum(weighted) == 5
    assert solve_series(catalan_problem(Q, n), n, "theorem").solution.coeff(n) == 5


# -------------------------------------------------------------------- frame

def _reaching_lcm(p, n):
    """The lcm of the denominators of P's terms with i + j <= n."""
    kept = [c for i, j, c in p.nonzero_terms() if i + j <= n]
    return math.lcm(1, *(Fraction(c).denominator for c in kept))


def _swept_factor(p, n):
    """The series the theorem's sweep multiplies by at order n >= 2, the
    right operand of its first product: d * Ph on the box (n, n - 1), d the
    lcm of the denominators of P's terms with i + j <= n."""
    factors = []
    mul = BiSeries.__mul__

    def record(self, other):
        factors.append(other)
        return mul(self, other)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(BiSeries, "__mul__", record)
        solve_series(ImplicitProblem(p), n, "theorem")
    return factors[0]


def _frame_series(p, n):
    """Ph = P(ZY, Y) / Y and Dh = D(ZY, Y), D = 1 - dP/dY, on the box
    (n, n - 1), from the sweep's factor.  The cell (i, i + j - 1) lies in
    that box just when i + j <= n, so the factor at order max(n, 2), where
    the sweep makes a product, holds Ph on it."""
    m = max(n, 2)
    d = _reaching_lcm(p, m)
    r = _swept_factor(p, m).resized(n, n - 1)
    terms = [(i, k, Fraction(v, d)) for i, k, v in r.nonzero_terms()]
    ph = BiSeries.from_terms(p.field, terms, n, n - 1)
    dh = [(0, 0, 1)] + [(i, k, -(k - i + 1) * c) for i, k, c in terms if k >= i]
    return ph, BiSeries.from_terms(p.field, dh, n, n - 1)


def test_frame_identity_term_by_term():
    # [X^k Y^(m-1)] D * P^m == [Z^k Y^(k-1)] Dh * Ph^m for every k <= n and
    # m <= 2n - 1, the identity the theorem, char0 and furstenberg rest on
    rng = make_rng("frame-identity")
    for field in (Q, F2, PrimeField(3), PrimeField(10007)):
        for _ in range(12):
            n = rng.randint(1, 8)
            p = random_implicit_poly(
                rng, field, n, 2 * n - 1, max_degree=5, n_terms=rng.randint(1, 5)
            )
            one = BiSeries.from_terms(field, [(0, 0, 1)], n, 2 * n - 2)
            d = one - p.hasse_derivative(1)
            px = p.resized(n, 2 * n - 2)
            ph, dh = _frame_series(p, n)
            power, power_h = px, ph
            for m in range(1, 2 * n):
                term, term_h = d * power, dh * power_h
                for k in range(1, n + 1):
                    assert term.coeff(k, m - 1) == term_h.coeff(k, k - 1), (
                        field.tag, p, k, m,
                    )
                power, power_h = power * px, power_h * ph


def _random_text(rng, field):
    """A random P as text: a few monomials c * X^i * Y^j, fractions over Q."""
    monomials = []
    for _ in range(rng.randint(1, 5)):
        i, j = rng.randint(0, 5), rng.randint(0, 5)
        if (i, j) in ((0, 0), (0, 1)):
            i += 1
        c = random_nonzero_value(rng, field)
        monomials.append(f"({'-' if c < 0 else ''}{abs(c)})*X^{i}*Y^{j}")
    return " + ".join(monomials)


def test_frame_terms_match_lowering_in_the_frame():
    # the series the theorem's sweep multiplies by against an independent
    # build: lower P with X replaced by (X*Y), so X^i Y^j lands on
    # X^i Y^(i+j), and shift it down one Y column.  Over Q the sweep's
    # series is d times that, in ints, d the lcm of the denominators of the
    # terms with i + j <= n
    rng = make_rng("frame-terms")
    for field in (Q, F2, PrimeField(3), PrimeField(10007)):
        for _ in range(20):
            text = _random_text(rng, field)
            n = max(2, rng.randint(1, 9))  # the sweep's first product is at 2
            p = lower_expression(parse_expression(text, field), field, n, 2 * n - 1)
            factor = _swept_factor(p, n)
            assert (factor.x_order, factor.y_order) == (n, n - 1)
            d = _reaching_lcm(p, n)
            if not field.characteristic:
                assert all(type(v) is int for v in factor._c)
            code = parse_expression(text.replace("X", "(X*Y)"), field)
            wide = lower_expression(code, field, n, n)
            assert not any(wide.coeff(i, 0) for i in range(n + 1))
            shifted = [(i, j - 1, d * c) for i, j, c in wide.nonzero_terms()]
            assert factor == BiSeries.from_terms(field, shifted, n, n - 1), text


# ------------------------------------------------------------------- taylor

def test_taylor_residual_trivial_telescope():
    p = BiSeries.from_terms(Q, [(0, 1, 1)], 4, 4)  # P = Y
    f = UniSeries(Q, [0, 3, -2, 1, 7])
    assert taylor_residual(p, f).is_zero()


def test_taylor_residual_catalan():
    p = BiSeries.from_terms(Q, [(1, 0, 1), (0, 2, 1)], 6, 6)
    f = solve_fixed_point(catalan_problem(Q, 6), 6)
    assert taylor_residual(p, f).is_zero()


def test_taylor_residual_random_gf3():
    rng = make_rng("taylor-gf3")
    f3 = PrimeField(3)
    for _ in range(20):
        p = random_biseries(rng, f3, 8, 8)
        f = random_uniseries(rng, f3, 8, zero_constant=True)
        assert taylor_residual(p, f).is_zero()


def test_taylor_residual_guards():
    p = BiSeries.from_terms(Q, [(0, 1, 1)], 4, 4)
    with pytest.raises(NonzeroConstantTermError):
        taylor_residual(p, UniSeries(Q, [1, 0, 0, 0, 0]))
    with pytest.raises(FieldMismatchError):
        taylor_residual(p, UniSeries.zero(F2, 4))


# ------------------------------------------------------------- factorization

def test_factor_out_root_worked_example():
    # Q = Y - X - Y^2 factors as (Y - f)(1 - f - Y) at the Catalan root
    q = BiSeries.from_terms(Q, [(0, 1, 1), (1, 0, -1), (0, 2, -1)], 12, 12)
    rp = RootProblem(q)
    f = furstenberg_solve(rp, 12)
    r = factor_out_root(rp, f)
    expected = (
        BiSeries.from_terms(Q, [(0, 0, 1)], 12, 11)
        - embed_x(f, 11)
        - BiSeries.from_terms(Q, [(0, 1, 1)], 12, 11)
    )
    assert r == expected
    # and the product recovers Q on the box
    y_minus_f = BiSeries.from_terms(Q, [(0, 1, 1)], 12, 11) - embed_x(f, 11)
    assert (y_minus_f.resized(12, 12) * r.resized(12, 12)) == q


def test_factor_out_root_edge_cases():
    # Q = Y, root f = 0, cofactor 1
    rp = RootProblem(BiSeries.from_terms(Q, [(0, 1, 1)], 3, 3))
    r = factor_out_root(rp, UniSeries.zero(Q, 3))
    assert r == BiSeries.from_terms(Q, [(0, 0, 1)], 3, 2)
    # Q = Y^2 - X^2 ... not a RootProblem (q01 = 0), so check pure division
    # through the public route with Q = Y - X instead
    rp2 = RootProblem(BiSeries.from_terms(Q, [(0, 1, 1), (1, 0, -1)], 3, 3))
    f2 = furstenberg_solve(rp2, 3)
    assert f2._c == [0, 1, 0, 0]
    assert factor_out_root(rp2, f2) == BiSeries.from_terms(Q, [(0, 0, 1)], 3, 2)


def test_factor_out_root_rejects_non_roots():
    q = BiSeries.from_terms(Q, [(0, 1, 1), (1, 0, -1), (0, 2, -1)], 6, 6)
    rp = RootProblem(q)
    with pytest.raises(NotARootError):
        factor_out_root(rp, UniSeries(Q, [0, 1, 0, 0, 0, 0, 0]))  # f = X is wrong
    with pytest.raises(NonzeroConstantTermError):
        factor_out_root(rp, UniSeries(Q, [1, 0, 0, 0, 0, 0, 0]))
    # a root over another field
    f5_root = UniSeries(PrimeField(5), [0, 1, 1, 2, 0, 2, 2])
    with pytest.raises(FieldMismatchError, match="^root over fp:5 for a polynomial"):
        factor_out_root(rp, f5_root)


def test_factorization_round_trip_randomized():
    rng = make_rng("factor-round-trip")
    for field in FIELDS:
        for _ in range(10):
            q = random_root_poly(rng, field, 8, 8)
            rp = RootProblem(q)
            f = furstenberg_solve(rp, 8)
            r = factor_out_root(rp, f)
            y_minus_f = BiSeries.from_terms(field, [(0, 1, 1)], 8, 7) - embed_x(f, 7)
            assert (y_minus_f.resized(8, 8) * r.resized(8, 8)) == q


def test_factor_out_root_matches_synthetic_division():
    # factor_out_root keeps the partial sums of subst_y's Horner, over Q on
    # integers over e * d^(top - j): the textbook division on Fractions must
    # give the same payloads, and its remainder must vanish
    rng = make_rng("factor-synthetic-division")

    def value(field):
        if field.characteristic:
            return rng.randrange(1, field.characteristic)
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.choice((2, 3, 5, 7)))

    def root_poly(field, n, ny, top, with_x=True):
        # q01 and X (unless f = 0 is wanted), then terms up to column top
        terms = [(0, 1, value(field))] + [(1, 0, value(field))] * with_x
        for _ in range(4):
            i, j = rng.randint(0, 3), rng.randint(1 - with_x, top)
            if (i, j) not in ((0, 0), (0, 1)):
                terms.append((i, j, value(field)))
        return BiSeries.from_terms(field, terms, n, ny)

    def check(q, f):
        r = factor_out_root(RootProblem(q), f)
        expected, remainder = synthetic_division(q, f)
        assert not any(remainder)
        assert r.x_order == min(q.x_order, f.order) and r.y_order == q.y_order - 1
        assert repr(r._c) == repr(expected), (q, f)
        with pytest.raises(NotARootError):
            wrong = f._c[:]
            wrong[1] = q.field.normalize(wrong[1] + 1)
            factor_out_root(RootProblem(q), UniSeries(q.field, wrong))
        with pytest.raises(NonzeroConstantTermError):
            factor_out_root(RootProblem(q), UniSeries(q.field, [1] + f._c[1:]))

    n = 7
    for field in (Q, F2, PrimeField(10007), PrimeField(2**31 - 1)):
        for ny, top in ((n, 3), (1, 1), (4, 4)):  # top < y_order, y_order = 1
            q = root_poly(field, n, ny, top)
            f = furstenberg_solve(RootProblem(q.resized(n, n)), n)
            if not field.characteristic:
                assert {type(c) for c in f._c[1:]} >= {Fraction}
            check(q, f)
            check(q.resized(n - 3, ny), f)  # f.order above q.x_order
            check(q, f.resized(n - 3))  # and below
        # f = 0: every term of Q carries Y
        q = root_poly(field, n, 3, 3, with_x=False)
        f = furstenberg_solve(RootProblem(q.resized(n, n)), n)
        assert f.is_zero()
        check(q, f)
    # the column 6 of Q holds only X^5 Y^6, which cannot reach order n
    # (5 + 6 > n): subst_y skips it, but R keeps it as its column 5
    for field in (Q, F2, PrimeField(10007)):
        q = root_poly(field, n, n, 3) + BiSeries.from_terms(field, [(5, 6, 1)], n, n)
        f = furstenberg_solve(RootProblem(q), n)
        check(q, f)
        assert factor_out_root(RootProblem(q), f).column(5)._c == q.column(6)._c


# ---------------------------------------------------------------- furstenberg

def test_furstenberg_examples():
    q = BiSeries.from_terms(Q, [(0, 1, 1), (1, 0, -1), (0, 2, -1)], 3, 3)
    f = furstenberg_solve(RootProblem(q), 3)
    assert f.coeff(3).value == 2  # Catalan C_2
    assert f._c == [0, 1, 1, 2]
    # exact linear root
    lin = BiSeries.from_terms(Q, [(0, 1, 1), (1, 0, -1)], 5, 5)
    assert furstenberg_solve(RootProblem(lin), 5)._c == [0, 1, 0, 0, 0, 0]
    # Frobenius pattern over GF(2)
    q2 = BiSeries.from_terms(F2, [(0, 1, 1), (1, 0, -1), (0, 2, -1)], 8, 8)
    f8 = furstenberg_solve(RootProblem(q2), 8)
    assert f8._c == [0, 1, 1, 0, 1, 0, 0, 0, 1]


def test_furstenberg_box_requirement():
    q = BiSeries.from_terms(Q, [(0, 1, 1), (1, 0, -1), (0, 2, -1)], 4, 4)
    rp = RootProblem(q)
    with pytest.raises(InsufficientTruncationError):
        furstenberg_solve(rp, 5)
    assert furstenberg_solve(rp, 0).is_zero()
    with pytest.raises(ValueError):
        furstenberg_solve(rp, -1)


def test_furstenberg_matches_oracle_randomized():
    rng = make_rng("furstenberg-vs-oracle")
    for field in FIELDS:
        for _ in range(10):
            q = random_root_poly(rng, field, 8, 8)
            rp = RootProblem(q)
            f = furstenberg_solve(rp, 8)
            # Q(X, f) = 0 modulo X^9: substitute and check
            assert rp.q.subst_y(f).is_zero()


def test_furstenberg_is_one_quotient(monkeypatch):
    # the root is read off one exact quotient: no product, no reciprocal
    def forbidden(*args):
        raise AssertionError("furstenberg_solve must not multiply or invert")

    q = BiSeries.from_terms(Q, [(0, 1, 1), (1, 0, -1), (0, 2, -1)], 6, 6)
    monkeypatch.setattr(BiSeries, "__mul__", forbidden)
    monkeypatch.setattr(BiSeries, "reciprocal", forbidden)
    assert furstenberg_solve(RootProblem(q), 6)._c == [0, 1, 1, 2, 5, 14, 42]


def _coprime_implicit_poly(rng, x_order, y_order):
    """A random implicit P over Q: a term in X and three random terms,
    their denominators the coprime 2, 3, 5 and 7."""
    value = lambda d: Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), d)
    terms = [(1, 0, value(2))]
    for d in (3, 5, 7):
        i, j = rng.randint(0, 4), rng.randint(0, 4)
        if (i, j) in ((0, 0), (0, 1)):
            i += 1
        terms.append((i, j, value(d)))
    return BiSeries.from_terms(Q, terms, x_order, y_order)


def test_furstenberg_non_unit_linear_term_and_large_box():
    # Q = q01 * (Y - P) for a random implicit P, stored on a box larger
    # than needed; its root is the fixed point of P, which furstenberg_solve
    # recovers as Y - Q / q01.  Over Q, P has coprime denominators, so the
    # quotient runs on P(e^2 X, e Y) / e with e > 1
    rng = make_rng("furstenberg-non-unit")
    for field, q01 in ((Q, 2), (Q, Fraction(3, 5)), (Q, -7), (PrimeField(7), 3)):
        for n_max in (1, 2, 8):
            for _ in range(5):
                big = n_max + rng.randint(1, 4)
                if field.characteristic:
                    p = random_implicit_poly(rng, field, big, big)
                else:
                    p = _coprime_implicit_poly(rng, big, big)
                y = BiSeries.from_terms(field, [(0, 1, 1)], big, big)
                scale = BiSeries.from_terms(field, [(0, 0, q01)], big, big)
                q = scale * (y - p)
                f = furstenberg_solve(RootProblem(q), n_max)
                assert f == linear_fixed_point(ImplicitProblem(p), n_max)


def test_furstenberg_over_q_divides_integers(monkeypatch):
    # over Q the one quotient sees integers only: P = Y - Q / q01 =
    # 5/6 X - 5/9 Y^2 - 10/21 X Y, run as P(e^2 X, e Y) / e with e = 126,
    # while the answer is rational
    operands = []
    truediv = _Series.__truediv__

    def recording(self, other):
        operands.extend((self, other))
        return truediv(self, other)

    monkeypatch.setattr(_Series, "__truediv__", recording)
    terms = [
        (0, 1, Fraction(3, 5)), (1, 0, Fraction(-1, 2)),
        (0, 2, Fraction(1, 3)), (1, 1, Fraction(2, 7)),
    ]
    q = BiSeries.from_terms(Q, terms, 10, 10)
    f = furstenberg_solve(RootProblem(q), 10)
    assert len(operands) == 2
    assert all(type(c) is int for s in operands for c in s._c)
    assert f._c[:2] == [0, Fraction(5, 6)]
    assert q.subst_y(f).is_zero()


@pytest.mark.parametrize(
    "text, n",
    [
        ("1/3*X + 5/7*Y^2 + 1/11*X*Y", 9),
        ("1/2*X + X*Y - Y^2 + 3/4*X^2*Y^3", 8),
        ("-2/9*X + 5/6*Y^3 + X^2 + 7/10*X^3*Y^2", 7),
        ("1/2*X + Y^2 + 1/3*X^5*Y^2", 6),  # X^5 Y^2 lies beyond i + j <= n: e = 2
    ],
)
def test_char0_and_furstenberg_share_the_integral_unit(monkeypatch, text, n):
    # both methods divide by U = 1 - P'(ZY, Y) / Y for P' = P(e^2 X, e Y) / e,
    # e the lcm of the denominators of the terms with i + j <= n: lowered,
    # Y - P'(XY, Y) is Y * U on the box (n, n)
    p = lower_expression(parse_expression(text, Q), Q, n, n)
    divisors = []
    truediv = _Series.__truediv__

    def recording(self, other):
        divisors.append(other)
        return truediv(self, other)

    monkeypatch.setattr(_Series, "__truediv__", recording)
    oracle = linear_fixed_point(ImplicitProblem(p), n)
    for method in ("char0", "furstenberg"):
        assert solve_series(ImplicitProblem(p), n, method).solution == oracle
    unit, other = divisors
    assert other == unit and all(type(c) is int for c in unit._c)
    e = math.lcm(*(Fraction(c).denominator for i, j, c in p.nonzero_terms() if i + j <= n))
    assert e > 1
    sub = {"X": f"({e}^2*X*Y)", "Y": f"({e}*Y)"}
    frame = re.sub("[XY]", lambda m: sub[m.group()], text)
    shifted = lower_expression(parse_expression(f"Y - 1/{e}*({frame})", Q), Q, n, n)
    terms = [(i, j - 1, c) for i, j, c in shifted.nonzero_terms()]
    assert unit == BiSeries.from_terms(Q, terms, n, n - 1)


# ---------------------------------------------------------------- solve_series

def test_fixpoint_solve_substitutes_twice_per_newton_step(monkeypatch):
    # P and P_Y at orders 3, 7, 15 and 16, then the one residual check
    calls = []
    subst_y = BiSeries.subst_y

    def counting(self, f):
        calls.append(f.order)
        return subst_y(self, f)

    monkeypatch.setattr(BiSeries, "subst_y", counting)
    report = solve_series(catalan_problem(PrimeField(10007), 16), 16, "fixpoint")
    assert report.residual_zero
    assert [c.value for c in report.solution.coefficients()[1:]] == [
        catalan(n) % 10007 for n in range(1, 17)
    ]
    assert calls == [3, 3, 7, 7, 15, 15, 16, 16, 16]


def test_solve_series_catalan_all_methods():
    for method in SolveMethod:
        prob = catalan_problem(Q, 6)
        report = solve_series(prob, 6, method)
        assert report.solution._c == [0, 1, 1, 2, 5, 14, 42]
        assert report.residual_zero is True
        assert report.method is method
        if method is SolveMethod.THEOREM:
            assert report.m_terms_used == tuple(range(1, 12))
        else:
            assert report.m_terms_used == ()


def test_every_method_returns_integral_rationals_as_ints():
    # P = 2X + Y^2/2 over Q: integral coefficients come back as ints
    p = BiSeries.from_terms(Q, [(1, 0, 2), (0, 2, Fraction(1, 2))], 4, 7)
    reprs = {repr(solve_series(ImplicitProblem(p), 4, m).solution) for m in SolveMethod}
    assert reprs == {"UniSeries(q, [0, 2, 2, 4, 10])"}


def test_products_over_q_store_integral_rationals_as_ints():
    # Q's normalize lands integral Fraction results on ints, so products,
    # powers and everything built from them store what from_terms would
    def integral_fractions(series):
        return [c for c in series._c if isinstance(c, Fraction) and c.denominator == 1]

    half = Fraction(1, 2)
    a = BiSeries.from_terms(Q, [(0, 0, half), (1, 1, Fraction(3, 2))], 1, 1)
    b = BiSeries.from_terms(Q, [(0, 0, 2), (1, 0, 2)], 1, 1)
    assert repr(a * b) == repr(
        BiSeries.from_terms(Q, [(0, 0, 1), (1, 0, 1), (1, 1, 3)], 1, 1)
    )
    # (1/2 + X/2 + X^2/2 + X^3/2)^2 has X^3 coefficient 4 * 1/4
    halves = BiSeries.from_terms(Q, [(i, 0, half) for i in range(4)], 3, 1)
    assert halves.pow(2).coeff(3, 0) == 1
    p = BiSeries.from_terms(Q, [(1, 0, half), (1, 1, half), (0, 2, half)], 6, 6)
    f = solve_fixed_point(ImplicitProblem(p), 6)
    y = BiSeries.from_terms(Q, [(0, 1, 1)], 6, 6)
    root = furstenberg_solve(RootProblem(p - y), 6)
    assert root == f
    residual = taylor_residual(p, f)
    assert residual.is_zero()
    for series in (a * b, halves.pow(2), halves.column(0).pow(2), f, root, residual):
        assert not integral_fractions(series)


def test_solve_series_accepts_method_strings():
    prob = catalan_problem(Q, 4)
    assert solve_series(prob, 4, "fixpoint").solution._c == [0, 1, 1, 2, 5]
    with pytest.raises(ValueError):
        solve_series(prob, 4, "newton")


def test_solve_series_m_range_shrinks_when_powers_vanish():
    p = BiSeries.from_terms(Q, [(1, 0, 1)], 6, 11)  # P = X: f = X, P^m = X^m
    report = solve_series(ImplicitProblem(p), 6, SolveMethod.THEOREM)
    assert report.solution._c == [0, 1, 0, 0, 0, 0, 0]
    assert report.m_terms_used == tuple(range(1, 7))


def test_theorem_sweep_matches_newton_on_a_dense_p_over_a_wide_prime(monkeypatch):
    # a dense degree-6 P over GF(2^31 - 1) at n = 24: all but the last few
    # of the sweep's 46 products run in the Kronecker kernel on 9-byte
    # slots, read back in two 64-bit lanes, and from m = n on each packs
    # the corner its power fills
    field = PrimeField(2**31 - 1)
    rng = make_rng("sweep-dense-wide-prime")
    terms = [
        (i, j, rng.randrange(1, field.characteristic))
        for i in range(7)
        for j in range(7)
        if (i, j) not in ((0, 0), (0, 1))
    ]
    prob = ImplicitProblem(BiSeries.from_terms(field, terms, 24, 24))
    calls = []
    kernel = series._kron_mul
    monkeypatch.setattr(
        series, "_kron_mul", lambda *args: calls.append(args) or kernel(*args)
    )
    theorem = solve_series(prob, 24, "theorem")
    assert len(calls) >= 40
    assert theorem.solution == solve_series(prob, 24, "fixpoint").solution
    assert theorem.residual_zero and theorem.m_terms_used == tuple(range(1, 48))


@pytest.mark.parametrize("field", [Q, PrimeField(7)])
def test_theorem_sweep_with_many_terms_of_d_on_one_diagonal(field):
    # D's term from X^i Y^j reads the power's diagonal j: four terms share
    # the diagonal 2, and D's constant with two terms the diagonal 1, so each
    # band is read once per m and serves several terms of D
    text = "1/2*X + Y^2 + 2*X*Y^2 - 3/5*X^2*Y^2 + X^3*Y^2 + X*Y - 4*X^2*Y + Y^3"
    n = 12
    prob = ImplicitProblem(lower_expression(parse_expression(text, field), field, n, n))
    on_two = [t for t in _reaching_terms(prob.p, n) if t[1] == 2]
    assert len(on_two) == 4
    theorem = solve_series(prob, n, "theorem")
    assert theorem.residual_zero
    assert theorem.solution == solve_series(prob, n, "fixpoint").solution
    assert theorem.solution == linear_fixed_point(prob, n)


def test_theorem_sums_when_the_sweep_stops_early():
    # every term of P carries X, so Ph = P(ZY, Y) / Y carries Z and its
    # powers vanish on the box (n, n - 1) from m = n + 1 on: the sweep stops
    # at m = n, before 2n - 1, and its sums are still the oracle's
    rng = make_rng("sweep-stops-early")
    n = 8
    for field in FIELDS:
        for _ in range(3):
            terms = [(1, 0, random_nonzero_value(rng, field))] + [
                (rng.randint(1, 3), rng.randint(1, 4), random_value(rng, field))
                for _ in range(4)
            ]
            prob = ImplicitProblem(BiSeries.from_terms(field, terms, n, n))
            report = solve_series(prob, n, "theorem")
            assert report.m_terms_used == tuple(range(1, n + 1))
            assert theorem_sums(prob, n) == linear_fixed_point(prob, n)._c


def test_solve_series_zero_problem():
    for field in (Q, F2):
        prob = ImplicitProblem(BiSeries.zero(field, 5, 5))
        for method in SolveMethod:
            if method is SolveMethod.CHAR0 and field.characteristic:
                continue
            report = solve_series(prob, 5, method)
            assert report.solution == UniSeries.zero(field, 5)
            assert report.residual_zero


def test_solve_series_order_zero():
    prob = catalan_problem(Q, 3)
    for method in SolveMethod:
        report = solve_series(prob, 0, method)
        assert report.solution._c == [0]
        assert report.residual_zero
        assert report.m_terms_used == ()


def test_solve_series_takes_only_implicit_problems():
    # a root problem goes to furstenberg_solve directly
    q = BiSeries.from_terms(Q, [(0, 1, 1), (1, 0, -1), (0, 2, -1)], 6, 6)
    with pytest.raises(TypeError):
        solve_series(RootProblem(q), 6, SolveMethod.FURSTENBERG)
    with pytest.raises(TypeError):
        solve_series(q, 6, SolveMethod.THEOREM)


def test_solve_series_furstenberg_wraps_implicit_problems():
    # --method furstenberg on an implicit problem divides in P's own frame
    prob = catalan_problem(F2, 8)
    report = solve_series(prob, 8, SolveMethod.FURSTENBERG)
    assert report.solution._c == [0, 1, 1, 0, 1, 0, 0, 0, 1]
    assert report.residual_zero


def test_solve_series_furstenberg_builds_no_root_problem(monkeypatch):
    # P's terms go straight to the quotient, with no Q = P - Y in between
    def refuse(*args):
        raise AssertionError("solve_series built a RootProblem")

    monkeypatch.setattr(RootProblem, "__init__", refuse)
    for field in (Q, F2, PrimeField(10007)):
        report = solve_series(catalan_problem(field, 8), 8, SolveMethod.FURSTENBERG)
        assert report.solution == linear_fixed_point(catalan_problem(field, 8), 8)


def test_cross_method_agreement_randomized():
    rng = make_rng("cross-method")
    for field in FIELDS:
        for _ in range(5):
            p = random_implicit_poly(rng, field, 8, 8)
            prob = ImplicitProblem(p)
            reports = [
                solve_series(prob, 8, m)
                for m in (
                    SolveMethod.THEOREM,
                    SolveMethod.FIXED_POINT,
                    SolveMethod.FURSTENBERG,
                )
            ]
            if not field.characteristic:
                reports.append(solve_series(prob, 8, SolveMethod.CHAR0))
            baseline = reports[0].solution
            for r in reports[1:]:
                assert r.solution == baseline
            assert all(r.residual_zero for r in reports)
