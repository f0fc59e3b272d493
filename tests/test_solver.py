"""Solver methods: validation, the four routes to f, and their identities."""

import itertools
import math
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
from implicitseries.series import _Series
from implicitseries.solver import _extraction_vectors

from conftest import (
    FIELDS,
    embed_x,
    linear_fixed_point,
    make_rng,
    random_biseries,
    random_implicit_poly,
    random_nonzero_value,
    random_root_poly,
    random_uniseries,
    random_value,
    tail_term_count,
)

Q = RationalField()
F2 = PrimeField(2)


def catalan(n: int) -> int:
    """C_{n-1} for n >= 1: the reference count for f = X + f^2."""
    return math.comb(2 * n - 2, n - 1) // n


def catalan_problem(field, n_max: int) -> ImplicitProblem:
    p = BiSeries.from_terms(
        field, [(1, 0, 1), (0, 2, 1)], n_max, max(1, 2 * n_max - 1)
    )
    return ImplicitProblem(p)


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
    p = BiSeries.from_terms(Q, [(1, 0, 1), (0, 2, 1)], 4, 5)
    prob = ImplicitProblem(p, is_polynomial=False)
    for method in ("theorem", "char0"):
        with pytest.raises(InsufficientTruncationError):
            solve_series(prob, 4, method)  # needs y_order 7
    # furstenberg needs the box (4, 4)
    narrow = ImplicitProblem(
        BiSeries.from_terms(Q, [(1, 0, 1), (0, 2, 1)], 4, 3), is_polynomial=False
    )
    with pytest.raises(InsufficientTruncationError):
        solve_series(narrow, 4, "furstenberg")
    assert solve_series(prob, 4, "furstenberg").solution.coeff(4) == 5
    wide = ImplicitProblem(
        BiSeries.from_terms(Q, [(1, 0, 1), (0, 2, 1)], 4, 7), is_polynomial=False
    )
    assert solve_series(wide, 4, "theorem").solution.coeff(4) == 5


def test_extraction_whole_vector_matches_oracle():
    rng = make_rng("extraction-vs-oracle")
    for field in FIELDS:
        for _ in range(10):
            p = random_implicit_poly(rng, field, 8, 8)
            prob = ImplicitProblem(p)
            oracle = linear_fixed_point(prob, 8)
            plain, _ = _extraction_vectors(prob, 8)
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
                if char0 and field.characteristic:
                    continue
                plain, _ = _extraction_vectors(prob, 6, char_zero_form=char0)
                assert plain == oracle, (field.tag, char0, prob.p)


def _fractional_problems():
    """(P, n, lcm of the denominators on the working box) over Q."""
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
        # the Fraction lies beyond the working box in X, so it is left out
        ([(1, 0, 1), (0, 2, 1), (7, 0, f(1, 2))], 6, 11, 1),
    ]
    for terms, n, ny, den in cases:
        yield BiSeries.from_terms(Q, terms, max(n, 7), ny), n, den
    # truncated input, known exactly on the box the sweep needs
    p = BiSeries.from_terms(Q, [(1, 0, f(3, 5)), (0, 2, f(1, 4)), (2, 3, f(-1, 6))], 5, 9)
    yield p, 5, 60


def test_extraction_over_q_with_a_common_denominator():
    # over Q the sweep runs on den * P in integers, den the lcm of the
    # denominators on the working box, and divides term m by den^(m+1)
    # (theorem) or m * den^m (char0): the answers are the oracle's, payload
    # for payload, and the terms past m_top are still zero
    for polynomial in (True, False):
        for p, n, den in _fractional_problems():
            work = p.resized(n, 2 * n + 3)._c
            assert math.lcm(*(Fraction(c).denominator for c in work)) == den
            prob = ImplicitProblem(p, is_polynomial=polynomial)
            oracle = linear_fixed_point(prob, n)
            for char0 in (False, True):
                plain, _ = _extraction_vectors(prob, n, char_zero_form=char0)
                assert repr(plain) == repr(oracle._c), (p, char0)
                assert tail_term_count(prob, n, char0) == 0, (p, char0)
                method = "char0" if char0 else "theorem"
                report = solve_series(prob, n, method)
                assert report.solution == oracle and report.residual_zero


def test_extraction_over_q_multiplies_only_ints(monkeypatch):
    # with P scaled by its common denominator, no product the sweep makes
    # holds a Fraction, so none pays a gcd per cell
    operands = []
    mul = BiSeries.__mul__

    def recording(self, other):
        operands.extend((self._c, other._c))
        return mul(self, other)

    monkeypatch.setattr(BiSeries, "__mul__", recording)
    for p, n, den in _fractional_problems():
        for method in ("theorem", "char0"):
            operands.clear()
            report = solve_series(ImplicitProblem(p), n, method)
            assert report.residual_zero
            assert operands
            assert not any(type(c) is Fraction for c in itertools.chain(*operands))


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
    # than needed; its root is the fixed point of P.  Over Q, P has
    # coprime denominators, so the quotient runs on e * Q(c0 X, c0 Y) with
    # e > 1 and c0 = e * q01, which is not +-1
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
    # over Q the one quotient sees integers only: e * Q(c0 X, c0 Y) with
    # e = 210 and c0 = e * 3/5 = 126, while the answer is rational
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
        if method in (SolveMethod.THEOREM, SolveMethod.CHAR0):
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
    # --method furstenberg on an implicit problem converts P to Q = P - Y
    prob = catalan_problem(F2, 8)
    report = solve_series(prob, 8, SolveMethod.FURSTENBERG)
    assert report.solution._c == [0, 1, 1, 0, 1, 0, 0, 0, 1]
    assert report.residual_zero


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
