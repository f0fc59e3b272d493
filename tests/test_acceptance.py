"""Acceptance gate: one test per shipping criterion, exact arithmetic throughout.

Each test prints a single ``acceptance <name>: pass|fail (<elapsed>s)`` line
on the live terminal (bypassing capture) so the gate's verdict is visible in
any pytest run.  Expected runtimes are printed for inspection, not asserted;
all value comparisons are exact.
"""

import json
import math
import time
from contextlib import contextmanager

from implicitseries import (
    BiSeries,
    ImplicitProblem,
    PrimeField,
    RationalField,
    RootProblem,
    SolveMethod,
    UniSeries,
    factor_out_root,
    furstenberg_solve,
    solve_fixed_point,
    solve_series,
    taylor_residual,
)
from implicitseries.cli import main as cli_main
from implicitseries.solver import _extraction_vectors

from conftest import (
    FIELDS,
    embed_x,
    lagrange_oracle,
    make_rng,
    random_biseries,
    random_implicit_poly,
    random_nonzero_value,
    random_root_poly,
    random_uniseries,
    tail_term_count,
)

Q = RationalField()
F2 = PrimeField(2)


@contextmanager
def criterion(capsys, name):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - start
        with capsys.disabled():
            print(f"acceptance {name}: fail ({elapsed:.2f}s)")
        raise
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        print(f"acceptance {name}: pass ({elapsed:.2f}s)")


def catalan_problem(field, n_max):
    p = BiSeries.from_terms(
        field, [(1, 0, 1), (0, 2, 1)], n_max, max(1, 2 * n_max - 1)
    )
    return ImplicitProblem(p)


# ---------------------------------------------------------------------------
# Shared fuzz sweep: criterion 3 consumes the main sums, criterion 7 counts
# the nonzero terms just past the sweep's truncation bound (four more m), so
# both come out of one pass over the same instances.

_FUZZ = {}


def cross_method_fuzz():
    if _FUZZ:
        return _FUZZ
    rng = make_rng("acceptance-cross-method")
    n_max = 12
    mismatches = []
    nonzero_tail_entries = 0
    instances = 0
    per_field = 100
    for field in FIELDS:
        for _ in range(per_field):
            p = random_implicit_poly(
                rng, field, 4, 4, max_degree=4, n_terms=rng.randint(2, 7)
            )
            prob = ImplicitProblem(p)
            nonzero_tail_entries += tail_term_count(prob, n_max)
            vectors = {
                "theorem": _extraction_vectors(prob, n_max)[0],
                "fixpoint": solve_fixed_point(prob, n_max)._c,
                "furstenberg": solve_series(
                    prob, n_max, SolveMethod.FURSTENBERG
                ).solution._c,
            }
            if not field.characteristic:
                vectors["char0"] = _extraction_vectors(
                    prob, n_max, char_zero_form=True
                )[0]
            baseline = vectors["theorem"]
            for label, vec in vectors.items():
                if vec != baseline:
                    mismatches.append((field.tag, label, p))
            instances += 1
    _FUZZ.update(
        instances=instances,
        mismatches=mismatches,
        nonzero_tail_entries=nonzero_tail_entries,
    )
    return _FUZZ


# ------------------------------------------------------------------ criteria

def test_01_catalan_reproduction(capsys):
    with criterion(capsys, "catalan-reproduction"):
        reference = [0] + [math.comb(2 * n - 2, n - 1) // n for n in range(1, 21)]
        assert reference[20] == 1_767_263_190
        for method in SolveMethod:
            report = solve_series(catalan_problem(Q, 20), 20, method)
            assert report.solution._c == reference, method
            assert report.residual_zero


def test_02_positive_characteristic(capsys):
    with criterion(capsys, "positive-characteristic"):
        expected = [1 if n and n & (n - 1) == 0 else 0 for n in range(65)]
        for method in (
            SolveMethod.THEOREM,
            SolveMethod.FIXED_POINT,
            SolveMethod.FURSTENBERG,
        ):
            report = solve_series(catalan_problem(F2, 64), 64, method)
            assert report.solution._c == expected, method
            assert report.residual_zero


def test_03_cross_method_fuzz(capsys):
    with criterion(capsys, "cross-method-fuzz"):
        fuzz = cross_method_fuzz()
        assert fuzz["instances"] == 600
        assert fuzz["mismatches"] == []


def test_04_taylor_identity(capsys):
    with criterion(capsys, "taylor-identity"):
        rng = make_rng("acceptance-taylor")
        for field in FIELDS:
            for _ in range(50):
                p = random_biseries(rng, field, 8, 8)
                f = random_uniseries(rng, field, 8, zero_constant=True)
                assert taylor_residual(p, f).is_zero(), (field.tag, p, f)


def test_05_factorization(capsys):
    with criterion(capsys, "factorization"):
        rng = make_rng("acceptance-factorization")
        for field in FIELDS:
            for _ in range(50):
                q = random_root_poly(rng, field, 8, 8)
                rp = RootProblem(q)
                f = furstenberg_solve(rp, 8)
                r = factor_out_root(rp, f)
                y = BiSeries.from_terms(field, [(0, 1, 1)], 8, 7)
                y_minus_f = y - embed_x(f, 7)
                assert (y_minus_f.resized(8, 8) * r.resized(8, 8)) == q, (
                    field.tag,
                    q,
                )
        # worked identity: Q = Y - X - Y^2 factors with cofactor 1 - f - Y
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


def test_06_lagrange_consistency(capsys):
    with criterion(capsys, "lagrange-consistency"):
        rng = make_rng("acceptance-lagrange")
        for field in FIELDS:
            for _ in range(50):
                phi = random_uniseries(rng, field, 9)
                if not phi._c[0]:
                    phi = phi + UniSeries(
                        field, [random_nonzero_value(rng, field)] + [0] * 9
                    )
                p = BiSeries.from_terms(
                    field, [(1, j, c) for j, c in enumerate(phi._c)], 10, 19
                )
                prob = ImplicitProblem(p)
                sums, _ = _extraction_vectors(prob, 10)
                for n in range(1, 11):
                    general = lagrange_oracle(phi, n)
                    assert general == sums[n], (field.tag, n, phi)
                    if not field.characteristic:
                        char0 = lagrange_oracle(phi, n, "char0")
                        assert char0 == general, (field.tag, n, phi)


def test_07_finiteness_bound(capsys):
    with criterion(capsys, "finiteness-bound"):
        fuzz = cross_method_fuzz()
        assert fuzz["instances"] == 600
        assert fuzz["nonzero_tail_entries"] == 0


def test_08_multinomial_collapse(capsys):
    with criterion(capsys, "multinomial-collapse"):
        for j in range(13):
            for k in range(j + 1):
                total = sum(
                    (-1) ** (m - k)
                    * math.factorial(j)
                    // (
                        math.factorial(j - m)
                        * math.factorial(m - k)
                        * math.factorial(k)
                    )
                    for m in range(k, j + 1)
                )
                assert total == (1 if j == k else 0), (j, k)


def test_09_cli_determinism(capsys):
    with criterion(capsys, "cli-determinism"):
        examples = [
            [
                "solve", "--field", "q", "--poly", "X + Y^2",
                "--order", "6", "--method", "theorem",
            ],
            [
                "solve", "--field", "fp:2", "--poly", "X + Y^2",
                "--order", "8", "--method", "fixpoint",
            ],
            [
                "lagrange", "--field", "q", "--phi", "(1+Y)^2",
                "--order", "3", "--variant", "char0",
            ],
        ]
        for argv in examples:
            runs = []
            for _ in range(2):
                code = cli_main(list(argv))
                captured = capsys.readouterr()
                runs.append((code, captured.out, captured.err))
            assert runs[0] == runs[1], argv
            assert runs[0][0] == 0

        code = cli_main(["solve", "--field", "q", "--poly", "Y", "--order", "3"])
        capsys.readouterr()
        assert code == 1
        code = cli_main(
            ["solve", "--field", "q", "--poly", "X +* Y", "--order", "3"]
        )
        capsys.readouterr()
        assert code == 2
