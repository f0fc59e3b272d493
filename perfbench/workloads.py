"""Seeded request lists for the benchmark workloads, and their checks.

A workload is a list of requests that one client sends closed-loop: each
request starts only after the previous one returns.  ``build(name, pkg,
rng)`` makes the list from a seeded ``random.Random``; the same seed gives
the same requests.  Every request can

* ``run(pkg)``: make the timed call into the package;
* ``answer(out)``: turn the call's output into text, outside the timed region;
* ``expected(pkg)``: compute the text an independent route gives: another
  solve method, a closed form, or a formula the library does not use.

A request is correct when its answer equals its expected text.

The mixes are stratified, not sampled: the seed draws coefficients, the
order of the requests and the expression text, but how many requests of
each method and order a round holds is fixed.  That keeps the work in a
round close to equal across seeds, so runs with different seeds can be
compared.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from fractions import Fraction

WORKLOADS = ("dense-fp", "sparse-q", "cli-small")

# The solve method that answers a request independently of the method timed.
REFERENCE_METHOD = {
    "theorem": "fixpoint",
    "char0": "fixpoint",
    "fixpoint": "furstenberg",
    "furstenberg": "fixpoint",
}

CATALAN = "X + Y^2"


def _coeff_strings(series) -> list:
    return [str(c) for c in series.coefficients()]


def _power_text(i: int, j: int) -> str:
    """``X^i*Y^j`` for (i, j) != (0, 0)."""
    parts = []
    if i:
        parts.append("X" if i == 1 else f"X^{i}")
    if j:
        parts.append("Y" if j == 1 else f"Y^{j}")
    return "*".join(parts)


def perturb(text: str) -> str:
    """Change the last digit of an answer, which lies in its last coefficient."""
    for k in range(len(text) - 1, -1, -1):
        if text[k].isdigit():
            return text[:k] + str((int(text[k]) + 1) % 10) + text[k + 1:]
    return text + "0"


class SolveRequest:
    """``solve_series`` on a P lowered before the timed phase."""

    __slots__ = ("field", "text", "method", "order", "prob")

    def __init__(self, pkg, field, text: str, method: str, order: int):
        self.field = field
        self.text = text
        self.method = method
        self.order = order
        node = pkg.parse_expression(text, field)
        self.prob = pkg.ImplicitProblem(pkg.lower_expression(node, field, 6, 6))

    @property
    def label(self) -> str:
        return f"{self.method}@{self.order} {self.field.tag}"

    def run(self, pkg):
        return pkg.solve_series(self.prob, self.order, self.method)

    def answer(self, report) -> str:
        coeffs = " ".join(_coeff_strings(report.solution))
        return f"{coeffs} residual_zero={report.residual_zero}"

    def expected(self, pkg) -> str:
        if self.text == CATALAN and not self.field.characteristic:
            # f_n is the Catalan number C(n-1)
            coeffs = ["0"] + [
                str(math.comb(2 * k - 2, k - 1) // k) for k in range(1, self.order + 1)
            ]
        else:
            ref = pkg.solve_series(self.prob, self.order, REFERENCE_METHOD[self.method])
            coeffs = _coeff_strings(ref.solution)
        return f"{' '.join(coeffs)} residual_zero=True"


# dense-fp: a dense degree-6 P over GF(p) per request.  Each copy of the mix
# holds every method at small orders over every prime; the first copy adds
# the rare large orders, rotated over the primes so each method meets each
# of them once.  The costliest pairing (2^31-1 at order 128) is left out to
# keep rounds short: more rounds give each request more tries at a quiet
# moment of the host.
DENSE_PRIMES = (2, 10007, 2**31 - 1)
DENSE_ORDERS = {"theorem": (4, 8, 12, 16, 24), "fixpoint": (8, 16, 24, 32),
                "furstenberg": (8, 16, 24, 32)}
DENSE_RARE = (64, 96, 128)
DENSE_DEGREE = 6


def _dense_orders(k: int, rare: bool) -> list:
    orders = [(m, n) for m, ns in DENSE_ORDERS.items() for n in ns]
    if rare:
        orders += [("fixpoint", DENSE_RARE[(k + 2) % 3]), ("furstenberg", DENSE_RARE[(k + 1) % 3])]
    return orders


def _dense_text(rng, p: int) -> str:
    terms = []
    for i in range(DENSE_DEGREE + 1):
        for j in range(DENSE_DEGREE + 1):
            if (i, j) in ((0, 0), (0, 1)):
                continue
            c = rng.randrange(p)
            if c:
                terms.append(f"{c}*{_power_text(i, j)}")
    return " + ".join(terms) or "X"


def build_dense_fp(pkg, rng, copies: int = 3) -> list:
    requests = []
    for copy in range(copies):
        for k, p in enumerate(DENSE_PRIMES):
            field = pkg.PrimeField(p)
            for method, order in _dense_orders(k, rare=copy == 0):
                requests.append(
                    SolveRequest(pkg, field, _dense_text(rng, p), method, order)
                )
    rng.shuffle(requests)
    return requests


# sparse-q: P over Q with 2-4 low-degree terms.  The supports are fixed
# shapes used in turn and the seed draws their coefficients.  The X term
# gets a non-integral coefficient, so these requests run on Fraction
# arithmetic.  The rare large orders, one per method, go to two-term shapes
# with coefficients +-1 (the Catalan family), whose coefficients grow by a
# few bits per order and whose cost does not depend on the signs drawn: a
# rational P with more terms at such orders takes seconds and would
# outweigh, and make seed-dependent, the rest of the round.  Catalan X + Y^2
# itself is solved once per method and checked against the closed form.
SPARSE_SUPPORTS = (
    ((1, 0), (1, 1), (0, 2)),
    ((1, 0), (0, 2), (0, 3)),
    ((1, 0), (2, 0), (1, 2)),
    ((1, 0), (1, 1), (0, 2), (1, 2)),
    ((1, 0), (2, 1), (0, 2), (0, 3)),
    ((2, 0), (1, 1), (0, 2), (1, 3)),
)
SPARSE_RARE_SUPPORTS = (((1, 0), (0, 2)), ((1, 0), (0, 3)), ((2, 0), (0, 2)))
SPARSE_X_COEFFS = (Fraction(1, 2), Fraction(-1, 2), Fraction(3, 2), Fraction(-3, 2))
SPARSE_COEFFS = (1, -1, 2, -2)
SPARSE_RARE_COEFFS = (1, -1)
SPARSE_ORDERS = (4, 6, 8, 10, 12, 16, 20)
SPARSE_RARE = {"theorem": 64, "char0": 64, "fixpoint": 128, "furstenberg": 128}
SPARSE_CATALAN_ORDER = 48


def _sparse_text(rng, support, first, rest) -> str:
    coeffs = [rng.choice(first)] + [rng.choice(rest) for _ in support[1:]]
    return " + ".join(f"({c})*{_power_text(i, j)}" for c, (i, j) in zip(coeffs, support))


def build_sparse_q(pkg, rng, copies: int = 5) -> list:
    field = pkg.RationalField()
    requests = []
    for copy in range(copies):
        for k, method in enumerate(SPARSE_RARE):
            for n, order in enumerate(SPARSE_ORDERS):
                support = SPARSE_SUPPORTS[(copy + k + n) % len(SPARSE_SUPPORTS)]
                text = _sparse_text(rng, support, SPARSE_X_COEFFS, SPARSE_COEFFS)
                requests.append(SolveRequest(pkg, field, text, method, order))
    for k, (method, order) in enumerate(SPARSE_RARE.items()):
        support = SPARSE_RARE_SUPPORTS[k % len(SPARSE_RARE_SUPPORTS)]
        text = _sparse_text(rng, support, SPARSE_RARE_COEFFS, SPARSE_RARE_COEFFS)
        requests.append(SolveRequest(pkg, field, text, method, order))
        requests.append(SolveRequest(pkg, field, CATALAN, method, SPARSE_CATALAN_ORDER))
    rng.shuffle(requests)
    return requests


# cli-small: in-process CLI calls at orders of 12 or less.  Each round holds
# every subcommand over every field and order in fixed proportions; the
# seed draws the expression text.  The one rational literal is 1/2: with
# other numerators or mixed denominators a verify or factor at order 12
# grows its coefficients enough to cost ten times the typical call, and a
# few such calls would decide the round.
CLI_FIELDS = ("q", "fp:2", "fp:7", "fp:10007", "fp:2147483647")
CLI_COMMANDS = ("solve", "solve", "verify", "lagrange", "hasse", "factor", "diag", "diag")
CLI_ORDERS = (2, 3, 4, 5, 6, 8, 10, 12)


def _cli_literal(rng, spec: str) -> str:
    if spec == "q" and rng.random() < 0.4:
        return "1/2"
    return str(rng.randint(1, 9))


def _cli_poly(rng, spec: str) -> str:
    """P text with P(0, 0) = 0 and no lone Y term: every form carries X or Y^2."""
    forms = (
        lambda c: f"{c}*X^{rng.randint(1, 3)}*(1+Y)^{rng.randint(1, 3)}",
        lambda c: f"{c}*Y^2*(1-X)^{rng.randint(1, 3)}",
        lambda c: f"(X+Y)^2*(1+{c}*X)",
        lambda c: f"{c}*X*Y^{rng.randint(1, 3)}",
        lambda c: f"(X+{c}*Y^2)^{rng.randint(1, 3)}",
    )
    picks = [rng.choice(forms)(_cli_literal(rng, spec)) for _ in range(rng.randint(1, 3))]
    return " + ".join(picks)


def _cli_phi(rng, spec: str) -> str:
    """phi text in Y with phi(0) = 1."""
    c = _cli_literal(rng, spec)
    return rng.choice(
        (
            f"(1+{c}*Y)^{rng.randint(1, 4)}",
            f"1 + {c}*Y^{rng.randint(1, 3)}",
            f"(1+Y)^{rng.randint(1, 4)} - {c}*Y^{rng.randint(1, 3)}",
        )
    )


def _plain(pairs) -> str:
    return "".join(f"{k}: {v}\n" for k, v in pairs)


def _json(record: dict) -> str:
    return json.dumps(record) + "\n"


def _lower(pkg, field, text: str, nx: int, ny: int):
    return pkg.lower_expression(pkg.parse_expression(text, field), field, nx, ny)


def _solve(pkg, field, text: str, n: int, method: str):
    """Solution of f = P(X, f) for P given as text, on the CLI's solve box."""
    p = _lower(pkg, field, text, n, max(1, 2 * n - 1))
    return pkg.solve_series(pkg.ImplicitProblem(p), n, method).solution


class CliRequest:
    """One ``implicitseries.cli.main(argv)`` call with stdout captured."""

    __slots__ = ("command", "spec", "text", "order", "extra", "json", "argv")

    def __init__(self, command, spec, text, order, extra=(), as_json=False):
        self.command = command
        self.spec = spec
        self.text = text
        self.order = order
        self.extra = tuple(extra)
        self.json = as_json
        text_flag = "--phi" if command == "lagrange" else "--poly"
        self.argv = [command, "--field", spec, text_flag, text]
        if command != "hasse":
            self.argv += ["--order", str(order)]
        self.argv += list(extra)
        if as_json:
            self.argv += ["--output", "json"]

    @property
    def label(self) -> str:
        return " ".join(self.argv)

    def run(self, pkg):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = pkg.cli.main(self.argv)
        return code, out.getvalue(), err.getvalue()

    def answer(self, out) -> str:
        code, stdout, stderr = out
        return f"exit={code}\n{stderr}{stdout}"

    def expected(self, pkg) -> str:
        field = pkg.cli.make_field(self.spec)
        stdout = getattr(self, "_expect_" + self.command)(pkg, field)
        return f"exit=0\n{stdout}"

    def _expect_solve(self, pkg, field):
        method = self.extra[1]
        n = self.order
        coeffs = _coeff_strings(_solve(pkg, field, self.text, n, REFERENCE_METHOD[method]))
        if self.json:
            return _json(
                {"method": method, "field": self.spec, "order": n,
                 "coeffs": coeffs, "residual_zero": True}
            )
        return _plain(enumerate(coeffs))

    def _expect_verify(self, pkg, field):
        n = self.order
        coeffs = _coeff_strings(_solve(pkg, field, self.text, n, "fixpoint"))
        names = ["theorem", "fixpoint", "furstenberg"]
        if not field.characteristic:
            names.insert(1, "char0")
        if self.json:
            return _json(
                {"method": "verify", "field": self.spec, "order": n, "methods": names,
                 "agree": True, "residual_zero": True, "coeffs": coeffs}
            )
        head = f"methods: {' '.join(names)}\nagree: true\nresidual_zero: true\n"
        return head + _plain(enumerate(coeffs))

    def _expect_lagrange(self, pkg, field):
        # f = X * phi(f) is f = P(X, f) for P = X * phi(Y)
        n = self.order
        coeffs = _coeff_strings(_solve(pkg, field, f"X*({self.text})", n, "fixpoint"))
        if self.json:
            return _json(
                {"method": f"lagrange-{self.extra[1]}", "field": self.spec, "order": n,
                 "coeffs": coeffs, "residual_zero": True}
            )
        return _plain(enumerate(coeffs))

    def _expect_hasse(self, pkg, field):
        nx, ny = (int(v) for v in self.extra[1].split("x"))
        m = int(self.extra[3])
        p = _lower(pkg, field, self.text, nx, ny)
        grid = [
            [str(p.coeff(i, j + m) * math.comb(j + m, m)) for j in range(ny - m + 1)]
            for i in range(nx + 1)
        ]
        if self.json:
            return _json(
                {"method": "hasse", "field": self.spec, "order": [nx, ny - m],
                 "coeffs": grid}
            )
        return _plain(
            (f"{i},{j}", c) for i, row in enumerate(grid) for j, c in enumerate(row)
        )

    def _expect_factor(self, pkg, field):
        # The root of Q is the f with f = P(X, f) for P = Y - Q.  The cofactor
        # is R = sum_k Y^k sum_{j > k} q_j f^(j-1-k), from
        # Q(X, Y) - Q(X, f) = sum_j q_j (Y^j - f^j).
        n = self.order
        ny = max(n, 1)
        f = _solve(pkg, field, f"Y - ({self.text})", n, "fixpoint")
        q = _lower(pkg, field, self.text, n, ny)
        cols = [q.column(j) for j in range(ny + 1)]
        r = []
        for k in range(ny):
            acc = pkg.UniSeries.zero(field, n)
            for j in range(k + 1, ny + 1):
                acc = acc + cols[j] * f.pow(j - 1 - k)
            r.append(_coeff_strings(acc))
        fs = _coeff_strings(f)
        rs = [[r[j][i] for j in range(ny)] for i in range(n + 1)]
        if self.json:
            return _json(
                {"method": "factor", "field": self.spec, "order": n, "f": fs, "r": rs}
            )
        return _plain((f"f {k}", c) for k, c in enumerate(fs)) + _plain(
            (f"R {i},{j}", c) for i, row in enumerate(rs) for j, c in enumerate(row)
        )

    def _expect_diag(self, pkg, field):
        n = self.order
        p = _lower(pkg, field, self.text, n, n)
        coeffs = [str(p.coeff(k, k)) for k in range(n + 1)]
        if self.json:
            return _json(
                {"method": "diag", "field": self.spec, "order": n, "coeffs": coeffs}
            )
        return _plain(enumerate(coeffs))


def _cli_request(rng, command: str, spec: str, order: int) -> CliRequest:
    as_json = rng.random() < 0.3
    if command == "solve":
        methods = ["theorem", "fixpoint", "furstenberg"] + (["char0"] if spec == "q" else [])
        extra = ("--method", rng.choice(methods))
        return CliRequest(command, spec, _cli_poly(rng, spec), order, extra, as_json)
    if command == "lagrange":
        variant = "char0" if spec == "q" and rng.random() < 0.5 else "general"
        return CliRequest(command, spec, _cli_phi(rng, spec), order, ("--variant", variant), as_json)
    if command == "hasse":
        nx, ny = rng.randint(0, 6), rng.randint(1, 12)
        extra = ("--box", f"{nx}x{ny}", "--m", str(rng.randint(0, ny)))
        return CliRequest(command, spec, _cli_poly(rng, spec), 0, extra, as_json)
    if command == "diag":
        text = rng.choice((_cli_poly(rng, spec), f"(1+X*Y)^{rng.randint(1, 6)}"))
        return CliRequest(command, spec, text, order, (), as_json)
    if command == "factor":
        # Q = Y - P has the unit 1 as its Y coefficient at X = 0
        text = f"Y - ({_cli_poly(rng, spec)})"
        return CliRequest(command, spec, text, order, (), as_json)
    return CliRequest(command, spec, _cli_poly(rng, spec), order, (), as_json)


def build_cli_small(pkg, rng, copies: int = 12) -> list:
    requests = []
    for copy in range(copies):
        for k, command in enumerate(CLI_COMMANDS):
            for f, spec in enumerate(CLI_FIELDS):
                order = CLI_ORDERS[(copy + k + f) % len(CLI_ORDERS)]
                requests.append(_cli_request(rng, command, spec, order))
    rng.shuffle(requests)
    return requests


MIXES = {
    "dense-fp": build_dense_fp,
    "sparse-q": build_sparse_q,
    "cli-small": build_cli_small,
}


def build(name: str, pkg, rng, copies=None) -> list:
    """The seeded request list of workload ``name``; ``copies`` scales it."""
    make = MIXES[name]
    return make(pkg, rng) if copies is None else make(pkg, rng, copies)
