"""A golden corpus of CLI invocations, pinned by one sha256 digest.

A seeded generator builds 1200 in-process invocations of ``main``: all
six subcommands over q, fp:2, fp:7, fp:10007 and fp:2147483647, in
plain and json output, with valid input as well as syntax, literal and
validation errors.  Every invocation reaches a subcommand; ``--help``
and argparse errors are left out because their texts differ between
Python versions.  The digest covers argv, exit code, stdout and stderr
of every call, so any change to what the CLI prints shows up here.

When a change alters CLI output on purpose, regenerate the digest with
``python tests/test_cli_golden.py`` and say why in the change notes.
"""

import hashlib
import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout

from implicitseries.cli import main

FIELDS = ("q", "fp:2", "fp:7", "fp:10007", "fp:2147483647")
CALLS = 1200
DIGEST = "c47ac3c14ca16a9c83059e724f040a598d9821fe9e3d016d9be3d656ff78fd0d"

# inputs that fail in the parser (exit 2) or in a field or problem check
# (exit 1); "{}" is replaced by a generated expression
_BROKEN = (
    "{} +* Y", "({}", "{} $", "X^-1 + {}", "{} ^", "{}é", "{}　#",
    "1/0 + {}", "{} + 1/2", "{} - 1/7", "x + {}", "{})",
)


def _literal(rng):
    roll = rng.random()
    if roll < 0.15:
        return "0"
    if roll < 0.35:
        num, den = rng.randint(0, 12), rng.choice((3, 5, 9, 11))
        return f"{num}/{den}"
    if roll < 0.4:
        return str(rng.randint(10**9, 10**12))
    return str(rng.randint(1, 9))


def _monomial(rng, x_max=3, y_max=4):
    parts = []
    if rng.random() < 0.6:
        parts.append(_literal(rng))
    for var, top in (("X", x_max), ("Y", y_max)):
        power = rng.randint(0, top)
        if power or rng.random() < 0.1:
            parts.append(var if power == 1 else f"{var}^{power}")
    return "*".join(parts) or _literal(rng)


def _expr(rng, depth=0):
    """A random expression in X and Y: sums, products, powers, minus
    chains, parentheses, spacing, and powers of zero."""
    terms = []
    for _ in range(rng.randint(1, 4)):
        roll = rng.random()
        if roll < 0.55 or depth >= 2:
            term = _monomial(rng)
        elif roll < 0.75:
            term = f"({_expr(rng, depth + 1)})^{rng.randint(0, 4)}"
        elif roll < 0.85:
            term = f"{_monomial(rng)}*({_expr(rng, depth + 1)})"
        elif roll < 0.92:
            term = rng.choice(("0^0", "X^0", "0^3", "Y^0*X", "X^2^2", "(X+Y)^0"))
        else:
            term = "-" * rng.randint(1, 3) + _monomial(rng)
        terms.append(term)
    text = terms[0]
    for term in terms[1:]:
        text += rng.choice((" + ", "+", " - ", "-")) + term
    return text


def _implicit_poly(rng):
    """Mostly a valid P (no constant, no linear Y term); sometimes not."""
    roll = rng.random()
    if roll < 0.1:
        return _expr(rng)
    terms = ["X" if rng.random() < 0.7 else f"{_literal(rng)}*X"]
    for _ in range(rng.randint(0, 3)):
        j = rng.randint(2, 4)
        i = rng.randint(0, 2)
        terms.append(f"{_literal(rng)}*X^{i}*Y^{j}")
    if rng.random() < 0.3:
        terms.append(f"X*({_expr(rng, 1)})")
    return " + ".join(terms)


def _root_poly(rng):
    """Mostly Q with Q(0,0) = 0 and an invertible linear Y coefficient."""
    if rng.random() < 0.1:
        return _expr(rng)
    return f"{rng.choice(('Y', '2*Y', '-Y'))} - ({_implicit_poly(rng)})"


def _phi(rng):
    if rng.random() < 0.08:
        return _expr(rng)  # X usually appears: exit 1
    terms = [_literal(rng) if rng.random() < 0.3 else "1"]
    for _ in range(rng.randint(0, 3)):
        terms.append(f"{_literal(rng)}*Y^{rng.randint(1, 4)}")
    text = " + ".join(terms)
    return f"({text})^{rng.randint(1, 3)}" if rng.random() < 0.3 else text


def _maybe_broken(rng, text):
    if rng.random() < 0.12:
        return rng.choice(_BROKEN).replace("{}", text)
    return text


def _text_option(rng, name, text):
    # an expression starting with "-" must be glued to its option, or
    # argparse would read it as an option of its own
    if text.startswith("-") or rng.random() < 0.2:
        return [f"{name}={text}"]
    return [name, text]


def corpus():
    rng = random.Random("implicitseries:cli-golden")
    calls = []
    for k in range(CALLS):
        command = ("solve", "lagrange", "hasse", "factor", "verify", "diag")[k % 6]
        field = FIELDS[(k // 6) % len(FIELDS)]
        order = ["--order", str(rng.randint(0, 8))]
        if command == "solve":
            method = rng.choice(("theorem", "char0", "fixpoint", "furstenberg"))
            poly = _maybe_broken(rng, _implicit_poly(rng))
            args = [*_text_option(rng, "--poly", poly), *order, "--method", method]
        elif command == "lagrange":
            variant = rng.choice(("general", "char0"))
            phi = _maybe_broken(rng, _phi(rng))
            args = [*_text_option(rng, "--phi", phi), *order, "--variant", variant]
        elif command == "hasse":
            nx, ny = rng.randint(0, 4), rng.randint(0, 6)
            box = rng.choice((f"{nx}x{ny}", f"{nx},{ny}"))
            poly = _maybe_broken(rng, _expr(rng))
            args = [*_text_option(rng, "--poly", poly), "--box", box,
                    "--m", str(rng.randint(0, ny + 1))]
        else:
            make = {"factor": _root_poly, "verify": _implicit_poly, "diag": _expr}
            poly = _maybe_broken(rng, make[command](rng))
            args = [*_text_option(rng, "--poly", poly), *order]
        output = ["--output", "json"] if rng.random() < 0.5 else []
        calls.append([command, "--field", field, *args, *output])
    return calls


def corpus_digest(calls) -> str:
    digest = hashlib.sha256()
    for argv in calls:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
        record = [argv, code, out.getvalue(), err.getvalue()]
        digest.update(json.dumps(record).encode("utf-8") + b"\n")
    return digest.hexdigest()


def test_corpus_reaches_every_subcommand_and_field():
    calls = corpus()
    assert len(calls) == CALLS
    assert {argv[0] for argv in calls} == {
        "solve", "lagrange", "hasse", "factor", "verify", "diag"
    }
    assert {argv[2] for argv in calls} == set(FIELDS)
    assert any("json" in argv for argv in calls)
    assert any("json" not in argv for argv in calls)


def test_cli_output_matches_recorded_digest():
    assert corpus_digest(corpus()) == DIGEST


if __name__ == "__main__":
    print(corpus_digest(corpus()))
