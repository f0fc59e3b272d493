"""Spans around the package's public functions, recorded from outside it.

``Tracer.install`` replaces each traced function or method by a wrapper,
by attribute assignment on the already imported package; ``uninstall``
puts the originals back.  The package's files are not touched.

Every call of a wrapper records one span: its name, start, end and the
span that was open when it began (its parent).  Spans are kept in memory
in flat arrays.  A span's self time is its duration minus the durations of
its children.  Counts that need a look at the operands (support sizes,
coefficient sizes) are taken after the call returns, inside a
``trace.count`` span of their own, so their cost is not charged to the
traced function or to its caller.
"""

from __future__ import annotations

from array import array
from fractions import Fraction
from itertools import accumulate
from time import perf_counter

SOLVE_METHODS = ("theorem", "char0", "fixpoint", "furstenberg")

# Public functions: defining module, name, span name, counting method.
# Other modules bind them by name too, so every module attribute holding
# one is replaced.
FUNCTIONS = (
    ("cli", "main", "cli.main", None),
    ("expressions", "parse_expression", "expressions.parse_expression", None),
    ("expressions", "lower_expression", "expressions.lower_expression", None),
    ("solver", "solve_series", None, "_count_solve"),  # span solver.<method>
)

# Methods, patched on their class: class, name, span name, counting method.
METHODS = (
    ("UniSeries", "__mul__", "series.unimul", "_count_unimul"),
    ("UniSeries", "is_zero", "series.is_zero", None),
    ("BiSeries", "__mul__", "series.bimul", "_count_bimul"),
    ("BiSeries", "subst_y", "series.subst_y", None),
    ("BiSeries", "reciprocal", "series.reciprocal", "_count_reciprocal"),
    ("BiSeries", "pow", "series.bipow", None),
    ("BiSeries", "nonzero_terms", "series.nonzero_terms", None),
    ("BiSeries", "is_zero", "series.is_zero", None),
)

LAYERS = ("series", "solver", "expressions", "cli")


class Tracer:
    """Records spans and counts while installed on a package."""

    def __init__(self, pkg):
        self.pkg = pkg
        self.names: list = []
        self._ids: dict = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: dict = {}
        self._patched: list = []
        self._nonzero_terms = pkg.BiSeries.nonzero_terms
        self._count_id = self._id("trace.count")

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _add(self, key: str, value) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def _open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def _wrap(self, fn, name, counter_name):
        counter = getattr(self, counter_name) if counter_name else None
        fixed = None if name is None else self._id(name)
        if fixed is None:
            method_ids = {m: self._id(f"solver.{m}") for m in SOLVE_METHODS}
        tracer = self

        def traced(*args, **kwargs):
            if fixed is None:
                method = args[2] if len(args) > 2 else kwargs["method"]
                nid = method_ids[getattr(method, "value", method)]
            else:
                nid = fixed
            idx = tracer._open(nid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                tracer._stack.pop()
                tracer.start[idx] = t0
                tracer.end[idx] = t1
            if counter is not None:
                cidx = tracer._open(tracer._count_id)
                c0 = perf_counter()
                try:
                    counter(args, result)
                finally:
                    tracer._stack.pop()
                    tracer.start[cidx] = c0
                    tracer.end[cidx] = perf_counter()
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        pkg = self.pkg
        modules = (pkg, pkg.cli, pkg.solver, pkg.expressions)
        for home, attr, name, counter in FUNCTIONS:
            original = getattr(getattr(pkg, home), attr)
            wrapper = self._wrap(original, name, counter)
            for module in modules:
                if getattr(module, attr, None) is original:
                    self._patched.append((module, attr, original))
                    setattr(module, attr, wrapper)
        for cls_name, attr, name, counter in METHODS:
            cls = getattr(pkg, cls_name)
            original = cls.__dict__[attr]
            self._patched.append((cls, attr, original))
            setattr(cls, attr, self._wrap(original, name, counter))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- counts, taken after the traced call returns ------------------------

    def _count_unimul(self, args, result) -> None:
        self._add("series.unimul.cells", result.order + 1)

    def _count_reciprocal(self, args, result) -> None:
        self._add("series.reciprocal.cells", (result.x_order + 1) * (result.y_order + 1))

    def _count_bimul(self, args, result) -> None:
        a, b = args
        nx, ny = result.x_order, result.y_order
        a_terms = self._nonzero_terms(a)
        b_terms = self._nonzero_terms(b)
        cells = (nx + 1) * (ny + 1)
        pairs = len(a_terms) * len(b_terms)
        if pairs <= cells:
            in_box = sum(
                1 for i, j, _ in a_terms for k, l, _ in b_terms if i + k <= nx and j + l <= ny
            )
        else:
            # below[x][y]: terms of b with i <= x and j <= y
            grid = [[0] * (ny + 1) for _ in range(nx + 1)]
            for i, j, _ in b_terms:
                grid[i][j] += 1
            below, prev = [], [0] * (ny + 1)
            for row in grid:
                prev = [p + r for p, r in zip(prev, accumulate(row))]
                below.append(prev)
            in_box = sum(below[nx - i][ny - j] for i, j, _ in a_terms)
        self._add("series.bimul.cells", cells)
        self._add("series.bimul.pairs", pairs)
        self._add("series.bimul.in_box", in_box)

    def _count_solve(self, args, report) -> None:
        values = [c.value for c in report.solution.coefficients()]
        bits = 0
        for v in values:
            if isinstance(v, Fraction):
                bits = max(bits, abs(v.numerator).bit_length(), v.denominator.bit_length())
                self._add("fields.fractions", 1)
            else:
                bits = max(bits, abs(v).bit_length())
        self.counts["fields.max_coeff_bits"] = max(
            self.counts.get("fields.max_coeff_bits", 0), bits
        )
        self._add("fields.coeffs", len(values))
        n = report.solution.order
        if report.method.value == "theorem" and n >= 1:
            self._add("solver.theorem.m_used", len(report.m_terms_used) / (2 * n - 1))
            self._add("solver.theorem.m_used_calls", 1)

    # -- aggregation ---------------------------------------------------------

    def summary(self, rounds: int, traced_seconds: float) -> dict:
        """Per-layer metrics, per traced round, from the recorded spans."""
        n_names = len(self.names)
        calls, busy, own = [0] * n_names, [0.0] * n_names, [0.0] * n_names
        dur = [e - s for s, e in zip(self.start, self.end)]
        self_time = list(dur)
        for idx, par in enumerate(self.parent):
            if par >= 0:
                self_time[par] -= dur[idx]
        for idx, nid in enumerate(self.name):
            calls[nid] += 1
            busy[nid] += dur[idx]
            own[nid] += self_time[idx]

        def stat(values, name):
            nid = self._ids.get(name)
            return 0.0 if nid is None else values[nid]

        # subst_y calls made inside a fixpoint solve: its passes, plus the
        # residual check
        solver_ids = {self._ids[f"solver.{m}"] for m in SOLVE_METHODS}
        fixpoint, subst = self._ids["solver.fixpoint"], self._ids.get("series.subst_y")
        passes = 0
        for idx, nid in enumerate(self.name):
            if nid == subst:
                p = self.parent[idx]
                while p >= 0 and self.name[p] not in solver_ids:
                    p = self.parent[p]
                passes += p >= 0 and self.name[p] == fixpoint

        per = max(rounds, 1)
        c = self.counts
        out = {}
        for name in ("series.bimul", "series.unimul", "series.subst_y", "series.reciprocal"):
            out[f"{name}.calls"] = stat(calls, name) / per
            out[f"{name}.self_s"] = stat(own, name) / per
        for name in (
            "series.nonzero_terms", "series.is_zero", "series.bipow",
            "expressions.parse_expression", "expressions.lower_expression", "cli.main",
        ):
            out[f"{name}.self_s"] = stat(own, name) / per
        for key in ("series.bimul.cells", "series.bimul.pairs", "series.unimul.cells",
                    "series.reciprocal.cells"):
            out[key] = c.get(key, 0) / per
        out["series.bimul.in_box_ratio"] = _ratio(
            c.get("series.bimul.in_box", 0), c.get("series.bimul.pairs", 0)
        )
        for m in SOLVE_METHODS:
            name = f"solver.{m}"
            out[f"{name}.calls"] = stat(calls, name) / per
            out[f"{name}.busy_s"] = stat(busy, name) / per
            out[f"{name}.self_s"] = stat(own, name) / per
        out["solver.theorem.m_used_ratio"] = _ratio(
            c.get("solver.theorem.m_used", 0), c.get("solver.theorem.m_used_calls", 0)
        )
        out["solver.fixpoint.passes"] = _ratio(passes, stat(calls, "solver.fixpoint"))
        out["fields.max_coeff_bits"] = float(c.get("fields.max_coeff_bits", 0))
        out["fields.fraction_share"] = _ratio(c.get("fields.fractions", 0), c.get("fields.coeffs", 0))
        for layer in LAYERS + ("trace",):
            layer_self = sum(t for t, n in zip(own, self.names) if n.split(".")[0] == layer)
            out[f"share.{layer}"] = _ratio(layer_self, traced_seconds)
        return out


def _ratio(num, den) -> float:
    return num / den if den else 0.0
