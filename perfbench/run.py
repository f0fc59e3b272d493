#!/usr/bin/env python3
"""Closed-loop benchmark of the implicitseries library and its CLI.

One client in one thread sends a workload's seeded list of requests, each
request starting only after the previous one returns.  One pass over the
list is a round; rounds repeat until ``--seconds`` of timed work is done.
Every answer is checked, outside the timed region, against an answer
computed by an independent route (see ``workloads.py``).

    python3 perfbench/run.py --workload dense-fp --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35
    python3 perfbench/run.py --baseline

With ``--trace 0`` the last stdout line reports the end-to-end metrics,
measured with tracing off; with ``--trace 1`` it reports the per-layer
metrics of a traced run, whose rounds alternate with untraced ones so the
tracing overhead is measured too.  ``--workload all`` runs every workload
both ways and prints every metric.  ``--baseline`` times the fixed grid of
ROADMAP.md (not gated).  The lines above the last one name every metric
with its unit and sample count, and the host speed before and after.

The package is imported from ``src/`` next to this directory; nothing is
installed.  Exit status: 0 when every answer was correct, 1 when one was
not, 2 when the package cannot be found.
"""

from __future__ import annotations

import argparse
import importlib
import json
import random
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import tracing
import workloads

SRC = Path(__file__).resolve().parent.parent / "src"

# Set-up is repeated and its median reported, so one slow import (a cold
# bytecode cache, a host hiccup) does not decide setup_s.
SETUP_REPEATS = 5

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "req_p50_ms": "ms",
    "req_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

# ROADMAP.md baseline: dense degree-6 P over GF(10007), seconds per solve.
BASELINE = (
    ("theorem", 32, 0.26),
    ("theorem", 64, 3.0),
    ("fixpoint", 128, 1.1),
    ("fixpoint", 256, 8.9),
    ("furstenberg", 128, 0.35),
    ("furstenberg", 256, 2.0),
)


def unit_of(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    last = name.rsplit(".", 1)[1]
    if last.endswith("_s"):
        return "s"
    if last.endswith("_ms"):
        return "ms"
    if last.endswith("bits"):
        return "bits"
    if "ratio" in last or "share" in last or name.startswith("share."):
        return "ratio"
    return "count"


def load_package():
    """Import ``implicitseries`` afresh from ``src/``; the import is timed."""
    if not (SRC / "implicitseries" / "__init__.py").is_file():
        raise ImportError(f"no implicitseries package under {SRC}")
    for name in [m for m in sys.modules if m.split(".")[0] == "implicitseries"]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("implicitseries")
    importlib.import_module("implicitseries.cli")
    if Path(pkg.__file__).resolve().parent != SRC / "implicitseries":
        raise ImportError(f"implicitseries was imported from {pkg.__file__}, not {SRC}")
    return pkg


def host_spin_ms() -> float:
    """Median time of a fixed pure-Python loop: host speed, not package speed."""
    times = []
    for _ in range(3):
        t0 = perf_counter()
        acc = 0
        for i in range(200_000):
            acc = (acc + i * i) % 1_000_003
        times.append((perf_counter() - t0) * 1e3)
    return statistics.median(times)


def run_round(pkg, requests):
    """Send every request in turn; return wall time, latencies and outputs."""
    outs, latencies = [], []
    start = perf_counter()
    for req in requests:
        t0 = perf_counter()
        try:
            out = req.run(pkg)
        except Exception as exc:  # a failing request is counted, not fatal
            out = exc
        latencies.append(perf_counter() - t0)
        outs.append(out)
    return perf_counter() - start, latencies, outs


def _answer(req, out) -> str:
    if isinstance(out, Exception):
        return "raised " + "".join(traceback.format_exception_only(type(out), out))
    return req.answer(out)


def measure(name: str, seed: int, seconds: float, trace: bool, copies=None) -> dict:
    """One benchmark run of workload ``name``; returns metrics and counts."""
    spin_before = host_spin_ms()
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        pkg = load_package()
        requests = workloads.build(name, pkg, random.Random(seed), copies)
        setups.append(perf_counter() - t0)

    tracer = tracing.Tracer(pkg) if trace else None
    plain, traced = [], []
    latencies = [[] for _ in requests]  # per request, untraced rounds only
    answers = [{} for _ in requests]  # per request: answer -> times seen
    timed = 0.0
    while timed < seconds or not plain or (trace and not traced):
        use_trace = trace and len(traced) < len(plain)
        if use_trace:
            tracer.install()
        try:
            wall, lat, outs = run_round(pkg, requests)
        finally:
            if use_trace:
                tracer.uninstall()
        timed += wall
        if use_trace:
            traced.append(wall)
        else:
            plain.append(wall)
            for samples, x in zip(latencies, lat):
                samples.append(x)
        for seen, req, out in zip(answers, requests, outs):
            got = _answer(req, out)
            seen[got] = seen.get(got, 0) + 1

    expected = [req.expected(pkg) for req in requests]
    failures = [
        (req.label, got, want, times)
        for req, seen, want in zip(requests, answers, expected)
        for got, times in seen.items()
        if got != want
    ]
    for label, got, want, _ in failures[:3]:
        print(f"FAIL {label}\n  got:  {got[:300]!r}\n  want: {want[:300]!r}", file=sys.stderr)
    # the check must reject a perturbed coefficient list
    checker_ok = workloads.perturb(next(iter(answers[0]))) != expected[0]
    if not checker_ok:
        print("FAIL the answer check accepted a perturbed answer", file=sys.stderr)
    spin_after = host_spin_ms()

    # Each request's best latency over the rounds: contention from other
    # tenants of the host only ever adds time, and the best of many rounds
    # is the one least disturbed by it.
    best = [min(samples) for samples in latencies]
    p90 = statistics.quantiles(best, n=10, method="inclusive")[8]
    result = {
        "workload": name,
        "correct": not failures and checker_ok,
        "attempted": (len(plain) + len(traced)) * len(requests),
        "failed": sum(times for *_, times in failures),
        "requests_per_round": len(requests),
        "rounds": len(plain),
        "traced_rounds": len(traced),
        "beyond_p90": sum(x > p90 for x in best),
        "spin_before_ms": spin_before,
        "spin_after_ms": spin_after,
    }
    if trace:
        metrics = tracer.summary(len(traced), sum(traced))
        metrics["host.spin_ms"] = (spin_before + spin_after) / 2
        metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain)
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "run_s": sum(best),
            "req_p50_ms": statistics.median(best) * 1e3,
            "req_p90_ms": p90 * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    result["metrics"] = metrics
    return result


def report(result: dict) -> None:
    """Print every metric by name, with its unit and sample count."""
    name = result["workload"]
    n_req = result["requests_per_round"]
    counts = {
        "setup_s": SETUP_REPEATS,
        "run_s": f"{result['rounds']} rounds",
        "req_p50_ms": f"{n_req} requests x {result['rounds']} rounds",
        "req_p90_ms": f"{n_req} requests x {result['rounds']} rounds, "
        f"{result['beyond_p90']} beyond p90",
        "peak_rss_mb": 1,
    }
    for metric, value in result["metrics"].items():
        n = counts.get(metric, f"{result['traced_rounds']} traced rounds")
        print(f"{name:<10} {metric:<36} {value:>16.6f} {unit_of(metric):<6} n={n}")
    print(
        f"{name:<10} fail_frac {result['failed'] / result['attempted']:.6f} "
        f"({result['failed']} of {result['attempted']}); "
        f"{result['requests_per_round']} requests per round, closed loop, 1 client; "
        f"host.spin_ms before {result['spin_before_ms']:.3f} after {result['spin_after_ms']:.3f}"
    )


def baseline(seed: int) -> bool:
    """Time the ROADMAP.md grid once; the solutions must agree."""
    pkg = load_package()
    field = pkg.PrimeField(10007)
    text = workloads._dense_text(random.Random(seed), 10007)
    solutions = []
    for method, order, roadmap_s in BASELINE:
        req = workloads.SolveRequest(pkg, field, text, method, order)
        t0 = perf_counter()
        rep = req.run(pkg)
        elapsed = perf_counter() - t0
        solutions.append((rep.residual_zero, [c.value for c in rep.solution.coefficients()]))
        print(f"baseline {method:<12} order {order:>3} {elapsed:9.3f} s   ROADMAP {roadmap_s:5.2f} s")
    longest = max(solutions, key=lambda s: len(s[1]))[1]
    ok = all(rz and coeffs == longest[: len(coeffs)] for rz, coeffs in solutions)
    print(f"baseline solutions agree: {ok}")
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--baseline", action="store_true", help="time the ROADMAP grid")
    args = parser.parse_args(argv)
    if not args.baseline and args.workload is None:
        parser.error("give --workload or --baseline")
    try:
        load_package()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.baseline:
        return 0 if baseline(args.seed) else 1
    if args.workload == "all":
        ok = True
        for name in workloads.WORKLOADS:
            for trace in (False, True):
                result = measure(name, args.seed, args.seconds, trace)
                report(result)
                ok = ok and result["correct"]
        return 0 if ok else 1
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    report(result)
    line = {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            k: {"value": v, "unit": unit_of(k)} for k, v in result["metrics"].items()
        },
    }
    print(json.dumps(line))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
