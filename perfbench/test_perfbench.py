"""Tests of the benchmark itself: ``python3 -m pytest perfbench``."""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracing
import workloads

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.fixture
def tiny(monkeypatch):
    """Shrink every workload to low orders and one copy of its mix."""
    monkeypatch.setattr(workloads, "DENSE_RARE", (10, 12, 14))
    monkeypatch.setattr(
        workloads, "SPARSE_RARE", {"theorem": 8, "char0": 8, "fixpoint": 12, "furstenberg": 12}
    )
    monkeypatch.setattr(workloads, "SPARSE_CATALAN_ORDER", 10)
    monkeypatch.setattr(workloads, "SPARSE_ORDERS", (4, 8))
    monkeypatch.setattr(run, "SETUP_REPEATS", 2)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", (False, True))
def test_smoke_run_emits_every_metric(tiny, name, trace):
    result = run.measure(name, seed=3, seconds=0, trace=trace, copies=1)
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in wanted)
    for m in wanted:
        assert run.unit_of(m["name"]) == m["unit"]
    assert result["correct"] and result["failed"] == 0


def test_workload_names_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_fail_frac_is_zero_at_full_size(name):
    result = run.measure(name, seed=1, seconds=0, trace=False)
    assert result["attempted"] == result["requests_per_round"]
    assert result["failed"] == 0 and result["correct"]


def test_same_seed_same_requests():
    pkg = run.load_package()
    for name in workloads.WORKLOADS:
        first, again, other = (
            [r.label + r.text for r in workloads.build(name, pkg, random.Random(seed))]
            for seed in (7, 7, 8)
        )
        assert first == again != other


@pytest.mark.parametrize("cls", (workloads.SolveRequest, workloads.CliRequest))
def test_perturbed_answers_count_as_failures(tiny, monkeypatch, cls):
    name = "dense-fp" if cls is workloads.SolveRequest else "cli-small"
    honest = cls.answer
    monkeypatch.setattr(cls, "answer", lambda self, out: workloads.perturb(honest(self, out)))
    result = run.measure(name, seed=1, seconds=0, trace=False, copies=1)
    assert not result["correct"]
    assert result["failed"] == result["attempted"]


def test_catalan_closed_form_is_checked():
    pkg = run.load_package()
    req = workloads.SolveRequest(pkg, pkg.RationalField(), workloads.CATALAN, "theorem", 8)
    assert req.expected(pkg).startswith("0 1 1 2 5 14 42 132 429 ")
    assert req.answer(req.run(pkg)) == req.expected(pkg)


def test_tracer_restores_the_package():
    pkg = run.load_package()
    before = (pkg.cli.main, pkg.solve_series, pkg.cli.solve_series,
              pkg.BiSeries.__dict__["__mul__"], pkg.expressions.lower_expression)
    tracer = tracing.Tracer(pkg)
    tracer.install()
    assert pkg.cli.solve_series is not before[2]
    p = pkg.BiSeries.from_terms(pkg.RationalField(), [(1, 0, 1), (0, 2, 1)], 4, 7)
    pkg.solve_series(pkg.ImplicitProblem(p), 4, "fixpoint")
    tracer.uninstall()
    after = (pkg.cli.main, pkg.solve_series, pkg.cli.solve_series,
             pkg.BiSeries.__dict__["__mul__"], pkg.expressions.lower_expression)
    assert after == before
    summary = tracer.summary(rounds=1, traced_seconds=1.0)
    assert summary["solver.fixpoint.calls"] == 1
    assert summary["series.subst_y.calls"] == summary["solver.fixpoint.passes"] >= 5


def test_without_the_package_it_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "dense-fp", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
