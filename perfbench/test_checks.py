"""Mutants that the benchmark's own checks must catch.

    python3 -m pytest -q perfbench

Each test breaks the program (or a pass record) in one place and asserts
that the check which guards that place reports it. Workloads are shrunk
where the full size would only make the test slower, never the check
weaker: the shrunk run is first shown to pass unmutated.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from cpwb import denotations, harness, oracle, syntax  # noqa: E402
from cpwb import typing as cptyping  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402


def run_and_verify(work):
    return work.verify(work.run())


# --- denote_chain: a perturbed denotation ------------------------------------


@pytest.fixture
def short_chain(monkeypatch, tmp_path):
    monkeypatch.setattr(workloads, "CHAIN_LENGTHS", range(1, 5))
    work = workloads.DenoteChain(seed=3, workdir=tmp_path)
    assert run_and_verify(work) == (4, 0, [])
    return work


def _swap_tag(o):
    return denotations.Tag(3 - o.index, o.value)


@pytest.mark.parametrize("perturb", [
    lambda ts: ts[1:],  # a tuple dropped
    lambda ts: [tuple((n, _swap_tag(o)) if n.startswith("u") else (n, o) for n, o in ts[0])]
    + ts[1:],  # one u_i observation changed, x left alone
])
def test_perturbed_chain_denotation_is_caught(short_chain, monkeypatch, perturb):
    real = denotations.denote

    def mutant(d, bound=2):
        s = real(d, bound)
        ts = sorted(s.tuples, key=denotations.tuple_key)
        return denotations.DenotationSet(frozenset(perturb(ts)), s.ctx, s.bound)

    monkeypatch.setattr(denotations, "denote", mutant)
    attempted, failed, errors = run_and_verify(short_chain)
    assert (attempted, failed) == (4, 4)
    assert "differs from closed form" in errors[0]


# --- suite_default: a dropped suite instance ---------------------------------


@pytest.fixture
def small_suite(monkeypatch, tmp_path):
    names = ("duality", "synchronizer", "worked_example")
    monkeypatch.setattr(harness, "SUITE_NAMES", names)
    monkeypatch.setattr(workloads, "SUITE_INSTANCES",
                        {n: workloads.SUITE_INSTANCES[n] for n in names})
    work = workloads.SuiteDefault(seed=5, workdir=tmp_path)
    assert run_and_verify(work) == (10658, 0, [])
    return work


def test_dropped_suite_instance_is_caught(small_suite, monkeypatch):
    real = harness.formula_pool
    monkeypatch.setattr(harness, "formula_pool", lambda *a, **k: real(*a, **k)[:-1])
    attempted, failed, errors = run_and_verify(small_suite)
    assert (attempted, failed) == (10658, 1)
    assert errors == ["duality: 10648 instances, 0 failures"]


def test_failing_suite_is_caught(small_suite, monkeypatch):
    monkeypatch.setattr(harness, "dual", lambda a: syntax.Unit())
    attempted, failed, errors = run_and_verify(small_suite)
    assert failed > 0 and errors


# --- oracle_bang: a false adequacy verdict -----------------------------------


@pytest.fixture
def small_bang(monkeypatch, tmp_path):
    pairs = len(harness.enumerate_processes({"x": syntax.WhyNot(syntax.Bottom())}, 5))
    monkeypatch.setattr(workloads, "BANG_SIZE", 5)
    monkeypatch.setattr(workloads, "BANG_PAIRS", pairs)
    work = workloads.OracleBang(seed=7, workdir=tmp_path)
    assert run_and_verify(work) == (pairs, 0, [])
    return work


def test_false_adequacy_verdict_is_caught(small_bang, monkeypatch):
    real, target = oracle.observe, small_bang.pairs[3]

    def mutant(c, *args):
        found = real(c, *args)
        return frozenset(sorted(found)[1:]) if c is target else found

    monkeypatch.setattr(oracle, "observe", mutant)
    attempted, failed, errors = run_and_verify(small_bang)
    assert failed == 1 and errors == [f"{attempted} pairs, 1 not adequate"]


def test_dropped_adequacy_pair_is_caught(small_bang):
    small_bang.pairs.pop()
    attempted, failed, _ = run_and_verify(small_bang)
    assert failed == 1


# --- the tracer ----------------------------------------------------------------


def test_tracer_sees_calls_made_between_cpwb_modules():
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.root():
            report = harness.run_suite(harness.SuiteConfig(suites=("worked_example",)))
            syntax.dual(syntax.Tensor(syntax.Unit(), syntax.Bottom()))
    finally:
        tracer.uninstall()
    assert report.ok
    layers = tracer.summary()["layers"]
    # harness.run_suite calls check, translate_process and denote through
    # names harness imported from other modules.
    for layer in ("harness.self", "typing", "translation", "denotations"):
        assert layers[layer]["calls"] > 0, layer
    harness_span = tracer.names.index("harness.self")
    child_layers = {tracer.layer[i] for i, p in enumerate(tracer.parent)
                    if p >= 0 and tracer.layer[p] == harness_span}
    assert tracer.names.index("typing") in child_layers
    # dual recurses into itself: one span, two re-entries.
    assert layers["syntax"]["reentries"] >= 2
    assert harness.check is cptyping.check and not hasattr(harness.check, "__wrapped__")


def test_traced_pass_self_times_sum_to_its_time():
    run.OUT.mkdir(exist_ok=True)
    record = run.run_pass("denote_chain", seed=11, index=1, traced=True)
    trace = record["trace"]
    assert sum(layer["self_ns"] for layer in trace["layers"].values()) == trace["root_ns"]
    assert run.trace_problem(record) is None
    assert trace["layers"]["denotations"]["calls"] == 7
    # A span lost or double counted breaks the sum.
    trace["layers"]["denotations"]["self_ns"] += 2 * run.SELF_SUM_TOLERANCE_NS
    assert run.trace_problem(record) is not None


# --- run.py -------------------------------------------------------------------


def test_refuses_a_checkout_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "denote_chain", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""


def test_benchmark_json_names_every_metric_run_prints():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.layer_units()
    assert {w["name"] for w in bench["workloads"]} == set(run.WORKLOADS)
    for layers in run.TRACED_LAYERS.values():
        assert set(layers) <= set(LAYERS)
