import sys
from collections import Counter

import pytest

from cpwb.harness import (
    CONNECTIVES,
    ConfigError,
    SuiteConfig,
    cut_families,
    enumerate_formulas,
    enumerate_processes,
    exp_free_families,
    exponential_families,
    formula_pool,
    run_suite,
)
from cpwb.syntax import (
    Bottom,
    Case,
    EmptyOut,
    Fwd,
    OfCourse,
    Plus,
    Select,
    Tensor,
    Unit,
    WhyNot,
    dual,
    process_size,
)
from cpwb.typing import System, check, ctx_items

one, bot = Unit(), Bottom()


def test_enumerate_formulas_base():
    assert enumerate_formulas(0, ("one", "bot")) == [one, bot]
    d1 = enumerate_formulas(1, ("one", "bot", "tensor"))
    assert Tensor(one, bot) in d1


def test_enumerate_formulas_count_oracle():
    # leaves + binaries * leaves^2, independently computed
    conns = ("one", "bot", "tensor", "par", "plus", "with")
    got = enumerate_formulas(1, conns)
    n_leaves, n_binary = 2, 4
    assert len(got) == n_leaves + n_binary * n_leaves**2 == 18
    with_exp = enumerate_formulas(1, CONNECTIVES)
    assert len(with_exp) == 2 + 4 * 4 + 2 * 2 == 22


def test_enumerate_formulas_deterministic():
    assert enumerate_formulas(2) == enumerate_formulas(2)


def test_enumerate_processes_examples():
    assert enumerate_processes({"x": one}, 1) == [EmptyOut("x")]
    got = enumerate_processes({"x": Plus(one, one)}, 2)
    assert got == [
        Select("x", 1, EmptyOut("x")),
        Select("x", 2, EmptyOut("x")),
    ]
    a = Plus(one, bot)
    pair = enumerate_processes({"x": a, "y": dual(a)}, 1)
    assert Fwd("x", "y") in pair and Fwd("y", "x") in pair


def test_enumeration_is_sound_and_bounded():
    for ctx in ({"x": Plus(one, one), "y": bot}, {"x": WhyNot(bot)}, {"x": OfCourse(one)}):
        for p in enumerate_processes(ctx, 5, System.CP02):
            assert process_size(p) <= 5
            check(p, ctx, System.CP02)


def test_enumeration_deterministic():
    ctx = {"x": Plus(one, one), "y": bot}
    assert enumerate_processes(ctx, 5) == enumerate_processes(ctx, 5)


def test_enumeration_with_cut_formulas():
    got = enumerate_processes({"y": one}, 5, System.CP02, cut_formulas=(one,))
    from cpwb.syntax import Cut

    assert any(isinstance(p, Cut) for p in got)
    for p in got:
        check(p, {"y": one}, System.CP02)


def test_formula_pool_depth():
    pool = formula_pool(4)
    from cpwb.syntax import formula_depth

    assert max(formula_depth(a) for a in pool) >= 4


def test_families_nonempty():
    assert sum(len(ps) for _, ps in exp_free_families(5)) > 200
    assert sum(len(ps) for _, ps in exponential_families(5)) >= 50
    assert len(cut_families(4)) >= 20


def test_suite_config_validation():
    with pytest.raises(ConfigError):
        run_suite(SuiteConfig(suites=("nonsense",)))
    with pytest.raises(ConfigError):
        run_suite(SuiteConfig(bound=3))
    cfg = SuiteConfig.from_json('{"suites": ["worked_example"], "bound": 2}')
    assert cfg.suites == ("worked_example",)
    with pytest.raises(ConfigError):
        SuiteConfig.from_json('{"no_such_key": 1}')


def test_report_totals_and_json():
    report = run_suite(SuiteConfig(suites=("synchronizer", "worked_example")))
    assert report.ok
    data = report.to_json()
    assert data["synchronizer"]["instances"] == 8
    assert data["worked_example"]["failures"] == []
    text = report.to_text()
    assert "synchronizer" in text and "pass" in text


def test_seed_env_override(monkeypatch):
    monkeypatch.setenv("CPWB_SEED", "7")
    r1 = run_suite(SuiteConfig(suites=("context_denotation",)))
    r2 = run_suite(SuiteConfig(suites=("context_denotation",)))
    assert r1.results[0].instances == r2.results[0].instances
    assert r1.ok and r2.ok


def test_mutant_is_caught(monkeypatch):
    # swapping tag indices inside the observation transform must surface
    # as counterexamples in the translation suite
    import cpwb.obs_transform as ot
    from cpwb.denotations import Pair, Tag

    real = ot.l_obs

    def mutant(a, o):
        out = real(a, o)
        if isinstance(out, Pair) and isinstance(out.fst, Tag):
            return Pair(Tag(3 - out.fst.index, out.fst.value), out.snd)
        return out

    monkeypatch.setattr(ot, "l_obs", mutant)
    report = run_suite(SuiteConfig(suites=("translation",)))
    assert not report.ok
    assert report.results[0].failures


IMAGE_SUITES = ("translation", "full_abstraction_1", "transformer_correct", "full_abstraction_2")


def test_each_translation_instance_is_translated_once(monkeypatch):
    import cpwb.translation
    from cpwb.harness import _ImageTable

    monkeypatch.delenv("CPWB_SEED", raising=False)
    real, calls = cpwb.translation.translate_process, Counter()

    def counting(d):
        calls[d.process, d.ctx] += 1
        return real(d)

    for name, module in list(sys.modules.items()):
        if name.startswith("cpwb") and getattr(module, "translate_process", None) is real:
            monkeypatch.setattr(module, "translate_process", counting)
    cfg = SuiteConfig(suites=IMAGE_SUITES, process_size=4)
    assert run_suite(cfg).ok
    instances = {(p, ctx_items(ctx)) for ctx, p in _ImageTable(cfg, cfg.seed).instances}
    assert set(calls) == instances
    assert set(calls.values()) == {1}


def test_images_do_not_outlive_their_run(monkeypatch):
    # a mutant transformer between two clean runs: a table kept past its
    # run would hide the mutant, or hand its images to the second clean run
    import cpwb.transformers as tf

    monkeypatch.delenv("CPWB_SEED", raising=False)
    real = tf.transformer

    def swapped(a, x, xp, supply=None):
        t = real(a, x, xp, supply)
        if isinstance(a, Plus) and a.left == a.right:  # so the swap still type-checks
            return Case(t.channel, t.right, t.left)
        return t

    cfg = SuiteConfig(suites=IMAGE_SUITES, process_size=4)
    assert run_suite(cfg).ok
    monkeypatch.setattr(tf, "transformer", swapped)
    mutant = {r.name: r for r in run_suite(cfg).results}
    monkeypatch.setattr(tf, "transformer", real)
    assert mutant["transformer_correct"].failures
    assert run_suite(cfg).ok


def test_no_derivation_outlives_its_suite(monkeypatch):
    import gc

    from cpwb import harness
    from cpwb.typing import Derivation, TypedContext

    def alive():
        gc.collect()
        return sum(isinstance(o, (Derivation, TypedContext)) for o in gc.get_objects())

    def watched(suite):
        def run(*args):
            before = alive()
            out = list(suite(*args))  # a suite is a generator: run it to the end
            assert alive() == before
            return out

        return run

    monkeypatch.delenv("CPWB_SEED", raising=False)
    monkeypatch.setattr(harness, "_SUITES", {n: watched(s) for n, s in harness._SUITES.items()})
    suites = ("adequacy", "mix_permutation", "worked_example") + IMAGE_SUITES
    assert run_suite(SuiteConfig(suites=suites, process_size=4)).ok


def test_run_suite_counts_and_collects_the_outcomes_a_suite_yields(monkeypatch):
    from cpwb import harness

    def suite(cfg, rng, table):
        yield from [None, "bad", None]

    monkeypatch.setitem(harness._SUITES, "worked_example", suite)
    (result,) = run_suite(SuiteConfig(suites=("worked_example",))).results
    assert (result.instances, result.failures) == (3, ("bad",))


def test_a_type_error_inside_a_suite_fails_the_instance_that_raised_it(monkeypatch):
    from cpwb import harness
    from cpwb.typing import RuleMismatch

    def suite(cfg, rng, table):
        yield None
        raise RuleMismatch("empty input needs type bot, got (1 * bot)")

    monkeypatch.setitem(harness._SUITES, "worked_example", suite)
    (result,) = run_suite(SuiteConfig(suites=("worked_example",))).results
    assert (result.instances, result.failures) == (
        2, ("RuleMismatch: empty input needs type bot, got (1 * bot)",)
    )
