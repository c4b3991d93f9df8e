import hashlib
import sys
from collections import Counter

import pytest

from cpwb.harness import (
    CONNECTIVES,
    MAX_FORMULAS,
    ConfigError,
    SuiteConfig,
    cut_families,
    enumerate_formulas,
    enumerate_processes,
    exp_free_families,
    exponential_families,
    formula_count,
    formula_pool,
    run_suite,
)
from cpwb.syntax import (
    Bottom,
    Case,
    EmptyOut,
    Fwd,
    IBang,
    ILolli,
    IUnit,
    OfCourse,
    Par,
    Plus,
    Select,
    Tensor,
    Unit,
    WhyNot,
    With,
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


def _digest(lists) -> str:
    """The sha256 of ``repr`` of each list, in turn."""
    h = hashlib.sha256()
    for ps in lists:
        h.update(repr(ps).encode())
    return h.hexdigest()


# Contexts with the digest of enumerate_processes at each of them, at every
# size 1-6, every system, markers on and off, and no cut formulas or (1, !1),
# in that nesting; and the number of processes in all of those lists.
ENUMERATION_PINS = [
    ({}, "7eda83fc57f663d4ab19bbf58b083abeefe6550a2bc5a7f3f69d51a7c6093cb4", 84),
    ({"x": one}, "ba34926ac7830e71736beaab20f6544fa4936964b31cbb4f2b1f46013517cb66", 354),
    ({"x": bot, "y": Plus(one, one)},
     "9049ba43622338975e77d02742ecfb1396dd4978913ace3a4f91f323813fde71", 2088),
    ({"x": Tensor(one, bot)}, "b760090027e6afb25d9f6ab097bc47023aec7aa9f5b91e1aaa63d6f375ccbe01", 56),
    ({"x": With(one, bot), "y": bot},
     "1673d1532ca131ce347f13fb9a30759368aef7220dcaa4afc2f5a445a1a73a7f", 96),
    ({"x": Par(bot, one)}, "faf2b324c72b3c4ce958dc2601000b5ea5503f6360aaf21657c1589ff5ed9ca0", 588),
    ({"x": WhyNot(bot)}, "424365db42b2b475bf4fb05e5e0a245b18281b348d9db935292cc0b7b5604aed", 398),
    ({"x": OfCourse(one), "y": WhyNot(bot)},
     "340511f3ef88e2c389213d213942bfe751188febc013ebc0a753394219dd5e7b", 3978),
]


@pytest.mark.parametrize("ctx, digest, count", ENUMERATION_PINS)
def test_enumerated_processes_are_pinned(ctx, digest, count):
    lists = [enumerate_processes(ctx, size, system, cuts, markers)
             for size in range(1, 7) for system in System for markers in (True, False)
             for cuts in ((), (one, OfCourse(one)))]
    assert (_digest(lists), sum(map(len, lists))) == (digest, count)


def test_bang_clients_and_families_are_pinned():
    clients = enumerate_processes({"x": WhyNot(bot)}, 9, System.CP02)
    assert len(clients) == 3820
    assert _digest([clients]) == "c51aeaa6fe1f0a84e3ba0bbd996a292aeccadc3539057ab3b38785067d8fedf0"
    families = [exp_free_families(5), exponential_families(5), cut_families(4)]
    assert _digest(families) == "d88c9c0818120cd37bac50e0803f223cca1898fa62b8acd63ee807c603c58b22"


def test_a_repeated_cut_formula_adds_no_process():
    for ctx, _, _ in ENUMERATION_PINS:
        for size in range(1, 6):
            once = enumerate_processes(ctx, size, System.CP02, (one,))
            assert enumerate_processes(ctx, size, System.CP02, (one, one)) == once


def test_formula_pool_depth():
    pool = formula_pool(4)
    from cpwb.syntax import formula_depth

    assert max(formula_depth(a) for a in pool) >= 4


def test_formula_count_is_the_length_of_the_enumeration():
    # the closed form against the enumeration, for every connective set that
    # has a unit, at every depth up to the default
    import itertools

    sets = [cs for k in range(1, len(CONNECTIVES) + 1)
            for cs in itertools.combinations(CONNECTIVES, k) if {"one", "bot"} & set(cs)]
    assert len(sets) == 192
    for cs in sets:
        for d in (0, 1, 2):
            assert formula_count(d, cs) == len(enumerate_formulas(d, cs)), (d, cs)
    assert [formula_count(d) for d in (0, 1, 2, 3)] == [2, 22, 1982, 15717262]
    # past MAX_FORMULAS the count stops at the first level over it, and the
    # units alone are counted, and enumerated, at once at any depth
    assert formula_count(4) == 15717262
    assert formula_count(10 ** 9, ("one", "ofcourse")) == MAX_FORMULAS + 1
    assert formula_count(10 ** 12, ("one", "bot")) == 2
    assert enumerate_formulas(10 ** 12, ("one", "bot")) == [one, bot]


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


def test_seed_env_override():
    r1 = run_suite(SuiteConfig(suites=("context_denotation",), seed=7))
    r2 = run_suite(SuiteConfig(suites=("context_denotation",), seed=7))
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


def _swap_tensor(real, a, residual):
    return real(Tensor(a.right, a.left) if isinstance(a, Tensor) else a, residual)


def _swap_plus(real, a, residual):
    return real(Plus(a.right, a.left) if isinstance(a, Plus) else a, residual)


def _why_not_without_inner_residual(real, a, residual):
    if isinstance(a, WhyNot):
        return IBang(ILolli(real(a.body, residual), residual))
    return real(a, residual)


@pytest.mark.parametrize("mutate, caught", [
    (_swap_tensor, ["(1 * bot)", "(bot % 1)"]),
    (_why_not_without_inner_residual, ["!1", "?bot"]),
    (_swap_plus, ["(1 & bot)"]),  # the dual (bot + 1) reads the Plus case asymmetrically
])
def test_an_ill_translation_mutant_is_caught(monkeypatch, mutate, caught):
    # the synchronizer suite reads translate_formula_ill back against the
    # negative image, at each of its formulas and their duals
    import cpwb.translation as tr

    real = tr.translate_formula_ill

    def mutant(a, residual=IUnit()):
        return mutate(real, a, residual)

    monkeypatch.setattr(tr, "translate_formula_ill", mutant)  # real recurses through the mutant
    (result,) = run_suite(SuiteConfig(suites=("synchronizer",))).results
    assert result.instances == 8
    assert result.failures == tuple(f"ILL translation at {a}" for a in caught)


IMAGE_SUITES = ("translation", "full_abstraction_1", "transformer_correct", "full_abstraction_2")


def test_each_translation_instance_is_translated_once(monkeypatch):
    import cpwb.translation
    from cpwb.harness import _ImageTable

    real, calls = cpwb.translation.translate_process, Counter()

    def counting(d):
        calls[d.process, d.ctx] += 1
        return real(d)

    for name, module in list(sys.modules.items()):
        if name.startswith("cpwb") and getattr(module, "translate_process", None) is real:
            monkeypatch.setattr(module, "translate_process", counting)
    cfg = SuiteConfig(suites=IMAGE_SUITES, process_size=4)
    assert run_suite(cfg).ok
    instances = {(p, ctx_items(ctx)) for ctx, p in _ImageTable(cfg).instances}
    assert set(calls) == instances
    assert set(calls.values()) == {1}


def test_images_do_not_outlive_their_run(monkeypatch):
    # a mutant transformer between two clean runs: a table kept past its
    # run would hide the mutant, or hand its images to the second clean run
    import cpwb.transformers as tf

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
