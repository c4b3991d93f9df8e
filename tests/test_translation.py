import pytest

from cpwb.denotations import Pair, STAR, denote, mk_tuple, obs_space
from cpwb.harness import enumerate_processes
from cpwb.obs_transform import l_obs
from cpwb.syntax import (
    Bottom,
    Cut,
    EmptyIn,
    EmptyOut,
    Fwd,
    IBang,
    ILolli,
    IPlus,
    ITensor,
    IUnit,
    In,
    Inact,
    OfCourse,
    Par,
    Plus,
    Tensor,
    Unit,
    WhyNot,
    With,
    dual,
)
from cpwb.translation import (
    embed_ill,
    eta_fwd,
    closing_name,
    neg_image,
    prime_map,
    synchronizer,
    translate_formula_dual,
    translate_formula_ill,
    translate_process,
    translated_context,
)
from cpwb.typing import System, check

one, bot = Unit(), Bottom()


def test_ill_translation_table():
    r = IUnit()
    assert translate_formula_ill(bot) == IUnit()
    assert translate_formula_ill(one) == ILolli(IUnit(), r)
    a, b = Plus(one, one), bot
    ta, tb = translate_formula_ill(a), translate_formula_ill(b)
    assert translate_formula_ill(Par(a, b)) == ITensor(ta, tb)
    assert translate_formula_ill(With(a, b)) == IPlus(ta, tb)
    assert translate_formula_ill(Tensor(a, b)) == ILolli(
        ITensor(ILolli(ta, r), ILolli(tb, r)), r
    )
    assert translate_formula_ill(OfCourse(a)) == ILolli(IBang(ILolli(ta, r)), r)
    assert translate_formula_ill(WhyNot(a)) == IBang(ILolli(ILolli(ta, r), r))


def test_ill_translation_parametric_residual():
    r = ITensor(IUnit(), IUnit())
    assert translate_formula_ill(one, r) == ILolli(IUnit(), r)


def test_embed_ill():
    assert embed_ill(ILolli(IUnit(), IUnit())) == Par(bot, one)
    assert embed_ill(IUnit()) == one
    assert embed_ill(IBang(ILolli(IUnit(), IUnit()))) == OfCourse(Par(bot, one))


def test_dual_translation_table():
    t = translate_formula_dual
    assert t(one) == Tensor(one, bot)
    assert t(bot) == bot
    a, b = one, bot
    assert t(Par(a, b)) == Par(t(a), t(b))
    assert t(With(a, b)) == With(t(a), t(b))
    assert t(Tensor(a, b)) == Tensor(Tensor(Par(t(a), one), Par(t(b), one)), bot)
    assert t(Plus(a, b)) == Tensor(Plus(Par(t(a), one), Par(t(b), one)), bot)
    assert t(OfCourse(one)) == Tensor(OfCourse(Par(Tensor(one, bot), one)), bot)
    assert t(WhyNot(one)) == WhyNot(Tensor(Par(Tensor(one, bot), one), bot))


def test_column_coherence(monkeypatch):
    from cpwb import harness

    monkeypatch.setattr(harness, "POOL_PER_LEVEL", 600)
    pool = harness.formula_pool(4)
    assert len(pool) > 3000
    for a in pool:
        assert translate_formula_dual(a) == dual(embed_ill(translate_formula_ill(a))), a


def test_eta_fwd_matches_forwarder():
    cases = [one, bot, Tensor(one, bot), Plus(one, one), With(one, bot),
             OfCourse(one), WhyNot(Plus(one, bot)), Par(Plus(one, bot), bot)]
    for a in cases:
        ctx = {"x": a, "y": dual(a)}
        de = check(eta_fwd(a, "x", "y"), ctx)
        df = check(Fwd("x", "y"), ctx)
        assert denote(de, 2).tuples == denote(df, 2).tuples, a


def sync_denotation(a, bound=2):
    ctx = {
        "z": Tensor(neg_image(a), bot),
        "w": Tensor(neg_image(dual(a)), bot),
        "s": one,
    }
    d = check(synchronizer(a, "z", "w", "s"), ctx, System.CP02)
    return denote(d, bound).tuples


def sync_expected(a, bound=2):
    return frozenset(
        mk_tuple({"z": Pair(l_obs(a, o), STAR), "w": Pair(l_obs(dual(a), o), STAR), "s": STAR})
        for o in obs_space(a, bound)
    )


def test_synchronizer_base_case_exact_value():
    got = sync_denotation(one)
    assert got == {
        mk_tuple({"z": Pair(Pair(STAR, STAR), STAR), "w": Pair(STAR, STAR), "s": STAR})
    }


def test_synchronizer_bottom_is_symmetric():
    got = sync_denotation(bot)
    assert got == {
        mk_tuple({"z": Pair(STAR, STAR), "w": Pair(Pair(STAR, STAR), STAR), "s": STAR})
    }


@pytest.mark.parametrize(
    "a",
    [one, bot, Tensor(one, bot), Par(bot, one), Plus(one, one), With(one, bot)],
)
def test_synchronizer_characterization_exact(a):
    assert sync_denotation(a) == sync_expected(a)


@pytest.mark.parametrize("a", [OfCourse(one), WhyNot(bot)])
def test_synchronizer_characterization_bounded(a):
    assert sync_denotation(a, 2) == sync_expected(a, 2)


def test_synchronizer_bang_has_singleton_bag_tuple():
    got = sync_denotation(OfCourse(one), 1)
    singletons = [
        t for t in got for n, o in t if n == "z" and o.fst.fst.items and len(o.fst.fst.items) == 1
    ]
    assert singletons


def test_translate_unit_process():
    d = check(EmptyOut("x"), {"x": one})
    lp = translate_process(d)
    dl = check(lp, translated_context({"x": one}), System.CP02)
    assert denote(dl).tuples == {mk_tuple({"x'": Pair(STAR, STAR), "w": STAR})}


def test_translate_input_is_an_input():
    p = In("x", "y", EmptyIn("y", EmptyOut("x")))
    d = check(p, {"x": Par(bot, one)})
    lp = translate_process(d)
    assert isinstance(lp, In)
    assert lp.channel == "x'"


def test_translate_inact_is_closing_output():
    d = check(Inact(), {}, System.CP0)
    assert translate_process(d) == EmptyOut("w")


def test_translation_typing_preserved_on_enumerated():
    families = [
        {"x": one},
        {"x": bot},
        {"x": Plus(one, one)},
        {"x": With(one, bot)},
        {"x": Par(Plus(one, one), bot)},
        {"x": Tensor(one, bot)},
        {"x": WhyNot(bot)},
        {"x": OfCourse(one)},
        {"x": Plus(one, one), "y": bot},
    ]
    for ctx in families:
        tctx = translated_context(ctx)
        for p in enumerate_processes(ctx, 4, System.CP02):
            d = check(p, ctx, System.CP02)
            check(translate_process(d), tctx, System.CP02)


def test_translation_theorem_through_exponential_cut():
    from cpwb.obs_transform import check_translation_theorem
    from cpwb.syntax import Client, Contract, Server, Inact

    srv = Server("x", "y", Client("z", "u", EmptyIn("u", EmptyOut("y"))))
    cl = Contract(
        "x", "a", "b", Client("a", "u", EmptyIn("u", Client("b", "v", EmptyIn("v", Inact()))))
    )
    cut = Cut("x", OfCourse(one), srv, cl)
    assert check_translation_theorem(cut, {"z": WhyNot(bot)}, System.CP02, 2).holds


def test_translation_typing_preserved_on_cuts():
    for a in (one, Plus(one, one)):
        lefts = enumerate_processes({"x": a}, 4, System.CP02, markers=False)
        rights = enumerate_processes({"x": dual(a)}, 4, System.CP02, markers=False)
        for l in lefts:
            for r in rights:
                d = check(Cut("x", a, l, r), {}, System.CP02)
                check(translate_process(d), translated_context({}), System.CP02)


def test_prime_map_injective_and_fresh():
    pm = prime_map({"x": one, "x'": bot})
    assert pm["x"] != pm["x'"]
    assert len(set(pm.values())) == 2
    assert set(pm.values()).isdisjoint({"x", "x'"})


def test_closing_name_avoids_clashes():
    assert closing_name({"x": one}) == "w"
    assert closing_name({"w": one}) != "w"


def test_worked_example_cut_reduces_to_translation():
    cut = Cut("x", one, EmptyOut("x"), EmptyIn("x", EmptyOut("y")))
    ctx = {"y": one}
    tctx = translated_context(ctx)
    s1 = denote(check(translate_process(check(cut, ctx)), tctx, System.CP02), 2).tuples
    s2 = denote(check(translate_process(check(EmptyOut("y"), ctx)), tctx, System.CP02), 2).tuples
    assert s1 == s2


def test_translation_deterministic():
    d = check(Cut("x", one, EmptyOut("x"), EmptyIn("x", EmptyOut("y"))), {"y": one})
    assert translate_process(d) == translate_process(d)
