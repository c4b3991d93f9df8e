import pytest

from cpwb.denotations import (
    Bag,
    Pair,
    STAR,
    Tag,
    TypingMismatch,
    bag,
    denote,
    dumps,
    equivalent,
    mk_tuple,
    obs_key,
    obs_space,
    obs_to_json,
    tuples_to_json,
    well_sorted,
)
from cpwb.harness import enumerate_processes
from cpwb.syntax import (
    Bottom,
    Case,
    Client,
    Cut,
    EmptyIn,
    EmptyOut,
    Fwd,
    Inact,
    Mix,
    OfCourse,
    Plus,
    Select,
    Server,
    Tensor,
    Unit,
    WhyNot,
    With,
    dual,
)
from cpwb.typing import System, check

one, bot = Unit(), Bottom()


def test_obs_space_units():
    assert obs_space(one) == (STAR,)
    assert obs_space(bot) == (STAR,)


def test_obs_space_sum():
    assert set(obs_space(Plus(one, one))) == {Tag(1, STAR), Tag(2, STAR)}


def test_obs_space_bags():
    assert set(obs_space(OfCourse(one), 2)) == {bag(), bag([STAR]), bag([STAR, STAR])}


def test_obs_space_sizes():
    assert len(obs_space(Tensor(Plus(one, one), Plus(one, one)))) == 4
    assert len(obs_space(WhyNot(Plus(one, one)), 2)) == 6


def test_canonical_bag_order():
    a = Bag((Tag(2, STAR), Tag(1, STAR)))
    b = Bag((Tag(1, STAR), Tag(2, STAR)))
    assert a == b
    assert obs_key(a) == obs_key(b)


def test_denote_paper_examples():
    d = check(EmptyOut("x"), {"x": one})
    assert denote(d).tuples == {mk_tuple({"x": STAR})}
    d = check(Fwd("x", "y"), {"x": one, "y": bot})
    assert denote(d).tuples == {mk_tuple({"x": STAR, "y": STAR})}
    d = check(Select("x", 1, EmptyOut("x")), {"x": Plus(one, one)})
    assert denote(d).tuples == {mk_tuple({"x": Tag(1, STAR)})}


def test_denote_case_unions_branches():
    d = check(Case("x", EmptyOut("x"), EmptyOut("x")), {"x": With(one, one)})
    assert denote(d).tuples == {
        mk_tuple({"x": Tag(1, STAR)}),
        mk_tuple({"x": Tag(2, STAR)}),
    }


def test_denote_fwd_ranges_over_space():
    a = Plus(one, one)
    d = check(Fwd("x", "y"), {"x": a, "y": dual(a)})
    assert denote(d).tuples == {
        mk_tuple({"x": Tag(i, STAR), "y": Tag(i, STAR)}) for i in (1, 2)
    }


def test_equivalent_examples():
    p = Cut("x", one, EmptyOut("x"), EmptyIn("x", EmptyOut("y")))
    assert equivalent(p, EmptyOut("y"), {"y": one})
    assert equivalent(p, p, {"y": one})
    with pytest.raises(TypingMismatch):
        equivalent(
            Select("x", 1, EmptyOut("x")),
            Case("x", EmptyOut("x"), EmptyOut("x")),
            {"x": Plus(one, one)},
        )


def test_exactness_without_exponentials():
    for ctx in ({"x": Plus(one, one)}, {"x": Tensor(one, bot)}, {"x": With(one, bot), "y": one}):
        for p in enumerate_processes(ctx, 5, System.CP02, markers=False):
            d = check(p, ctx, System.CP02)
            assert denote(d, 1).tuples == denote(d, 3).tuples


def test_monotone_in_bound():
    p = Server("x", "y", EmptyOut("y"))
    d = check(p, {"x": OfCourse(one)})
    for k in range(3):
        assert denote(d, k).tuples <= denote(d, k + 1).tuples


def test_negative_bound_is_rejected():
    d = check(Server("x", "y", EmptyOut("y")), {"x": OfCourse(one)})
    with pytest.raises(ValueError):
        denote(d, -1)


def test_mix_product_law():
    p = Select("x", 1, EmptyOut("x"))
    q = EmptyIn("y", Inact())
    dp = check(p, {"x": Plus(one, one)})
    dq = check(q, {"y": bot}, System.CP0)
    dm = check(Mix(p, q), {"x": Plus(one, one), "y": bot}, System.CP02)
    product = {
        mk_tuple(dict(a) | dict(b)) for a in denote(dp).tuples for b in denote(dq).tuples
    }
    assert denote(dm).tuples == product


def test_well_sorted_denotations():
    ctx = {"x": Plus(one, one), "y": bot}
    for p in enumerate_processes(ctx, 5, System.CP02, markers=False):
        d = check(p, ctx, System.CP02)
        for t in denote(d, 2):
            assert set(n for n, _ in t) == set(ctx)
            for n, o in t:
                assert well_sorted(o, ctx[n])


def test_cut_commutativity_and_associativity():
    a = Plus(one, one)
    lefts = enumerate_processes({"x": a}, 4, System.CP02, markers=False)
    rights = enumerate_processes({"x": dual(a)}, 4, System.CP02, markers=False)
    for p in lefts:
        for q in rights:
            c1 = Cut("x", a, p, q)
            c2 = Cut("x", dual(a), q, p)
            assert equivalent(c1, c2, {}, System.CP02)
    # associativity: (nu x)(P | (nu y)(Q | R)) ~ (nu y)((nu x)(P | Q) | R)
    # over enumerated components at a couple of cut types
    count = 0
    for a, b in ((one, one), (Plus(one, one), one), (one, Plus(one, one))):
        ps = enumerate_processes({"x": a}, 3, System.CP02, markers=False)
        qs = enumerate_processes({"x": dual(a), "y": b}, 5, System.CP02, markers=False)
        rs = enumerate_processes({"y": dual(b), "z": one}, 5, System.CP02, markers=False)
        for p in ps[:3]:
            for q in qs[:4]:
                for r in rs[:3]:
                    c1 = Cut("x", a, p, Cut("y", b, q, r))
                    c2 = Cut("y", b, Cut("x", a, p, q), r)
                    assert equivalent(c1, c2, {"z": one}, System.CP02)
                    count += 1
    assert count >= 20


def test_weakening_and_contraction_clauses():
    from cpwb.syntax import Weak, Contract

    d = check(Weak("x", WhyNot(bot), Inact()), {"x": WhyNot(bot)}, System.CP0)
    assert denote(d).tuples == {mk_tuple({"x": bag()})}
    p = Contract("x", "a", "b", Client("a", "u", EmptyIn("u", Client("b", "v", EmptyIn("v", Inact())))))
    d = check(p, {"x": WhyNot(bot)}, System.CP0)
    assert denote(d, 2).tuples == {mk_tuple({"x": bag([STAR, STAR])})}
    # at bound 1 the merged bag exceeds the cutoff
    assert denote(d, 1).tuples == set()


def test_json_encoding():
    assert obs_to_json(STAR) == "*"
    assert obs_to_json(Pair(STAR, Tag(1, STAR))) == ["pair", "*", ["tag", 1, "*"]]
    assert obs_to_json(bag([STAR])) == ["bag", ["*"]]
    ts = {mk_tuple({"x": STAR})}
    assert dumps(tuples_to_json(ts)) == '[{"x":"*"}]'


def test_json_deterministic():
    d = check(Fwd("x", "y"), {"x": Plus(one, one), "y": With(bot, bot)})
    s1 = dumps(tuples_to_json(denote(d).tuples))
    s2 = dumps(tuples_to_json(denote(d).tuples))
    assert s1 == s2
