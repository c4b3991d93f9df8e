import pytest

from cpwb import denotations, syntax
from cpwb.denotations import (
    Bag,
    Pair,
    STAR,
    Star,
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
    In,
    Inact,
    Mix,
    OfCourse,
    Out,
    Par,
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


def test_empty_branches_keep_their_columns():
    # at K = 0 both branches of the case are empty; the empty union must
    # still carry the context's names for the input prefix above it
    q = Client("y", "u", EmptyIn("u", EmptyIn("z", Inact())))
    p = In("z", "x", Case("x", EmptyIn("x", q), EmptyIn("x", q)))
    d = check(p, {"z": Par(With(bot, bot), bot), "y": WhyNot(bot)}, System.CP02)
    assert denote(d, 0).tuples == set()
    assert len(denote(d, 1).tuples) == 2


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


# --- the nested-tensor chain and the one-denotation-per-node law ---------------

B = Plus(Plus(one, one), Plus(one, one))


def chain(n):
    """``x[y_1](fwd y_1 u_1 | ... x[])`` at ``x: B * (B * ... 1)``, ``u_i: dual(B)``."""
    proc, typ, ctx = EmptyOut("x"), one, {}
    for i in reversed(range(1, n + 1)):
        proc = Out(f"y{i}", "x", Fwd(f"y{i}", f"u{i}"), proc)
        typ = Tensor(B, typ)
        ctx[f"u{i}"] = dual(B)
    ctx["x"] = typ
    return proc, ctx


def test_chain_denotation_closed_form():
    obs = [Tag(i, Tag(j, STAR)) for i in (1, 2) for j in (1, 2)]
    for n in range(1, 6):
        rows = [((), STAR)]  # (u_i observations, x observation), built from the tail
        for _ in range(n):
            rows = [((o, *us), Pair(o, xo)) for o in obs for us, xo in rows]
        want = {
            tuple(sorted([("x", xo)] + [(f"u{i}", u) for i, u in enumerate(us, 1)]))
            for us, xo in rows
        }
        proc, ctx = chain(n)
        assert denote(check(proc, ctx, System.CP02)).tuples == want
        assert len(want) == 4**n


def _nodes(d):
    return 1 + sum(_nodes(prem) for prem in d.premises)


def _count_denote_calls(monkeypatch, d):
    calls = []
    real = denotations._denote

    def counting(d, bound):
        calls.append(d)
        return real(d, bound)

    monkeypatch.setattr(denotations, "_denote", counting)
    denote(d)
    return len(calls)


def test_each_derivation_node_is_denoted_once(monkeypatch):
    proc, ctx = chain(5)
    d = check(proc, ctx, System.CP02)
    assert _count_denote_calls(monkeypatch, d) == _nodes(d) == 11
    plus = Plus(one, one)
    p = Mix(Mix(Fwd("a", "b"), Select("c", 1, EmptyOut("c"))),
            Mix(Select("e", 2, EmptyOut("e")), Fwd("f", "g")))
    ctx = {"a": plus, "b": dual(plus), "c": plus, "e": plus, "f": plus, "g": dual(plus)}
    d = check(p, ctx, System.CP02)
    assert _count_denote_calls(monkeypatch, d) == _nodes(d) == 9


def test_each_process_node_gets_its_free_names_once(monkeypatch):
    proc, ctx = chain(5)
    entered = []
    real = syntax._free_names

    def counting(p):
        entered.append(p)
        return real(p)

    monkeypatch.setattr(syntax, "_free_names", counting)
    d = check(proc, ctx, System.CP02)
    # the checker splits every Out below the root, so it needs the free names
    # of every node but the root
    assert len(entered) == len({id(p) for p in entered}) == _nodes(d) - 1 == 10


def _product(left, right):
    return {tuple(sorted(a + b)) for a in left for b in right}


def test_config_par_and_context_mix_are_products():
    from cpwb.oracle import CPar, CProc, denote_config
    from cpwb.transformers import context_denotation
    from cpwb.typing import Hole, KMix, ctx_items, make_context

    d1 = check(Fwd("x", "y"), {"x": Plus(one, one), "y": With(bot, bot)}, System.CP02)
    d2 = check(Case("z", EmptyOut("z"), EmptyOut("z")), {"z": With(one, one)}, System.CP02)
    want = _product(denote(d1).tuples, denote(d2).tuples)
    assert len(want) == 4
    assert denote_config(CPar(CProc(d1), CProc(d2))).tuples == want
    k = make_context(KMix(Hole(), d1.process, d1.ctx), {"z": With(one, one)}, System.CP02)
    xs = denote(d2).tuples
    assert context_denotation(k, xs) == want


def test_equal_observations_hash_equal():
    a = Pair(Tag(2, Star()), Bag((Tag(1, Star()), Star(), bag([Star()]))))
    b = Pair(Tag(2, STAR), bag([bag([STAR]), STAR, Tag(1, STAR)]))
    assert a is not b and a == b and hash(a) == hash(b)
    assert {a: 1}[b] == 1
    assert Pair(STAR, STAR) != Tag(1, STAR) and Tag(1, STAR) != Tag(2, STAR)
    assert bag([STAR]) != bag([STAR, STAR]) and bag() == Bag(())
