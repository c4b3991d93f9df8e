from math import comb

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
    from_tuples,
    mk_tuple,
    obs_key,
    obs_space,
    obs_to_json,
    space,
    space_size,
    tuples_to_json,
    well_sorted,
)
from cpwb.harness import enumerate_processes
from cpwb.syntax import (
    Bottom,
    Case,
    Client,
    Contract,
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
    Weak,
    WhyNot,
    With,
    dual,
)
from cpwb.typing import Derivation, System, TooDeep, check

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


# The sha256 of the JSON denotations of test_denotation_output_is_pinned.
DENOTATIONS_SHA256 = "7d09903ec4cd2f6a4c26f420c29b72d1fc742b516af9f4a0ac92b305f13fa063"


def test_denotation_output_is_pinned():
    # the byte-stable JSON of every process of the exponential-free,
    # exponential and cut families at K = 0, 1, 2, one line each: the suites
    # compare denotations with each other, this compares them with a fixed output
    import hashlib

    from cpwb.harness import cut_families, exp_free_families, exponential_families

    cases = [(ctx, p) for ctx, ps in exp_free_families(5) + exponential_families(5) for p in ps]
    cases += cut_families(4)
    digest, n = hashlib.sha256(), 0
    for ctx, p in cases:
        d = check(p, ctx, System.CP02)
        for k in (0, 1, 2):
            digest.update(dumps(tuples_to_json(denote(d, k).tuples)).encode() + b"\n")
            n += 1
    assert n == 1287
    assert digest.hexdigest() == DENOTATIONS_SHA256


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


def _applied_rules(monkeypatch):
    """The derivations the rules are applied to from now on, in order."""
    applied = []
    for name, rule in denotations._RULES.items():
        def counted(d, p, bound, rule=rule):
            applied.append(d)
            return rule(d, p, bound)

        monkeypatch.setitem(denotations._RULES, name, counted)
    return applied


def test_a_root_keeps_its_relation_from_its_second_denotation_on(monkeypatch):
    d = check(Server("x", "y", EmptyOut("y")), {"x": OfCourse(one)}, System.CP02)
    applied = _applied_rules(monkeypatch)
    first = denote(d)
    # denoted once, the root keeps only its mark, not a relation
    assert [id(n) for n in applied] == [id(d), id(d.premises[0])]
    assert vars(d) == {"_bound": 2, "_relation": None}
    assert denote(d) == first and len(applied) == 4
    assert isinstance(d._relation, denotations.Relation)
    assert denote(d) == first and len(applied) == 4  # the kept relation, no rule
    # inner nodes keep nothing
    assert type(d.premises[0]) is Derivation and not hasattr(d.premises[0], "__dict__")


def test_a_root_denoted_at_another_bound_gives_that_bounds_relation():
    proc, ctx = Server("x", "y", EmptyOut("y")), {"x": OfCourse(one)}
    fresh = {k: denote(check(proc, ctx, System.CP02), k) for k in (1, 2)}
    assert fresh[1].tuples != fresh[2].tuples
    d = check(proc, ctx, System.CP02)
    for k in (1, 1, 2, 2, 1, 1):
        assert denote(d, k) == fresh[k]


def test_an_over_deep_derivation_is_refused_with_a_typed_error():
    from cpwb.oracle import CProc, adequacy_check, denote_config

    # the derivation of a 5,000-deep chain (... | 0) | 0, built by hand: the
    # checker itself refuses a term this deep
    leaf = Derivation("mix0", Inact(), ())
    d = leaf
    for _ in range(5000):
        d = Derivation("mix2", Mix(d.process, Inact()), (), (d, leaf))
    for denoting in (denote, denote_config, adequacy_check):
        with pytest.raises(TooDeep, match="nested too deeply"):
            denoting(d if denoting is denote else CProc(d))


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


# --- observations as indices ---------------------------------------------------


def test_indices_encode_and_decode_over_formula_spaces():
    # index order is obs_key order, and decoding an encoded observation
    # gives it back, over every formula of depth <= 2 at K = 0, 1, 2
    from cpwb.harness import enumerate_formulas

    for a in enumerate_formulas(2):
        ctx = (("x", a),)
        for k in (0, 1, 2):
            obs = obs_space(a, k)
            assert list(obs) == sorted(obs, key=obs_key)
            assert len(set(obs)) == len(obs) == space_size(a, k) == space(a, k).size
            assert space(dual(a), k) == space(a, k)
            for i, o in enumerate(obs):
                rel = from_tuples(ctx, [(("x", o),)], k)
                assert rel.rows == {(i,)}
                assert rel.tuples() == {(("x", o),)}


def test_obs_space_of_nested_tensors_walks_each_operand_once():
    # one decoder per distinct space: *, 1+1, B and the n pairs of the chain
    import sys

    def walks(n):
        a = one
        for _ in range(n):
            a = Tensor(B, a)  # B has 7 nodes
        calls = [0]

        def profile(frame, event, arg):
            if event == "call" and frame.f_code is denotations._Decoder.__init__.__code__:
                calls[0] += 1

        denotations._decoder.cache_clear()
        old = sys.getprofile()
        sys.setprofile(profile)
        try:
            assert len(obs_space(a)) == 4**n
        finally:
            sys.setprofile(old)
        return calls[0]

    assert [walks(n) for n in range(1, 8)] == [n + 3 for n in range(1, 8)]


def test_an_observation_outside_its_space_has_no_index():
    two, bang = Plus(one, one), WhyNot(one)
    cases = [
        (one, Pair(STAR, STAR)),  # the wrong kind at each kind of space
        (Tensor(one, one), STAR),
        (Tensor(one, one), Pair(STAR, Tag(1, STAR))),
        (two, bag()),
        (two, Tag(1, Pair(STAR, STAR))),
        (bang, Tag(2, STAR)),
        (bang, bag([STAR, Tag(1, STAR)])),
        (two, Tag(0, STAR)),  # a tag index outside {1, 2}
        (two, Tag(3, STAR)),
        (bang, bag([STAR] * 3)),  # a bag past the bound
        (OfCourse(bang), bag([bag([STAR] * 3)])),
    ]
    for a, o in cases:
        assert denotations._decoder(space(a, 2)).index(o) is None, (a, o)
        ctx = (("x", a), ("y", one))
        good = mk_tuple({"x": obs_space(a, 2)[-1], "y": STAR})
        rel = from_tuples(ctx, [mk_tuple({"x": o, "y": STAR}), good], 2)
        assert rel.rows == {(space_size(a, 2) - 1, 0)} and rel.tuples() == {good}


def _rows_hold_ints(rel):
    return all(type(v) is int for row in rel.rows for v in row)


def test_relation_rows_hold_only_indices():
    from cpwb.oracle import CCon, CCut, CPar, CProc, CWeak, _config_relation
    from cpwb.transformers import _ctx_den, transformer_context

    ctxs = [{"x": OfCourse(Plus(one, one))}, {"x": WhyNot(bot), "y": Tensor(one, WhyNot(bot))},
            {"x": With(one, bot), "y": Par(bot, Plus(one, one))}]
    for ctx in ctxs:
        for p in enumerate_processes(ctx, 5, System.CP02):
            d = check(p, ctx, System.CP02)
            for k in (0, 1, 2):
                assert _rows_hold_ints(denotations._denote(d, k))
    bang, quest = OfCourse(Plus(one, one)), WhyNot(With(bot, bot))
    server = check(Server("x", "y", Select("y", 1, EmptyOut("y"))), {"x": bang})
    branch = EmptyIn("u", Weak("b", quest, Inact()))
    client = check(Contract("x", "a", "b", Client("a", "u", Case("u", branch, branch))),
                   {"x": quest}, System.CP02)
    cut = CCut("x", bang, CProc(server), CProc(client))
    two = Client("a", "u", EmptyIn("u", Client("b", "v", EmptyIn("v", Inact()))))
    configs = [
        cut,
        CPar(cut, CWeak("w", WhyNot(one), CProc(check(EmptyOut("z"), {"z": one})))),
        CCon("a", "b", CProc(check(two, {"a": WhyNot(bot), "b": WhyNot(bot)}, System.CP02))),
    ]
    for c in configs:
        for k in (0, 1, 2):
            assert _rows_hold_ints(_config_relation(c, k))
    plus = Plus(one, one)
    k = transformer_context({"x": plus, "y": WhyNot(bot)})
    xs = denotations.from_tuples(k.hole_ctx, [mk_tuple({"x": Tag(1, STAR), "y": bag([STAR])})], 2)
    rel = _ctx_den(k, xs, 2)
    assert rel.rows and _rows_hold_ints(rel) and _rows_hold_ints(xs)


def test_a_hole_tuple_past_the_bound_passes_a_bare_hole_and_no_cut():
    from cpwb.transformers import context_denotation, transformer_context
    from cpwb.typing import Hole, make_context

    big, small = mk_tuple({"x": bag([STAR] * 3)}), mk_tuple({"x": bag([STAR])})
    k = make_context(Hole(), {"x": WhyNot(bot)}, System.CP02)
    assert context_denotation(k, {big, small}, 2) == {big, small}
    k = transformer_context({"x": WhyNot(bot)})
    assert context_denotation(k, {big, small}, 2) == context_denotation(k, {small}, 2) != set()
    assert from_tuples(k.hole_ctx, {big, small}, 2).rows == {(1,)}


def test_bag_ranks_follow_the_enumeration_of_bags():
    import itertools

    for n in range(6):
        bags = [c for k in range(5) for c in itertools.combinations_with_replacement(range(n), k)]
        assert [denotations._rank(n, c) for c in bags] == list(range(len(bags)))
        assert [denotations._unrank(n, i) for i in range(len(bags))] == bags
        elems = denotations.Space("star")
        elems.capped = elems.size = n  # only the element count is read
        space = denotations.Space("bag", elems, bound=2)
        union = denotations.bag_union(space)
        for i, j in itertools.product(range(space.size), repeat=2):
            merged = tuple(sorted(bags[i] + bags[j]))
            assert union(i, j) == (bags.index(merged) if len(merged) <= 2 else None)


def test_a_space_of_many_bags_is_never_built():
    # ?T for the 7-deep chain type T of 16,384 observations has
    # comb(16,386, 2) > 10^8 bags at K = 2; weakening at it, and encoding
    # and decoding one of its bags, touch only the indices that occur
    import time

    t = one
    for _ in range(7):
        t = Tensor(Plus(Plus(one, one), Plus(one, one)), t)
    a = WhyNot(t)
    assert space_size(a, 2) == comb(16384 + 2, 2) > 10**8
    o = obs_space(t)[-1]
    start = time.perf_counter()
    d = check(Weak("w", a, EmptyOut("x")), {"x": one, "w": a}, System.CP02)
    assert denote(d, 2).tuples == {mk_tuple({"x": STAR, "w": bag()})}
    pair = mk_tuple({"w": bag([o, o])})
    rel = from_tuples((("w", a),), {pair}, 2)
    assert rel.rows == {(space_size(a, 2) - 1,)} and rel.tuples() == {pair}
    assert time.perf_counter() - start < 1.0


def test_join_tuples_composes_on_the_shared_name():
    from cpwb.denotations import join_tuples

    left = {mk_tuple({"x": Tag(i, STAR), "a": o}) for i in (1, 2) for o in (STAR, bag([STAR]))}
    right = {mk_tuple({"x": Tag(1, STAR), "b": Pair(STAR, STAR)})}
    for keep in (False, True):
        want = {
            mk_tuple({**dict(a), **dict(b)} if keep else
                     {n: o for n, o in (*a, *b) if n != "x"})
            for a in left for b in right if dict(a)["x"] == dict(b)["x"]
        }
        assert join_tuples(left, right, "x", keep) == want and len(want) == 2
    assert join_tuples(left, set(), "x") == set()


def test_join_agrees_with_join_tuples_on_every_cut():
    # both premises of every cut of the cut families, at K = 0, 1, 2
    from cpwb.denotations import join, join_tuples
    from cpwb.harness import cut_families

    for ctx, p in cut_families(4):
        d = check(p, ctx, System.CP02)
        for k in (0, 1, 2):
            left, right = (denotations._denote(q, k) for q in d.premises)
            for keep in (False, True):
                want = join_tuples(left.tuples(), right.tuples(), p.name, keep)
                assert join(left, right, p.name, keep).tuples() == want, (p, k, keep)


def test_product_agrees_with_nested_loops():
    # the product of 0 to 3 relations, one of them without rows, alone and
    # fused with an extend that drops its argument and some rows
    import itertools

    from cpwb.denotations import product

    t2 = Plus(one, one)
    ctxs = [(("a", t2),), (("b", OfCourse(one)), ("c", t2)), (("d", With(one, bot)),), (("e", one),)]
    rels = []
    for ctx in ctxs:
        names = [n for n, _ in ctx]
        every = itertools.product(*(obs_space(a, 2) for _, a in ctx))
        rels.append(from_tuples(ctx, [mk_tuple(zip(names, obs)) for obs in every], 2))
    rels[3] = rels[3]._replace(rows=frozenset())

    def fn(i):
        return None if i % 2 else i // 2

    def reference(rs, arg):
        cols, rows = set(), set()
        for choice in itertools.product(*(r.rows for r in rs)):
            row = {n: v for r, t in zip(rs, choice) for n, v in zip(r.cols, t)}
            if arg is not None:
                v = fn(row.pop(arg))
                if v is None:
                    continue
                row["z"] = v
            rows.add(tuple(row[n] for n in sorted(row)))
        return rows

    for n in range(4):
        for rs in itertools.combinations(rels, n):
            names = sorted(c for r in rs for c in r.cols)
            got = product(rs)
            assert got.cols == tuple(names) and got.rows == reference(rs, None)
            if rs:
                arg, sp = rs[0].cols[0], rs[0].spaces[0]
                got = product(rs, "z", sp, fn, (arg,), (arg,))
                assert got.cols == tuple(sorted({*names, "z"} - {arg}))
                assert got.rows == reference(rs, arg)
                assert got.spaces[got.cols.index("z")] is sp


def test_a_rule_may_enumerate_exactly_max_rows(monkeypatch):
    monkeypatch.setattr(denotations, "MAX_ROWS", 16)
    q = Plus(Plus(one, one), Plus(one, one))

    def fwd(a):
        return check(Fwd("x", "y"), {"x": a, "y": dual(a)}, System.CP02)

    def server(a):
        ctx = {"x": OfCourse(OfCourse(a)), "z": WhyNot(dual(a))}
        return check(Server("x", "y", Fwd("y", "z")), ctx, System.CP02)

    assert len(denote(fwd(Tensor(q, q))).tuples) == 16
    with pytest.raises(denotations.TooLarge, match="64 observations, more than the limit of 16"):
        denote(fwd(Tensor(q, Tensor(q, q))))
    # the forwarder under the server has |!a| = C(|a| + 2, 2) rows, and the
    # server C(|!a| + 2, 2) multisets of them: 10 at a = 1, 28 at a = 1 + 1
    assert denote(server(one)).tuples
    with pytest.raises(denotations.TooLarge, match="28 multisets of rows"):
        denote(server(Plus(one, one)))


def test_a_product_may_enumerate_exactly_max_rows(monkeypatch):
    # a product of relations, of two or of a configuration's par spine, is
    # refused before any of its rows is built when it has more than MAX_ROWS
    from cpwb.oracle import CPar, CProc, denote_config

    monkeypatch.setattr(denotations, "MAX_ROWS", 16)
    q = Plus(Plus(one, one), Plus(one, one))
    fwds = [Fwd(f"x{i}", f"y{i}") for i in range(3)]
    ctx = {n: a for f in fwds for n, a in ((f.left, q), (f.right, dual(q)))}
    ds = [check(f, {f.left: q, f.right: dual(q)}, System.CP02) for f in fwds]
    two = {n: ctx[n] for n in ("x0", "y0", "x1", "y1")}
    assert len(denote(check(Mix(fwds[0], fwds[1]), two, System.CP02)).tuples) == 16
    assert len(denote_config(CPar(CProc(ds[0]), CProc(ds[1]))).tuples) == 16
    with pytest.raises(denotations.TooLarge, match="64 rows, more than the limit of 16"):
        denote(check(Mix(Mix(fwds[0], fwds[1]), fwds[2]), ctx, System.CP02))
    with pytest.raises(denotations.TooLarge, match="64 rows, more than the limit of 16"):
        denote_config(CPar(CProc(ds[0]), CPar(CProc(ds[1]), CProc(ds[2]))))
    rels = [denotations._denote(d, 2) for d in ds]
    pair = denotations.product(rels[1:])
    monkeypatch.setattr(denotations, "_build", None)  # building a row would raise TypeError
    with pytest.raises(denotations.TooLarge, match="64 rows"):
        denotations.product(rels)
    with pytest.raises(denotations.TooLarge, match="64 rows"):
        denotations.product((rels[0], pair))


def _size(a, k):
    """The number of observations of ``a`` at bound ``k``: 1 at a unit, the
    product or the sum of the operands' numbers, and C(n + k, k) multisets
    of at most k of the n observations under an exponential."""
    match a:
        case Unit() | Bottom():
            return 1
        case Tensor(l, r) | Par(l, r):
            return _size(l, k) * _size(r, k)
        case Plus(l, r) | With(l, r):
            return _size(l, k) + _size(r, k)
        case OfCourse(b) | WhyNot(b):
            return comb(_size(b, k) + k, k)


def test_space_sizes_follow_the_closed_forms():
    import random
    import time

    from cpwb.harness import enumerate_formulas

    cap = (1 << 64) + 1
    for a in enumerate_formulas(2):
        for k in range(4):
            assert space(a, k).capped == min(_size(a, k), cap)
            assert space(a, k).size == _size(a, k)
    # !/? towers run past the cap at depth 6 at K = 2; their exact sizes have
    # about 2^depth digits
    for unit, exp in ((one, OfCourse), (bot, WhyNot)):
        a = unit
        for depth in range(21):
            for k in range(3):
                denotations.space.cache_clear()
                s = space(a, k)
                assert s.capped == min(_size(a, k), cap), (depth, k)
                assert s.size == _size(a, k)
            a = exp(a)
    # the capped bag count at a large K, and near the cap, is the capped
    # binomial; it is reached in a few steps, whatever K
    rng = random.Random(5)
    pairs = [(e, k) for e in (0, 1, 2, 3, 64, 1 << 32, cap - 1, cap) for k in (0, 1, 2, 3, 64, 1000)]
    pairs += [(rng.randrange(1 << rng.randrange(1, 70)), rng.randrange(1 << rng.randrange(1, 12)))
              for _ in range(2000)]
    for e, k in pairs:
        assert denotations._capped_bags(e, k) == min(comb(e + k, k), cap), (e, k)
    for k in (10**5, 3 * 10**5, 10**6, 10**7):
        denotations.space.cache_clear()
        start = time.perf_counter()
        assert space(WhyNot(bot), k).size == k + 1
        assert space(WhyNot(WhyNot(bot)), k).capped == cap
        assert space(Plus(one, OfCourse(one)), k).capped == k + 2
        assert time.perf_counter() - start < 1.0


def test_a_deep_exponential_type_is_sized_only_where_an_index_needs_it():
    # the exact size of 26 nested ? has some 2^26 digits; weakening at it,
    # in a process, in a configuration and under a server, encoding its
    # empty bag and the empty client at K = 0 each take well under a second
    import time

    from cpwb.oracle import CWeak, CZero, denote_config

    inner = bot
    for _ in range(25):
        inner = WhyNot(inner)
    a, empty_bag = WhyNot(inner), mk_tuple({"x": bag()})
    cases = [
        (lambda: denote(check(Weak("x", a, Inact()), {"x": a}, System.CP02)).tuples, {empty_bag}),
        (lambda: denote_config(CWeak("x", a, CZero())).tuples, {empty_bag}),
        (lambda: from_tuples((("x", a),), [empty_bag], 2).rows, {(0,)}),
        (lambda: denote(check(Client("x", "y", Weak("y", inner, Inact())), {"x": a}, System.CP02), 0).tuples,
         set()),
        (lambda: denote(check(Server("x", "y", Weak("z", a, EmptyOut("y"))), {"x": OfCourse(one), "z": a},
                              System.CP02)).tuples,
         {mk_tuple({"x": bag([STAR] * n), "z": bag()}) for n in range(3)}),
    ]
    for case, want in cases:
        denotations.space.cache_clear()
        denotations._decoder.cache_clear()
        start = time.perf_counter()
        assert case() == want
        assert time.perf_counter() - start < 1.0
