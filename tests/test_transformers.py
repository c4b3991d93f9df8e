import itertools
from functools import partial
from operator import add

import pytest

from cpwb import denotations as den
from cpwb.denotations import (
    STAR,
    Pair,
    Tag,
    TypingMismatch,
    bag,
    denote,
    equivalent,
    mk_tuple,
    obs_space,
)
from cpwb.harness import cut_families, enumerate_processes, exp_free_families, exponential_families
from cpwb.obs_transform import SortMismatch, l_obs
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
)
from cpwb.transformers import (
    check_transformer_correct,
    check_transformer_theorem,
    context_denotation,
    full_abstraction_II,
    transformer,
    transformer_context,
    transformer_graph,
    transformer_typing,
)
from cpwb.translation import closing_name
from cpwb.typing import Hole, System, TypedContext, check, fill, make_context

one, bot = Unit(), Bottom()


def test_transformer_bottom_is_forwarder():
    t = transformer(bot, "x", "x'")
    assert t == Fwd("x", "x'")
    d = check(t, transformer_typing(bot, "x", "x'"), System.CP02)
    assert denote(d).tuples == {mk_tuple({"x": STAR, "x'": STAR})}


def test_transformer_unit_denotation():
    d = check(transformer(one, "x", "x'"), transformer_typing(one, "x", "x'"), System.CP02)
    assert denote(d).tuples == {mk_tuple({"x": STAR, "x'": Pair(STAR, STAR)})}


def test_transformer_sum_denotation():
    a = Plus(one, one)
    d = check(transformer(a, "x", "x'"), transformer_typing(a, "x", "x'"), System.CP02)
    want = {
        mk_tuple({"x": Tag(i, STAR), "x'": Pair(Tag(i, Pair(Pair(STAR, STAR), STAR)), STAR)})
        for i in (1, 2)
    }
    assert denote(d).tuples == want


@pytest.mark.parametrize(
    "a",
    [
        one,
        bot,
        Tensor(one, bot),
        Par(bot, one),
        Plus(one, one),
        With(one, bot),
        OfCourse(one),
        WhyNot(bot),
        Tensor(Plus(one, one), Plus(one, one)),
        WhyNot(Plus(one, one)),
        OfCourse(With(one, one)),
        Par(Plus(one, bot), With(one, one)),
    ],
)
def test_transformer_graph_lemma(a):
    assert transformer_graph(a, 2).holds


def _whole_relation(a, bound=2):
    """The relation of the transformer at ``a``, denoted as one derivation."""
    return den._denote(check(transformer(a, "x", "x'"), transformer_typing(a, "x", "x'"), System.CP02), bound)


def _pool(**cfg):
    from cpwb.harness import SuiteConfig, _ImageTable

    return _ImageTable(SuiteConfig(**cfg)).small_formulas


def test_transformer_graphs_denote_each_transformer_as_its_whole_derivation():
    # built from its parts' kept relations, each transformer of the default
    # pool has the relation of its whole derivation
    from cpwb.transformers import _graph_relations

    pool = _pool()
    assert len(pool) == 1982
    got = list(_graph_relations(pool, 2))
    assert [a for a, _ in got] == pool
    assert all(rel == _whole_relation(a) for a, rel in got)


def test_transformer_graphs_apply_no_rule_of_a_part_denoted_before(monkeypatch):
    from cpwb.transformers import _graph_relations

    applied = []
    for name, rule in den._RULES.items():
        def counted(d, p, bound, rule=rule):
            applied.append(d.rule)
            return rule(d, p, bound)

        monkeypatch.setitem(den._RULES, name, counted)

    def rules(formulas):
        applied.clear()
        list(_graph_relations(formulas, 2))
        return len(applied)

    a = Plus(one, one)
    for compound in (OfCourse(a), Tensor(a, a), With(a, one)):
        gen = _graph_relations([a, one, compound], 2)
        next(gen), next(gen)
        applied.clear()
        [(_, rel)] = gen
        step = len(applied)
        parts = sum(rules([b]) for b in compound._fields(compound))
        assert step == rules([compound]) - parts > 0
        assert rel == _whole_relation(compound)


@pytest.mark.parametrize(
    "cfg",
    [
        {},
        {"bound": 1},
        {"bound": 3},
        {"formula_depth": 1},
        {"process_size": 7},
        {"connectives": ("one", "bot", "tensor", "ofcourse")},
    ],
)
def test_the_formula_pool_lists_each_immediate_part_before_its_compound(cfg):
    # so transformer_graphs denotes every part of a pool formula by its kept relation
    seen = set()
    for a in _pool(**cfg):
        assert set(a._fields(a)) <= seen, a
        seen.add(a)


# Three one-line mutants of denotation rules, each written out whole.


def _quest_tagged_at_zero(d, p, bound):
    # the bag of element j alone at index j, where the rule has 1 + j
    prem = den._denote(d.premises[0], bound)
    sp = den.Space("bag", den._space_of(prem, p.payload), bound=bound)
    return den.extend(prem, p.channel, sp, partial(add, 0), (p.payload,), (p.payload,))


def _with_second_branch_at_zero(d, p, bound):
    # the second branch's value j at index j, where the rule has |A| + j
    x = p.channel
    left, right = (den._denote(prem, bound) for prem in d.premises)
    sp = den.Space("tag", den._space_of(left, x), den._space_of(right, x))
    first = den.extend(left, x, sp, partial(add, 0), (x,), (x,))
    second = den.extend(right, x, sp, partial(add, 0), (x,), (x,))
    return first._replace(rows=first.rows | second.rows)


def _tensor_pair_swapped(d, p, bound):
    # the pair as (rest, payload), where the rule has (payload, rest)
    x, y = p.channel, p.payload
    left, right = (den._denote(prem, bound) for prem in d.premises)
    sp, fn = den._pair(den._space_of(right, x), den._space_of(left, y))
    return den.product((left, right), x, sp, fn, (x, y), (y, x))


@pytest.mark.parametrize(
    "rule, mutant",
    [("quest", _quest_tagged_at_zero), ("with", _with_second_branch_at_zero), ("tensor", _tensor_pair_swapped)],
)
def test_a_rule_mutant_fails_the_same_formulas_by_parts_and_whole(monkeypatch, rule, mutant):
    from cpwb.syntax import formula_depth
    from cpwb.transformers import transformer_graphs

    def graph(a):
        return {mk_tuple({"x": o, "x'": l_obs(a, o)}) for o in obs_space(a, 2)}

    # every formula of depth <= 1, so every part is kept, and a tenth of depth 2
    pool = _pool()
    pool = [a for a in pool if formula_depth(a) <= 1] + [a for a in pool if formula_depth(a) == 2][::10]
    monkeypatch.setitem(den._RULES, rule, mutant)
    by_parts = {a for a, v in zip(pool, transformer_graphs(pool, 2)) if not v.holds}
    whole = {a for a in pool if _whole_relation(a).tuples() != graph(a)}
    assert by_parts == whole
    assert any(formula_depth(a) == 2 for a in whole)


def test_client_transformer_lemma():
    # the ?-transformer denotation is the bag of wrapped graph pairs
    a = Plus(one, one)
    qa = WhyNot(a)
    d = check(transformer(qa, "x", "x'"), transformer_typing(qa, "x", "x'"), System.CP02)
    got = denote(d, 2).tuples
    graph = [(o, l_obs(a, o)) for o in obs_space(a, 2)]
    want = set()
    for k in range(3):
        for combo in itertools.combinations_with_replacement(graph, k):
            want.add(
                mk_tuple(
                    {
                        "x": bag([o for o, _ in combo]),
                        "x'": bag([Pair(Pair(i, STAR), STAR) for _, i in combo]),
                    }
                )
            )
    assert got == frozenset(want)


def test_context_derivation_of_a_transformer_cut():
    from cpwb.typing import KCut, check_context, ctx_items, make_context

    a = Plus(one, one)
    t = transformer(a, "x", "x'")
    tree = KCut("x", a, Hole(), t, ctx_items(transformer_typing(a, "x", "x'")))
    k = make_context(tree, {"x": a}, System.CP02)
    checked = check_context(k, {"x": a}, {"x'": k.result_context["x'"]}, System.CP02)
    assert checked == k
    [(node, root)] = checked.levels
    assert node is tree and root == check(t, transformer_typing(a, "x", "x'"), System.CP02)
    assert checked.hole_ctx == ctx_items({"x": a})


def test_transformer_context_shapes():
    k0 = transformer_context({})
    assert isinstance(k0, TypedContext)
    assert k0.result_context == {closing_name({}): one}
    k1 = transformer_context({"x": one})
    assert k1.result_context == {"x'": Tensor(one, bot), "w": one}


def test_a_wide_transformer_context_keeps_one_node_and_root_per_level():
    import time
    from dataclasses import fields

    from cpwb.typing import Root

    start = time.perf_counter()
    k = transformer_context({f"x{i}": one for i in range(5000)})
    assert time.perf_counter() - start < 2
    assert len(k.levels) == 5001
    # a level is its node and the root of its given process; only the
    # context itself holds a typing, at the hole and at the result
    assert all(len(level) == 2 and type(level[1]) is Root for level in k.levels)
    assert [f.name for f in fields(k)] == ["tree", "hole_ctx", "result_ctx", "levels", "system"]
    assert len(k.result_ctx) == 5001


def test_transformer_context_cut_order_is_irrelevant():
    ctx = {"x": one, "y": bot}
    k = transformer_context(ctx)
    procs = enumerate_processes(ctx, 4, System.CP02, markers=False)
    # manually build the reversed cut order and compare fills denotationally
    from cpwb.typing import KCut, KMix, ctx_items
    from cpwb.translation import prime_map

    pm = prime_map(ctx)
    tree = Hole()
    for x in sorted(ctx, reverse=True):
        tree = KCut(x, ctx[x], tree, transformer(ctx[x], x, pm[x]),
                    ctx_items(transformer_typing(ctx[x], x, pm[x])))
    tree = KMix(tree, EmptyOut("w"), ctx_items({"w": one}))
    k_rev = make_context(tree, ctx, System.CP02)
    for p in procs:
        a = denote(fill(k, p), 2).tuples
        b = denote(fill(k_rev, p), 2).tuples
        assert a == b


def test_context_denotation_hole_identity():
    k = make_context(Hole(), {"x": one}, System.CP02)
    xs = {mk_tuple({"x": STAR})}
    assert context_denotation(k, xs, 2) == frozenset(xs)


def test_context_denotation_mix_clause():
    from cpwb.typing import KMix, ctx_items

    k = make_context(KMix(Hole(), EmptyOut("y"), ctx_items({"y": one})), {}, System.CP02)
    assert context_denotation(k, {()}, 2) == frozenset({mk_tuple({"y": STAR})})


def test_context_denotation_matches_fill():
    ctx = {"x": Plus(one, one)}
    k = transformer_context(ctx)
    for p in enumerate_processes(ctx, 4, System.CP02, markers=False):
        d = check(p, ctx, System.CP02)
        via_fn = context_denotation(k, denote(d, 2).tuples, 2)
        via_fill = denote(fill(k, p), 2).tuples
        assert via_fn == via_fill


def test_fill_grafts_the_checked_derivation():
    families = exp_free_families(5) + exponential_families(5)
    families += [(ctx, [p]) for ctx, p in cut_families(4)]
    for ctx, procs in families:
        k = transformer_context(ctx)
        for p in procs:
            filled = fill(k, p)
            assert filled == check(filled.process, k.result_context, k.system)


def test_a_transformer_context_applies_its_derivations_rules_for_two_fills(monkeypatch):
    from cpwb import denotations
    from cpwb.transformers import transformer_image

    ctx = {"x": Plus(one, one), "y": bot}
    k = transformer_context(ctx)
    roots = [root for _, root in k.levels]  # the derivation of each given process of the tree
    nodes, todo = set(), list(roots)
    while todo:
        d = todo.pop()
        nodes.add(id(d))
        todo += d.premises
    applied = []
    for name, rule in denotations._RULES.items():
        def counted(d, p, bound, rule=rule):
            applied.append(id(d) in nodes)
            return rule(d, p, bound)

        monkeypatch.setitem(denotations._RULES, name, counted)
    procs = enumerate_processes(ctx, 4, System.CP02)[:6]
    per_fill = []
    for p in procs:
        applied.clear()
        d = check(p, ctx, System.CP02)
        assert transformer_image(k, d) == denote(fill(transformer_context(ctx), p)).tuples
        per_fill.append(applied.count(True))
    # the first fill marks each transformer derivation and the second keeps
    # its relation; every later fill applies none of their rules
    assert len(roots) == 3 and len(procs) == 6
    assert per_fill == [len(nodes)] * 2 + [0] * 4


def test_context_denotation_sort_mismatch():
    k = transformer_context({"x": one})
    with pytest.raises(SortMismatch):
        context_denotation(k, {mk_tuple({"y": STAR})}, 2)
    with pytest.raises(SortMismatch):
        context_denotation(k, {mk_tuple({"x": Tag(1, STAR)})}, 2)


def test_transformer_theorem_instances():
    assert check_transformer_theorem({"x": one}, {mk_tuple({"x": STAR})}).holds
    assert check_transformer_theorem({}, {()}).holds
    space = [mk_tuple({"x": a, "y": b}) for a in obs_space(bot, 2) for b in obs_space(Plus(one, one), 2)]
    for r in range(len(space) + 1):
        for xs in itertools.combinations(space, r):
            assert check_transformer_theorem({"x": bot, "y": Plus(one, one)}, set(xs)).holds


def test_transformer_correct_examples():
    cases = [
        (EmptyOut("x"), {"x": one}),
        (Inact(), {}),
        (In("x", "y", EmptyIn("y", EmptyOut("x"))), {"x": Par(bot, one)}),
        (Cut("x", one, EmptyOut("x"), EmptyIn("x", EmptyOut("y"))), {"y": one}),
        (Fwd("x", "y"), {"x": Plus(one, one), "y": With(bot, bot)}),
    ]
    for p, ctx in cases:
        assert check_transformer_correct(p, ctx).holds, p


def test_full_abstraction_II_examples():
    p = Cut("x", one, EmptyOut("x"), EmptyIn("x", EmptyOut("y")))
    v = full_abstraction_II(p, p, {"y": one})
    assert v.holds and v.source_equivalent and v.image_equivalent
    v = full_abstraction_II(p, EmptyOut("y"), {"y": one})
    assert v.holds and v.source_equivalent and v.image_equivalent
    v = full_abstraction_II(
        Select("x", 1, EmptyOut("x")), Select("x", 2, EmptyOut("x")), {"x": Plus(one, one)}
    )
    assert v.holds and not v.source_equivalent and not v.image_equivalent


def test_full_abstraction_II_typing_mismatch():
    with pytest.raises(TypingMismatch):
        full_abstraction_II(EmptyOut("x"), EmptyIn("x", Inact()), {"x": one})
    with pytest.raises(TypingMismatch):
        full_abstraction_II(
            Select("x", 1, EmptyOut("x")),
            Case("x", EmptyOut("x"), EmptyOut("x")),
            {"x": Plus(one, one)},
        )


def test_forwarder_lemma():
    assert equivalent(
        Fwd("x", "y"), Mix(EmptyOut("x"), EmptyIn("y", Inact())),
        {"x": one, "y": bot}, System.CP02,
    )


def _same(lhs, rhs, ctx):
    dl = denote(check(lhs, ctx, System.CP02), 2).tuples
    dr = denote(check(rhs, ctx, System.CP02), 2).tuples
    assert dl == dr, (lhs, rhs)


def test_transformer_equivalence_lemma_input_shape():
    # x'(y').T<P>_{y:A,x:B} ~ T<x(y).P>_{x:A par B}
    a, b = Plus(one, one), bot
    for p in enumerate_processes({"y": a, "x": b}, 4, System.CP02, markers=False):
        lhs = In("x'", "y'", fill(transformer_context({"y": a, "x": b}, "w"), p).process)
        rhs_k = transformer_context({"x": Par(a, b)}, "w")
        rhs = fill(rhs_k, In("x", "y", p)).process
        _same(lhs, rhs, rhs_k.result_context)


def test_transformer_equivalence_lemma_select_shape():
    # y'[u](u<i.u(y').T<P>_{y:Ai} | y'().0) | z[]  ~  T<y<i.P>_{y:A1+A2}
    a = Plus(one, one)
    for i, sub in ((1, one), (2, one)):
        for p in enumerate_processes({"y": sub}, 3, System.CP02, markers=False):
            inner = fill(transformer_context({"y": sub}, "u"), p).process
            lhs = Mix(
                Out("u", "y'", Select("u", i, In("u", "y'", inner)), EmptyIn("y'", Inact())),
                EmptyOut("w"),
            )
            rhs_k = transformer_context({"y": a}, "w")
            rhs = fill(rhs_k, Select("y", i, p)).process
            _same(lhs, rhs, rhs_k.result_context)


def test_transformer_equivalence_lemma_case_shape():
    # y'>{T<P1>_{y:A1} ; T<P2>_{y:A2}} ~ T<y>{P1;P2}>_{y:A1&A2}
    a1, a2 = one, bot
    k1 = transformer_context({"y": a1}, "w")
    k2 = transformer_context({"y": a2}, "w")
    rhs_k = transformer_context({"y": With(a1, a2)}, "w")
    for p1 in enumerate_processes({"y": a1}, 3, System.CP02, markers=False):
        for p2 in enumerate_processes({"y": a2}, 3, System.CP02, markers=False):
            lhs = Case("y'", fill(k1, p1).process, fill(k2, p2).process)
            rhs = fill(rhs_k, Case("y", p1, p2)).process
            _same(lhs, rhs, rhs_k.result_context)


def test_transformer_equivalence_lemma_output_shape():
    # x'[z2](z2[z1](z1(y').T<P1>_{y:A} | z2(x').T<P2>_{x:B}) | x'().0) | w[]
    #   ~ T<x[y](P1|P2)>_{x:A tensor B}
    a, b = one, Plus(one, one)
    rhs_k = transformer_context({"x": Tensor(a, b)}, "w")
    for p1 in enumerate_processes({"y": a}, 2, System.CP02, markers=False):
        for p2 in enumerate_processes({"x": b}, 3, System.CP02, markers=False):
            t1 = fill(transformer_context({"y": a}, "z1"), p1).process
            t2 = fill(transformer_context({"x": b}, "z2"), p2).process
            pair = Out("z1", "z2", In("z1", "y'", t1), In("z2", "x'", t2))
            lhs = Mix(Out("z2", "x'", pair, EmptyIn("x'", Inact())), EmptyOut("w"))
            rhs = fill(rhs_k, Out("y", "x", p1, p2)).process
            _same(lhs, rhs, rhs_k.result_context)


def test_transformer_equivalence_lemma_server_shape():
    # x'[u](!u(v).v(y').T<P>_{y:A} | x'().0) | w[]  ~  T<!x(y).P>_{x:!A}
    a = one
    rhs_k = transformer_context({"x": OfCourse(a)}, "w")
    for p in enumerate_processes({"y": a}, 2, System.CP02, markers=False):
        inner = fill(transformer_context({"y": a}, "v"), p).process
        srv = Out("u", "x'", Server("u", "v", In("v", "y'", inner)), EmptyIn("x'", Inact()))
        lhs = Mix(srv, EmptyOut("w"))
        rhs = fill(rhs_k, Server("x", "y", p)).process
        _same(lhs, rhs, rhs_k.result_context)


def test_transformer_equivalence_lemma_client_shape():
    # ?x'[m].m[v](v(y').T<P>_{y:A} | m().0) | w[]  ~  T<?x[y].P>_{x:?A}
    a = Plus(one, one)
    rhs_k = transformer_context({"x": WhyNot(a)}, "w")
    for p in enumerate_processes({"y": a}, 3, System.CP02, markers=False):
        inner = fill(transformer_context({"y": a}, "v"), p).process
        cli = Client("x'", "m", Out("v", "m", In("v", "y'", inner), EmptyIn("m", Inact())))
        lhs = Mix(cli, EmptyOut("w"))
        rhs = fill(rhs_k, Client("x", "y", p)).process
        _same(lhs, rhs, rhs_k.result_context)
