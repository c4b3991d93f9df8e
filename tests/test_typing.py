import pytest

from cpwb import syntax, typing as cp_typing
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
from cpwb.typing import (
    CpwbError,
    CPTypeError,
    Derivation,
    Hole,
    HoleTypeMismatch,
    KCut,
    KMix,
    LinearityViolation,
    NonBangContext,
    Root,
    RuleMismatch,
    System,
    SystemViolation,
    TooDeep,
    TypeMismatch,
    UnboundName,
    check,
    check_context,
    ctx_items,
    fill,
    make_context,
)

one, bot = Unit(), Bottom()


def test_check_unit():
    d = check(EmptyOut("x"), {"x": one})
    assert d.rule == "one"
    assert d.context == {"x": one}


def test_check_mix0_system():
    with pytest.raises(SystemViolation):
        check(Inact(), {}, System.CP)
    assert check(Inact(), {}, System.CP0).rule == "mix0"


def test_check_fwd_needs_duals():
    with pytest.raises(RuleMismatch):
        check(Fwd("x", "y"), {"x": one, "y": one})
    d = check(Fwd("x", "y"), {"x": one, "y": bot})
    assert d.rule == "id"


def test_error_taxonomy():
    with pytest.raises(UnboundName):
        check(EmptyOut("x"), {"y": one})
    with pytest.raises(LinearityViolation):
        check(EmptyOut("x"), {"x": one, "y": one})
    with pytest.raises(RuleMismatch):
        check(EmptyOut("x"), {"x": bot})
    with pytest.raises(NonBangContext):
        check(Server("x", "y", EmptyIn("z", EmptyOut("y"))), {"x": OfCourse(one), "z": bot})
    with pytest.raises(SystemViolation):
        check(Mix(EmptyOut("x"), EmptyOut("y")), {"x": one, "y": one}, System.CP0)
    with pytest.raises(LinearityViolation):
        # name used in both tensor components
        check(
            Out("y", "x", Fwd("y", "z"), Fwd("x", "z")),
            {"x": Tensor(one, one), "z": bot},
        )


def test_weak_contract_markers():
    d = check(Weak("x", WhyNot(bot), Inact()), {"x": WhyNot(bot)}, System.CP0)
    assert d.rule == "weak"
    with pytest.raises(RuleMismatch):
        check(Weak("x", WhyNot(one), Inact()), {"x": WhyNot(bot)}, System.CP0)
    p = Contract("x", "a", "b", Client("a", "u", EmptyIn("u", Weak("b", WhyNot(bot), Inact()))))
    d = check(p, {"x": WhyNot(bot)}, System.CP0)
    assert d.rule == "contract"


def test_cut_annotation_drives_split():
    p = Cut("x", one, EmptyOut("x"), EmptyIn("x", EmptyOut("y")))
    d = check(p, {"y": one})
    assert d.rule == "cut"
    assert [prem.rule for prem in d.premises] == ["one", "bot"]
    with pytest.raises(RuleMismatch):
        check(Cut("x", bot, EmptyOut("x"), EmptyIn("x", EmptyOut("y"))), {"y": one})


def test_determinism_and_subject():
    p = Case("x", EmptyOut("x"), EmptyIn("x", Inact()))
    ctx = {"x": With(one, bot)}
    d1 = check(p, ctx, System.CP0)
    d2 = check(p, ctx, System.CP0)
    assert d1 == d2
    assert d1.process == p
    assert d1.context == ctx


def test_monotonicity_over_systems():
    for ctx in ({"x": one}, {"x": Plus(one, one)}, {"x": With(one, bot)}):
        for p in enumerate_processes(ctx, 4, System.CP02, markers=False):
            try:
                check(p, ctx, System.CP)
            except SystemViolation:
                continue
            check(p, ctx, System.CP0)
            check(p, ctx, System.CP02)


def test_context_hole_axiom():
    k = make_context(Hole(), {"x": one}, System.CP)
    assert k.result_ctx == ctx_items({"x": one})
    check_context(k, {"x": one}, {"x": one}, System.CP)
    with pytest.raises(HoleTypeMismatch):
        check_context(k, {"x": bot}, {"x": one}, System.CP)


def test_context_cut_and_mix():
    closer = EmptyIn("x", EmptyOut("y"))
    tree = KCut("x", one, Hole(), closer, ctx_items({"x": bot, "y": one}))
    k = make_context(tree, {"x": one}, System.CP0)
    assert k.result_context == {"y": one}
    tree2 = KMix(Hole(), EmptyOut("z"), ctx_items({"z": one}))
    k2 = make_context(tree2, {"x": one}, System.CP02)
    assert k2.result_context == {"x": one, "z": one}
    with pytest.raises(SystemViolation):
        make_context(tree2, {"x": one}, System.CP0)


def test_context_rejects_ill_typed_embedded_process():
    bad = KMix(Hole(), EmptyOut("z"), ctx_items({"z": bot}))
    with pytest.raises(RuleMismatch):
        make_context(bad, {"x": one}, System.CP02)


def test_fill():
    k = make_context(Hole(), {"x": one}, System.CP)
    assert fill(k, EmptyOut("x")).process == EmptyOut("x")
    closer = EmptyIn("x", EmptyOut("y"))
    tree = KCut("x", one, Hole(), closer, ctx_items({"x": bot, "y": one}))
    k2 = make_context(tree, {"x": one}, System.CP0)
    filled = fill(k2, EmptyOut("x"))
    assert filled.process == Cut("x", one, EmptyOut("x"), closer)
    assert filled == check(filled.process, k2.result_context, System.CP0)
    with pytest.raises(TypeMismatch):
        fill(k2, EmptyIn("x", Inact()))


def test_fill_round_trip_enumerated():
    # the fill lemma at small scale: the grafted derivation is the one
    # that checking the filled process at the result typing finds
    for a in (one, Plus(one, one), With(one, bot)):
        hole = {"x": a}
        closer_ctx = {"x": dual(a), "y": one}
        for closer in enumerate_processes(closer_ctx, 4, System.CP02, markers=False)[:5]:
            tree = KCut("x", a, Hole(), closer, ctx_items(closer_ctx))
            for side in enumerate_processes({"z": one}, 3, System.CP02, markers=False)[:2]:
                mixed = KMix(tree, side, ctx_items({"z": one}))
                k = make_context(mixed, hole, System.CP02)
                for p in enumerate_processes(hole, 4, System.CP02, markers=False):
                    filled = fill(k, p)
                    assert filled == check(filled.process, k.result_context, k.system)


# --- the rule table and derivation records ---------------------------------------


def _processes():
    """The process classes that ``cpwb.syntax`` exports, found by walking
    ``Process.__subclasses__()``."""
    todo, found = [syntax.Process], set()
    while todo:
        for sub in todo.pop().__subclasses__():
            todo.append(sub)
            if vars(syntax).get(sub.__name__) is sub:
                found.add(sub)
    return found


def test_every_process_class_has_a_rule():
    classes = _processes()
    assert len(classes) == 14
    assert classes == set(cp_typing._RULES)
    assert len({rule for rule, _ in cp_typing._RULES.values()}) == 14


def test_check_of_a_non_process_raises_a_type_error():
    for bad in ("x[]", one, None, KMix(Hole(), EmptyOut("z"), ())):
        with pytest.raises(CPTypeError, match="not a process"):
            check(bad, {}, System.CP02)


def test_derivations_are_records_that_stay_frozen():
    d = check(Cut("x", one, EmptyOut("x"), EmptyIn("x", Inact())), {}, System.CP0)
    assert isinstance(d, Derivation)
    assert (d.rule, d.ctx, [p.rule for p in d.premises]) == ("cut", (), ["one", "bot"])
    assert d.premises[0].context == {"x": one}
    assert d == Derivation(d.rule, d.process, d.ctx, d.premises)
    assert repr(d.premises[1].premises[0]) == (
        "Derivation(rule='mix0', process=Inact(), ctx=(), premises=())"
    )
    for field in ("rule", "process", "ctx", "premises"):
        with pytest.raises(AttributeError):
            setattr(d, field, None)


def test_a_root_compares_hashes_and_prints_as_a_plain_derivation():
    from cpwb.denotations import denote

    d = check(Cut("x", one, EmptyOut("x"), EmptyIn("x", Inact())), {}, System.CP0)
    plain = Derivation(*d)
    assert type(d) is Root and type(plain) is Derivation
    assert all(type(p) is Derivation for p in d.premises)  # inner nodes keep nothing
    for _ in range(3):  # unmarked, then marked, then keeping its relation
        assert d == plain and plain == d and hash(d) == hash(plain)
        assert {plain: "found"}[d] == "found"
        assert repr(d) == str(d) == repr(plain)
        denote(d)
    for field in ("rule", "process", "ctx", "premises"):
        with pytest.raises(AttributeError):
            setattr(d, field, None)


def _mix_chain(n):
    p = EmptyOut("x0")
    for i in range(1, n):
        p = Mix(p, EmptyOut(f"x{i}"))
    return p, {f"x{i}": one for i in range(n)}


def test_an_over_deep_term_is_refused_with_a_typed_error():
    p, ctx = _mix_chain(5000)
    with pytest.raises(TooDeep, match="nested too deeply") as e:
        check(p, ctx, System.CP02)
    assert isinstance(e.value, CpwbError) and not isinstance(e.value, CPTypeError)
    with pytest.raises(TooDeep):
        make_context(KMix(Hole(), p, ctx_items(ctx)), {}, System.CP02)
    assert check(*_mix_chain(100), System.CP02).rule == "mix2"


def test_split_reports_the_first_missing_name_in_sorted_order():
    p = Mix(Mix(EmptyOut("c"), EmptyOut("b")), EmptyOut("a"))
    with pytest.raises(UnboundName, match="name a not in context"):
        check(p, {"c": one}, System.CP02)


# --- typed contexts are walked along their spine, in loops --------------------


def _ctx_error(tree, hole, system=System.CP02):
    with pytest.raises(CPTypeError) as e:
        make_context(tree, hole, system)
    return type(e.value), str(e.value)


def test_every_context_tree_error_keeps_its_message():
    x1 = {"x": one}
    cut = lambda name, annot, right, rctx: KCut(name, annot, Hole(), right, ctx_items(rctx))
    assert _ctx_error(cut("z", one, EmptyIn("z", Inact()), {"z": bot}), x1) == (
        HoleTypeMismatch, "cut name z is not offered below the hole")
    assert _ctx_error(cut("x", bot, EmptyOut("x"), {"x": one}), x1) == (
        HoleTypeMismatch, "cut annotation bot disagrees with 1 below the hole")
    assert _ctx_error(cut("x", one, EmptyOut("y"), {"y": one}), x1) == (
        HoleTypeMismatch, "right side of cut must use x at bot")
    right = EmptyIn("x", EmptyOut("y"))
    assert _ctx_error(cut("x", one, right, {"x": bot, "y": one}), {"x": one, "y": one}) == (
        LinearityViolation, "name y occurs on both sides of a context cut")
    mix = KMix(Hole(), EmptyOut("x"), ctx_items(x1))
    assert _ctx_error(mix, x1) == (
        LinearityViolation, "name x occurs on both sides of a context mix")
    assert _ctx_error(KMix(Hole(), EmptyOut("y"), ctx_items({"y": one})), x1, System.CP) == (
        SystemViolation, "context mix needs Mix2")
    assert _ctx_error(KCut("x", one, "junk", EmptyIn("x", Inact()), ()), x1) == (
        CPTypeError, "not a context tree: 'junk'")
    # a mix above a broken cut is refused for the mix first, as the tree is read top down
    broken = KMix(cut("x", bot, EmptyOut("x"), {"x": one}), EmptyOut("y"), ctx_items({"y": one}))
    assert _ctx_error(broken, x1, System.CP) == (SystemViolation, "context mix needs Mix2")
    # the right process is checked after the cut's own conditions, before the names merge
    assert _ctx_error(cut("x", one, EmptyOut("x"), {"x": bot}), x1)[0] is RuleMismatch


def test_a_5000_deep_context_is_built_filled_and_denoted_in_loops():
    from cpwb.denotations import STAR, mk_tuple
    from cpwb.transformers import context_denotation

    tree = Hole()
    for _ in range(5000):
        tree = KMix(tree, Inact(), ())
    k = make_context(tree, {"x": one}, System.CP02)
    d = fill(k, EmptyOut("x"))
    assert d.rule == "mix2" and d.ctx == ctx_items({"x": one})
    g = cp_typing.graft(k, check(EmptyOut("x"), {"x": one}))
    assert g.ctx == d.ctx and g.premises[1] is d.premises[1]  # the context's own derivations
    with pytest.raises(HoleTypeMismatch, match="context expects hole typing"):
        cp_typing.graft(k, check(EmptyOut("y"), {"y": one}))
    assert context_denotation(k, {mk_tuple({"x": STAR})}) == {mk_tuple({"x": STAR})}


@pytest.mark.parametrize("p, ctx, error, message", [
    (Out("y", "x", EmptyOut("y"), EmptyIn("x", Inact())), {"x": Tensor(one, bot), "z": one},
     LinearityViolation, "unused assignments: ['z']"),
    (In("x", "y", Inact()), {"x": Par(one, bot), "y": one},
     LinearityViolation, "binder y shadows an assignment"),
    (Out("y", "x", Inact(), Inact()), {"x": one}, RuleMismatch, "output needs a tensor type, got 1"),
    (In("x", "y", Inact()), {"x": one}, RuleMismatch, "input needs a par type, got 1"),
    (In("x", "x", Inact()), {"x": Par(one, bot)},
     RuleMismatch, "receive binder collides with its channel"),
    (Server("x", "x", Inact()), {"x": OfCourse(one)},
     RuleMismatch, "server binder collides with its channel"),
    (Client("x", "x", Inact()), {"x": WhyNot(one)},
     RuleMismatch, "client binder collides with its channel"),
    (Select("x", 3, EmptyOut("x")), {"x": Plus(one, one)},
     RuleMismatch, "selection index must be 1 or 2, got 3"),
    (Server("x", "y", Inact()), {"x": one}, RuleMismatch, "server needs a !-type, got 1"),
    (Client("x", "y", Inact()), {"x": one}, RuleMismatch, "client needs a ?-type, got 1"),
    (Weak("x", one, Inact()), {"x": one},
     RuleMismatch, "weakening marker needs a ?-type annotation, got 1"),
    (Contract("x", "a", "b", Inact()), {"x": one}, RuleMismatch, "contraction needs a ?-type, got 1"),
    (Contract("x", "a", "a", Inact()), {"x": WhyNot(one)},
     RuleMismatch, "contraction binders must be distinct"),
    (Cut("x", one, EmptyOut("x"), EmptyIn("x", Inact())), {"x": one},
     LinearityViolation, "cut binder x shadows an assignment"),
])
def test_every_rule_error_keeps_its_message(p, ctx, error, message):
    with pytest.raises(CPTypeError) as e:
        check(p, ctx, System.CP02)
    assert (type(e.value), str(e.value)) == (error, message)


def test_check_context_names_a_result_it_does_not_produce():
    k = make_context(KMix(Hole(), EmptyOut("y"), ctx_items({"y": one})), {"x": one}, System.CP02)
    with pytest.raises(CPTypeError) as e:
        check_context(k, {"x": one}, {"x": one}, System.CP02)
    assert (type(e.value), str(e.value)) == (
        HoleTypeMismatch, "context produces {'x': Unit(), 'y': Unit()}, expected {'x': Unit()}")


# --- the one walk against the rules ---------------------------------------------


def _well_typed():
    """(process, context) pairs that check at CP02: the enumerated families,
    their negative translations and the transformers of the depth-2 pool."""
    from cpwb.harness import cut_families, exp_free_families, exponential_families, formula_pool
    from cpwb.transformers import transformer, transformer_typing
    from cpwb.translation import translate_process, translated_context

    sources = [(p, ctx) for ctx, ps in exp_free_families(6) + exponential_families(6) for p in ps]
    sources += [(p, ctx) for ctx, p in cut_families(5)]
    clients = {"x": WhyNot(bot)}
    sources += [(p, clients) for p in enumerate_processes(clients, 9, System.CP02)]
    yield from sources
    for p, ctx in sources:
        yield translate_process(check(p, ctx, System.CP02)), translated_context(ctx)
    for a in formula_pool(2):
        yield transformer(a, "x", "x'"), transformer_typing(a, "x", "x'")


def _near_miss(p, ctx, i):
    """The well-typed ``p`` at ``ctx`` changed in one place, the kind of
    change chosen by ``i``: a free name substituted by another context name,
    a context name dropped, a context type replaced by its dual, a side
    process ``v[]`` mixed into the first premise or swapped with it, or an
    extra name (one that p binds, where there is one) added."""
    names = sorted(ctx)
    premises = p._shape[2]
    kind = i % 6
    if names and kind < 3:
        n = names[i % len(names)]
        if kind == 0:
            others = [m for m in names if m != n] or ["v"]
            return syntax.substitute(p, others[i % len(others)], n), ctx
        if kind == 1:
            return p, {m: a for m, a in ctx.items() if m != n}
        return p, {**ctx, n: dual(ctx[n])}
    if premises and kind > 3:
        v = syntax.fresh_name("v", syntax.all_names(p) | set(ctx))
        fields = list(p._fields(p))
        first = fields[premises[0][0]]
        fields[premises[0][0]] = Mix(first, EmptyOut(v)) if kind == 4 else EmptyOut(v)
        q = type(p)(*fields)
        return (q if kind == 4 else Mix(q, first)), {**ctx, v: one}
    extra = sorted(syntax.all_names(p) - set(ctx)) or ["v"]
    return p, {**ctx, extra[i % len(extra)]: ctx[names[i % len(names)]] if names else one}


def _outcome(fn, *args):
    try:
        return fn(*args)
    except CPTypeError as e:
        return type(e), str(e)


def test_the_walk_gives_the_rules_derivation_and_refuses_what_they_refuse():
    # the walk is checked apart from check's fall-back to the rules, which
    # would hide a term the walk accepts and the rules refuse
    checked = accepted = 0
    for i, (p, ctx) in enumerate(_well_typed()):
        for q, qctx, systems in ((p, ctx, (System.CP02,)), (*_near_miss(p, ctx, i), System)):
            for system in systems:
                rules = _outcome(cp_typing._check, q, dict(qctx), system)
                derivation = rules if isinstance(rules, Derivation) else None
                assert cp_typing._walked(q, qctx, system) == derivation, (q, qctx, system)
                assert _outcome(check, q, qctx, system) == rules
                checked += 1
                accepted += derivation is not None
    assert (checked, accepted) == (44776, 12896)


def test_a_term_too_deep_for_the_walk_is_refused_without_the_rules(monkeypatch):
    import sys

    def entered(*args):
        raise AssertionError("the rules walked the term again")

    monkeypatch.setattr(cp_typing, "_check", entered)
    p, ctx = _mix_chain(sys.getrecursionlimit() + 1)
    with pytest.raises(TooDeep, match="nested too deeply"):
        check(p, ctx, System.CP02)
