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

    # the direct dual translation, which the process translation, the
    # synchronizers and the transformers use, against the route through the
    # intuitionistic grammar that neg_image's docstring names: on all 1,982
    # formulas of depth <= 2 and on deeper ones
    monkeypatch.setattr(harness, "POOL_PER_LEVEL", 600)
    pool = harness.formula_pool(4)
    assert len(pool) > 3000 and set(harness.enumerate_formulas(2)) <= set(pool)
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


# --- the one-walk translation: pinned output, captures, no re-check, depth ----

# The sha256 of the printed translations of test_translation_output_is_pinned.
TRANSLATIONS_SHA256 = "1c651543c337e6a171e57ba2eb1a4bde62448ae6325b952ce23c4417ac81f808"


def test_translation_output_is_pinned():
    # one printed translation per line, over the exponential-free, cut and
    # exponential families: the suites compare denotations of translations,
    # this compares the terms themselves, fresh names included
    import hashlib

    from cpwb.cli import format_process
    from cpwb.harness import cut_families, exp_free_families, exponential_families

    cases = [(ctx, p) for ctx, ps in exp_free_families(5) for p in ps] + cut_families(4)
    cases += [(ctx, p) for ctx, ps in exponential_families(7) for p in ps]
    lines = [format_process(translate_process(check(p, ctx, System.CP02))) for ctx, p in cases]
    assert len(lines) == 2486
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == TRANSLATIONS_SHA256


@pytest.mark.parametrize(
    "source, ctx, image",
    [
        # the binder x' would capture x's image: it becomes x'0
        ("x(x').x'().x().0", "x:(bot % bot)", "x'(x'0).x'0().x'().w[]"),
        # each side of a cut renames the binder on its own: only the right one sees x
        (
            "new x':1 (x'[] | x'().x().0)",
            "x:bot",
            "new w0:(1 * bot) (new z:((1 * bot) % 1) (z(x').x'[u](u[] | fwd x' z) | "
            "z[m](m(v).w0[u0](fwd u0 v | fwd w0 m) | fwd z w)) | w0(x'0).x'0().x'().w0[])",
        ),
        # an output re-binds its channel x' in its continuation, where it stays unprimed
        (
            "x'[y](y[] | x'().x().0)",
            "x:bot, x':(1 * bot)",
            "x'''[z0](z0[z](z(y).y[u](u[] | fwd y z) | z0(x').x'().x''().z0[]) | fwd x''' w)",
        ),
        # x is not free under the contraction, so its binder x' keeps its name
        (
            "ctr x<x',y>.weak x':?bot.weak y:?bot.0",
            "x:?bot",
            "ctr x'<x',y>.weak x':?((bot % 1) * bot).weak y:?((bot % 1) * bot).w[]",
        ),
        # the binder w would capture the closing name w: it becomes w0
        ("x(w).w().x().0", "x:(bot % bot)", "x'(w0).w0().x'().w[]"),
        # a renamed binder is drawn from the walk's supply, so the cut's
        # fresh names drawn after it avoid it: w0 stays free in w1's scope
        (
            "x(w).new y:1 (y[] | y().w().x().0)",
            "x:(bot % bot)",
            "x'(w0).new w1:(1 * bot) (new z:((1 * bot) % 1) (z(y).y[u](u[] | fwd y z) | "
            "z[m](m(v).w1[u0](fwd u0 v | fwd w1 m) | fwd z w)) | w1(y).y().w0().x'().w1[])",
        ),
    ],
)
def test_translation_renames_a_binder_only_where_it_would_capture(source, ctx, image):
    from cpwb.cli import format_process, parse_context, parse_process

    ctx = parse_context(ctx)
    lp = translate_process(check(parse_process(source), ctx, System.CP02))
    assert format_process(lp) == image
    check(lp, translated_context(ctx), System.CP02)


def _one_binder_renamed(p, to):
    """Each process that renames one binder of ``p`` to ``to``, in its scope too."""
    from dataclasses import fields, replace

    from cpwb.syntax import Process, substitute

    binders, scope = type(p).binds
    for b in binders:
        old = getattr(p, b)
        if old != to:
            yield replace(p, **{b: to}, **{s: substitute(getattr(p, s), to, old) for s in scope})
    for f in fields(p):
        sub = getattr(p, f.name)
        if isinstance(sub, Process):
            for q in _one_binder_renamed(sub, to):
                yield replace(p, **{f.name: q})


def test_a_binder_named_like_the_closing_name_does_not_capture_it():
    # every binder of the families renamed, one at a time, to the closing name w
    from cpwb.harness import cut_families, exp_free_families, exponential_families
    from cpwb.obs_transform import translation_image, translation_verdict
    from cpwb.typing import CPTypeError

    cases = [(ctx, p) for ctx, ps in exp_free_families(5) for p in ps] + cut_families(4)
    cases += [(ctx, p) for ctx, ps in exponential_families(5) for p in ps]
    typed = 0
    for ctx, p in cases:
        assert closing_name(ctx) == "w"
        for q in _one_binder_renamed(p, "w"):
            try:
                d = check(q, ctx, System.CP02)
            except CPTypeError:
                continue
            typed += 1
            image = translation_image(d)  # checks the translation at its typing
            assert translation_verdict(ctx, denote(d).tuples, image).holds, (q, ctx)
    assert typed == 484


def test_translating_a_forwarder_runs_no_type_check(monkeypatch):
    from cpwb import typing as cptyping

    cases = [
        (Fwd("x", "y"), {"x": Tensor(one, bot), "y": Par(bot, one)}),
        (Fwd("x", "y"), {"x": OfCourse(one), "y": WhyNot(bot)}),
        (Fwd("y", "x"), {"x": OfCourse(Plus(one, one)), "y": WhyNot(With(bot, bot))}),
        (In("x", "y", Fwd("y", "x")), {"x": Par(WhyNot(bot), OfCourse(one))}),
    ]
    derivations = [(check(p, ctx, System.CP02), ctx) for p, ctx in cases]
    calls = []
    real = cptyping._check
    monkeypatch.setattr(cptyping, "_check", lambda *args: calls.append(args) or real(*args))
    images = [(translate_process(d), ctx) for d, ctx in derivations]
    assert calls == []
    monkeypatch.undo()
    for lp, ctx in images:
        check(lp, translated_context(ctx), System.CP02)


def _deepest_checked(build, start=330):
    """The derivation of ``build(n)`` for the largest n <= start that check accepts here."""
    from cpwb.typing import TooDeep

    for n in range(start, 0, -1):
        try:
            return n, check(*build(n), System.CP02)
        except TooDeep:
            pass


def _mix_chain(n):
    from cpwb.syntax import Mix

    p, ctx = EmptyOut("x0"), {"x0": one}
    for i in range(1, n):
        p, ctx[f"x{i}"] = Mix(p, EmptyOut(f"x{i}")), one
    return p, ctx


def _forwarder_at_a_deep_tensor(n):
    a, da = one, bot  # da is dual(a), built alongside it
    for _ in range(n):
        a, da = Tensor(one, a), Par(bot, da)
    return Fwd("x", "y"), {"x": a, "y": da}


@pytest.mark.parametrize("build", [_mix_chain, _forwarder_at_a_deep_tensor])
def test_a_term_that_checks_translates_within_the_stack(build):
    # the walk takes one frame per process level, and an eta-expansion walks
    # no deeper than check's dual of the forwarder's type
    n, d = _deepest_checked(build)
    assert n >= 250
    assert isinstance(translate_process(d), (Cut, In))


# Names that the translation itself makes: the closing name, its fresh
# variants and primed names.
HOSTILE_NAMES = ("w", "w0", "x'", "x''", "y'")


def _renamed_free(p, names):
    from cpwb.syntax import substitute

    for old, new in names.items():  # no new name is free in p, so one at a time is simultaneous
        p = substitute(p, new, old)
    return p


def _binders_redrawn(p, rng):
    """An alpha-variant of ``p``: each binder renamed to a name of
    ``HOSTILE_NAMES`` drawn by ``rng`` that is free neither in its node nor
    in its scope, nor is another binder of its node (past the pool, a fresh
    ``w`` name)."""
    from dataclasses import fields, replace

    from cpwb.syntax import Process, free_names, fresh_name, substitute

    binders, scope = type(p).binds
    olds = [getattr(p, b) for b in binders]
    avoid = set(free_names(p)).union(olds, *(free_names(getattr(p, s)) for s in scope))
    news = []
    for _ in olds:
        names = [n for n in HOSTILE_NAMES if n not in avoid]
        news.append(rng.choice(names) if names else fresh_name("w", avoid))
        avoid.add(news[-1])
    changes = dict(zip(binders, news))
    for s in scope:
        q = getattr(p, s)
        for old, new in zip(olds, news):
            q = substitute(q, new, old)
        changes[s] = q
    p = replace(p, **changes)
    subs = {f.name: getattr(p, f.name) for f in fields(p)}
    return replace(p, **{f: _binders_redrawn(q, rng) for f, q in subs.items() if isinstance(q, Process)})


def _classes(values):
    """The partition of ``values`` by equality, as the first index of each one's class."""
    first = {}
    return tuple(first.setdefault(v, i) for i, v in enumerate(values))


def test_names_drawn_from_a_hostile_pool_change_no_denotation_image_or_verdict():
    # every instance of the translation families, its context names and its
    # binders redrawn from names the translation itself makes
    import random

    from cpwb.harness import cut_families, exp_free_families, exponential_families
    from cpwb.obs_transform import translation_image, translation_verdict
    from cpwb.syntax import alpha_eq
    from cpwb.transformers import transformer_context, transformer_image

    rng = random.Random(22)
    groups = [(ctx, ps, True) for ctx, ps in exp_free_families(5)]
    groups += [(ctx, [p], False) for ctx, p in cut_families(4)]
    groups += [(ctx, ps, False) for ctx, ps in exponential_families(5)]
    variants = 0
    for ctx, procs, fa in groups:
        names = dict(zip(sorted(ctx), rng.sample(HOSTILE_NAMES, len(ctx))))
        sides = [(ctx, []), ({names[n]: a for n, a in ctx.items()}, [])]
        ks = [transformer_context(c) for c, _ in sides] if fa else [None, None]
        for p in procs:
            renamed = _renamed_free(p, names)
            q = _binders_redrawn(renamed, rng)
            assert alpha_eq(q, renamed)
            variants += 1
            for (c, images), proc, k in zip(sides, (p, q), ks):
                d = check(proc, c, System.CP02)
                source, image = denote(d).tuples, translation_image(d)  # checks the image
                assert translation_verdict(c, source, image).holds, (proc, c)
                # the source, translation and transformer images of each process
                images.append((source, image, transformer_image(k, d)) if fa else (source,))
        (_, original), (_, variant) = sides
        assert [{mk_tuple({names[n]: o for n, o in t}) for t in s[0]} for s in original] == [
            s[0] for s in variant
        ]
        # the same partitions by source, translation and transformer image: the same FA verdicts
        for i in range(len(original[0])):
            assert _classes([s[i] for s in original]) == _classes([s[i] for s in variant])
    assert variants == 429
