"""Transformer processes and contexts: the translation as an evaluation context.

A transformer adapts one endpoint of type dual(A) into the dualized
translated type; its denotation is exactly the graph of the observation
transform at A.  Cutting a process against one transformer per context
name (plus a closing `z[]`) yields a context whose denotation function
coincides with the pointwise observation transform, which gives the
second full abstraction result.

``transformer`` is one step per connective (``_step``), with each
sub-transformer built by the same function. ``transformer_graphs`` checks
the transformer lemma over a list of formulas as it is proved, by induction
on the formula: each whole transformer is checked, and a part whose formula
came earlier in the list is denoted by that formula's relation, renamed to
the part's two names, and not again. A relation is kept by formula, only for
the formulas that are parts of a later one, and only while the generator runs.
"""

from __future__ import annotations

from .denotations import _denote, check_bound, check_shared, denote, from_tuples, join, mk_tuple
from .denotations import obs_space, product, rename, root_keeping, well_sorted
from .obs_transform import AbstractionVerdict, SortMismatch, Verdict, _set_verdict, l_ctx, l_obs
from .obs_transform import translation_image
from .syntax import (
    Bottom,
    Case,
    Client,
    EmptyIn,
    EmptyOut,
    Formula,
    Fwd,
    In,
    Inact,
    Mix,
    Name,
    NameSupply,
    OfCourse,
    Out,
    Par,
    Plus,
    Process,
    Select,
    Server,
    Tensor,
    Unit,
    WhyNot,
    With,
    dual,
)
from .translation import closing_name, prime_map, translate_formula_dual
from .typing import (
    CpwbError,
    Derivation,
    Hole,
    KCut,
    KMix,
    System,
    TypedContext,
    check,
    check_hole,
    ctx_items,
    make_context,
    too_deep,
)


def transformer(a: Formula, x: Name, xp: Name, supply: NameSupply | None = None) -> Process:
    """The adapter process at {x: dual(a), xp: translate_formula_dual(a)}."""
    if supply is None:
        supply = NameSupply({x, xp})
    return _step(a, x, xp, supply, transformer)


def _step(a: Formula, x: Name, xp: Name, supply: NameSupply, part) -> Process:
    """The transformer at ``a``, one step of the connective at its top: each
    sub-transformer is ``part(sub, y, yp, supply)``, called in the order in
    which ``transformer``, which passes itself as ``part``, draws its names."""
    match a:
        case Bottom():
            return Fwd(x, xp)
        case Unit():
            y = supply.fresh("y")
            return Out(y, xp, Fwd(y, x), EmptyIn(xp, Inact()))
        case Par(l, r):
            yp = supply.fresh("y")
            y = supply.fresh("y")
            return In(xp, yp, Out(y, x, part(l, y, yp, supply), part(r, x, xp, supply)))
        case Tensor(l, r):
            y = supply.fresh("y")
            z1, z2 = supply.fresh("z"), supply.fresh("z")
            yp, xq = supply.fresh("y"), supply.fresh("x")
            left = In(z1, yp, Mix(part(l, y, yp, supply), EmptyOut(z1)))
            right = In(z2, xq, Mix(part(r, x, xq, supply), EmptyOut(z2)))
            return In(x, y, Out(z2, xp, Out(z1, z2, left, right), EmptyIn(xp, Inact())))
        case With(l, r):
            return Case(xp, Select(x, 1, part(l, x, xp, supply)), Select(x, 2, part(r, x, xp, supply)))
        case Plus(l, r):
            def branch(i, sub):
                u = supply.fresh("u")
                yp = supply.fresh("y")
                inner = Select(u, i, In(u, yp, Mix(part(sub, x, yp, supply), EmptyOut(u))))
                return Out(u, xp, inner, EmptyIn(xp, Inact()))

            return Case(x, branch(1, l), branch(2, r))
        case OfCourse(b):
            wp, wb = supply.fresh("w"), supply.fresh("w")
            y, yp = supply.fresh("y"), supply.fresh("y")
            body = Client(x, y, In(wb, yp, Mix(part(b, y, yp, supply), EmptyOut(wb))))
            return Out(wp, xp, Server(wp, wb, body), EmptyIn(xp, Inact()))
        case WhyNot(b):
            y, m = supply.fresh("y"), supply.fresh("m")
            zb, yp = supply.fresh("z"), supply.fresh("y")
            inner = Out(zb, m, In(zb, yp, Mix(part(b, y, yp, supply), EmptyOut(zb))), EmptyIn(m, Inact()))
            return Server(x, y, Client(xp, m, inner))
    raise CpwbError(f"not a formula: {a!r}")


def transformer_typing(a: Formula, x: Name, xp: Name) -> dict[Name, Formula]:
    return {x: dual(a), xp: translate_formula_dual(a)}


def transformer_context(ctx, z: Name | None = None) -> TypedContext:
    """One transformer cut per context name, in parallel with ``z[]``."""
    ctx = dict(ctx)
    if z is None:
        z = closing_name(ctx)
    pm = prime_map(ctx)
    if z in ctx or z in pm.values():
        raise CpwbError(f"closing name {z} is not fresh for the context")
    tree = Hole()
    for x in sorted(ctx):
        a = ctx[x]
        proc = transformer(a, x, pm[x])
        tree = KCut(x, a, tree, proc, ctx_items(transformer_typing(a, x, pm[x])))
    tree = KMix(tree, EmptyOut(z), ctx_items({z: Unit()}))
    return make_context(tree, ctx, System.CP02)


def context_denotation(k: TypedContext, tuples, bound: int = 2):
    """The induced function on denotation sets: identity at the hole,
    relational composition at cuts, product at mixes."""
    hole = k.hole_context
    xs = frozenset(tuples)
    for t in xs:
        if set(n for n, _ in t) != set(hole):
            raise SortMismatch("tuple domain must equal the hole context")
        for n, o in t:
            if not well_sorted(o, hole[n]):
                raise SortMismatch(f"component {n} is not sorted at {hole[n]}")
    check_bound(bound)
    if isinstance(k.tree, Hole):
        return xs
    # a tuple with a bag of more than ``bound`` items has no row, so it is
    # left out: at a cut it would meet no observation of the other side
    return _ctx_den(k, from_tuples(k.hole_ctx, xs, bound), bound).tuples()


def _ctx_den(k: TypedContext, xs, bound: int):
    for node, root in k.levels:
        right = _denote(root, bound)
        xs = join(xs, right, node.name) if isinstance(node, KCut) else product((xs, right))
    return xs


def transformer_graph(a: Formula, bound: int = 2) -> Verdict:
    """denote(transformer(a)) against the graph of l_obs over obs_space(a)."""
    return next(transformer_graphs([a], bound))


def transformer_graphs(formulas, bound: int = 2):
    """The verdict of ``transformer_graph`` at each of ``formulas``, in turn."""
    x, xp = "x", "x'"
    for a, rel in _graph_relations(formulas, bound):
        graph = {mk_tuple({x: o, xp: l_obs(a, o)}) for o in obs_space(a, bound)}
        yield _set_verdict(graph, rel.tuples(), f"transformer graph at {a}")


def _graph_relations(formulas, bound: int):
    """Each of ``formulas`` with the relation of its transformer at x, x'.

    The whole transformer is checked, and denoted by induction on its
    formula: a part whose formula came earlier in ``formulas`` stands as a
    root that keeps that formula's relation, renamed to the part's two
    names. Denotation is compositional and does not change under a renaming
    of free names, so this is the relation of the whole transformer. A part
    whose formula did not come earlier is denoted as it stands. Only the
    relations of the formulas that are immediate parts of a later one are
    kept, by formula, and only while the generator lives.
    """
    check_bound(bound)
    x, xp = "x", "x'"
    formulas = list(formulas)
    # the position of the last formula with each formula among its immediate parts (its fields)
    last = {b: i for i, a in enumerate(formulas) for b in a._fields(a)}
    kept = {}
    for i, a in enumerate(formulas):
        parts = []

        def part(b, y, yp, supply):
            p = transformer(b, y, yp, supply)
            parts.append((p, rename(kept[b], {x: y, xp: yp}) if b in kept else None))
            return p

        d = check(_step(a, x, xp, NameSupply({x, xp}), part), transformer_typing(a, x, xp), System.CP02)
        try:
            rel = _denote(_with_parts(d, parts, bound), bound)
        except RecursionError:
            raise too_deep("the derivation") from None
        if last.get(a, i) > i:
            kept[a] = rel
        yield a, rel


def _with_parts(d: Derivation, parts, bound: int) -> Derivation:
    """``d`` with the node of each part process that has a relation replaced
    by a root that keeps it. A part is found by identity, and the walk stops
    at every part, so it visits the nodes of ``_step``'s own step only."""
    for p, rel in parts:
        if d.process is p:
            return d if rel is None else root_keeping(d, rel, bound)
    if not d.premises:
        return d
    return Derivation(d.rule, d.process, d.ctx, tuple([_with_parts(e, parts, bound) for e in d.premises]))


def check_transformer_theorem(ctx, tuples, bound: int = 2) -> Verdict:
    """Context denotation of the transformer context vs the pointwise transform."""
    z = closing_name(ctx)
    k = transformer_context(ctx, z)
    got = context_denotation(k, tuples, bound)
    want = {l_ctx(ctx, t, z) for t in tuples}
    return _set_verdict(want, got, "transformer context denotation")


def transformer_image(k: TypedContext, d: Derivation, bound: int = 2) -> frozenset:
    """The denotation of the process of ``d``, a derivation at k's hole
    typing, filled into ``k``: ``d`` is denoted and carried up k's levels."""
    check_hole(k, d)
    check_bound(bound)
    try:
        return _ctx_den(k, _denote(d, bound), bound).tuples()
    except RecursionError:
        raise too_deep("the derivation") from None


def check_transformer_correct(p: Process, ctx, bound: int = 2) -> Verdict:
    """Translated process vs the same process under the transformer context.

    Both sides use the same primed names and the same closing name, so the
    comparison is plain set equality.
    """
    d = check(p, ctx, System.CP02)
    left = translation_image(d, bound)
    right = transformer_image(transformer_context(ctx), d, bound)
    return _set_verdict(left, right, "transformer correctness")


def full_abstraction_II(p: Process, q: Process, ctx, bound: int = 2) -> AbstractionVerdict:
    """Source equivalence iff equivalence under the transformer context."""
    dp, dq = check_shared(p, q, ctx, System.CP02)
    src = denote(dp, bound).tuples == denote(dq, bound).tuples
    k = transformer_context(ctx)
    img = transformer_image(k, dp, bound) == transformer_image(k, dq, bound)
    return AbstractionVerdict(src == img, src, img, "full abstraction (transformers)")
