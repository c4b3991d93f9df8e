"""The negative translation on types and processes, with synchronizers.

The formula translation is parametric in a residual formula R; all
process-level machinery fixes R = 1.  Translated processes rename each
free name x to x' (carrying the dualized translated type) and expose one
fresh closing name of type 1.

Forwarders are translated by eta-expanding them first: the printed
one-step image only type-checks at the translated types for base
formulas, while the expansion is correct at every type and has the same
denotation.  Synchronizers are built by recursion on the type; the
normative contract is denotational (the paired graph of the observation
transforms), and the constructions for branching under tensor/plus lean
on the mix rules, so translated terms are checked in the mix-extended
system.
"""

from __future__ import annotations

from .syntax import (
    Bottom,
    Case,
    Client,
    Contract,
    Cut,
    EmptyIn,
    EmptyOut,
    Formula,
    Fwd,
    IBang,
    ILolli,
    IPlus,
    ITensor,
    IUnit,
    IWith,
    IllFormula,
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
    Weak,
    WhyNot,
    With,
    all_names,
    dual,
    fresh_name,
    is_positive,
    substitute,
)
from .typing import CpwbError, Derivation, check


def translate_formula_ill(a: Formula, residual: IllFormula = IUnit()) -> IllFormula:
    """Negative translation of a session type into the intuitionistic grammar."""

    def t(b: Formula) -> IllFormula:
        return translate_formula_ill(b, residual)

    match a:
        case Bottom():
            return IUnit()
        case Unit():
            return ILolli(IUnit(), residual)
        case Tensor(x, y):
            return ILolli(ITensor(ILolli(t(x), residual), ILolli(t(y), residual)), residual)
        case Par(x, y):
            return ITensor(t(x), t(y))
        case Plus(x, y):
            return ILolli(IPlus(ILolli(t(x), residual), ILolli(t(y), residual)), residual)
        case With(x, y):
            return IPlus(t(x), t(y))
        case OfCourse(x):
            return ILolli(IBang(ILolli(t(x), residual)), residual)
        case WhyNot(x):
            return IBang(ILolli(ILolli(t(x), residual), residual))
    raise CpwbError(f"not a formula: {a!r}")


def embed_ill(i: IllFormula) -> Formula:
    """Read an intuitionistic formula classically, with I -o J := I^d par J."""
    match i:
        case IUnit():
            return Unit()
        case ITensor(l, r):
            return Tensor(embed_ill(l), embed_ill(r))
        case ILolli(l, r):
            return Par(dual(embed_ill(l)), embed_ill(r))
        case IPlus(l, r):
            return Plus(embed_ill(l), embed_ill(r))
        case IWith(l, r):
            return With(embed_ill(l), embed_ill(r))
        case IBang(b):
            return OfCourse(embed_ill(b))
    raise CpwbError(f"not an ILL formula: {i!r}")


def translate_formula_dual(a: Formula) -> Formula:
    """The dualized image of the translation back inside the classical types (R = 1)."""
    t = translate_formula_dual
    match a:
        case Bottom():
            return Bottom()
        case Unit():
            return Tensor(Unit(), Bottom())
        case Tensor(x, y):
            return Tensor(Tensor(Par(t(x), Unit()), Par(t(y), Unit())), Bottom())
        case Par(x, y):
            return Par(t(x), t(y))
        case Plus(x, y):
            return Tensor(Plus(Par(t(x), Unit()), Par(t(y), Unit())), Bottom())
        case With(x, y):
            return With(t(x), t(y))
        case OfCourse(x):
            return Tensor(OfCourse(Par(t(x), Unit())), Bottom())
        case WhyNot(x):
            return WhyNot(Tensor(Par(t(x), Unit()), Bottom()))
    raise CpwbError(f"not a formula: {a!r}")


def neg_image(a: Formula) -> Formula:
    """embed(translate_ill(a)) at R = 1; the dual of translate_formula_dual(a)."""
    return dual(translate_formula_dual(a))


# --- name conventions ---------------------------------------------------------


def prime_map(ctx) -> dict[Name, Name]:
    """Injective renaming x -> x' for the names of a typing context."""
    names = sorted(dict(ctx))
    taken = set(names)
    out: dict[Name, Name] = {}
    for n in names:
        p = n + "'"
        while p in taken:
            p += "'"
        taken.add(p)
        out[n] = p
    return out


def closing_name(ctx) -> Name:
    """The closing name used by the translation of a process typed at ctx."""
    return fresh_name("w", set(dict(ctx)) | set(prime_map(ctx).values()))


def translated_context(ctx) -> dict[Name, Formula]:
    """Pointwise dualized translation on primed names, plus the closing name at 1."""
    pm = prime_map(ctx)
    out = {pm[n]: translate_formula_dual(a) for n, a in dict(ctx).items()}
    out[closing_name(ctx)] = Unit()
    return out


# --- eta-expanded forwarders ----------------------------------------------------


def eta_fwd(a: Formula, x: Name, y: Name, supply: NameSupply | None = None) -> Process:
    """A cut-free process with the typing and denotation of [x<->y] at x:a."""
    if supply is None:
        supply = NameSupply({x, y})
    match a:
        case Unit():
            return EmptyIn(y, EmptyOut(x))
        case Bottom():
            return EmptyIn(x, EmptyOut(y))
        case Tensor(l, r):
            u, v = supply.fresh("u"), supply.fresh("v")
            return In(y, v, Out(u, x, eta_fwd(l, u, v, supply), eta_fwd(r, x, y, supply)))
        case Plus(l, r):
            return Case(
                y,
                Select(x, 1, eta_fwd(l, x, y, supply)),
                Select(x, 2, eta_fwd(r, x, y, supply)),
            )
        case OfCourse(b):
            u, v = supply.fresh("u"), supply.fresh("v")
            return Server(x, u, Client(y, v, eta_fwd(b, u, v, supply)))
        case Par(_, _) | With(_, _) | WhyNot(_):
            return eta_fwd(dual(a), y, x, supply)
    raise CpwbError(f"not a formula: {a!r}")


# --- synchronizers ---------------------------------------------------------------


def synchronizer(a: Formula, z: Name, w: Name, s: Name, supply: NameSupply | None = None) -> Process:
    """Mediator between the translations of two cut-composed processes.

    Checks at {z: neg_image(a) * bot, w: neg_image(dual a) * bot, s: 1};
    its denotation is the paired graph of the observation transforms at a
    and at dual(a).
    """
    if supply is None:
        supply = NameSupply({z, w, s})
    if not is_positive(a):
        return synchronizer(dual(a), w, z, s, supply)
    m = supply.fresh("m")
    return Out(m, z, _core(a, m, w, supply), Fwd(z, s))


def _gadget(a: Formula, u: Name, v: Name, supply: NameSupply) -> Process:
    # For positive a: checks at {u: neg_image(dual a), v: pre(a)} where
    # neg_image(a) = pre(a) par 1, and relates the two observation images.
    match a:
        case Unit():
            return Fwd(u, v)
        case OfCourse(b):
            p = supply.fresh("p")
            q = supply.fresh("q")
            r = supply.fresh("r")
            return Server(u, p, Client(v, q, In(p, r, synchronizer(b, q, r, p, supply))))
        case Tensor(l, r):
            rr = supply.fresh("r")
            t = supply.fresh("t")
            return In(
                v,
                rr,
                Out(t, u, _core(dual(l), t, rr, supply), _core(dual(r), u, v, supply)),
            )
        case Plus(l, r):
            return Case(
                v,
                Select(u, 1, _core(dual(l), u, v, supply)),
                Select(u, 2, _core(dual(r), u, v, supply)),
            )
    raise CpwbError(f"gadget needs a positive formula, got {a!r}")


def _core(a: Formula, m: Name, w: Name, supply: NameSupply) -> Process:
    # Checks at {m: neg_image(a), w: neg_image(dual a) * bot} and relates
    # the observation images of a value and its dual transport.
    if is_positive(a):
        v = supply.fresh("v")
        u = supply.fresh("u")
        return In(m, v, Out(u, w, _gadget(a, u, v, supply), Fwd(w, m)))
    if isinstance(a, Bottom):
        u = supply.fresh("u")
        t = supply.fresh("t")
        return Out(u, w, In(u, t, EmptyIn(t, EmptyOut(u))), Fwd(w, m))
    u = supply.fresh("u")
    t = supply.fresh("t")
    return Out(
        u,
        w,
        In(u, t, Mix(_gadget(dual(a), m, t, supply), EmptyOut(u))),
        EmptyIn(w, Inact()),
    )


# --- the process translation ------------------------------------------------------


def translate_process(d: Derivation) -> Process:
    """Translate a typing derivation; free names come out primed."""
    ctx = d.context
    pm = prime_map(ctx)
    w = closing_name(ctx)
    supply = NameSupply(set(ctx) | set(pm.values()) | {w} | all_names(d.process))
    body = _translate(d, w, supply)
    for old, new in sorted(pm.items()):
        body = substitute(body, new, old)
    return body


def _translate(d: Derivation, w: Name, supply: NameSupply) -> Process:
    p = d.process
    ctx = d.context
    match d.rule:
        case "mix0":
            return EmptyOut(w)

        case "one":
            u = supply.fresh("u")
            return Out(u, p.channel, EmptyOut(u), Fwd(p.channel, w))

        case "bot":
            return EmptyIn(p.channel, _translate(d.premises[0], w, supply))

        case "id":
            a = ctx[p.left]
            expansion = eta_fwd(a, p.left, p.right, supply)
            d2 = check(expansion, ctx)
            return _translate(d2, w, supply)

        case "par":
            return In(p.channel, p.payload, _translate(d.premises[0], w, supply))

        case "tensor":
            z1, z2 = supply.fresh("z"), supply.fresh("z")
            lp = _translate(d.premises[0], z1, supply)
            rp = _translate(d.premises[1], z2, supply)
            paired = Out(z1, z2, In(z1, p.payload, lp), In(z2, p.channel, rp))
            return Out(z2, p.channel, paired, Fwd(p.channel, w))

        case "plus":
            zh = supply.fresh("z")
            body = _translate(d.premises[0], zh, supply)
            inner = Select(zh, p.branch, In(zh, p.channel, body))
            return Out(zh, p.channel, inner, Fwd(p.channel, w))

        case "with":
            return Case(
                p.channel,
                _translate(d.premises[0], w, supply),
                _translate(d.premises[1], w, supply),
            )

        case "bang":
            vb = supply.fresh("v")
            xh = supply.fresh("x")
            body = In(vb, p.payload, _translate(d.premises[0], vb, supply))
            return Out(xh, p.channel, Server(xh, vb, body), Fwd(p.channel, w))

        case "quest":
            vb = supply.fresh("v")
            mh = supply.fresh("m")
            body = In(vb, p.payload, _translate(d.premises[0], vb, supply))
            return Client(p.channel, mh, Out(vb, mh, body, Fwd(mh, w)))

        case "weak":
            return Weak(
                p.name, translate_formula_dual(ctx[p.name]), _translate(d.premises[0], w, supply)
            )

        case "contract":
            return Contract(
                p.name, p.left_name, p.right_name, _translate(d.premises[0], w, supply)
            )

        case "cut":
            a = p.annot
            zn, wn = supply.fresh("z"), supply.fresh("w")
            lp = _translate(d.premises[0], zn, supply)  # offers x at the image of a
            rp = _translate(d.premises[1], wn, supply)
            sync = synchronizer(a, zn, wn, w, supply)
            left_prefixed = In(zn, p.name, lp)
            right_prefixed = In(wn, p.name, rp)
            inner_annot = Par(translate_formula_dual(a), Unit())
            inner = Cut(zn, inner_annot, left_prefixed, sync)
            outer_annot = Tensor(neg_image(dual(a)), Bottom())
            return Cut(wn, outer_annot, inner, right_prefixed)

        case "mix2":
            y0, x0 = supply.fresh("y"), supply.fresh("x")
            lp = _translate(d.premises[0], y0, supply)
            rp = _translate(d.premises[1], x0, supply)
            bridge = Out(y0, x0, lp, rp)
            yb = supply.fresh("y")
            closer = In(x0, yb, EmptyIn(yb, Fwd(x0, w)))
            return Cut(x0, Tensor(Unit(), Unit()), bridge, closer)

    raise CpwbError(f"unknown rule {d.rule!r}")
