"""The negative translation on types and processes, with synchronizers.

The formula translation is parametric in a residual formula R; all
process-level machinery fixes R = 1.  Translated processes rename each
free name x to x' (carrying the dualized translated type) and expose one
fresh closing name of type 1.

``translate_process`` is one walk over the derivation. It carries a map
from source names to output names, so no substitution runs after it: a
binder keeps its name unless it would capture an output name of its scope,
its closing name included. A forwarder is translated by walking its
eta-expansion, which needs no types and so no derivation: the printed
one-step image only type-checks at the translated types for base formulas,
while the expansion is correct at every type and has the same denotation.
Synchronizers are built by recursion on the type; the normative contract
is denotational (the paired graph of the observation transforms), and the
constructions for branching under tensor/plus lean on the mix rules, so
translated terms are checked in the mix-extended system.
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
    free_names,
    fresh_name,
    is_positive,
)
from .typing import CpwbError, Derivation, too_deep


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
    pm, w = prime_map(d.ctx), closing_name(d.ctx)
    try:
        supply = NameSupply({*pm, *pm.values(), w, *all_names(d.process)})
        return _translate(d.process, d, w, _Names(pm), supply)
    except RecursionError:
        raise too_deep("the process") from None


class _Names(dict):
    """A map from source names to output names; a name it does not hold maps to itself."""

    def __missing__(self, n: Name) -> Name:
        return n


def _scope(env: _Names, scope: Process, w: Name, supply: NameSupply, *binders: Name) -> _Names:
    """The name map in ``scope`` under ``binders``, where ``w`` is its
    closing name. A binder maps to itself, unless it is another output
    name of the scope (the image of another free name, or ``w``): then it
    is renamed to ``supply.fresh(b)``, which differs from every source name
    and from every name the walk draws before or after it."""
    inner = _Names({n: out for n, out in env.items() if n not in binders})
    if any(b == w or b in env.values() for b in binders):  # only then can a binder capture
        outs = {env[n] for n in free_names(scope) if n not in binders} | {w}
        for b in binders:
            if b in outs:
                inner[b] = supply.fresh(b)
    return inner


def _translate(p: Process, d: Derivation | None, w: Name, env: _Names, supply: NameSupply):
    """The translation of ``p`` at closing name ``w`` under the name map ``env``, one
    frame per level; ``d`` is p's derivation, or None inside an eta-expansion."""
    ds = d.premises if d is not None else (None, None)
    match p:
        case Inact():
            return EmptyOut(w)
        case EmptyOut(x):
            u = supply.fresh("u")
            return Out(u, env[x], EmptyOut(u), Fwd(env[x], w))
        case EmptyIn(x, body):
            return EmptyIn(env[x], _translate(body, ds[0], w, env, supply))
        case Fwd(x, y):  # its eta-expansion has no forwarder, so it needs no types
            return _translate(eta_fwd(dict(d.ctx)[x], x, y, supply), None, w, env, supply)
        case In(x, y, body):
            inner = _scope(env, body, w, supply, y)
            return In(env[x], inner[y], _translate(body, ds[0], w, inner, supply))
        case Out(y, x, left, right):
            z1, z2 = supply.fresh("z"), supply.fresh("z")
            lenv, renv = _scope(env, left, z1, supply, y), _scope(env, right, z2, supply, x)
            lp = In(z1, lenv[y], _translate(left, ds[0], z1, lenv, supply))
            rp = In(z2, renv[x], _translate(right, ds[1], z2, renv, supply))
            return Out(z2, env[x], Out(z1, z2, lp, rp), Fwd(env[x], w))
        case Select(x, i, body):
            zh = supply.fresh("z")
            inner = _scope(env, body, zh, supply, x)
            body = In(zh, inner[x], _translate(body, ds[0], zh, inner, supply))
            return Out(zh, env[x], Select(zh, i, body), Fwd(env[x], w))
        case Case(x, left, right):
            lp = _translate(left, ds[0], w, env, supply)
            return Case(env[x], lp, _translate(right, ds[1], w, env, supply))
        case Server(x, y, body):
            vb, xh = supply.fresh("v"), supply.fresh("x")
            inner = _scope(env, body, vb, supply, y)
            body = In(vb, inner[y], _translate(body, ds[0], vb, inner, supply))
            return Out(xh, env[x], Server(xh, vb, body), Fwd(env[x], w))
        case Client(x, y, body):
            vb, mh = supply.fresh("v"), supply.fresh("m")
            inner = _scope(env, body, vb, supply, y)
            body = In(vb, inner[y], _translate(body, ds[0], vb, inner, supply))
            return Client(env[x], mh, Out(vb, mh, body, Fwd(mh, w)))
        case Weak(x, a, body):
            return Weak(env[x], translate_formula_dual(a), _translate(body, ds[0], w, env, supply))
        case Contract(x, x1, x2, body):
            inner = _scope(env, body, w, supply, x1, x2)
            return Contract(env[x], inner[x1], inner[x2], _translate(body, ds[0], w, inner, supply))
        case Cut(x, a, left, right):
            zn, wn = supply.fresh("z"), supply.fresh("w")
            # the binder becomes one input per side, and each side renames it on its own
            lenv, renv = _scope(env, left, zn, supply, x), _scope(env, right, wn, supply, x)
            lp = In(zn, lenv[x], _translate(left, ds[0], zn, lenv, supply))
            rp = In(wn, renv[x], _translate(right, ds[1], wn, renv, supply))
            sync = synchronizer(a, zn, wn, w, supply)
            inner = Cut(zn, Par(translate_formula_dual(a), Unit()), lp, sync)
            return Cut(wn, Tensor(neg_image(dual(a)), Bottom()), inner, rp)
        case Mix(left, right):
            y0, x0 = supply.fresh("y"), supply.fresh("x")
            lp = _translate(left, ds[0], y0, env, supply)
            bridge = Out(y0, x0, lp, _translate(right, ds[1], x0, env, supply))
            yb = supply.fresh("y")
            return Cut(x0, Tensor(Unit(), Unit()), bridge, In(x0, yb, EmptyIn(yb, Fwd(x0, w))))
    raise CpwbError(f"not a process: {p!r}")
