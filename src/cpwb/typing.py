"""Syntax-directed type checking for CP, CP+Mix0 and CP+Mix0+Mix2.

Every well-typed term has exactly one derivation: cuts are annotated,
weakening/contraction are explicit markers, and multiplicative context
splits are resolved by the free names of the subterms.

The derivation of a whole term is a ``Root``: the one ``check`` returns,
and that of each given process of a typed context, kept beside its node
in the context's ``levels``; a typed context keeps a typing only at its
hole and result. A root is the only derivation that several denotations
may share (one server cut against many clients, one typed context filled
with many processes), so it is the only one with room to keep a relation:
``denotations`` marks a root at its first denotation at a bound and keeps
its relation at that bound from the second on. What a root keeps dies
with the root; inner nodes are plain records and keep nothing. A root
compares, hashes and prints as the plain ``Derivation`` it is.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from sys import getrecursionlimit
from typing import NamedTuple

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
    In,
    Inact,
    Mix,
    Name,
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
    _Node,
    _node,
    dual,
    free_names,
)


class CpwbError(Exception):
    """Base class for all workbench errors."""


class CPTypeError(CpwbError):
    pass


class UnboundName(CPTypeError):
    pass


class LinearityViolation(CPTypeError):
    pass


class RuleMismatch(CPTypeError):
    pass


class NonBangContext(CPTypeError):
    pass


class SystemViolation(CPTypeError):
    pass


class HoleTypeMismatch(CPTypeError):
    pass


class TypeMismatch(CPTypeError):
    pass


class TooDeep(CpwbError):
    """A term nested past what the recursive checker or denotation can walk."""


class System(enum.Enum):
    CP = "cp"
    CP0 = "cp0"
    CP02 = "cp02"

    @property
    def allows_mix0(self) -> bool:
        return self in (System.CP0, System.CP02)

    @property
    def allows_mix2(self) -> bool:
        return self is System.CP02


TypingContext = dict[str, Formula]
CtxItems = tuple[tuple[Name, Formula], ...]


def ctx_items(ctx) -> CtxItems:
    return tuple(sorted(dict(ctx).items()))


class Derivation(NamedTuple):
    rule: str
    process: Process
    ctx: CtxItems
    premises: tuple["Derivation", ...] = ()

    @property
    def context(self) -> TypingContext:
        return dict(self.ctx)


class Root(Derivation):
    """The derivation of a whole term. A tuple subtype can have no slots,
    so what ``denotations`` keeps on a root lives in the root's instance
    dict, which is made when it is first written."""

    def __repr__(self):
        return repr(Derivation._make(self))


def too_deep(what: str) -> TooDeep:
    return TooDeep(f"{what} is nested too deeply: the walk passed the "
                   f"interpreter's recursion limit of {getrecursionlimit()}")


def check(p: Process, ctx, system: System = System.CP) -> Root:
    """Return the unique derivation of ``p`` at ``ctx``, or raise."""
    return _root(p, dict(ctx), system)


def _root(p: Process, ctx: TypingContext, sys: System) -> Root:
    try:
        return Root._make(_check(p, ctx, sys))
    except RecursionError:
        raise too_deep("the process") from None


def _lookup(ctx: TypingContext, x: Name) -> Formula:
    if x not in ctx:
        raise UnboundName(f"name {x} not in context")
    return ctx[x]


def _principal(ctx: TypingContext, x: Name, kind: type, needs: str) -> Formula:
    """The type of ``x``, the principal name of a rule that ``needs`` a ``kind`` there."""
    t = _lookup(ctx, x)
    if not isinstance(t, kind):
        raise RuleMismatch(f"{needs}, got {t}")
    return t


def _without(ctx: TypingContext, x: Name) -> TypingContext:
    return {n: f for n, f in ctx.items() if n != x}


def _bound(ctx: TypingContext, x: Name, y: Name, what: str) -> TypingContext:
    """``ctx`` without ``x``, where the ``what`` binder ``y`` of channel ``x`` is fresh."""
    if y == x:
        raise RuleMismatch(f"{what} binder collides with its channel")
    rest = _without(ctx, x)
    _check_binder(rest, y)
    return rest


def _exactly(ctx: TypingContext, names: set[Name]) -> None:
    extra = set(ctx) - names
    if extra:
        raise LinearityViolation(f"unused assignments: {sorted(extra)}")


def _split(ctx: TypingContext, left: set[Name], right: set[Name]):
    both = left & right
    if both:
        raise LinearityViolation(f"names used on both sides of a split: {sorted(both)}")
    missing = (left | right) - ctx.keys()
    if missing:
        raise UnboundName(f"name {min(missing)} not in context")
    unused = ctx.keys() - left - right
    if unused:
        raise LinearityViolation(f"unused assignments: {sorted(unused)}")
    return {n: ctx[n] for n in left}, {n: ctx[n] for n in right}


def _check_binder(ctx: TypingContext, y: Name) -> None:
    if y in ctx:
        raise LinearityViolation(f"binder {y} shadows an assignment")


def _check(p: Process, ctx: TypingContext, sys: System) -> Derivation:
    """The derivation of ``p`` at ``ctx``: the rule of p's class gives the
    rule name and checks the premises; each node keeps ``ctx`` sorted."""
    try:
        rule, premises = _RULES[type(p)]
    except KeyError:
        raise CPTypeError(f"not a process: {p!r}") from None
    return Derivation(rule, p, tuple(sorted(ctx.items())), premises(p, ctx, sys))


# One function per process class: it checks the node against ``ctx`` and
# returns the derivations of its premises.


def _mix0(p: Inact, ctx, sys):
    if not sys.allows_mix0:
        raise SystemViolation("the empty process needs Mix0")
    _exactly(ctx, set())
    return ()


def _id(p: Fwd, ctx, sys):
    a, b = p.left, p.right
    ta = _lookup(ctx, a)
    tb = _lookup(ctx, b)
    _exactly(ctx, {a, b})
    if a == b or tb != dual(ta):
        raise RuleMismatch(f"forwarder endpoints must be dual, got {ta} and {tb}")
    return ()


def _one(p: EmptyOut, ctx, sys):
    x = p.channel
    t = _lookup(ctx, x)
    _exactly(ctx, {x})
    if t != Unit():
        raise RuleMismatch(f"empty output needs type 1, got {t}")
    return ()


def _bot(p: EmptyIn, ctx, sys):
    _principal(ctx, p.channel, Bottom, "empty input needs type bot")
    return (_check(p.body, _without(ctx, p.channel), sys),)


def _tensor(p: Out, ctx, sys):
    y, x, left, right = p.payload, p.channel, p.left, p.right
    t = _principal(ctx, x, Tensor, "output needs a tensor type")
    lctx, rctx = _split(_without(ctx, x), free_names(left) - {y}, free_names(right) - {x})
    lctx[y] = t.left
    rctx[x] = t.right
    return _check(left, lctx, sys), _check(right, rctx, sys)


def _par(p: In, ctx, sys):
    x, y = p.channel, p.payload
    t = _principal(ctx, x, Par, "input needs a par type")
    rest = _bound(ctx, x, y, "receive")
    rest[y] = t.left
    rest[x] = t.right
    return (_check(p.body, rest, sys),)


def _plus(p: Select, ctx, sys):
    x, i = p.channel, p.branch
    t = _principal(ctx, x, Plus, "selection needs a plus type")
    if i not in (1, 2):
        raise RuleMismatch(f"selection index must be 1 or 2, got {i}")
    rest = dict(ctx)
    rest[x] = t.left if i == 1 else t.right
    return (_check(p.body, rest, sys),)


def _with(p: Case, ctx, sys):
    x = p.channel
    t = _principal(ctx, x, With, "case needs a with type")
    lctx = dict(ctx)
    lctx[x] = t.left
    rctx = dict(ctx)
    rctx[x] = t.right
    return _check(p.left, lctx, sys), _check(p.right, rctx, sys)


def _bang(p: Server, ctx, sys):
    x, y = p.channel, p.payload
    t = _principal(ctx, x, OfCourse, "server needs a !-type")
    bad = [n for n, f in ctx.items() if n != x and not isinstance(f, WhyNot)]
    if bad:
        n = min(bad)
        raise NonBangContext(f"server context must be all ?-typed, {n} has {ctx[n]}")
    rest = _bound(ctx, x, y, "server")
    rest[y] = t.body
    return (_check(p.body, rest, sys),)


def _quest(p: Client, ctx, sys):
    x, y = p.channel, p.payload
    t = _principal(ctx, x, WhyNot, "client needs a ?-type")
    rest = _bound(ctx, x, y, "client")
    rest[y] = t.body
    return (_check(p.body, rest, sys),)


def _weak(p: Weak, ctx, sys):
    x, annot = p.name, p.annot
    t = _lookup(ctx, x)
    if not isinstance(annot, WhyNot):
        raise RuleMismatch(f"weakening marker needs a ?-type annotation, got {annot}")
    if t != annot:
        raise RuleMismatch(f"weakening annotation {annot} disagrees with context {t}")
    return (_check(p.body, _without(ctx, x), sys),)


def _contract(p: Contract, ctx, sys):
    x, x1, x2 = p.name, p.left_name, p.right_name
    t = _principal(ctx, x, WhyNot, "contraction needs a ?-type")
    if x1 == x2:
        raise RuleMismatch("contraction binders must be distinct")
    rest = _without(ctx, x)
    _check_binder(rest, x1)
    _check_binder(rest, x2)
    rest[x1] = t
    rest[x2] = t
    return (_check(p.body, rest, sys),)


def _cut(p: Cut, ctx, sys):
    x, annot, left, right = p.name, p.annot, p.left, p.right
    if x in ctx:
        raise LinearityViolation(f"cut binder {x} shadows an assignment")
    lctx, rctx = _split(ctx, free_names(left) - {x}, free_names(right) - {x})
    lctx[x] = annot
    rctx[x] = dual(annot)
    return _check(left, lctx, sys), _check(right, rctx, sys)


def _mix2(p: Mix, ctx, sys):
    if not sys.allows_mix2:
        raise SystemViolation("parallel composition needs Mix2")
    lctx, rctx = _split(ctx, free_names(p.left), free_names(p.right))
    return _check(p.left, lctx, sys), _check(p.right, rctx, sys)


# process class -> (rule name, premises function)
_RULES = {
    Inact: ("mix0", _mix0),
    Fwd: ("id", _id),
    EmptyOut: ("one", _one),
    EmptyIn: ("bot", _bot),
    Out: ("tensor", _tensor),
    In: ("par", _par),
    Select: ("plus", _plus),
    Case: ("with", _with),
    Server: ("bang", _bang),
    Client: ("quest", _quest),
    Weak: ("weak", _weak),
    Contract: ("contract", _contract),
    Cut: ("cut", _cut),
    Mix: ("mix2", _mix2),
}


# --- typed contexts with one hole -------------------------------------------


class CtxTree(_Node):
    __slots__ = ()


@_node
class Hole(CtxTree):
    pass


@_node
class KCut(CtxTree):
    # (new x:A)(K | Q): the hole is on the left, Q is a closed given process.
    name: Name
    annot: Formula
    sub: CtxTree
    right: Process
    right_ctx: CtxItems


@_node
class KMix(CtxTree):
    # K | Q
    sub: CtxTree
    right: Process
    right_ctx: CtxItems


@dataclass(frozen=True)
class TypedContext:
    """A context tree checked from the hole up. ``levels`` pairs each node of
    the tree, from the hole up, with the derivation of its given process."""

    tree: CtxTree
    hole_ctx: CtxItems
    result_ctx: CtxItems
    levels: tuple[tuple[KCut | KMix, Root], ...]
    system: System

    @property
    def hole_context(self) -> TypingContext:
        return dict(self.hole_ctx)

    @property
    def result_context(self) -> TypingContext:
        return dict(self.result_ctx)


def make_context(tree: CtxTree, hole_ctx, system: System) -> TypedContext:
    """Check ``tree`` at hole typing ``hole_ctx`` from the hole up, with one running typing."""
    nodes, node = [], tree
    while not isinstance(node, Hole):
        if not isinstance(node, (KCut, KMix)):
            raise CPTypeError(f"not a context tree: {node!r}")
        nodes.append(node)
        node = node.sub
    if not system.allows_mix2 and any(isinstance(node, KMix) for node in nodes):
        raise SystemViolation("context mix needs Mix2")
    gamma, levels = dict(hole_ctx), []
    for node in reversed(nodes):
        rctx = dict(node.right_ctx)
        x = node.name if isinstance(node, KCut) else None
        if x is not None:
            if x not in gamma:
                raise HoleTypeMismatch(f"cut name {x} is not offered below the hole")
            if gamma[x] != node.annot:
                raise HoleTypeMismatch(f"cut annotation {node.annot} disagrees with "
                                       f"{gamma[x]} below the hole")
            if rctx.get(x) != dual(node.annot):
                raise HoleTypeMismatch(f"right side of cut must use {x} at {dual(node.annot)}")
        levels.append((node, _root(node.right, rctx, system)))
        kind = "mix" if x is None else "cut"
        for n, f in node.right_ctx:
            if n in gamma and n != x:
                raise LinearityViolation(f"name {n} occurs on both sides of a context {kind}")
            gamma[n] = f
        gamma.pop(x, None)
    return TypedContext(tree, ctx_items(hole_ctx), ctx_items(gamma), tuple(levels), system)


def check_context(k: TypedContext, hole_ctx, result_ctx, system: System) -> TypedContext:
    """``k`` re-checked in ``system``, if it maps hole typing ``hole_ctx`` to
    result ``result_ctx``."""
    if ctx_items(hole_ctx) != k.hole_ctx:
        raise HoleTypeMismatch(f"context expects hole typing {k.hole_context}, got {dict(hole_ctx)}")
    checked = make_context(k.tree, k.hole_ctx, system)
    if checked.result_ctx != ctx_items(result_ctx):
        raise HoleTypeMismatch(f"context produces {checked.result_context}, "
                               f"expected {dict(result_ctx)}")
    return checked


def check_hole(k: TypedContext, d: Derivation) -> None:
    """Refuse ``d`` unless it is a derivation at k's hole typing."""
    if d.ctx != k.hole_ctx:
        raise HoleTypeMismatch(f"context expects hole typing {k.hole_context}, got {d.context}")


def fill(k: TypedContext, p: Process) -> Derivation:
    """The derivation of ``p`` in the hole of ``k``: ``p`` is checked at the
    hole typing, and k's levels are grafted around it."""
    try:
        d = check(p, k.hole_context, k.system)
    except CPTypeError as e:
        raise TypeMismatch(f"process does not fit the hole typing: {e}") from e
    return graft(k, d)


def graft(k: TypedContext, d: Derivation) -> Derivation:
    """k's levels grafted around ``d``, a derivation at its hole typing: each
    level adds one cut or mix node, typed by one running typing."""
    check_hole(k, d)
    gamma = dict(d.ctx)
    for node, root in k.levels:
        p = plug(node, d.process)
        gamma.update(root.ctx)
        if type(p) is Cut:
            del gamma[p.name]
        d = Derivation(_RULES[type(p)][0], p, ctx_items(gamma), (d, root))
    return d


def plug(node: KCut | KMix, p: Process) -> Process:
    """The process of one level of a context: ``p`` in the hole of ``node``,
    cut against or mixed with node's given process."""
    if isinstance(node, KCut):
        return Cut(node.name, node.annot, p, node.right)
    return Mix(p, node.right)
