"""Term algebras for session types and processes.

Formulas are the eight-connective linear-logic session types (no atoms,
no 0/top).  Processes carry explicit weakening/contraction markers and
type-annotated cuts so that type checking is syntax directed: one term,
one derivation.

Every node is an immutable slotted dataclass. Its hash counts its class,
so ``Unit()`` and ``Bottom()``, or ``Tensor`` and ``Par`` over the same
arguments, do not collide; it is computed on first use and kept in a
slot, so hashing a term built over hashed subterms is O(1). A process
node likewise keeps its free names once ``free_names`` has computed them.
Equality stays structural and nodes are not interned.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from operator import attrgetter

Name = str

_set_slot = object.__setattr__


class _Node:
    """Base of the syntax nodes: the hash is computed on first use, then kept.

    The caches read an unset slot with ``getattr(..., None)``: on CPython
    3.11 that is about a third of the cost of catching the AttributeError,
    and most nodes are read cold once.
    """

    __slots__ = ("_hash",)

    def __hash__(self) -> int:
        h = getattr(self, "_hash", None)
        if h is None:
            h = hash((self._tag, self._fields(self)))
            _set_slot(self, "_hash", h)
        return h


def _node(cls):
    """A frozen slotted dataclass with ``_Node``'s cached class-aware hash."""
    cls = dataclass(frozen=True, slots=True)(cls)
    names = tuple(f.name for f in fields(cls))
    cls._tag = cls.__name__
    cls._fields = staticmethod(attrgetter(*names) if names else lambda _: ())
    cls.__hash__ = _Node.__hash__  # replaces the dataclass's field hash, which omits the class
    return cls


# --- formulas ---------------------------------------------------------------


class Formula(_Node):
    __slots__ = ()

    def __str__(self) -> str:
        return format_formula(self)


@_node
class Unit(Formula):
    pass


@_node
class Bottom(Formula):
    pass


@_node
class Tensor(Formula):
    left: Formula
    right: Formula


@_node
class Par(Formula):
    left: Formula
    right: Formula


@_node
class Plus(Formula):
    left: Formula
    right: Formula


@_node
class With(Formula):
    left: Formula
    right: Formula


@_node
class OfCourse(Formula):
    body: Formula


@_node
class WhyNot(Formula):
    body: Formula


def format_formula(a: Formula) -> str:
    match a:
        case Unit():
            return "1"
        case Bottom():
            return "bot"
        case Tensor(l, r):
            return f"({format_formula(l)} * {format_formula(r)})"
        case Par(l, r):
            return f"({format_formula(l)} % {format_formula(r)})"
        case Plus(l, r):
            return f"({format_formula(l)} + {format_formula(r)})"
        case With(l, r):
            return f"({format_formula(l)} & {format_formula(r)})"
        case OfCourse(b):
            return f"!{format_formula(b)}"
        case WhyNot(b):
            return f"?{format_formula(b)}"
    raise TypeError(f"not a formula: {a!r}")


def dual(a: Formula) -> Formula:
    """Structural dual; an involution."""
    match a:
        case Unit():
            return Bottom()
        case Bottom():
            return Unit()
        case Tensor(l, r):
            return Par(dual(l), dual(r))
        case Par(l, r):
            return Tensor(dual(l), dual(r))
        case Plus(l, r):
            return With(dual(l), dual(r))
        case With(l, r):
            return Plus(dual(l), dual(r))
        case OfCourse(b):
            return WhyNot(dual(b))
        case WhyNot(b):
            return OfCourse(dual(b))
    raise TypeError(f"not a formula: {a!r}")


def formula_depth(a: Formula) -> int:
    match a:
        case Unit() | Bottom():
            return 0
        case Tensor(l, r) | Par(l, r) | Plus(l, r) | With(l, r):
            return 1 + max(formula_depth(l), formula_depth(r))
        case OfCourse(b) | WhyNot(b):
            return 1 + formula_depth(b)
    raise TypeError(f"not a formula: {a!r}")


def is_exponential_free(a: Formula) -> bool:
    match a:
        case Unit() | Bottom():
            return True
        case Tensor(l, r) | Par(l, r) | Plus(l, r) | With(l, r):
            return is_exponential_free(l) and is_exponential_free(r)
        case _:
            return False


def is_positive(a: Formula) -> bool:
    """1, tensor, plus and ! are positive; their duals are negative."""
    return isinstance(a, (Unit, Tensor, Plus, OfCourse))


# --- intuitionistic formulas ------------------------------------------------


class IllFormula(_Node):
    __slots__ = ()

    def __str__(self) -> str:
        return format_ill(self)


@_node
class IUnit(IllFormula):
    pass


@_node
class ITensor(IllFormula):
    left: IllFormula
    right: IllFormula


@_node
class ILolli(IllFormula):
    left: IllFormula
    right: IllFormula


@_node
class IPlus(IllFormula):
    left: IllFormula
    right: IllFormula


@_node
class IWith(IllFormula):
    left: IllFormula
    right: IllFormula


@_node
class IBang(IllFormula):
    body: IllFormula


def format_ill(i: IllFormula) -> str:
    match i:
        case IUnit():
            return "1"
        case ITensor(l, r):
            return f"({format_ill(l)} * {format_ill(r)})"
        case ILolli(l, r):
            return f"({format_ill(l)} -o {format_ill(r)})"
        case IPlus(l, r):
            return f"({format_ill(l)} + {format_ill(r)})"
        case IWith(l, r):
            return f"({format_ill(l)} & {format_ill(r)})"
        case IBang(b):
            return f"!{format_ill(b)}"
    raise TypeError(f"not an ILL formula: {i!r}")


# --- processes --------------------------------------------------------------


class Process(_Node):
    __slots__ = ("_free",)


@_node
class Inact(Process):
    pass


@_node
class Fwd(Process):
    left: Name
    right: Name


@_node
class Cut(Process):
    # (new x:A)(P | Q); x bound in both sides, P offers x:A, Q offers x:A^d.
    name: Name
    annot: Formula
    left: Process
    right: Process


@_node
class Mix(Process):
    # P | Q, the binary mix.
    left: Process
    right: Process


@_node
class Out(Process):
    # x[y](P | Q): send fresh y along x; y bound in P, x continues in Q.
    payload: Name
    channel: Name
    left: Process
    right: Process


@_node
class In(Process):
    # x(y).P: receive y along x; y bound in P.
    channel: Name
    payload: Name
    body: Process


@_node
class Server(Process):
    # !x(y).P
    channel: Name
    payload: Name
    body: Process


@_node
class Client(Process):
    # ?x[y].P
    channel: Name
    payload: Name
    body: Process


@_node
class Select(Process):
    # x<i.P for i in {1,2}
    channel: Name
    branch: int
    body: Process


@_node
class Case(Process):
    # x>{P ; Q}
    channel: Name
    left: Process
    right: Process


@_node
class EmptyOut(Process):
    channel: Name


@_node
class EmptyIn(Process):
    channel: Name
    body: Process


@_node
class Weak(Process):
    # weak x:?A.P -- explicit weakening marker; x not free in P.
    name: Name
    annot: Formula
    body: Process


@_node
class Contract(Process):
    # ctr x<x1,x2>.P -- explicit contraction; x1, x2 bound in P, merged as x.
    name: Name
    left_name: Name
    right_name: Name
    body: Process


def free_names(p: Process) -> frozenset[Name]:
    """The free names of ``p``, computed once per node."""
    names = getattr(p, "_free", None)
    if names is None:
        names = _free_names(p)
        _set_slot(p, "_free", names)
    return names


def _free_names(p: Process) -> frozenset[Name]:
    match p:
        case Inact():
            return frozenset()
        case Fwd(a, b):
            return frozenset((a, b))
        case Cut(x, _, l, r):
            return (free_names(l) | free_names(r)) - {x}
        case Mix(l, r):
            return free_names(l) | free_names(r)
        case Out(y, x, l, r):
            return (free_names(l) - {y}) | free_names(r) | {x}
        case In(x, y, b) | Server(x, y, b) | Client(x, y, b):
            return (free_names(b) - {y}) | {x}
        case Select(x, _, b):
            return free_names(b) | {x}
        case Case(x, l, r):
            return free_names(l) | free_names(r) | {x}
        case EmptyOut(x):
            return frozenset((x,))
        case EmptyIn(x, b):
            return free_names(b) | {x}
        case Weak(x, _, b):
            return free_names(b) | {x}
        case Contract(x, x1, x2, b):
            return (free_names(b) - {x1, x2}) | {x}
    raise TypeError(f"not a process: {p!r}")


def process_size(p: Process) -> int:
    """Number of process constructors."""
    match p:
        case Inact() | Fwd(_, _) | EmptyOut(_):
            return 1
        case Cut(_, _, l, r) | Mix(l, r) | Out(_, _, l, r) | Case(_, l, r):
            return 1 + process_size(l) + process_size(r)
        case In(_, _, b) | Server(_, _, b) | Client(_, _, b):
            return 1 + process_size(b)
        case Select(_, _, b) | EmptyIn(_, b) | Weak(_, _, b):
            return 1 + process_size(b)
        case Contract(_, _, _, b):
            return 1 + process_size(b)
    raise TypeError(f"not a process: {p!r}")


class NameSupply:
    """Deterministic fresh-name generator that never collides with `avoid`."""

    def __init__(self, avoid=()):
        self._avoid = set(avoid)
        self._counts: dict[str, int] = {}

    def reserve(self, names) -> None:
        self._avoid.update(names)

    def fresh(self, base: str = "u") -> Name:
        stem = base.rstrip("0123456789") or "u"
        if base not in self._avoid and base not in self._counts:
            self._avoid.add(base)
            self._counts.setdefault(base, 0)
            return base
        n = self._counts.get(stem, 0)
        while f"{stem}{n}" in self._avoid:
            n += 1
        self._counts[stem] = n + 1
        name = f"{stem}{n}"
        self._avoid.add(name)
        return name


def fresh_name(base: str, avoid) -> Name:
    if base not in avoid:
        return base
    n = 0
    while f"{base}{n}" in avoid:
        n += 1
    return f"{base}{n}"


def _subst_name(n: Name, new: Name, old: Name) -> Name:
    return new if n == old else n


def substitute(p: Process, new: Name, old: Name) -> Process:
    """Capture-avoiding substitution of `new` for free occurrences of `old`."""
    if new == old:
        return p

    def under_binder(binder: Name, body: Process):
        # Returns (binder', body') ready for substitution inside body'.
        if binder == old:
            return binder, None  # old is shadowed; leave body alone
        if binder == new and old in free_names(body):
            fresh = fresh_name(binder, free_names(body) | {new, old})
            return fresh, substitute(body, fresh, binder)
        return binder, body

    match p:
        case Inact():
            return p
        case Fwd(a, b):
            return Fwd(_subst_name(a, new, old), _subst_name(b, new, old))
        case Cut(x, ann, l, r):
            if x == old:
                return p
            if x == new and old in (free_names(l) | free_names(r)):
                fresh = fresh_name(x, free_names(l) | free_names(r) | {new, old})
                l, r, x = substitute(l, fresh, x), substitute(r, fresh, x), fresh
            return Cut(x, ann, substitute(l, new, old), substitute(r, new, old))
        case Mix(l, r):
            return Mix(substitute(l, new, old), substitute(r, new, old))
        case Out(y, x, l, r):
            x2 = _subst_name(x, new, old)
            y2, body = under_binder(y, l)
            if body is None:
                return Out(y, x2, l, substitute(r, new, old))
            return Out(y2, x2, substitute(body, new, old), substitute(r, new, old))
        case In(x, y, b) | Server(x, y, b) | Client(x, y, b):
            ctor = type(p)
            x2 = _subst_name(x, new, old)
            y2, body = under_binder(y, b)
            if body is None:
                return ctor(x2, y, b)
            return ctor(x2, y2, substitute(body, new, old))
        case Select(x, i, b):
            return Select(_subst_name(x, new, old), i, substitute(b, new, old))
        case Case(x, l, r):
            return Case(_subst_name(x, new, old), substitute(l, new, old), substitute(r, new, old))
        case EmptyOut(x):
            return EmptyOut(_subst_name(x, new, old))
        case EmptyIn(x, b):
            return EmptyIn(_subst_name(x, new, old), substitute(b, new, old))
        case Weak(x, ann, b):
            return Weak(_subst_name(x, new, old), ann, substitute(b, new, old))
        case Contract(x, x1, x2, b):
            xn = _subst_name(x, new, old)
            if old in (x1, x2):
                return Contract(xn, x1, x2, b)
            body = b
            if new in (x1, x2) and old in free_names(b):
                avoid = free_names(b) | {new, old, x1, x2}
                if x1 == new:
                    f1 = fresh_name(x1, avoid)
                    body = substitute(body, f1, x1)
                    x1 = f1
                if x2 == new:
                    f2 = fresh_name(x2, avoid | {x1})
                    body = substitute(body, f2, x2)
                    x2 = f2
            return Contract(xn, x1, x2, substitute(body, new, old))
    raise TypeError(f"not a process: {p!r}")


def alpha_eq(p: Process, q: Process) -> bool:
    """True iff p and q differ only in the choice of bound names."""
    return _alpha(p, q, {}, {}, [0])


def _alpha(p, q, env_p, env_q, depth) -> bool:
    if type(p) is not type(q):
        return False

    def names_eq(a: Name, b: Name) -> bool:
        ia, ib = env_p.get(a), env_q.get(b)
        if ia is None and ib is None:
            return a == b
        return ia == ib

    def bind(names_p, names_q, k):
        ep, eq_ = dict(env_p), dict(env_q)
        for a, b in zip(names_p, names_q):
            ep[a] = eq_[b] = depth[0]
            depth[0] += 1
        return k(ep, eq_)

    match p, q:
        case Inact(), Inact():
            return True
        case Fwd(a1, b1), Fwd(a2, b2):
            return names_eq(a1, a2) and names_eq(b1, b2)
        case Cut(x1, an1, l1, r1), Cut(x2, an2, l2, r2):
            return an1 == an2 and bind(
                (x1,), (x2,),
                lambda ep, eq_: _alpha(l1, l2, ep, eq_, depth) and _alpha(r1, r2, ep, eq_, depth),
            )
        case Mix(l1, r1), Mix(l2, r2):
            return _alpha(l1, l2, env_p, env_q, depth) and _alpha(r1, r2, env_p, env_q, depth)
        case Out(y1, x1, l1, r1), Out(y2, x2, l2, r2):
            return (
                names_eq(x1, x2)
                and bind((y1,), (y2,), lambda ep, eq_: _alpha(l1, l2, ep, eq_, depth))
                and _alpha(r1, r2, env_p, env_q, depth)
            )
        case (In(x1, y1, b1), In(x2, y2, b2)) | (Server(x1, y1, b1), Server(x2, y2, b2)) | (
            Client(x1, y1, b1),
            Client(x2, y2, b2),
        ):
            return names_eq(x1, x2) and bind(
                (y1,), (y2,), lambda ep, eq_: _alpha(b1, b2, ep, eq_, depth)
            )
        case Select(x1, i1, b1), Select(x2, i2, b2):
            return i1 == i2 and names_eq(x1, x2) and _alpha(b1, b2, env_p, env_q, depth)
        case Case(x1, l1, r1), Case(x2, l2, r2):
            return (
                names_eq(x1, x2)
                and _alpha(l1, l2, env_p, env_q, depth)
                and _alpha(r1, r2, env_p, env_q, depth)
            )
        case EmptyOut(x1), EmptyOut(x2):
            return names_eq(x1, x2)
        case EmptyIn(x1, b1), EmptyIn(x2, b2):
            return names_eq(x1, x2) and _alpha(b1, b2, env_p, env_q, depth)
        case Weak(x1, an1, b1), Weak(x2, an2, b2):
            return an1 == an2 and names_eq(x1, x2) and _alpha(b1, b2, env_p, env_q, depth)
        case Contract(x1, a1, b1, p1), Contract(x2, a2, b2, p2):
            return names_eq(x1, x2) and bind(
                (a1, b1), (a2, b2), lambda ep, eq_: _alpha(p1, p2, ep, eq_, depth)
            )
    return False
