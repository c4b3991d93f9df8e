"""Term algebras for session types and processes.

Formulas are the eight-connective linear-logic session types (no atoms,
no 0/top).  Processes carry explicit weakening/contraction markers and
type-annotated cuts so that type checking is syntax directed: one term,
one derivation.

Every node is an immutable slotted dataclass whose constructor stores each
field through its slot's descriptor. Its hash counts its class,
so ``Unit()`` and ``Bottom()``, or ``Tensor`` and ``Par`` over the same
arguments, do not collide; it is computed on first use and kept in a
slot, so hashing a term built over hashed subterms is O(1). A process
node likewise keeps its free names once ``free_names`` has computed them.
Equality stays structural and nodes are not interned.

Each process class declares its binders once (``Process.binds``), and
every walk over names (free names, substitution, alpha-equivalence, size
and the set of all names) is one generic function over that declaration.
``dual`` reads the dual connective of each formula class from one table.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from itertools import count
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
            h = hash((self._tag, self._key(self)))
            _set_slot(self, "_hash", h)
        return h

    def __reduce__(self):
        # copy and pickle rebuild a node through its constructor
        return type(self), self._fields(self)


def _node(cls):
    """A frozen slotted dataclass with ``_Node``'s cached class-aware hash.

    The slotted class is built here, once, with a slot per annotated field;
    ``dataclass(slots=True)`` would build a second class and leave the
    first alive in its frozen ``__setattr__``. Its ``__init__`` stores each
    field through the field's slot descriptor (``_slot_init``). ``_fields``
    gives a node's field values as a tuple. A process class also gets
    ``_shape``, the positions of its fields that its ``binds`` declaration
    implies (see ``Process``).
    """
    ns = {k: v for k, v in cls.__dict__.items() if k not in ("__dict__", "__weakref__")}
    ns["__slots__"] = tuple(ns.get("__annotations__", ()))
    cls = dataclass(frozen=True, init=False)(type(cls)(cls.__name__, cls.__bases__, ns))
    fs = fields(cls)
    names = tuple(f.name for f in fs)
    cls.__init__ = _slot_init(cls, names)
    cls._tag = cls.__name__
    key = attrgetter(*names) if names else lambda _: ()
    cls._key = staticmethod(key)  # what the hash covers; one field's value is not a tuple
    cls._fields = staticmethod(key if len(names) != 1 else lambda node: (key(node),))
    cls.__hash__ = _Node.__hash__  # replaces the dataclass's field hash, which omits the class
    binds = getattr(cls, "binds", None)
    if binds is not None:
        cls._shape = _shape(fs, *binds)
    return cls


def _slot_init(cls, names):
    """An ``__init__(self, <names>)`` that sets each slot with its member
    descriptor's ``__set__``: the frozen dataclass's own ``__init__`` goes
    through ``object.__setattr__`` once per field, which looks the
    descriptor up by name each time. Assignment after construction still
    raises ``FrozenInstanceError``."""
    setters = {f"_set_{n}": cls.__dict__[n].__set__ for n in names}
    body = "".join(f"    _set_{n}(self, {n})\n" for n in names) or "    pass\n"
    exec(f"def __init__(self, {', '.join(names)}):\n{body}", setters)
    init = setters["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    return init


def _shape(fs, binders, scope):
    """(free, bound, subs, data) positions of a process class's fields.

    ``free`` are the ``Name`` fields that ``binders`` leaves free, ``bound``
    the binders in field order, ``subs`` each ``Process`` field with the
    binders whose scope it is, and ``data`` every other field.
    """
    at = {f.name: i for i, f in enumerate(fs)}
    bound = tuple(sorted(at[n] for n in binders))
    free = tuple(i for i, f in enumerate(fs) if f.type == "Name" and i not in bound)
    subs = tuple(
        (i, bound if f.name in scope else ()) for i, f in enumerate(fs) if f.type == "Process"
    )
    data = tuple(i for i, f in enumerate(fs) if f.type not in ("Name", "Process"))
    return free, bound, subs, data


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
    """Structural dual; an involution.

    The connective comes from one table, and the subformulas are dualized
    through this function's module-level name.
    """
    try:
        make = _DUAL[type(a)]
    except KeyError:
        raise TypeError(f"not a formula: {a!r}") from None
    return make(*map(dual, a._fields(a)))


_DUAL = {
    Unit: Bottom,
    Bottom: Unit,
    Tensor: Par,
    Par: Tensor,
    Plus: With,
    With: Plus,
    OfCourse: WhyNot,
    WhyNot: OfCourse,
}


def formula_depth(a: Formula) -> int:
    match a:
        case Unit() | Bottom():
            return 0
        case Tensor(l, r) | Par(l, r) | Plus(l, r) | With(l, r):
            return 1 + max(formula_depth(l), formula_depth(r))
        case OfCourse(b) | WhyNot(b):
            return 1 + formula_depth(b)
    raise TypeError(f"not a formula: {a!r}")


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
    """A process node.

    A constructor that binds names declares ``binds = (binders, scope)``:
    the ``Name`` fields it binds and the ``Process`` fields that are their
    scope. Every other ``Name`` field is free. The walks below
    (``free_names``, ``substitute``, ``alpha_eq``, ``process_size`` and
    ``all_names``) read only the positions derived from this declaration.
    """

    __slots__ = ("_free",)
    binds = ((), ())


@_node
class Inact(Process):
    pass


@_node
class Fwd(Process):
    left: Name
    right: Name


@_node
class Cut(Process):
    # (new x:A)(P | Q); P offers x:A, Q offers x:A^d.
    name: Name
    annot: Formula
    left: Process
    right: Process
    binds = ("name",), ("left", "right")


@_node
class Mix(Process):
    # P | Q, the binary mix.
    left: Process
    right: Process


@_node
class Out(Process):
    # x[y](P | Q): send fresh y along x; x continues in Q.
    payload: Name
    channel: Name
    left: Process
    right: Process
    binds = ("payload",), ("left",)


@_node
class In(Process):
    # x(y).P: receive y along x.
    channel: Name
    payload: Name
    body: Process
    binds = ("payload",), ("body",)


@_node
class Server(Process):
    # !x(y).P
    channel: Name
    payload: Name
    body: Process
    binds = ("payload",), ("body",)


@_node
class Client(Process):
    # ?x[y].P
    channel: Name
    payload: Name
    body: Process
    binds = ("payload",), ("body",)


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
    # ctr x<x1,x2>.P -- explicit contraction of x1, x2 into x.
    name: Name
    left_name: Name
    right_name: Name
    body: Process
    binds = ("left_name", "right_name"), ("body",)


def free_names(p: Process) -> frozenset[Name]:
    """The free names of ``p``, computed once per node."""
    names = getattr(p, "_free", None)
    if names is None:
        names = _free_names(p)
        _set_slot(p, "_free", names)
    return names


def _free_names(p: Process) -> frozenset[Name]:
    free, _, subs, _ = p._shape
    vals = p._fields(p)
    names = frozenset([vals[i] for i in free])
    for i, scoped in subs:
        inner = free_names(vals[i])
        if scoped:
            inner = inner.difference([vals[b] for b in scoped])
        names |= inner
    return names


def all_names(p: Process) -> set[Name]:
    """Every name that occurs in ``p``, free or bound."""
    free, bound, subs, _ = p._shape
    vals = p._fields(p)
    names = {vals[i] for i in free + bound}
    for i, _ in subs:
        names |= all_names(vals[i])
    return names


def process_size(p: Process) -> int:
    """Number of process constructors."""
    vals = p._fields(p)
    size = 1
    for i, _ in p._shape[2]:
        size += process_size(vals[i])
    return size


class NameSupply:
    """Deterministic fresh-name generator that never collides with `avoid`."""

    def __init__(self, avoid=()):
        self._avoid = set(avoid)
        self._counts: dict[str, int] = {}

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


def substitute(p: Process, new: Name, old: Name) -> Process:
    """Capture-avoiding substitution of ``new`` for the free occurrences of ``old``.

    A binder named ``old`` shadows it: the binder's scope is left alone. A
    binder named ``new`` whose scope has ``old`` free is renamed first, to
    the ``fresh_name`` of ``new`` that avoids the scope's free names,
    ``new``, ``old`` and the node's binders; when both binders of a node
    are ``new``, they are renamed left to right.
    """
    if new == old:
        return p
    free, bound, subs, _ = p._shape
    vals = list(p._fields(p))
    for i in free:
        if vals[i] == old:
            vals[i] = new
    binders = [vals[b] for b in bound]
    if new in binders and old not in binders:
        scope = [i for i, scoped in subs if scoped]
        live = frozenset().union(*[free_names(vals[i]) for i in scope])
        if old in live:
            avoid = live | {new, old, *binders}
            for b in bound:
                if vals[b] == new:
                    fresh = fresh_name(new, avoid)
                    avoid |= {fresh}
                    for i in scope:
                        vals[i] = substitute(vals[i], fresh, new)
                    vals[b] = fresh
    for i, scoped in subs:
        if not scoped or old not in binders:
            vals[i] = substitute(vals[i], new, old)
    return type(p)(*vals)


def alpha_eq(p: Process, q: Process) -> bool:
    """True iff p and q differ only in the choice of bound names."""
    return _alpha(p, q, {}, {}, count())


def _alpha(p, q, env_p, env_q, ids) -> bool:
    # env_p and env_q map each bound name to the id of its binder; the
    # binders of one node pair get the same fresh ids on both sides.
    if type(p) is not type(q):
        return False
    free, bound, subs, data = p._shape
    vp, vq = p._fields(p), q._fields(q)
    for i in data:
        if vp[i] != vq[i]:
            return False
    for i in free:
        ia, ib = env_p.get(vp[i]), env_q.get(vq[i])
        if ia != ib or (ia is None and vp[i] != vq[i]):
            return False
    outer = inner = env_p, env_q
    if bound:
        inner = dict(env_p), dict(env_q)
        for b in bound:
            inner[0][vp[b]] = inner[1][vq[b]] = next(ids)
    return all(_alpha(vp[i], vq[i], *(inner if scoped else outer), ids) for i, scoped in subs)
