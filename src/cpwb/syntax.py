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

Each process class declares its binders once (``Process.binds``).
Substitution, alpha-equivalence, size and the set of all names are one
generic walk each over that declaration. The two hot walks are generated
per class at import instead (``generated``): the free names of each
process class from its declaration, and ``dual`` of each formula class
from the table of dual connectives. A node then costs one table lookup
and one call that reads its fields by name.

Each formula sort has a concrete-syntax table, each form written as it
prints (``FORMULA_SYNTAX``, ``ILL_SYNTAX``). One template compiler,
``printers``, makes a generated ``format`` walk per class from such a table:
the printers of both formula sorts here, and those of the processes in
``cli``, whose parser reads types along ``FORMULA_SYNTAX`` too.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from itertools import count
from operator import attrgetter
from string import Formatter

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
    field through the field's slot descriptor (``_slot_init``); a class with
    no fields keeps ``object.__init__``, which refuses any argument. ``_fields``
    gives a node's field values as a tuple. A process class also gets
    ``_shape``, the positions of its fields that its ``binds`` declaration
    implies (see ``Process``), and its free-names walk in ``_FREE_NAMES``.
    """
    ns = {k: v for k, v in cls.__dict__.items() if k not in ("__dict__", "__weakref__")}
    ns["__slots__"] = tuple(ns.get("__annotations__", ()))
    cls = dataclass(frozen=True, init=False)(type(cls)(cls.__name__, cls.__bases__, ns))
    fs = fields(cls)
    names = tuple(f.name for f in fs)
    if names:
        cls.__init__ = _slot_init(cls, names)
    cls._tag = cls.__name__
    key = attrgetter(*names) if names else lambda _: ()
    cls._key = staticmethod(key)  # what the hash covers; one field's value is not a tuple
    cls._fields = staticmethod(key if len(names) != 1 else lambda node: (key(node),))
    cls.__hash__ = _Node.__hash__  # replaces the dataclass's field hash, which omits the class
    binds = getattr(cls, "binds", None)
    if binds is not None:
        cls._shape = _shape(fs, *binds)
        _FREE_NAMES[cls] = generated(
            cls, "free_names", "p", [f"return {_free_names_of(names, cls._shape)}"], globals()
        )
    return cls


def _slot_init(cls, names):
    """An ``__init__(self, <names>)`` that sets each slot with its member
    descriptor's ``__set__``: the frozen dataclass's own ``__init__`` goes
    through ``object.__setattr__`` once per field, which looks the
    descriptor up by name each time. Assignment after construction still
    raises ``FrozenInstanceError``."""
    setters = {f"_set_{n}": cls.__dict__[n].__set__ for n in names}
    body = [f"_set_{n}(self, {n})" for n in names]
    return generated(cls, "__init__", ", ".join(("self", *names)), body, setters)


def generated(cls, walk: str, params: str, body, namespace: dict):
    """The function ``walk(params)`` of ``cls`` with the statements ``body``.

    It is compiled under the filename ``<generated Cls.walk>``, so that
    profiles and tracebacks name its class and walk, and ``namespace`` is
    its globals: a walk generated in its module's globals recurses through
    the module-level names, which a tracer or a test may rebind.
    """
    src = "".join([f"def {walk}({params}):\n", *(f"    {line}\n" for line in body)])
    local = {}
    exec(compile(src, f"<generated {cls.__name__}.{walk}>", "exec"), namespace, local)
    fn = local[walk]
    fn.__qualname__ = f"{cls.__qualname__}.{walk}"
    return fn


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


def _free_names_of(names, shape) -> str:
    """The expression for the free names of a process ``p`` of a class with
    the field ``names`` and that ``_shape``: the free names of the scoped
    subprocesses less the binders, with those of the other subprocesses and
    the free name fields added."""
    free, bound, subs, _ = shape
    scoped = [f"free_names(p.{names[i]})" for i, sc in subs if sc]
    terms = [f"{_union(scoped)}.difference({_tuple(names, bound)})"] if scoped else []
    terms += [f"free_names(p.{names[i]})" for i, sc in subs if not sc]
    own = [_tuple(names, free)] if free else []
    return _union(terms + own) if terms else f"frozenset({''.join(own)})"


def _tuple(names, positions) -> str:
    return f"({', '.join(f'p.{names[i]}' for i in positions)},)"


def _union(terms) -> str:
    first, *rest = terms
    return f"{first}.union({', '.join(rest)})" if rest else first


# process class -> its generated free-names walk; see ``_free_names``
_FREE_NAMES = {}


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


# Every formula form, written as it prints; every binary connective is
# parenthesized. ``printers`` makes each class's printer from its template.
FORMULA_SYNTAX = {
    Unit: "1",
    Bottom: "bot",
    Tensor: "({left} * {right})",
    Par: "({left} % {right})",
    Plus: "({left} + {right})",
    With: "({left} & {right})",
    OfCourse: "!{body}",
    WhyNot: "?{body}",
}


def format_formula(a: Formula) -> str:
    try:
        write = _FORMULA_PRINTERS[type(a)]
    except KeyError:
        raise TypeError(f"not a formula: {a!r}") from None
    return write(a)


def dual(a: Formula) -> Formula:
    """Structural dual; an involution.

    Each formula class has a generated walk that builds the dual connective
    of ``_DUAL`` over its subformulas, dualized through this function's
    module-level name: for ``Tensor`` it is ``Par(dual(a.left), dual(a.right))``.
    """
    try:
        walk = _DUALS[type(a)]
    except KeyError:
        raise TypeError(f"not a formula: {a!r}") from None
    return walk(a)


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

_DUALS = {
    cls: generated(
        cls, "dual", "a",
        [f"return {co.__name__}({', '.join(f'dual(a.{f.name})' for f in fields(cls))})"],
        globals(),
    )
    for cls, co in _DUAL.items()
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


# The intuitionistic formulas of the translation, written as they print.
ILL_SYNTAX = {
    IUnit: "1",
    ITensor: "({left} * {right})",
    ILolli: "({left} -o {right})",
    IPlus: "({left} + {right})",
    IWith: "({left} & {right})",
    IBang: "!{body}",
}


def format_ill(i: IllFormula) -> str:
    try:
        write = _ILL_PRINTERS[type(i)]
    except KeyError:
        raise TypeError(f"not an ILL formula: {i!r}") from None
    return write(i)


# --- concrete syntax ----------------------------------------------------------


def pieces(cls, template: str):
    """(literal, field or None, slot kind: the field's type or its `:spec`) per template piece."""
    types = {f.name: f.type for f in fields(cls)}
    for literal, name, spec, _ in Formatter().parse(template):
        yield literal, name, name and (spec or types[name])


def printers(table: dict, writers: dict, namespace: dict) -> dict:
    """Each class of ``table`` with its generated ``format`` walk, which
    writes the class's template: a literal as it is written, a name or an
    index as it is, and any other slot through the function that ``writers``
    names for its kind, looked up in ``namespace``. For ``Tensor`` it is
    ``return f"({format_formula(p.left)} * {format_formula(p.right)})"``."""
    out = {}
    for cls, template in table.items():
        body = ""
        for literal, name, kind in pieces(cls, template):
            body += literal.replace("{", "{{").replace("}", "}}")
            if name is not None:
                write = "" if kind in ("Name", "int") else writers[kind]
                body += f"{{{write}(p.{name})}}"
        out[cls] = generated(cls, "format", "p", [f'return f"{body}"'], namespace)
    return out


_FORMULA_PRINTERS = printers(FORMULA_SYNTAX, {"Formula": "format_formula"}, globals())
_ILL_PRINTERS = printers(ILL_SYNTAX, {"IllFormula": "format_ill"}, globals())


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
    """The free names of ``p`` by its class's generated walk, which takes
    those of the subprocesses from ``free_names``. For ``Out`` it is
    ``free_names(p.left).difference((p.payload,)).union(free_names(p.right), (p.channel,))``."""
    try:
        walk = _FREE_NAMES[type(p)]
    except KeyError:
        raise TypeError(f"not a process: {p!r}") from None
    return walk(p)


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
