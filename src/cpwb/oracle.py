"""Configurations and the big-step observation relation.

A configuration is a tree of checked processes composed by observable
cuts.  For the observation search the tree is flattened into a "soup" of
process leaves connected by names (observable for configuration cuts,
hidden for process-level cuts), with weakening/contraction markers as
pseudo-leaves.  Soup equality subsumes the structural congruence (cut
commutation/reassociation, parallel rearrangement), so the search is a
rewrite over soups.

The search never rebuilds a term.  A process leaf is a node of the
original checked process and an environment: a dict from the names that
the node's binders, and the contractions above it, bound to soup names.
A cut, a contraction or a communication step extends the environment of
the continuation it unfolds; a forwarder merges its two names in one
alias map as it joins the soup; and an index of the names that leaves act
on, kept across steps, finds each enabled communication step as its
second leaf arrives.

The search follows one reduction sequence.  Names are linear and each
leaf acts on one name, so two redexes never share a leaf and commute; CP
reduction is confluent, and under that diamond property every maximal
sequence has the same length and gives the same observations.  So the
search is complete although it links each forwarder as it arrives and
then fires only the first communication step of each soup; a link still
counts as one step of the sequence.  Hidden names are the ints 1, 2, ...
of one counter per ``observe`` call; parsed names are strings, so the two
never meet.

Every walk here picks its case by one table lookup, never by a structural
``match``: the soup adds a node by the case of its class (``_GROW``) and
fires a step by the case of its (sender, receiver) kinds (``_COMM``); the
configuration check and denotation look up the case of each configuration
class (``_CHECK``, ``_DENOTE``).  Each case reads its node's fields by name.

Each communication step is recorded as data: the name of the fired edge,
the function that gives its value, and the hidden names it reads that
value from.  A reduction to the empty soup has exactly one observation,
which is read back from that list, last step first, into one dict.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import count
from operator import attrgetter

from .denotations import STAR, UNIT, DenotationSet, Pair, Relation, Tag, _denote, bag, bounded_union
from .denotations import check_bound, contract, empty, extend, join, mk_tuple, product, space
from .syntax import (
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
    Out,
    Select,
    Server,
    Weak,
    WhyNot,
    dual,
    free_names,
)
from .typing import CPTypeError, Derivation, ctx_items, too_deep


class CutTypeMismatch(CPTypeError):
    pass


class OpenConfiguration(CPTypeError):
    pass


class DepthExceeded(Exception):
    """The reduction sequence of a configuration is longer than ``depth`` steps."""


class Configuration:
    __slots__ = ()


@dataclass(frozen=True)
class CZero(Configuration):
    pass


@dataclass(frozen=True)
class CProc(Configuration):
    deriv: Derivation


@dataclass(frozen=True)
class CCut(Configuration):
    # left offers name:annot, right offers the dual; name becomes observable.
    name: Name
    annot: Formula
    left: Configuration
    right: Configuration


@dataclass(frozen=True)
class CPar(Configuration):
    left: Configuration
    right: Configuration


@dataclass(frozen=True)
class CWeak(Configuration):
    name: Name
    annot: Formula
    sub: Configuration


@dataclass(frozen=True)
class CCon(Configuration):
    # sub uses left_name and right_name at the same ?-type; both become left_name.
    left_name: Name
    right_name: Name
    sub: Configuration


def _fold(c: Configuration, cases: dict, *args, spine: bool = False):
    """``cases[type(c)](c, *args, *results of c's subconfigurations)``,
    bottom-up, left to right, over an explicit stack: a configuration of any
    depth. With ``spine``, the subconfigurations of a ``CPar`` are the
    configurations below its whole ``CPar`` spine that are not ``CPar``, so
    its case sees them all at once."""
    order, todo = [], [c]
    while todo:
        c = todo.pop()
        subs = _spine(c) if spine and type(c) is CPar else _SUBS.get(type(c), _leaf)(c)
        order.append((c, len(subs)))
        todo += subs
    results: list = []
    for c, k in reversed(order):
        case = cases.get(type(c))
        if case is None:
            raise CPTypeError(f"not a configuration: {c!r}")
        n = len(results) - k
        results[n:] = [case(c, *args, *results[n:])]
    return results[0]


def _leaf(c):
    return ()


_SUBS = {CCut: attrgetter("left", "right"), CPar: attrgetter("left", "right"),
         CWeak: lambda c: (c.sub,), CCon: lambda c: (c.sub,)}


def _spine(c: CPar) -> list:
    """The configurations under the ``CPar`` spine of ``c`` that are not
    ``CPar``, left to right."""
    out, todo = [], [c]
    while todo:
        c = todo.pop()
        if type(c) is CPar:
            todo += c.right, c.left
        else:
            out.append(c)
    return out


def check_config(c: Configuration):
    """Return (free context, observable context) for a configuration."""
    return _fold(c, _CHECK)


# One function per configuration class: from the (free, observable)
# contexts of its subconfigurations, those of the node.


def _check_cut(c, left, right):
    x, annot = c.name, c.annot
    if left[0].get(x) != annot:
        raise CutTypeMismatch(f"left side must offer {x} at {annot}")
    if right[0].get(x) != dual(annot):
        raise CutTypeMismatch(f"right side must offer {x} at {dual(annot)}")
    del left[0][x]
    del right[0][x]  # a side's free and observable names are disjoint, so x is in neither side now
    g, t = _merge(left, right)
    t[x] = annot
    return g, t


def _check_weak(c, sub):
    x, annot = c.name, c.annot
    g, t = sub
    if not isinstance(annot, WhyNot):
        raise CutTypeMismatch(f"configuration weakening needs a ?-type, got {annot}")
    if x in g or x in t:
        raise CutTypeMismatch(f"weakened name {x} already in use")
    g[x] = annot
    return g, t


def _check_con(c, sub):
    x1, x2 = c.left_name, c.right_name
    g, t = sub
    if x1 == x2:
        raise CutTypeMismatch(f"configuration contraction of {x1} with itself")
    t1, t2 = g.get(x1), g.get(x2)
    if t1 is None or t1 != t2 or not isinstance(t1, WhyNot):
        raise CutTypeMismatch(f"configuration contraction needs {x1}, {x2} at one ?-type")
    del g[x2]
    return g, t


_CHECK = {
    CZero: lambda c: ({}, {}),
    CProc: lambda c: (dict(c.deriv.ctx), {}),
    CCut: _check_cut,
    CPar: lambda c, left, right: _merge(left, right),
    CWeak: _check_weak,
    CCon: _check_con,
}


def _merge(left, right):
    """The free and observable contexts of two sides, each a (free,
    observable) pair, merged: the smaller side goes into the larger one, and
    only its names are looked up in the other, so a chain of n ``CPar`` nodes
    costs O(n log n) and not O(n^2). A side's two contexts are already
    disjoint."""
    if len(left[0]) + len(left[1]) < len(right[0]) + len(right[1]):
        small, large = left, right
    else:
        small, large = right, left
    for g in small:
        for n in g:
            if n in large[0] or n in large[1]:
                _disjoint(left, right)  # raises, naming the names as it always has
    large[0].update(small[0])
    large[1].update(small[1])
    return large


def _disjoint(left, right):
    seen: set[str] = set()
    for g in (left[0], right[0], left[1], right[1]):
        clash = seen.intersection(g)
        if clash:
            raise CutTypeMismatch(f"names occur twice in a configuration: {sorted(clash)}")
        seen.update(g)


# --- the observation search ---------------------------------------------------

# Leaves: (type(P), P, env) | ("weak", name) | ("con", ext, f1, f2).  P is a
#         node of a checked process other than a forwarder; env maps the
#         names that binders above P bound to soup names, and any other name
#         of P is its own soup name.  Marker names are soup names.
# Names:  a forwarder is no leaf: as it joins the soup it merges one of its
#         names into the other, which then points, in ``alias``, to the
#         name it merged into; every lookup goes through ``find``.  Hidden
#         names are ints, drawn from the soup's counter; parsed names are
#         strings, so the two never meet.
# A step is (fired name, fn, hidden names that fn reads).


class _Soup:
    """The leaves of a soup, held only by the index of the names they act on.

    ``acting`` maps a name to the one leaf that acts on it until the leaf
    at its other end arrives; the pair then moves to ``ready``, the enabled
    communication steps in the order they became enabled.  ``size`` counts
    the leaves and ``links`` the forwarders linked so far.  At bound 0 a
    server never meets a client, so that pair is never enabled.  Hidden
    names are the ints 1, 2, ... of one counter per ``observe`` call.
    ``grow`` picks the case of each node's class in ``_GROW``, and ``comm``
    the case of the step's (sender, receiver) kinds in ``_COMM``.
    """

    def __init__(self, bound: int):
        self.enabled = _COMM.keys() if bound else _COMM.keys() - {(Server, Client)}
        self.hide = partial(next, count(1))
        self.union = bounded_union(bound)  # the value of every server duplication
        self.alias: dict = {}
        self.acting: dict = {}
        self.ready: dict = {}
        self.size = 0
        self.links = 0

    def find(self, n: Name) -> Name:
        """The name that ``n`` was merged into, compressing the path to it."""
        alias, root = self.alias, n
        while root in alias:
            root = alias[root]
        while n != root:
            alias[n], n = root, alias[n]
        return root

    def act(self, leaf, name: Name) -> None:
        """Let ``leaf`` act on ``name``: with the leaf already there, a redex."""
        if name in self.alias:
            name = self.find(name)
        other = self.acting.pop(name, None)
        if other is None:
            self.acting[name] = leaf
        elif (other[0], leaf[0]) in self.enabled:
            self.ready[name] = other, leaf
        elif (leaf[0], other[0]) in self.enabled:
            self.ready[name] = leaf, other

    def add(self, leaf, name: Name) -> None:
        self.size += 1
        self.act(leaf, name)

    def grow(self, todo: list) -> None:
        """Add the leaves of configurations and processes, each popped from
        ``todo`` with its environment, and the hidden names of their cuts."""
        while todo:
            node, env = todo.pop()
            _GROW[type(node)](self, node, env, todo)

    def comm(self, name: Name, sender, receiver):
        """Fire the enabled redex on ``name``: drop its two leaves, add what
        the step unfolds, and return the step."""
        del self.ready[name]
        self.size -= 2
        todo: list = []
        _, p, env = sender
        fn, hidden = _COMM[sender[0], receiver[0]](self, p, env, receiver, todo)
        self.grow(todo)
        return name, fn, hidden


# One function per node class: add the node's leaf to the soup, or push
# what it composes onto ``todo`` with its environment.


def _nothing(soup, node, env, todo):
    pass


def _proc(soup, c, env, todo):
    todo.append((c.deriv.process, env))


def _both(soup, node, env, todo):
    todo += (node.left, env), (node.right, env)


def _cut(soup, p, env, todo):
    env = {**env, p.name: soup.hide()}
    todo += (p.left, env), (p.right, env)


def _weak(soup, p, env, todo):
    x = env.get(p.name, p.name)
    soup.add(("weak", x), x)
    todo.append((p.body, env))


def _config_weak(soup, c, env, todo):
    x = env.get(c.name, c.name)
    soup.add(("weak", x), x)
    todo.append((c.sub, env))


def _config_con(soup, c, env, todo):
    # a configuration contraction keeps its first name
    x1, x2 = c.left_name, c.right_name
    x, f1, f2 = env.get(x1, x1), soup.hide(), soup.hide()
    soup.add(("con", x, f1, f2), x)
    todo.append((c.sub, {**env, x1: f1, x2: f2}))


def _contract(soup, p, env, todo):
    x, f1, f2 = env.get(p.name, p.name), soup.hide(), soup.hide()
    soup.add(("con", x, f1, f2), x)
    todo.append((p.body, {**env, p.left_name: f1, p.right_name: f2}))


def _link(soup, p, env, todo):
    # [a<->b] links as it joins the soup: b merges into a, and a leaf
    # already waiting on b acts on a
    a, b = (soup.find(env.get(n, n)) for n in (p.left, p.right))
    soup.alias[b] = a
    soup.links += 1
    leaf = soup.acting.pop(b, None)
    if leaf is not None:
        soup.act(leaf, a)


def _acting(soup, p, env, todo):
    x = p.channel
    soup.add((type(p), p, env), env.get(x, x))


_GROW = {
    CZero: _nothing,
    Inact: _nothing,
    CProc: _proc,
    CCut: _both,
    CPar: _both,
    Mix: _both,
    Cut: _cut,
    CWeak: _config_weak,
    Weak: _weak,
    CCon: _config_con,
    Contract: _contract,
    Fwd: _link,
    **dict.fromkeys((EmptyOut, EmptyIn, Out, In, Select, Case, Server, Client), _acting),
}


# One function per communication step, by its (sender, receiver) kinds: it
# pushes the continuations of the sender ``p`` (at ``env``) and of the
# receiver onto ``todo``, and returns the step's value function and the
# hidden names that it reads.
# The value functions are built once, here and in ``_Soup``, not per step.


def _star():
    return STAR


def _singleton(o):
    return bag((o,))


_TAG = {1: partial(Tag, 1), 2: partial(Tag, 2)}


def _close(soup, p, env, receiver, todo):
    _, q, renv = receiver
    todo.append((q.body, renv))
    return _star, ()


def _send(soup, p, env, receiver, todo):
    _, q, renv = receiver
    np_, nc = soup.hide(), soup.hide()
    todo += (p.left, {**env, p.payload: np_}), (p.right, {**env, p.channel: nc})
    todo.append((q.body, {**renv, q.payload: np_, q.channel: nc}))
    return Pair, (np_, nc)


def _choose(soup, p, env, receiver, todo):
    _, q, renv = receiver
    nc = soup.hide()
    branch = q.left if p.branch == 1 else q.right
    todo += (p.body, {**env, p.channel: nc}), (branch, {**renv, q.channel: nc})
    return _TAG[p.branch], (nc,)


def _serve(soup, p, env, receiver, todo):
    _, q, renv = receiver
    ns = soup.hide()
    todo += (p.body, {**env, p.payload: ns}), (q.body, {**renv, q.payload: ns})
    return _singleton, (ns,)


def _drop(soup, p, env, receiver, todo):
    # the dropped server's carried ?-names are weakened as well
    for n in sorted(free_names(p).difference((p.channel,))):
        n = env.get(n, n)
        soup.add(("weak", n), n)
    return bag, ()


def _duplicate(soup, p, env, receiver, todo):
    # one server node, two environments; each carried ?-name splits into
    # one name per copy, re-merged by a contraction
    _, _, f1, f2 = receiver
    a = p.channel
    env1, env2 = {**env, a: f1}, {**env, a: f2}
    for n in sorted(free_names(p).difference((a,))):
        env1[n], env2[n] = soup.hide(), soup.hide()
        ext = env.get(n, n)
        soup.add(("con", ext, env1[n], env2[n]), ext)
    soup.add((Server, p, env1), f1)
    soup.add((Server, p, env2), f2)
    return soup.union, (f1, f2)


_COMM = {
    (EmptyOut, EmptyIn): _close,
    (Out, In): _send,
    (Select, Case): _choose,
    (Server, Client): _serve,
    (Server, "weak"): _drop,
    (Server, "con"): _duplicate,
}


def _redexes(soup: _Soup):
    """The enabled communication steps of a soup, read from its index: each
    ``(name, sender, receiver)`` in the order it became enabled."""
    for name, (u, v) in soup.ready.items():
        yield name, u, v


DEFAULT_DEPTH = 4000


def observe(c: Configuration, bound: int = 2, depth: int = DEFAULT_DEPTH):
    """All observation tuples of a closed configuration, at bound ``bound``.

    Reduction is confluent, so one maximal reduction sequence gives every
    observation: link each forwarder as it joins the soup and fire the
    first communication step of each soup until the soup is empty (one
    observation) or stuck (none), then read the one observation back from
    the steps, last step first: each step reads its hidden names and gives
    its fired name ``fn`` of them.  A name a link merged away reads the
    value of the name it merged into.  Links and communication steps both
    count toward ``depth``.
    """
    check_bound(bound)
    gamma, theta = check_config(c)
    if gamma:
        raise OpenConfiguration(f"configuration has free names: {sorted(gamma)}")
    soup = _Soup(bound)
    soup.grow([(c, {})])

    steps = []
    while len(steps) + soup.links <= depth:
        if not soup.size:
            break
        for name, u, v in _redexes(soup):
            steps.append(soup.comm(name, u, v))
            break
        else:
            return frozenset()  # a stuck soup
    else:
        raise DepthExceeded(f"more than {depth} steps")

    seen: dict = {}
    find = soup.find
    for name, fn, args in reversed(steps):
        value = fn(*[seen[find(n)] for n in args])
        if value is None:
            return frozenset()  # a union of bags past the bound
        seen[name] = value
    # the observable names are the configuration's cut names, theta
    return frozenset({mk_tuple({x: seen[find(x)] for x in theta})})


def denote_config(c: Configuration, bound: int = 2) -> DenotationSet:
    """Fig-4 denotation extended to configurations: cuts keep their coordinate."""
    check_bound(bound)
    gamma, theta = check_config(c)
    rel = _config_relation(c, bound)
    return DenotationSet(rel.tuples(), ctx_items({**gamma, **theta}), bound)


def _config_relation(c: Configuration, bound: int) -> Relation:
    """The denotation of a configuration that ``check_config`` accepted. A
    ``CPar`` spine is one product of all the relations below it: a chain of
    binary products would copy and re-plan an ever wider row per level."""
    try:
        return _fold(c, _DENOTE, bound, spine=True)
    except RecursionError:
        raise too_deep("a process of the configuration") from None


# One function per configuration class: from the relations of its
# subconfigurations (of every configuration below a ``CPar`` spine), that
# of the node.
_DENOTE = {
    CZero: lambda c, bound: UNIT,
    CProc: lambda c, bound: _denote(c.deriv, bound),
    CCut: lambda c, bound, left, right: join(left, right, c.name, keep=True),
    CPar: lambda c, bound, *rels: product(rels),
    CWeak: lambda c, bound, sub: extend(sub, c.name, space(c.annot, bound), empty),
    # a configuration contraction keeps its first name
    CCon: lambda c, bound, sub: contract(sub, c.left_name, c.left_name, c.right_name),
}


def adequacy_check(c: Configuration, bound: int = 2, depth: int = DEFAULT_DEPTH) -> bool:
    """Operational observations equal the configuration denotation.

    ``observe`` checks the configuration, so its denotation is not checked
    again: one ``check_config`` per call.
    """
    return observe(c, bound, depth) == _config_relation(c, bound).tuples()
