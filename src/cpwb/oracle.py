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
alias map; and an index of the names that leaves act on, kept across
steps, finds each enabled redex as its second leaf arrives.

The search follows one reduction sequence.  Names are linear and each
leaf acts on one name, so two redexes never share a leaf and commute; CP
reduction is confluent, and under that diamond property every maximal
sequence has the same length and gives the same observations.  So the
search is complete although it fires only the first redex of each soup.
Hidden names come from one counter per ``observe`` call.

Each communication step is recorded as data: the name of the fired edge,
the function that gives its value, and the hidden names it reads that
value from.  A reduction to the empty soup has exactly one observation,
which is read back from that list, last step first, into one dict.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import count

from .denotations import STAR, UNIT, DenotationSet, Pair, Relation, Tag, _denote, bag, bag_union
from .denotations import bounded_union, check_bound, empty, extend, join, mk_tuple, product, space
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
from .typing import CPTypeError, Derivation, ctx_items


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


def _fold(c: Configuration, node):
    """``node(c, *results of c's subconfigurations)``, bottom-up, left to
    right, over an explicit stack: a configuration of any depth."""
    order, todo = [], [c]
    while todo:
        c = todo.pop()
        subs = _SUBS.get(type(c), ())
        order.append((c, len(subs)))
        todo += [getattr(c, f) for f in subs]
    results: list = []
    for c, k in reversed(order):
        n = len(results) - k
        results[n:] = [node(c, *results[n:])]
    return results[0]


_SUBS = {CCut: ("left", "right"), CPar: ("left", "right"), CWeak: ("sub",), CCon: ("sub",)}


def check_config(c: Configuration):
    """Return (free context, observable context) for a configuration."""
    return _fold(c, _check_node)


def _check_node(c, *subs):
    match c:
        case CZero():
            return {}, {}
        case CProc(d):
            return dict(d.ctx), {}
        case CCut(x, annot):
            (gl, tl), (gr, tr) = subs
            if gl.get(x) != annot:
                raise CutTypeMismatch(f"left side must offer {x} at {annot}")
            if gr.get(x) != dual(annot):
                raise CutTypeMismatch(f"right side must offer {x} at {dual(annot)}")
            del gl[x]
            del gr[x]
            g, t = _merge(gl, gr, tl, tr, {x: annot})
            t[x] = annot
            return g, t
        case CPar():
            (gl, tl), (gr, tr) = subs
            return _merge(gl, gr, tl, tr, {})
        case CWeak(x, annot):
            ((g, t),) = subs
            if not isinstance(annot, WhyNot):
                raise CutTypeMismatch(f"configuration weakening needs a ?-type, got {annot}")
            if x in g or x in t:
                raise CutTypeMismatch(f"weakened name {x} already in use")
            g[x] = annot
            return g, t
        case CCon(x1, x2):
            ((g, t),) = subs
            if x1 == x2:
                raise CutTypeMismatch(f"configuration contraction of {x1} with itself")
            t1, t2 = g.get(x1), g.get(x2)
            if t1 is None or t1 != t2 or not isinstance(t1, WhyNot):
                raise CutTypeMismatch(
                    f"configuration contraction needs {x1}, {x2} at one ?-type"
                )
            del g[x2]
            return g, t
    raise CPTypeError(f"not a configuration: {c!r}")


def _merge(gl, gr, tl, tr, extra):
    """The free and observable contexts of two sides, each merged: the
    smaller side goes into the larger one, and only its names are looked up
    in the other, so a chain of n ``CPar`` nodes costs O(n log n) and not
    O(n^2). A side's two contexts are already disjoint."""
    if len(gl) + len(tl) < len(gr) + len(tr):
        small, large = (gl, tl), (gr, tr)
    else:
        small, large = (gr, tr), (gl, tl)
    for g in (*small, extra):
        for n in g:
            if n in large[0] or n in large[1]:
                _disjoint(gl, gr, tl, tr, extra)  # raises, naming the names as it always has
    for n in extra:
        if n in small[0] or n in small[1]:
            _disjoint(gl, gr, tl, tr, extra)
    large[0].update(small[0])
    large[1].update(small[1])
    return large


def _disjoint(gl, gr, tl, tr, extra):
    seen: set[str] = set()
    for g in (gl, gr, tl, tr, extra):
        clash = seen.intersection(g)
        if clash:
            raise CutTypeMismatch(f"names occur twice in a configuration: {sorted(clash)}")
        seen.update(g)


# --- the observation search ---------------------------------------------------

# Leaves: (type(P), P, env) | ("weak", name) | ("con", ext, f1, f2).  P is a
#         node of a checked process; env maps the names that binders above
#         P bound to soup names, and any other name of P is its own soup
#         name.  Marker names are soup names.
# Names:  a soup name that a link merged away points, in ``alias``, to the
#         name it merged into; every lookup goes through ``find``.
# A step is (fired name, fn, hidden names that fn reads).

# The (sender, receiver) kinds of the communication steps; see _Soup.comm.
_STEPS = frozenset({
    (EmptyOut, EmptyIn),
    (Out, In),
    (Select, Case),
    (Server, Client),
    (Server, "weak"),
    (Server, "con"),
})


class _Soup:
    """The leaves of a soup, held only by the index of the names they act on.

    ``acting`` maps a name to the one leaf that acts on it until the leaf
    at its other end arrives; the pair then moves to ``ready``, the enabled
    communication steps in the order they became enabled.  ``fwds`` holds
    the forwarders by id, and ``size`` counts the leaves.  At bound 0 a
    server never meets a client, so that pair is never enabled.  Hidden
    names are drawn from one counter per ``observe`` call (``#1``, ``#2``,
    ...); parsed names never contain ``#``.
    """

    def __init__(self, bound: int):
        self.bound = bound
        self.enabled = _STEPS if bound else _STEPS - {(Server, Client)}
        self.names = (f"#{i}" for i in count(1))
        self.alias: dict = {}
        self.acting: dict = {}
        self.ready: dict = {}
        self.fwds: dict = {}
        self.size = 0

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
        names = self.names
        while todo:
            node, env = todo.pop()
            match node:
                case CZero() | Inact():
                    pass
                case CProc(d):
                    todo.append((d.process, env))
                case CCut(_, _, l, r) | CPar(l, r) | Mix(l, r):
                    todo += (l, env), (r, env)
                case Cut(x, _, l, r):
                    env = {**env, x: next(names)}
                    todo += (l, env), (r, env)
                case CWeak(x, _, b) | Weak(x, _, b):
                    x = env.get(x, x)
                    self.add(("weak", x), x)
                    todo.append((b, env))
                case CCon(x1, x2, b) | Contract(_, x1, x2, b):
                    x = getattr(node, "name", x1)  # a configuration contraction keeps x1
                    x, f1, f2 = env.get(x, x), next(names), next(names)
                    self.add(("con", x, f1, f2), x)
                    todo.append((b, {**env, x1: f1, x2: f2}))
                case Fwd():
                    leaf = Fwd, node, env
                    self.size += 1
                    self.fwds[id(leaf)] = leaf
                case _:
                    self.add((type(node), node, env), env.get(node.channel, node.channel))

    def link(self, fwd) -> None:
        """[a<->b] composed on both of its names: merge b into a."""
        _, p, env = fwd
        del self.fwds[id(fwd)]
        self.size -= 1
        a, b = (self.find(env.get(n, n)) for n in (p.left, p.right))
        self.alias[b] = a
        leaf = self.acting.pop(b, None)
        if leaf is not None:
            self.act(leaf, a)

    def comm(self, name: Name, sender, receiver):
        """Fire the enabled redex on ``name``: drop its two leaves, add what
        the step unfolds, and return the step."""
        del self.ready[name]
        self.size -= 2
        todo: list = []
        hide = partial(next, self.names)
        _, p, env = sender
        match p, receiver:
            case EmptyOut(), (_, EmptyIn(_, body), renv):
                todo.append((body, renv))
                step = name, lambda: STAR, ()

            case Out(y, a, pl, pr), (_, In(b, y2, body), renv):
                np_, nc = hide(), hide()
                todo += (pl, {**env, y: np_}), (pr, {**env, a: nc})
                todo.append((body, {**renv, y2: np_, b: nc}))
                step = name, Pair, (np_, nc)

            case Select(a, i, body), (_, Case(b, q1, q2), renv):
                nc = hide()
                todo += (body, {**env, a: nc}), (q1 if i == 1 else q2, {**renv, b: nc})
                step = name, partial(Tag, i), (nc,)

            case Server(a, y, body), (_, Client(b, y2, qbody), renv):
                ns = hide()
                todo += (body, {**env, y: ns}), (qbody, {**renv, y2: ns})
                step = name, lambda o: bag((o,)), (ns,)

            case Server(a), ("weak", _):
                # the dropped server's carried ?-names are weakened as well
                for n in sorted(free_names(p) - {a}):
                    n = env.get(n, n)
                    self.add(("weak", n), n)
                step = name, bag, ()

            case Server(a), ("con", _, f1, f2):
                # one server node, two environments; each carried ?-name
                # splits into one name per copy, re-merged by a contraction
                env1, env2 = {**env, a: f1}, {**env, a: f2}
                for n in sorted(free_names(p) - {a}):
                    env1[n], env2[n] = hide(), hide()
                    ext = env.get(n, n)
                    self.add(("con", ext, env1[n], env2[n]), ext)
                self.add((Server, p, env1), f1)
                self.add((Server, p, env2), f2)
                step = name, bounded_union(self.bound), (f1, f2)

            case _:
                raise AssertionError((sender, receiver))

        self.grow(todo)
        return step


def _redexes(soup: _Soup):
    """The enabled redexes of a soup, in soup order, read from its index:
    each forwarder ``(None, leaf, None)``, then each communication step
    ``(name, sender, receiver)`` in the order it became enabled."""
    for fwd in soup.fwds.values():
        yield None, fwd, None
    for name, (u, v) in soup.ready.items():
        yield name, u, v


DEFAULT_DEPTH = 4000


def observe(c: Configuration, bound: int = 2, depth: int = DEFAULT_DEPTH):
    """All observation tuples of a closed configuration, at bound ``bound``.

    Reduction is confluent, so one maximal reduction sequence gives every
    observation: fire the first redex of each soup until the soup is empty
    (one observation) or stuck (none), then read the one observation back
    from the steps, last step first: each step reads its hidden names and
    gives its fired name ``fn`` of them.  A name a link merged away reads
    the value of the name it merged into.
    """
    check_bound(bound)
    gamma, theta = check_config(c)
    if gamma:
        raise OpenConfiguration(f"configuration has free names: {sorted(gamma)}")
    soup = _Soup(bound)
    soup.grow([(c, {})])

    steps = []
    taken = 0
    while soup.size:
        for name, u, v in _redexes(soup):
            if name is None:
                soup.link(u)
            else:
                steps.append(soup.comm(name, u, v))
            break
        else:
            return frozenset()  # a stuck soup
        if taken == depth:
            raise DepthExceeded(f"more than {depth} steps")
        taken += 1

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
    """The denotation of a configuration that ``check_config`` accepted."""
    return _fold(c, partial(_denote_node, bound))


def _denote_node(bound: int, c, *subs) -> Relation:
    match c:
        case CZero():
            return UNIT
        case CProc(d):
            return _denote(d, bound)
        case CCut(x):
            return join(*subs, x, keep=True)
        case CPar():
            return product(*subs)
        case CWeak(x, annot):
            return extend(*subs, x, space(annot, bound), empty)
        case CCon(x1, x2):
            (sub,) = subs
            s = sub.spaces[sub.cols.index(x1)]
            ends = (x1, x2)
            return extend(sub, x1, s, bag_union(s), ends, ends)
    raise CPTypeError(f"not a configuration: {c!r}")


def adequacy_check(c: Configuration, bound: int = 2, depth: int = DEFAULT_DEPTH) -> bool:
    """Operational observations equal the configuration denotation.

    ``observe`` checks the configuration, so its denotation is not checked
    again: one ``check_config`` per call.
    """
    return observe(c, bound, depth) == _config_relation(c, bound).tuples()
