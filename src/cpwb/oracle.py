"""Configurations and the big-step observation relation.

A configuration is a tree of checked processes composed by observable
cuts.  For the observation search the tree is flattened into a "soup":
process leaves connected by named edges (observable for configuration
cuts, hidden for process-level cuts), with weakening/contraction markers
as pseudo-leaves.  Soup equality subsumes the structural congruence
(cut commutation/reassociation, parallel rearrangement), so the search
is a rewrite over soups.

The search follows one reduction sequence.  Names are linear and each
leaf acts on one name, so two redexes never share a leaf and commute; CP
reduction is confluent, and under that diamond property every maximal
sequence has the same length and gives the same observations.  So the
search is complete although it fires only the first redex of each soup.
Hidden names come from one counter per ``observe`` call.

Each communication step is recorded as data: the names of the fired edge,
the function that gives their value, and the hidden names it reads that
value from.  A reduction to the empty soup has exactly one observation,
which is read back from that list, last step first, into one dict.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import count

from .denotations import STAR, UNIT, DenotationSet, Pair, Relation, Tag, bag, bounded_union
from .denotations import check_bound, denote, extend, join, mk_tuple, product
from .syntax import (
    Case,
    Client,
    Contract,
    Cut,
    EmptyIn,
    EmptyOut,
    Formula,
    In,
    Inact,
    Mix,
    Name,
    Out,
    Process,
    Select,
    Server,
    Weak,
    WhyNot,
    dual,
    free_names,
    substitute,
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


def check_config(c: Configuration):
    """Return (free context, observable context) for a configuration."""
    match c:
        case CZero():
            return {}, {}
        case CProc(d):
            return dict(d.ctx), {}
        case CCut(x, annot, l, r):
            gl, tl = check_config(l)
            gr, tr = check_config(r)
            if gl.get(x) != annot:
                raise CutTypeMismatch(f"left side must offer {x} at {annot}")
            if gr.get(x) != dual(annot):
                raise CutTypeMismatch(f"right side must offer {x} at {dual(annot)}")
            del gl[x]
            del gr[x]
            _disjoint(gl, gr, tl, tr, {x: annot})
            return {**gl, **gr}, {**tl, **tr, x: annot}
        case CPar(l, r):
            gl, tl = check_config(l)
            gr, tr = check_config(r)
            _disjoint(gl, gr, tl, tr, {})
            return {**gl, **gr}, {**tl, **tr}
        case CWeak(x, annot, sub):
            g, t = check_config(sub)
            if not isinstance(annot, WhyNot):
                raise CutTypeMismatch(f"configuration weakening needs a ?-type, got {annot}")
            if x in g or x in t:
                raise CutTypeMismatch(f"weakened name {x} already in use")
            g[x] = annot
            return g, t
        case CCon(x1, x2, sub):
            g, t = check_config(sub)
            t1, t2 = g.get(x1), g.get(x2)
            if t1 is None or t1 != t2 or not isinstance(t1, WhyNot):
                raise CutTypeMismatch(
                    f"configuration contraction needs {x1}, {x2} at one ?-type"
                )
            del g[x2]
            return g, t
    raise CPTypeError(f"not a configuration: {c!r}")


def _disjoint(gl, gr, tl, tr, extra):
    groups = [set(gl), set(gr), set(tl), set(tr), set(extra)]
    seen: set[str] = set()
    for g in groups:
        clash = seen & g
        if clash:
            raise CutTypeMismatch(f"names occur twice in a configuration: {sorted(clash)}")
        seen |= g


# --- the observation search ---------------------------------------------------

# Leaves: (type(P), subject of P, P, free names of P) | ("weak", name)
#         | ("con", ext, f1, f2); every leaf starts with its kind and the name
#         it acts on (None for a forwarder).
# Edges:  name -> frozenset of its aliases, the names that a link merged
#         into it; a fired edge gives every alias its value.
# A soup is a dict of leaves (an insertion-ordered set) and a dict of edges.
# A step is (aliases of the fired edge, fn, hidden names that fn reads).

# The (sender, receiver) kinds of the communication steps; see _comm.
_STEPS = frozenset({
    (EmptyOut, EmptyIn),
    (Out, In),
    (Select, Case),
    (Server, Client),
    (Server, "weak"),
    (Server, "con"),
})


def _proc_leaf(p: Process):
    return type(p), getattr(p, "channel", None), p, free_names(p)


def _leaf_names(leaf):
    return leaf[1:] if leaf[0] in ("weak", "con") else leaf[3]


class _Items:
    """The leaves and hidden edges that one step, or the build, adds.

    Hidden names are drawn from ``names``, one counter per ``observe`` call
    (``#1``, ``#2``, ...); parsed names never contain ``#``.
    """

    def __init__(self, names):
        self.names = names
        self.leaves: list = []
        self.edges: dict = {}

    def hide(self) -> Name:
        """A fresh name, as a hidden edge."""
        n = next(self.names)
        self.edges[n] = frozenset({n})
        return n

    def norm(self, *ps: Process) -> None:
        """Normalize processes into sub-leaves and the hidden edges of their cuts."""
        for p in ps:
            match p:
                case Inact():
                    pass
                case Cut(x, _, l, r):
                    nx = self.hide()
                    self.norm(substitute(l, nx, x), substitute(r, nx, x))
                case Mix(l, r):
                    self.norm(l, r)
                case Weak(x, _, b):
                    self.leaves.append(("weak", x))
                    self.norm(b)
                case Contract(x, x1, x2, b):
                    f1, f2 = self.hide(), self.hide()
                    self.leaves.append(("con", x, f1, f2))
                    self.norm(substitute(substitute(b, f1, x1), f2, x2))
                case _:
                    self.leaves.append(_proc_leaf(p))

    def config(self, c: Configuration, renamed: dict) -> None:
        """Flatten a configuration: each of its cuts is an observable edge.

        ``renamed`` maps the free names that an enclosing contraction split
        to their hidden names.
        """
        match c:
            case CZero():
                pass
            case CProc(d):
                p = d.process
                for old, new in renamed.items():
                    p = substitute(p, new, old)
                self.norm(p)
            case CCut(x, _, l, r):
                self.edges[x] = frozenset({x})
                self.config(l, renamed)
                self.config(r, renamed)
            case CPar(l, r):
                self.config(l, renamed)
                self.config(r, renamed)
            case CWeak(x, _, sub):
                self.leaves.append(("weak", renamed.get(x, x)))
                self.config(sub, renamed)
            case CCon(x1, x2, sub):
                f1, f2 = self.hide(), self.hide()
                self.leaves.append(("con", renamed.get(x1, x1), f1, f2))
                self.config(sub, {**renamed, x1: f1, x2: f2})


def _redexes(leaves, edges):
    """The redexes of a soup, in soup order: each forwarder ``(None, leaf,
    None)``, then each edge whose two acting leaves make a communication
    step, as ``(name, sender, receiver)``."""
    acting: dict = {}
    for leaf in leaves:
        acting.setdefault(leaf[1], []).append(leaf)
    for fwd in acting.get(None, ()):
        yield None, fwd, None
    # names are linear, so the two leaves acting on an edge are all its leaves
    for name in edges:
        pair = acting.get(name)
        if pair is None or len(pair) != 2:
            continue
        u, v = pair
        if (u[0], v[0]) in _STEPS:
            yield name, u, v
        elif (v[0], u[0]) in _STEPS:
            yield name, v, u


def _link(leaves, edges, fwd_leaf):
    # [a<->b] composed on both of its names: merge the two edges.
    fwd = fwd_leaf[2]
    a, b = fwd.left, fwd.right
    del leaves[fwd_leaf]
    for leaf in [leaf for leaf in leaves if b in _leaf_names(leaf)]:
        del leaves[leaf]
        match leaf:
            case ("weak", _):
                leaf = ("weak", a)
            case ("con", *ns):
                leaf = ("con", *(a if n == b else n for n in ns))
            case (kind, subject, p, names):
                subject = a if subject == b else subject
                leaf = (kind, subject, substitute(p, a, b), (names - {b}) | {a})
        leaves[leaf] = None
    edges[a] |= edges.pop(b)


def _comm(leaves, edges, name, sender, receiver, bound, names):
    """Fire the redex on ``name``: replace its two leaves and its edge by
    what the step makes, and return the step; or return None, and leave the
    soup as it is, when the step already exceeds the bound.
    """
    ports = edges[name]
    new = _Items(names)
    match sender[2], receiver:
        case EmptyOut(), (_, _, EmptyIn(_, body), _):
            new.norm(body)
            step = ports, lambda: STAR, ()

        case Out(y, a, pl, pr), (_, _, In(b, y2, body), _):
            np_, nc = new.hide(), new.hide()
            new.norm(
                substitute(pl, np_, y),
                substitute(pr, nc, a),
                substitute(substitute(body, np_, y2), nc, b),
            )
            step = ports, Pair, (np_, nc)

        case Select(a, i, body), (_, _, Case(b, q1, q2), _):
            nc = new.hide()
            new.norm(substitute(body, nc, a), substitute(q1 if i == 1 else q2, nc, b))
            step = ports, partial(Tag, i), (nc,)

        case Server(a, y, body), (_, _, Client(b, y2, qbody), _):
            if bound < 1:
                return None  # a one-shot interaction already exceeds the bound
            ns = new.hide()
            new.norm(substitute(body, ns, y), substitute(qbody, ns, y2))
            step = ports, lambda o: bag((o,)), (ns,)

        case Server(), ("weak", _):
            # the dropped server's carried ?-names are weakened as well
            new.leaves.extend(("weak", n) for n in sorted(sender[3] - {name}))
            step = ports, bag, ()

        case Server() as srv, ("con", _, f1, f2):
            copy1 = substitute(srv, f1, name)
            copy2 = substitute(srv, f2, name)
            # each carried ?-name splits into one copy per server replica,
            # re-merged by a fresh contraction marker on the original edge
            for n in sorted(sender[3] - {name}):
                n1, n2 = new.hide(), new.hide()
                copy1 = substitute(copy1, n1, n)
                copy2 = substitute(copy2, n2, n)
                new.leaves.append(("con", n, n1, n2))
            new.leaves += (_proc_leaf(copy1), _proc_leaf(copy2))
            step = ports, bounded_union(bound), (f1, f2)

        case _:
            raise AssertionError((sender, receiver))

    del leaves[sender], leaves[receiver], edges[name]
    leaves.update(dict.fromkeys(new.leaves))
    edges.update(new.edges)
    return step


DEFAULT_DEPTH = 4000


def observe(c: Configuration, bound: int = 2, depth: int = DEFAULT_DEPTH):
    """All observation tuples of a closed configuration, at bound ``bound``.

    Reduction is confluent, so one maximal reduction sequence gives every
    observation: fire the first redex of each soup until the soup is empty
    (one observation) or stuck (none), then read the one observation back
    from the steps, last step first: each step reads its hidden names and
    gives every alias of its edge ``fn`` of them.
    """
    check_bound(bound)
    gamma, theta = check_config(c)
    if gamma:
        raise OpenConfiguration(f"configuration has free names: {sorted(gamma)}")
    names = (f"#{i}" for i in count(1))
    built = _Items(names)
    built.config(c, {})
    leaves, edges = dict.fromkeys(built.leaves), built.edges

    steps = []
    taken = 0
    while leaves:
        for name, u, v in _redexes(leaves, edges):
            if name is None:
                _link(leaves, edges, u)
                break
            step = _comm(leaves, edges, name, u, v, bound, names)
            if step is not None:
                steps.append(step)
                break
        else:
            return frozenset()  # a stuck soup
        if taken == depth:
            raise DepthExceeded(f"more than {depth} steps")
        taken += 1

    seen: dict = {}
    for ports, fn, args in reversed(steps):
        value = fn(*map(seen.pop, args))
        if value is None:
            return frozenset()  # a union of bags past the bound
        seen.update(dict.fromkeys(ports, value))
    # the observable names are the configuration's cut names, theta
    return frozenset({mk_tuple({x: seen[x] for x in theta})})


def denote_config(c: Configuration, bound: int = 2) -> DenotationSet:
    """Fig-4 denotation extended to configurations: cuts keep their coordinate."""
    check_bound(bound)
    gamma, theta = check_config(c)
    full = {**gamma, **theta}
    return DenotationSet(_denote_config(c, bound).tuples(), ctx_items(full), bound)


def _denote_config(c: Configuration, bound: int) -> Relation:
    match c:
        case CZero():
            return UNIT
        case CProc(d):
            return denote(d, bound).relation
        case CCut(x, _, l, r):
            return join(_denote_config(l, bound), _denote_config(r, bound), x, keep=True)
        case CPar(l, r):
            return product(_denote_config(l, bound), _denote_config(r, bound))
        case CWeak(x, _, sub):
            return extend(_denote_config(sub, bound), x, bag)
        case CCon(x1, x2, sub):
            ends = (x1, x2)
            return extend(_denote_config(sub, bound), x1, bounded_union(bound), ends, ends)
    raise CPTypeError(f"not a configuration: {c!r}")


def adequacy_check(c: Configuration, bound: int = 2, depth: int = DEFAULT_DEPTH) -> bool:
    """Operational observations equal the configuration denotation."""
    return observe(c, bound, depth) == denote_config(c, bound).tuples
