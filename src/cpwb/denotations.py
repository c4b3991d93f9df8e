"""Observation spaces and the denotational semantics of well-typed processes.

Observations live in the relational/multiset model: `*` for the units,
pairs for the multiplicatives, tagged values for the additives, finite
multisets for the exponentials.  Multiset layers are cut off at a
replication bound K so every denotation is a finite, canonical set.

Inside this layer an observation of a formula A at bound K is its index in
``obs_space(A, K)``, whose enumeration is in ``obs_key`` order.  A pair at
``A * B`` is ``i * |B| + j``, a tag is ``i`` or ``|A| + j``, and a bag is
ranked among the bags over ``|A|`` elements (``_rank``/``_unrank``).  A
``Space`` describes such a set of indices; a formula and its dual have one
space. Its size capped at 2^64 + 1 is known when it is built; its exact size,
with doubly exponentially many digits at a deeply nested ``!A``, only when read.

A denotation is a ``Relation``: a set of rows, each a plain tuple of
indices in the order of the sorted context names, with the space of each
column.  Every rule is one operation of a small relational algebra
(product, join on a name, extend), each premise is denoted once, output rows
are built by index arithmetic, and the space of a new column is built from
those of the premises.  Rows are decoded to name-keyed ``ObsTuple``s only at
the boundary (``Relation.tuples``): in ``denote(...).tuples``,
``oracle.denote_config``, ``oracle.adequacy_check`` and the two
transformer-context denotations; ``from_tuples`` encodes. One
``_Decoder`` per space serves ``obs_space``, this decoding and the encoding.
Either way only the indices and observations that occur are translated, so
the cost is in the rows, never in the size of a space.

A ``typing.Root`` (the derivation ``check`` returns, or that of a level
of a typed context) keeps its relation: its first denotation at a bound
only marks it, the second keeps the relation it computes, and later ones
return that relation, until a denotation at another bound marks it anew.
A server cut against many clients, or a transformer context filled with
many processes, is so denoted twice, not once per use, and a root
denoted once keeps no relation. What a root keeps lives on the root and
goes with it: there is no table of derivations here, and inner nodes keep
nothing. Relations are immutable, so a kept one is shared safely.
``root_keeping`` makes a root that keeps a relation computed elsewhere, as
``transformers.transformer_graphs`` does for a sub-transformer whose formula
it has denoted before, with that relation's columns renamed (``rename``).
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from functools import lru_cache, partial
from math import comb, prod
from operator import add, getitem, itemgetter
from typing import NamedTuple

from .syntax import Bottom, Formula, OfCourse, Par, Plus, Tensor, Unit, WhyNot, With
from .typing import CpwbError, CPTypeError, Derivation, Root, System, check, too_deep


class TypingMismatch(CPTypeError):
    pass


class TooLarge(CpwbError):
    """A rule would enumerate more rows than ``MAX_ROWS``."""


# The most rows one rule may enumerate: the observations of a forwarder, or
# the multisets of at most K rows of a server's premise. Past it the rule
# refuses before it enumerates anything.
MAX_ROWS = 1 << 16


def _within_limit(n: int, subject: str, unit: str) -> None:
    if n > MAX_ROWS:
        count = n if n.bit_length() <= 64 else f"more than 2^{n.bit_length() - 1}"
        raise TooLarge(f"the denotation of {subject} needs {count} {unit}, "
                       f"more than the limit of {MAX_ROWS}")


# --- observations -----------------------------------------------------------


class Observation:
    """An observation node, immutable once built; its hash is computed once,
    in ``__init__``. Each subclass restates ``__hash__``, which defining
    ``__eq__`` would otherwise unset."""

    __slots__ = ("_hash",)
    __match_args__: tuple[str, ...] = ()

    def __hash__(self):
        return self._hash

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__match_args__)
        return f"{type(self).__name__}({fields})"


class Star(Observation):
    __slots__ = ()
    __hash__ = Observation.__hash__

    def __init__(self):
        self._hash = 0

    def __eq__(self, other):
        return type(other) is Star


class Pair(Observation):
    __slots__ = __match_args__ = ("fst", "snd")
    __hash__ = Observation.__hash__

    def __init__(self, fst: Observation, snd: Observation):
        self.fst, self.snd, self._hash = fst, snd, hash((1, fst._hash, snd._hash))

    def __eq__(self, other):
        return self is other or (
            type(other) is Pair and self._hash == other._hash
            and self.fst == other.fst and self.snd == other.snd
        )


class Tag(Observation):
    __slots__ = __match_args__ = ("index", "value")
    __hash__ = Observation.__hash__

    def __init__(self, index: int, value: Observation):
        self.index, self.value, self._hash = index, value, hash((2, index, value._hash))

    def __eq__(self, other):
        return self is other or (
            type(other) is Tag and self._hash == other._hash
            and self.index == other.index and self.value == other.value
        )


class Bag(Observation):
    __slots__ = __match_args__ = ("items",)
    __hash__ = Observation.__hash__

    def __init__(self, items: tuple[Observation, ...], sort: bool = True):
        """A bag of ``items``; ``sort=False`` takes them as already in
        ``obs_key`` order."""
        items = tuple(items)
        self.items = tuple(sorted(items, key=obs_key)) if sort and len(items) > 1 else items
        self._hash = hash((3, *(x._hash for x in self.items)))

    def __eq__(self, other):
        return self is other or (
            type(other) is Bag and self._hash == other._hash and self.items == other.items
        )


STAR = Star()
EMPTY_BAG = Bag(())


def bag(items=()) -> Bag:
    return Bag(tuple(items)) if items else EMPTY_BAG


def obs_key(o: Observation):
    """Canonical total order: Star < Pair < Tag < Bag, lexicographic inside."""
    match o:
        case Star():
            return (0,)
        case Pair(a, b):
            return (1, obs_key(a), obs_key(b))
        case Tag(i, a):
            return (2, i, obs_key(a))
        case Bag(items):
            return (3, len(items), tuple(obs_key(x) for x in items))
    raise TypeError(f"not an observation: {o!r}")


def bounded_union(bound: int):
    """Multiset union of two bags, or None when it has more than ``bound`` items."""

    def union(a: Bag, b: Bag) -> Bag | None:
        merged = Bag(a.items + b.items)
        return merged if len(merged.items) <= bound else None

    return union


def well_sorted(o: Observation, a: Formula) -> bool:
    match a, o:
        case (Unit() | Bottom()), Star():
            return True
        case (Tensor(l, r) | Par(l, r)), Pair(x, y):
            return well_sorted(x, l) and well_sorted(y, r)
        case (Plus(l, r) | With(l, r)), Tag(i, v):
            return i in (1, 2) and well_sorted(v, l if i == 1 else r)
        case (OfCourse(b) | WhyNot(b)), Bag(items):
            return all(well_sorted(x, b) for x in items)
        case _:
            return False


def check_bound(bound: int) -> None:
    """Reject a negative replication bound."""
    if bound < 0:
        raise ValueError("replication bound must be >= 0")


# --- observation spaces --------------------------------------------------------

# The size that stands for every size past 2^64, far above ``MAX_ROWS``.
_SIZE_CAP = (1 << 64) + 1

# The exact size of a space of each kind from the sizes of its parts (None
# where there is none) and its bound; a bag holds at most K items.
_SIZE_RULES = {
    "star": lambda left, right, bound: 1,
    "pair": lambda left, right, bound: left * right,
    "tag": lambda left, right, bound: left + right,
    "bag": lambda left, right, bound: comb(left + bound, bound),
}


def _capped_bags(e: int, k: int) -> int:
    """``min(comb(e + k, k), _SIZE_CAP)``, built up over ``min(k, e)``
    factors, each at least 2: past the cap within 65 steps whatever ``k``."""
    n, k = e + k, min(k, e)
    c = 1
    for i in range(1, k + 1):
        c = c * (n - k + i) // i  # comb(n - k + i, i)
        if c >= _SIZE_CAP:
            return _SIZE_CAP
    return c


class Space:
    """A set of observation indices, equal to another by kind and parts.
    ``capped``, its size up to ``_SIZE_CAP``, is set when it is built, and so
    is the exact ``size`` below the cap; past it, ``size`` is computed when read."""

    __slots__ = ("kind", "left", "right", "bound", "capped", "size", "_key")

    def __init__(self, kind: str, left: Space | None = None, right: Space | None = None, bound: int = 0):
        self.kind, self.left, self.right, self.bound = kind, left, right, bound
        self._key = kind, bound, left and left._key, right and right._key  # compared and hashed in C
        if kind == "bag":
            n = _capped_bags(left.capped, bound)
        else:
            n = _SIZE_RULES[kind](left and left.capped, right and right.capped, bound)
        self.capped = min(n, _SIZE_CAP)
        if n < _SIZE_CAP:
            self.size = n

    def __getattr__(self, name):
        """``size`` past the cap, the one slot then left unset."""
        if name != "size":
            raise AttributeError(name)
        left, right = self.left, self.right
        self.size = _SIZE_RULES[self.kind](left and left.size, right and right.size, self.bound)
        return self.size

    def __hash__(self):
        return hash(self._key)

    def __eq__(self, other):
        return self is other or (type(other) is Space and self._key == other._key)


STAR_SPACE = Space("star")


@lru_cache(maxsize=128)
def space(a: Formula, bound: int) -> Space:
    """The space of ``a`` at bound ``bound``. A formula's space is built
    once while it is in the cache, so equal spaces are mostly one object and
    compare by identity where they are looked up."""
    match a:
        case Unit() | Bottom():
            return STAR_SPACE
        case Tensor(l, r) | Par(l, r):
            return Space("pair", space(l, bound), space(r, bound))
        case Plus(l, r) | With(l, r):
            return Space("tag", space(l, bound), space(r, bound))
        case OfCourse(b) | WhyNot(b):
            return Space("bag", space(b, bound), bound=bound)
    raise TypeError(f"not a formula: {a!r}")


def obs_space(a: Formula, bound: int = 2) -> tuple[Observation, ...]:
    """All observations of ``a`` with every multiset layer of size <= bound,
    in ``obs_key`` order: the observation of index ``i`` is the ``i``-th."""
    check_bound(bound)
    s = space(a, bound)
    return tuple(map(_decoder(s).__getitem__, range(s.size)))


def space_size(a: Formula, bound: int = 2) -> int:
    """``len(obs_space(a, bound))``, building no observation."""
    return space(a, bound).size


# The most entries a decoding table that outlives a call keeps.
_MEMO_SIZE = 1 << 16


class _Decoder(dict):
    """The codec of a space: its observations by index, each decoded when it
    is first asked for, through the decoders of the space's parts (past
    ``_MEMO_SIZE`` keys it decodes an index without keeping it), and
    ``index`` the other way."""

    __slots__ = ("space", "left", "right")

    def __init__(self, s: Space):
        self.space, self.left, self.right = s, s.left and _decoder(s.left), s.right and _decoder(s.right)

    def __missing__(self, i: int) -> Observation:
        s = self.space
        if s.kind == "pair":
            n = s.right.size
            o = Pair(self.left[i // n], self.right[i % n])
        elif s.kind == "tag":
            n = s.left.size
            o = Tag(1, self.left[i]) if i < n else Tag(2, self.right[i - n])
        elif s.kind == "bag":  # index 0 is the empty bag whatever the element count
            o = Bag(tuple(map(self.left.__getitem__, _unrank(s.left.size, i))), sort=False) if i else EMPTY_BAG
        else:
            o = STAR
        if len(self) < _MEMO_SIZE:
            self[i] = o
        return o

    def index(self, o: Observation) -> int | None:
        """The index of ``o``, or None for an observation outside the space,
        as a bag of more than its bound."""
        s = self.space
        if s.kind == "pair":
            if type(o) is not Pair:
                return None
            i, j = self.left.index(o.fst), self.right.index(o.snd)
            return None if i is None or j is None else i * s.right.size + j
        if s.kind == "tag":
            if type(o) is not Tag or o.index not in (1, 2):
                return None
            if o.index == 1:
                return self.left.index(o.value)
            j = self.right.index(o.value)
            return None if j is None else s.left.size + j
        if s.kind == "bag":
            if type(o) is not Bag or len(o.items) > s.bound:
                return None
            idx = [self.left.index(x) for x in o.items]
            return None if None in idx else _rank(s.left.size, sorted(idx)) if idx else 0
        return 0 if type(o) is Star else None


# The decoders of the 128 spaces, and the (name, observation) pairs of the 32
# columns, last used. A suite run meets each of a few thousand small
# spaces a few times in a row, with the same few observations in them, and a
# space's parts are often another's. Each table holds only what was asked of
# it. In a default suite run fewer decoders miss more often, and more column
# tables keep more decoders alive without hitting more often.
_decoder = lru_cache(maxsize=128)(_Decoder)


# A bag over n elements is numbered as ``obs_key`` orders bags: by size,
# then lexicographically by its sorted items. So the bags of at most k items
# are the first comb(n + k, k), and the index of a bag, and the bag of an
# index, are sums of binomials (combinatorial number system): no bag space
# is ever built.


def _count(n: int, v: int, m: int) -> int:
    """The number of sorted ``m``-tuples over ``range(v, n)``."""
    return comb(n - v + m - 1, m) if m else 1


def _rank(n: int, items) -> int:
    """The index of the bag of the sorted ``items`` over ``range(n)``."""
    k = len(items)
    i = comb(n + k - 1, k - 1) if k else 0  # the bags of fewer items
    lo = 0
    for m, c in zip(range(k, 0, -1), items):
        i += _count(n, lo, m) - _count(n, c, m)  # those with a smaller item here
        lo = c
    return i


def _unrank(n: int, i: int) -> tuple[int, ...]:
    """The sorted items of the bag of index ``i`` over ``range(n)``."""
    k = 0
    while i >= comb(n + k, k):
        k += 1
    i -= comb(n + k - 1, k - 1) if k else 0
    items, lo = [], 0
    for m in range(k, 0, -1):
        total = _count(n, lo, m)
        # the largest item c with at most i bags before the first with c here
        a, b = lo, n - 1
        while a < b:
            mid = (a + b + 1) // 2
            if total - _count(n, mid, m) <= i:
                a = mid
            else:
                b = mid - 1
        i -= total - _count(n, a, m)
        items.append(a)
        lo = a
    return tuple(items)


def bag_union(s: Space):
    """Multiset union of two indices of the bag space ``s``, or None when
    the union has more items than the space's bound."""
    def union(i: int, j: int) -> int | None:
        if not i or not j:  # the empty bag is index 0
            return i or j
        n = s.left.size
        merged = _unrank(n, i) + _unrank(n, j)
        return _rank(n, sorted(merged)) if len(merged) <= s.bound else None

    return union


def empty() -> int:
    """The index of ``*`` and of the empty bag."""
    return 0


# --- name-keyed observation tuples -------------------------------------------

# An ObsTuple is a tuple of (name, observation) pairs sorted by name.
ObsTuple = tuple[tuple[str, Observation], ...]


def mk_tuple(mapping) -> ObsTuple:
    return tuple(sorted(dict(mapping).items()))


def tuple_key(t: ObsTuple):
    return tuple((n, obs_key(o)) for n, o in t)


@dataclass(frozen=True)
class DenotationSet:
    tuples: frozenset[ObsTuple]
    ctx: tuple
    bound: int

    def __iter__(self):
        return iter(self.tuples)

    def __len__(self):
        return len(self.tuples)


# --- the relational algebra ----------------------------------------------------


class Relation(NamedTuple):
    """Rows of observation indices; ``cols`` are sorted names, one per row
    position, and ``spaces`` the space of each column."""

    cols: tuple[str, ...]
    spaces: tuple[Space, ...]
    rows: frozenset[tuple[int, ...]]

    def tuples(self) -> frozenset[ObsTuple]:
        """The rows, decoded and name-keyed: each column has one table of its
        (name, observation) pairs, filled in as indices occur, and a row
        picks one pair per column."""
        tables = list(map(_column, self.cols, self.spaces))
        return frozenset(tuple(map(getitem, tables, row)) for row in self.rows)


class _Column(dict):
    """The (name, observation) pair of each index of a space, as
    ``_Decoder`` fills it in."""

    __slots__ = ("name", "decoder")

    def __init__(self, name: str, s: Space):
        self.name, self.decoder = name, _decoder(s)

    def __missing__(self, i: int):
        pair = self.name, self.decoder[i]
        if len(self) < _MEMO_SIZE:
            self[i] = pair
        return pair


_column = lru_cache(maxsize=32)(_Column)


UNIT = Relation((), (), frozenset({()}))


def from_tuples(ctx, tuples, bound: int) -> Relation:
    """Name-keyed tuples over the typing ``ctx``, (name, formula) items
    sorted by name, as a relation. A tuple with an observation outside its
    formula's space at ``bound``, as a bag of more items, is left out."""
    cols = tuple(n for n, _ in ctx)
    spaces = tuple(space(a, bound) for _, a in ctx)
    codecs = list(map(_decoder, spaces))
    rows = (tuple(map(_Decoder.index, codecs, map(dict(t).__getitem__, cols))) for t in tuples)
    return Relation(cols, spaces, frozenset(row for row in rows if None not in row))


def _picker(idx):
    """A function from a row to the tuple of its entries at ``idx``."""
    if not idx:
        return lambda row: ()
    if len(idx) == 1:
        i = idx[0]
        return lambda row: (row[i],)
    return itemgetter(*idx)


# Plans over at most this many columns are cached. A wider relation, as a
# long chain of configuration products builds one, is planned afresh: the
# cache must not keep one ever longer column tuple and picker per level.
# The benchmark's workloads plan relations of at most 9 columns.
_CACHED_WIDTH = 32


def _plan(src: tuple[str, ...], new: tuple[str, ...], args, drop):
    plan = _cached_plan if len(src) <= _CACHED_WIDTH else _make_plan
    return plan(src, new, args, drop)


def _make_plan(src, new, args, drop):
    """The sorted names of ``src + new`` without the columns of ``src`` named
    in ``drop``, the picker that builds a row over them from a row over
    ``src + new``, and the picker of the columns ``args`` of ``src``."""
    out = [(n, i) for i, n in enumerate(src) if n not in drop]
    out += [(n, len(src) + i) for i, n in enumerate(new)]
    out.sort()
    cols = tuple(n for n, _ in out)
    if len(set(cols)) != len(cols):
        raise CpwbError(f"a name occurs twice in a relation: {cols}")
    return cols, _picker(tuple(i for _, i in out)), _picker(tuple(map(src.index, args)))


_cached_plan = lru_cache(maxsize=4096)(_make_plan)


def _build(rows, src, spaces, name=None, sp=None, fn=None, args=(), drop=()) -> Relation:
    """Rows over ``src`` (of ``spaces``) without the columns ``drop``, with a
    column ``name`` of space ``sp`` set to ``fn`` of the row's ``args``; a
    row where ``fn`` gives None goes. Without ``fn``, no column is added.
    Every relation the algebra builds is planned and assembled here."""
    if fn is None:
        cols, pick, _ = _plan(src, (), (), drop)
        return Relation(cols, pick(spaces), frozenset(map(pick, rows)))
    cols, pick, get = _plan(src, (name,), args, drop)
    out = set()
    for row in rows:
        v = fn(*get(row))
        if v is not None:
            out.add(pick(row + (v,)))
    return Relation(cols, pick(spaces + (sp,)), frozenset(out))


def extend(rel: Relation, name, sp, fn, args=(), drop=()) -> Relation:
    """Each row without the columns ``drop``, with a column ``name`` of
    space ``sp`` set to ``fn`` of the row's ``args``; a row where ``fn``
    gives None goes."""
    return _build(rel.rows, rel.cols, rel.spaces, name, sp, fn, args, drop)


def product(rels, name=None, sp=None, fn=None, args=(), drop=()) -> Relation:
    """Every choice of one row from each of the relations ``rels``, as one
    row over all their columns, extended as by ``extend``: any number of
    relations in one step, checked against ``MAX_ROWS`` and planned once."""
    cols, spaces, rowsets = zip(*rels) if rels else ((), (), ())
    _within_limit(prod(map(len, rowsets)), "a product of relations", "rows")
    chain = itertools.chain.from_iterable
    rows = itertools.product(*rowsets)
    # two rows are one concatenation; more are one chain, not a quadratic fold
    rows = itertools.starmap(add, rows) if len(rowsets) == 2 else map(tuple, map(chain, rows))
    return _build(rows, tuple(chain(cols)), tuple(chain(spaces)), name, sp, fn, args, drop)


def join(left: Relation, right: Relation, name: str, keep: bool = False) -> Relation:
    """Left and right rows that agree on ``name``, merged; the shared column
    is kept once or dropped."""
    li, ri = left.cols.index(name), right.cols.index(name)
    by_val: dict = {}
    for a in left.rows:
        by_val.setdefault(a[li], []).append(a)
    rows = (a + b for b in right.rows for a in by_val.get(b[ri], ()))
    if keep:  # only the right copy goes: None, no column's name, stands for it
        src, drop = left.cols + right.cols[:ri] + (None,) + right.cols[ri + 1:], (None,)
    else:
        src, drop = left.cols + right.cols, (name,)
    return _build(rows, src, left.spaces + right.spaces, drop=drop)


def rename(rel: Relation, names) -> Relation:
    """``rel`` with each column ``c`` named ``names.get(c, c)``, its columns
    sorted again; the new names must be distinct."""
    return _build(rel.rows, tuple(names.get(c, c) for c in rel.cols), rel.spaces)


def contract(rel: Relation, name: str, left: str, right: str) -> Relation:
    """The columns ``left`` and ``right``, of one bag space, merged into one
    column ``name`` that holds their multiset union; a row whose union has
    more items than the bound goes."""
    sp = _space_of(rel, left)
    ends = (left, right)
    return extend(rel, name, sp, bag_union(sp), ends, ends)


# --- the semantics -----------------------------------------------------------


def denote(d: Derivation, bound: int = 2) -> DenotationSet:
    """Denotation of a typing derivation at replication bound ``bound``."""
    check_bound(bound)
    try:
        return DenotationSet(_denote(d, bound).tuples(), d.ctx, bound)
    except RecursionError:
        raise too_deep("the derivation") from None


def _denote(d: Derivation, bound: int) -> Relation:
    try:
        rule = _RULES[d.rule]
    except KeyError:
        raise CpwbError(f"unknown rule {d.rule!r}") from None
    if type(d) is Root:
        return _denote_root(d, rule, bound)
    return rule(d, d.process, bound)


def _denote_root(d: Root, rule, bound: int) -> Relation:
    """The relation of a root, which the root keeps from its second
    denotation at ``bound`` on: the first only marks it with the bound, so
    a root denoted once keeps no relation, and another bound marks it anew."""
    if d.__dict__.get("_bound") != bound:
        d._bound, d._relation = bound, None
        return rule(d, d.process, bound)
    if d._relation is None:
        d._relation = rule(d, d.process, bound)
    return d._relation


def root_keeping(d: Derivation, rel: Relation, bound: int) -> Root:
    """A root of ``d`` that keeps ``rel``, the relation of ``d`` at ``bound``,
    as if it had been denoted twice at ``bound``."""
    root = Root._make(d)
    root._bound, root._relation = bound, rel
    return root


# One function per rule: it denotes the premises through ``_denote`` and
# combines them with one operation of the algebra.


def _mix0(d, p, bound):
    return UNIT


def _one(d, p, bound):
    return Relation((p.channel,), (STAR_SPACE,), frozenset({(0,)}))


def _id(d, p, bound):
    (x, a), (y, _) = d.ctx
    s = space(a, bound)  # the space of dual(a) too
    _within_limit(s.capped, f"fwd {x} {y}", "observations")
    return Relation((x, y), (s, s), frozenset((i, i) for i in range(s.size)))


def _bot(d, p, bound):
    return extend(_denote(d.premises[0], bound), p.channel, STAR_SPACE, empty)


def _tensor(d, p, bound):
    x, y = p.channel, p.payload
    left, right = (_denote(prem, bound) for prem in d.premises)
    return product((left, right), x, *_pair(_space_of(left, y), _space_of(right, x)), (y, x), (y, x))


def _par(d, p, bound):
    x, y = p.channel, p.payload
    prem = _denote(d.premises[0], bound)
    return extend(prem, x, *_pair(_space_of(prem, y), _space_of(prem, x)), (y, x), (y, x))


def _plus(d, p, bound):
    x = p.channel
    prem = _denote(d.premises[0], bound)
    a = d.context[x]
    if p.branch == 1:
        sp = Space("tag", _space_of(prem, x), space(a.right, bound))
    else:
        sp = Space("tag", space(a.left, bound), _space_of(prem, x))
    return extend(prem, x, sp, partial(add, 0 if p.branch == 1 else sp.left.size), (x,), (x,))


def _with(d, p, bound):
    x = p.channel
    left, right = (_denote(prem, bound) for prem in d.premises)
    sp = Space("tag", _space_of(left, x), _space_of(right, x))
    first = extend(left, x, sp, partial(add, 0), (x,), (x,))
    second = extend(right, x, sp, partial(add, sp.left.size), (x,), (x,))
    # both premises have one context, so both have the same columns
    return first._replace(rows=first.rows | second.rows)


def _bang(d, p, bound):
    prem = _denote(d.premises[0], bound)
    _within_limit(comb(len(prem.rows) + bound, bound), f"server {p.channel}", "multisets of rows")
    # a multiset of rows gives one row of bags: the payload column becomes
    # the bag of its values, and each other column, of a bag space, the
    # union of its bags
    i = prem.cols.index(p.payload)
    cols = (*prem.cols[:i], p.channel, *prem.cols[i + 1:])
    spaces = (*prem.spaces[:i], Space("bag", prem.spaces[i], bound=bound), *prem.spaces[i + 1:])
    elems = [s.left for s in spaces]
    # each row as the items of one bag per column, unranked once; the empty
    # bag is index 0 whatever the element count, so the exact size of a
    # space, huge at a deeply nested ? type, is read only for another bag
    bagged = [[(v,) if j == i else _unrank(e.size, v) if v else ()
               for j, (e, v) in enumerate(zip(elems, row))] for row in prem.rows]
    rows = [(0,) * len(cols)]  # no session: every bag is empty
    for k in range(1, bound + 1):
        for combo in itertools.combinations_with_replacement(bagged, k):
            bags = list(map(sorted, map(itertools.chain.from_iterable, zip(*combo))))
            if max(map(len, bags)) <= bound:
                rows.append(tuple([_rank(e.size, b) if b else 0 for e, b in zip(elems, bags)]))
    return _build(rows, cols, spaces)


def _quest(d, p, bound):
    if bound < 1:
        return from_tuples(d.ctx, (), bound)  # no bag of one item at K = 0
    x, y = p.channel, p.payload
    prem = _denote(d.premises[0], bound)
    # the empty bag is index 0, and the bag of element j alone is 1 + j
    return extend(prem, x, Space("bag", _space_of(prem, y), bound=bound), partial(add, 1), (y,), (y,))


def _weak(d, p, bound):
    return extend(_denote(d.premises[0], bound), p.name, space(p.annot, bound), empty)


def _contract(d, p, bound):
    return contract(_denote(d.premises[0], bound), p.name, p.left_name, p.right_name)


def _cut(d, p, bound):
    left, right = (_denote(prem, bound) for prem in d.premises)
    return join(left, right, p.name)


def _mix2(d, p, bound):
    return product([_denote(prem, bound) for prem in d.premises])


_RULES = {
    "mix0": _mix0,
    "one": _one,
    "id": _id,
    "bot": _bot,
    "tensor": _tensor,
    "par": _par,
    "plus": _plus,
    "with": _with,
    "bang": _bang,
    "quest": _quest,
    "weak": _weak,
    "contract": _contract,
    "cut": _cut,
    "mix2": _mix2,
}


def _space_of(rel: Relation, name: str) -> Space:
    return rel.spaces[rel.cols.index(name)]


def _pair(left: Space, right: Space):
    """The space of pairs of ``left`` and ``right``, and the index of a pair
    from the indices of its two halves."""
    return Space("pair", left, right), lambda i, j, n=right.size: i * n + j


def join_tuples(left, right, name, keep=False) -> set[ObsTuple]:
    """Relational composition of name-keyed tuple sets on a shared coordinate."""
    by_val: dict = {}
    for a in left:
        by_val.setdefault(dict(a)[name], []).append(dict(a))
    out = set()
    for b in right:
        b = dict(b)
        for a in by_val.get(b[name], ()):
            merged = {**a, **b}
            if len(merged) != len(a) + len(b) - 1:
                raise CpwbError(f"a name occurs twice in a join: {sorted(a)} and {sorted(b)}")
            if not keep:
                del merged[name]
            out.add(mk_tuple(merged))
    return out


def check_shared(p, q, ctx, system: System):
    """The derivations of ``p`` and ``q`` at one typing, or TypingMismatch."""
    try:
        return check(p, ctx, system), check(q, ctx, system)
    except CPTypeError as e:
        raise TypingMismatch(f"both processes must check at the shared typing: {e}") from e


def equivalent(p, q, ctx, system: System = System.CP0, bound: int = 2) -> bool:
    """Denotational observational-equivalence check at bound ``bound``."""
    dp, dq = check_shared(p, q, ctx, system)
    return denote(dp, bound).tuples == denote(dq, bound).tuples


# --- canonical JSON ----------------------------------------------------------


def obs_to_json(o: Observation):
    match o:
        case Star():
            return "*"
        case Pair(a, b):
            return ["pair", obs_to_json(a), obs_to_json(b)]
        case Tag(i, a):
            return ["tag", i, obs_to_json(a)]
        case Bag(items):
            return ["bag", [obs_to_json(x) for x in items]]
    raise TypeError(f"not an observation: {o!r}")


def tuple_to_json(t: ObsTuple):
    return {n: obs_to_json(o) for n, o in t}


def tuples_to_json(ts) -> list:
    return [tuple_to_json(t) for t in sorted(ts, key=tuple_key)]


def dumps(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))
