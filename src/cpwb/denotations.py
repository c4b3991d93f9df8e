"""Observation spaces and the denotational semantics of well-typed processes.

Observations live in the relational/multiset model: `*` for the units,
pairs for the multiplicatives, tagged values for the additives, finite
multisets for the exponentials.  Multiset layers are cut off at a
replication bound K so every denotation is a finite, canonical set.

Inside this layer an observation of a formula A at bound K is its index in
``obs_space(A, K)``, whose enumeration is in ``obs_key`` order.  A pair at
``A * B`` is ``i * |B| + j``, a tag is ``i`` or ``|A| + j``, and a bag is
ranked among the bags over ``|A|`` elements (``_rank``/``_unrank``).  A
*space* describes such a set of indices (see ``space``); a formula and its
dual have one space.

A denotation is a ``Relation``: a set of rows, each a plain tuple of
indices in the order of the sorted context names, with the space of each
column.  Every rule is one operation of a small relational algebra
(product, join, extend, union), each premise is denoted once, output rows
are built by index arithmetic, and the space of a new column is built from
those of the premises.  Rows are decoded to name-keyed ``ObsTuple``s only at
the boundary (``Relation.tuples``): in ``denote(...).tuples``,
``oracle.denote_config``, ``oracle.adequacy_check`` and
``transformers.context_denotation``; ``from_tuples`` encodes. One
``_Decoder`` per space serves ``obs_space``, this decoding and the encoding.
Either way only the indices and observations that occur are translated, so
the cost is in the rows, never in the size of a space.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from functools import lru_cache, partial
from math import comb
from operator import add, getitem, itemgetter
from typing import NamedTuple

from .syntax import Bottom, Formula, OfCourse, Par, Plus, Tensor, Unit, WhyNot, With
from .typing import CpwbError, CPTypeError, Derivation, System, check


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

# A space is a plain tuple (kind, size, *parts):
#   ("star", 1)                  the one observation *
#   ("pair", |L| * |R|, L, R)    pairs; (i, j) is i * |R| + j
#   ("tag", |L| + |R|, L, R)     tags; tag 1 of i is i, tag 2 of j is |L| + j
#   ("bag", size, E, K)          bags of at most K observations of E,
#                                numbered as ``_rank`` numbers them
STAR_SPACE = ("star", 1)


@lru_cache(maxsize=128)
def space(a: Formula, bound: int) -> tuple:
    """The space of ``a`` at bound ``bound``. A formula's space is built
    once while it is in the cache, so equal spaces are mostly one object and
    compare by identity where they are looked up."""
    match a:
        case Unit() | Bottom():
            return STAR_SPACE
        case Tensor(l, r) | Par(l, r):
            return pair_space(space(l, bound), space(r, bound))
        case Plus(l, r) | With(l, r):
            return tag_space(space(l, bound), space(r, bound))
        case OfCourse(b) | WhyNot(b):
            return bag_space(space(b, bound), bound)
    raise TypeError(f"not a formula: {a!r}")


# The size that stands for every size past 2^64, far above ``MAX_ROWS``.
_SIZE_CAP = (1 << 64) + 1


@lru_cache(maxsize=128)
def _capped_size(a: Formula, bound: int) -> int:
    """``min(|space(a, bound)|, 2^64 + 1)``, building no space: the size of a
    deeply nested ``!A`` has doubly exponentially many digits, which the
    limit checks need not compute."""
    match a:
        case Unit() | Bottom():
            return 1
        case Tensor(l, r) | Par(l, r):
            n = _capped_size(l, bound) * _capped_size(r, bound)
        case Plus(l, r) | With(l, r):
            n = _capped_size(l, bound) + _capped_size(r, bound)
        case OfCourse(b) | WhyNot(b):
            n = _capped_size(b, bound)
            n = _SIZE_CAP if n == _SIZE_CAP and bound else comb(n + bound, bound)
        case _:
            raise TypeError(f"not a formula: {a!r}")
    return min(n, _SIZE_CAP)


def pair_space(left: tuple, right: tuple) -> tuple:
    return "pair", left[1] * right[1], left, right


def tag_space(left: tuple, right: tuple) -> tuple:
    return "tag", left[1] + right[1], left, right


def bag_space(elem: tuple, bound: int) -> tuple:
    return "bag", comb(elem[1] + bound, bound), elem, bound


def obs_space(a: Formula, bound: int = 2) -> tuple[Observation, ...]:
    """All observations of ``a`` with every multiset layer of size <= bound,
    in ``obs_key`` order: the observation of index ``i`` is the ``i``-th."""
    check_bound(bound)
    s = space(a, bound)
    return tuple(map(_decoder(s).__getitem__, range(s[1])))


def space_size(a: Formula, bound: int = 2) -> int:
    """``len(obs_space(a, bound))``, building no observation."""
    return space(a, bound)[1]


class _Memo(dict):
    """A dict that fills in a missing key as ``fn`` of it: the memo of one
    union or bang."""

    __slots__ = ("fn",)

    def __init__(self, fn):
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


# The most entries a decoding table that outlives a call keeps.
_MEMO_SIZE = 1 << 16


class _Decoder(dict):
    """The codec of a space: its observations by index, each decoded when it
    is first asked for, through the decoders of the space's parts (past
    ``_MEMO_SIZE`` keys it decodes an index without keeping it), and
    ``index`` the other way."""

    __slots__ = ("kind", "n", "left", "right", "bound")

    def __init__(self, s: tuple):
        self.kind, self.n, self.left, self.right, self.bound = s[0], 0, None, None, 0
        if self.kind == "pair":  # a pair index splits at |R|
            self.n, self.left, self.right = s[3][1], _decoder(s[2]), _decoder(s[3])
        elif self.kind == "tag":  # a tag index splits at |L|
            self.n, self.left, self.right = s[2][1], _decoder(s[2]), _decoder(s[3])
        elif self.kind == "bag":
            self.n, self.left, self.bound = s[2][1], _decoder(s[2]), s[3]

    def __missing__(self, i: int) -> Observation:
        kind, n = self.kind, self.n
        if kind == "pair":
            o = Pair(self.left[i // n], self.right[i % n])
        elif kind == "tag":
            o = Tag(1, self.left[i]) if i < n else Tag(2, self.right[i - n])
        elif kind == "bag":
            o = Bag(tuple(map(self.left.__getitem__, _unrank(n, i))), sort=False)
        else:
            o = STAR
        if len(self) < _MEMO_SIZE:
            self[i] = o
        return o

    def index(self, o: Observation) -> int | None:
        """The index of ``o``, or None for an observation outside the space,
        as a bag of more than its bound."""
        kind, n = self.kind, self.n
        if kind == "pair":
            if type(o) is not Pair:
                return None
            i, j = self.left.index(o.fst), self.right.index(o.snd)
            return None if i is None or j is None else i * n + j
        if kind == "tag":
            if type(o) is not Tag or o.index not in (1, 2):
                return None
            if o.index == 1:
                return self.left.index(o.value)
            j = self.right.index(o.value)
            return None if j is None else n + j
        if kind == "bag":
            if type(o) is not Bag or len(o.items) > self.bound:
                return None
            idx = [self.left.index(x) for x in o.items]
            return None if None in idx else _rank(n, sorted(idx))
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


def bag_union(s: tuple):
    """Multiset union of two indices of the bag space ``s``, or None when
    the union has more items than the space's bound."""
    n, bound = s[2][1], s[3]
    items = _Memo(partial(_unrank, n))

    def union(i: int, j: int) -> int | None:
        if not i or not j:  # the empty bag is index 0
            return i or j
        merged = items[i] + items[j]
        return _rank(n, sorted(merged)) if len(merged) <= bound else None

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
    spaces: tuple[tuple, ...]
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

    def __init__(self, name: str, s: tuple):
        self.name, self.decoder = name, _decoder(s)

    def __missing__(self, i: int):
        pair = self.name, self.decoder[i]
        if len(self) < _MEMO_SIZE:
            self[i] = pair
        return pair


_column = lru_cache(maxsize=32)(_Column)


UNIT = Relation((), (), frozenset({()}))
NOTHING = Relation((), (), frozenset())  # no rows, so no column set to speak of


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


def _plan(src: tuple[str, ...], new: tuple[str, ...] = (), args=(), drop=()):
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
    row where ``fn`` gives None goes. Without ``fn``, the rows as they are,
    in sorted column order."""
    if fn is None:
        cols, pick, _ = _plan(src)
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


def product(left: Relation, right: Relation, name=None, sp=None, fn=None, args=(), drop=()):
    """Every left row with every right row, extended as by ``extend``."""
    rows = (a + b for a in left.rows for b in right.rows)
    return _build(rows, left.cols + right.cols, left.spaces + right.spaces, name, sp, fn, args, drop)


def product_all(rels) -> Relation:
    """Every choice of one row from each relation, as one row: the product of
    n relations in one step, planned once over all their columns."""
    chain = itertools.chain.from_iterable
    rows = map(tuple, map(chain, itertools.product(*(r.rows for r in rels))))
    return _build(rows, tuple(chain(r.cols for r in rels)), tuple(chain(r.spaces for r in rels)))


def join(left: Relation, right: Relation, name: str, keep: bool = False) -> Relation:
    """Left and right rows that agree on ``name``, merged; the shared column
    is kept once or dropped."""
    li, ri = left.cols.index(name), right.cols.index(name)
    cols, pick, _ = _plan(left.cols + right.cols, (name,) if keep else (), (), (name,))
    by_val: dict = {}
    for a in left.rows:
        by_val.setdefault(a[li], []).append(a)
    # the shared value rides at the end of each row; the plan keeps it if ``keep``
    return Relation(
        cols,
        pick(left.spaces + right.spaces + (left.spaces[li],)),
        frozenset(pick(a + b + (b[ri],)) for b in right.rows for a in by_val.get(b[ri], ())),
    )


def union(*rels: Relation) -> Relation:
    """The rows of relations over one column set; one with no rows fits any,
    and with no rows at all the first relation (or NOTHING) is the union."""
    full = [r for r in rels if r.rows]
    if len(full) < 2:
        return full[0] if full else rels[0] if rels else NOTHING
    if any(r.cols != full[0].cols for r in full):
        raise CpwbError(f"a union over two column sets: {[r.cols for r in full]}")
    return Relation(full[0].cols, full[0].spaces, frozenset().union(*(r.rows for r in full)))


# --- the semantics -----------------------------------------------------------


def denote(d: Derivation, bound: int = 2) -> DenotationSet:
    """Denotation of a typing derivation at replication bound ``bound``."""
    check_bound(bound)
    return DenotationSet(_denote(d, bound).tuples(), d.ctx, bound)


def _denote(d: Derivation, bound: int) -> Relation:
    try:
        rule = _RULES[d.rule]
    except KeyError:
        raise CpwbError(f"unknown rule {d.rule!r}") from None
    return rule(d, d.process, bound)


# One function per rule: it denotes the premises through ``_denote`` and
# combines them with one operation of the algebra.


def _mix0(d, p, bound):
    return UNIT


def _one(d, p, bound):
    return Relation((p.channel,), (STAR_SPACE,), frozenset({(0,)}))


def _id(d, p, bound):
    (x, a), (y, _) = d.ctx
    _within_limit(_capped_size(a, bound), f"fwd {x} {y}", "observations")
    s = space(a, bound)  # the space of dual(a) too
    return Relation((x, y), (s, s), frozenset((i, i) for i in range(s[1])))


def _bot(d, p, bound):
    return extend(_denote(d.premises[0], bound), p.channel, STAR_SPACE, empty)


def _tensor(d, p, bound):
    x, y = p.channel, p.payload
    left, right = (_denote(prem, bound) for prem in d.premises)
    sy, sx = _space_of(left, y), _space_of(right, x)
    return product(left, right, x, pair_space(sy, sx), _pair(sx[1]), (y, x), (y, x))


def _par(d, p, bound):
    x, y = p.channel, p.payload
    prem = _denote(d.premises[0], bound)
    sy, sx = _space_of(prem, y), _space_of(prem, x)
    return extend(prem, x, pair_space(sy, sx), _pair(sx[1]), (y, x), (y, x))


def _plus(d, p, bound):
    x = p.channel
    prem = _denote(d.premises[0], bound)
    a = d.context[x]
    if p.branch == 1:
        sp, offset = tag_space(_space_of(prem, x), space(a.right, bound)), 0
    else:
        left = space(a.left, bound)
        sp, offset = tag_space(left, _space_of(prem, x)), left[1]
    return extend(prem, x, sp, partial(add, offset), (x,), (x,))


def _with(d, p, bound):
    x = p.channel
    left, right = (_denote(prem, bound) for prem in d.premises)
    sl = _space_of(left, x)
    sp = tag_space(sl, _space_of(right, x))
    return union(
        extend(left, x, sp, partial(add, 0), (x,), (x,)),
        extend(right, x, sp, partial(add, sl[1]), (x,), (x,)),
    )


def _bang(d, p, bound):
    prem = _denote(d.premises[0], bound)
    _within_limit(comb(len(prem.rows) + bound, bound), f"server {p.channel}", "multisets of rows")
    i_payload = prem.cols.index(p.payload)
    others = [i for i in range(len(prem.cols)) if i != i_payload]
    cols, pick, _ = _plan(tuple(prem.cols[i] for i in others), (p.channel,))
    # each other column is of a bag space: the element count and the items
    # of each of its bags that occurs
    bags = [(i, n, _Memo(partial(_unrank, n))) for i in others for n in [prem.spaces[i][2][1]]]
    sp = bag_space(prem.spaces[i_payload], bound)
    rows = set()
    for k in range(bound + 1):
        for combo in itertools.combinations_with_replacement(prem.rows, k):
            row = []
            for i, n, items in bags:
                merged = [o for t in combo for o in items[t[i]]]
                if len(merged) > bound:
                    break
                row.append(_rank(n, sorted(merged)))
            else:
                row.append(_rank(sp[2][1], sorted(t[i_payload] for t in combo)))
                rows.add(pick(tuple(row)))
    return Relation(cols, pick(tuple(prem.spaces[i] for i in others) + (sp,)), frozenset(rows))


def _quest(d, p, bound):
    if bound < 1:
        return Relation(tuple(n for n, _ in d.ctx), tuple(space(a, bound) for _, a in d.ctx), frozenset())
    x, y = p.channel, p.payload
    prem = _denote(d.premises[0], bound)
    # the empty bag is index 0, and the bag of element j alone is 1 + j
    return extend(prem, x, bag_space(_space_of(prem, y), bound), partial(add, 1), (y,), (y,))


def _weak(d, p, bound):
    return extend(_denote(d.premises[0], bound), p.name, space(p.annot, bound), empty)


def _contract(d, p, bound):
    prem = _denote(d.premises[0], bound)
    ends = (p.left_name, p.right_name)
    sp = _space_of(prem, p.left_name)
    return extend(prem, p.name, sp, bag_union(sp), ends, ends)


def _cut(d, p, bound):
    left, right = (_denote(prem, bound) for prem in d.premises)
    return join(left, right, p.name)


def _mix2(d, p, bound):
    left, right = (_denote(prem, bound) for prem in d.premises)
    return product(left, right)


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


def _space_of(rel: Relation, name: str) -> tuple:
    return rel.spaces[rel.cols.index(name)]


def _pair(n_right: int):
    """The index of a pair from the indices of its two halves."""
    return lambda i, j: i * n_right + j


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
