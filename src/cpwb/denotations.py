"""Observation spaces and the denotational semantics of well-typed processes.

Observations live in the relational/multiset model: `*` for the units,
pairs for the multiplicatives, tagged values for the additives, finite
multisets for the exponentials.  Multiset layers are cut off at a
replication bound K so every denotation is a finite, canonical set.

Inside this layer a denotation is a ``Relation``: a set of rows, each a
plain tuple of observations in the order of the sorted context names.
Every rule is one operation of a small relational algebra (product, join,
extend, union), each premise is denoted once, and output rows are built by
index maps.  The name-keyed ``ObsTuple`` is built only at the boundary:
``denote(...).tuples`` and the JSON encoding.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from functools import lru_cache, partial
from operator import itemgetter
from typing import NamedTuple

from .syntax import Bottom, Formula, OfCourse, Par, Plus, Tensor, Unit, WhyNot, With
from .typing import CpwbError, CPTypeError, Derivation, System, check


class TypingMismatch(CPTypeError):
    pass


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

    def __init__(self, items: tuple[Observation, ...]):
        items = tuple(items)
        self.items = tuple(sorted(items, key=obs_key)) if len(items) > 1 else items
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


def obs_space(a: Formula, bound: int = 2) -> tuple[Observation, ...]:
    """All observations of ``a`` with every multiset layer of size <= bound."""
    check_bound(bound)
    match a:
        case Unit() | Bottom():
            return (STAR,)
        case Tensor(l, r) | Par(l, r):
            return tuple(
                Pair(x, y) for x in obs_space(l, bound) for y in obs_space(r, bound)
            )
        case Plus(l, r) | With(l, r):
            return tuple(Tag(1, x) for x in obs_space(l, bound)) + tuple(
                Tag(2, x) for x in obs_space(r, bound)
            )
        case OfCourse(b) | WhyNot(b):
            inner = obs_space(b, bound)
            out = []
            for k in range(bound + 1):
                for combo in itertools.combinations_with_replacement(inner, k):
                    out.append(Bag(combo))
            return tuple(sorted(set(out), key=obs_key))
    raise TypeError(f"not a formula: {a!r}")


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
    """Rows of observations; ``cols`` are sorted names, one per row position."""

    cols: tuple[str, ...]
    rows: frozenset[tuple]

    def tuples(self) -> frozenset[ObsTuple]:
        """The rows, name-keyed."""
        cols = self.cols
        return frozenset(tuple(zip(cols, row)) for row in self.rows)


UNIT = Relation((), frozenset({()}))
NOTHING = Relation((), frozenset())  # no rows, so no column set to speak of


def from_tuples(cols: tuple[str, ...], tuples) -> Relation:
    """Name-keyed tuples over the names ``cols`` as a relation."""
    return Relation(cols, frozenset(tuple(map(dict(t).__getitem__, cols)) for t in tuples))


def _picker(idx):
    """A function from a row to the tuple of its entries at ``idx``."""
    if not idx:
        return lambda row: ()
    if len(idx) == 1:
        i = idx[0]
        return lambda row: (row[i],)
    return itemgetter(*idx)


@lru_cache(maxsize=4096)
def _plan(src: tuple[str, ...], new: tuple[str, ...] = (), args=(), drop=()):
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


def _build(rows, src, name=None, fn=None, args=(), drop=()) -> Relation:
    """Rows over ``src`` without the columns ``drop``, with a column ``name``
    set to ``fn`` of the row's ``args``; a row where ``fn`` gives None goes.
    Without ``fn``, the rows as they are, in sorted column order."""
    if fn is None:
        cols, pick, _ = _plan(src)
        return Relation(cols, frozenset(map(pick, rows)))
    cols, pick, get = _plan(src, (name,), args, drop)
    out = set()
    for row in rows:
        v = fn(*get(row))
        if v is not None:
            out.add(pick(row + (v,)))
    return Relation(cols, frozenset(out))


def extend(rel: Relation, name, fn, args=(), drop=()) -> Relation:
    """Each row without the columns ``drop``, with a column ``name`` set to
    ``fn`` of the row's ``args``; a row where ``fn`` gives None goes."""
    return _build(rel.rows, rel.cols, name, fn, args, drop)


def product(left: Relation, right: Relation, name=None, fn=None, args=(), drop=()) -> Relation:
    """Every left row with every right row, extended as by ``extend``."""
    rows = (a + b for a in left.rows for b in right.rows)
    return _build(rows, left.cols + right.cols, name, fn, args, drop)


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
        cols, frozenset(pick(a + b + (b[ri],)) for b in right.rows for a in by_val.get(b[ri], ()))
    )


def union(*rels: Relation) -> Relation:
    """The rows of relations over one column set; one with no rows fits any,
    and with no rows at all the first relation (or NOTHING) is the union."""
    full = [r for r in rels if r.rows]
    if len(full) < 2:
        return full[0] if full else rels[0] if rels else NOTHING
    if any(r.cols != full[0].cols for r in full):
        raise CpwbError(f"a union over two column sets: {[r.cols for r in full]}")
    return Relation(full[0].cols, frozenset().union(*(r.rows for r in full)))


# --- the semantics -----------------------------------------------------------


def denote(d: Derivation, bound: int = 2) -> DenotationSet:
    """Denotation of a typing derivation at replication bound ``bound``."""
    check_bound(bound)
    return DenotationSet(_denote(d, bound).tuples(), d.ctx, bound)


def _denote(d: Derivation, bound: int) -> Relation:
    p = d.process
    match d.rule:
        case "mix0":
            return UNIT
        case "one":
            return Relation((p.channel,), frozenset({(STAR,)}))
        case "id":
            space = obs_space(d.context[p.left], bound)
            return Relation(tuple(sorted((p.left, p.right))), frozenset((o, o) for o in space))
        case "bot":
            return extend(_denote(d.premises[0], bound), p.channel, lambda: STAR)
        case "tensor":
            x, y = p.channel, p.payload
            left, right = (_denote(prem, bound) for prem in d.premises)
            return product(left, right, x, Pair, (y, x), (y, x))
        case "par":
            x, y = p.channel, p.payload
            return extend(_denote(d.premises[0], bound), x, Pair, (y, x), (y, x))
        case "plus":
            x = p.channel
            return extend(_denote(d.premises[0], bound), x, partial(Tag, p.branch), (x,), (x,))
        case "with":
            x = p.channel
            return union(*(
                extend(_denote(prem, bound), x, partial(Tag, i), (x,), (x,))
                for i, prem in enumerate(d.premises, 1)
            ))
        case "bang":
            prem = _denote(d.premises[0], bound)
            i_payload = prem.cols.index(p.payload)
            others = [i for i in range(len(prem.cols)) if i != i_payload]
            cols, pick, _ = _plan(tuple(prem.cols[i] for i in others), (p.channel,))
            rows = set()
            for k in range(bound + 1):
                for combo in itertools.combinations_with_replacement(prem.rows, k):
                    bags = [Bag(tuple(o for t in combo for o in t[i].items)) for i in others]
                    if all(len(b.items) <= bound for b in bags):
                        rows.add(pick((*bags, Bag(tuple(t[i_payload] for t in combo)))))
            return Relation(cols, frozenset(rows))
        case "quest":
            if bound < 1:
                return Relation(tuple(n for n, _ in d.ctx), frozenset())
            x, y = p.channel, p.payload
            return extend(_denote(d.premises[0], bound), x, lambda o: Bag((o,)), (y,), (y,))
        case "weak":
            return extend(_denote(d.premises[0], bound), p.name, bag)
        case "contract":
            ends = (p.left_name, p.right_name)
            return extend(_denote(d.premises[0], bound), p.name, bounded_union(bound), ends, ends)
        case "cut":
            left, right = (_denote(prem, bound) for prem in d.premises)
            return join(left, right, p.name)
        case "mix2":
            left, right = (_denote(prem, bound) for prem in d.premises)
            return product(left, right)
    raise CpwbError(f"unknown rule {d.rule!r}")


def join_tuples(left, right, name, keep=False) -> set[ObsTuple]:
    """Relational composition of name-keyed tuple sets on a shared coordinate."""
    if not left or not right:
        return set()
    left, right = (from_tuples(tuple(sorted(dict(next(iter(s))))), s) for s in (left, right))
    return set(join(left, right, name, keep).tuples())


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
