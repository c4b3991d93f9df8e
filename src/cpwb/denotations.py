"""Observation spaces and the denotational semantics of well-typed processes.

Observations live in the relational/multiset model: `*` for the units,
pairs for the multiplicatives, tagged values for the additives, finite
multisets for the exponentials.  Multiset layers are cut off at a
replication bound K so every denotation is a finite, canonical set.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

from .syntax import (
    Bottom,
    Formula,
    OfCourse,
    Par,
    Plus,
    Tensor,
    Unit,
    WhyNot,
    With,
)
from .typing import CpwbError, CPTypeError, Derivation, System, check


class TypingMismatch(CPTypeError):
    pass


# --- observations -----------------------------------------------------------


class Observation:
    __slots__ = ()


@dataclass(frozen=True)
class Star(Observation):
    pass


@dataclass(frozen=True)
class Pair(Observation):
    fst: Observation
    snd: Observation


@dataclass(frozen=True)
class Tag(Observation):
    index: int
    value: Observation


@dataclass(frozen=True)
class Bag(Observation):
    items: tuple[Observation, ...]

    def __post_init__(self):
        object.__setattr__(self, "items", tuple(sorted(self.items, key=obs_key)))


STAR = Star()


def bag(items=()) -> Bag:
    return Bag(tuple(items))


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


def bag_union(a: Bag, b: Bag) -> Bag:
    return Bag(a.items + b.items)


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


def max_bag_size(o: Observation) -> int:
    match o:
        case Star():
            return 0
        case Pair(a, b):
            return max(max_bag_size(a), max_bag_size(b))
        case Tag(_, a):
            return max_bag_size(a)
        case Bag(items):
            return max([len(items)] + [max_bag_size(x) for x in items])
    raise TypeError(f"not an observation: {o!r}")


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


def tuple_get(t: ObsTuple, name: str) -> Observation:
    for n, o in t:
        if n == name:
            return o
    raise KeyError(name)


def tuple_set(t: ObsTuple, name: str, o: Observation) -> ObsTuple:
    d = dict(t)
    d[name] = o
    return mk_tuple(d)


def tuple_drop(t: ObsTuple, *names: str) -> ObsTuple:
    return tuple((n, o) for n, o in t if n not in names)


def tuple_merge(a: ObsTuple, b: ObsTuple) -> ObsTuple:
    d = dict(a)
    d.update(b)
    return mk_tuple(d)


def tuple_key(t: ObsTuple):
    return tuple((n, obs_key(o)) for n, o in t)


@dataclass(frozen=True)
class DenotationSet:
    tuples: frozenset[ObsTuple]
    ctx: tuple
    bound: int

    def sorted_tuples(self) -> list[ObsTuple]:
        return sorted(self.tuples, key=tuple_key)

    def __iter__(self):
        return iter(self.tuples)

    def __len__(self):
        return len(self.tuples)


# --- the semantics -----------------------------------------------------------


def denote(d: Derivation, bound: int = 2) -> DenotationSet:
    """Denotation of a typing derivation at replication bound ``bound``."""
    check_bound(bound)
    return DenotationSet(frozenset(_denote(d, bound)), d.ctx, bound)


def _fits(o: Observation, bound: int) -> bool:
    return max_bag_size(o) <= bound


def _denote(d: Derivation, bound: int) -> set[ObsTuple]:
    ctx = d.context
    p = d.process
    match d.rule:
        case "mix0":
            return {()}
        case "one":
            return {mk_tuple({p.channel: STAR})}
        case "id":
            a = ctx[p.left]
            return {
                mk_tuple({p.left: o, p.right: o}) for o in obs_space(a, bound)
            }
        case "bot":
            return {
                tuple_merge(t, mk_tuple({p.channel: STAR}))
                for t in _denote(d.premises[0], bound)
            }
        case "tensor":
            out = set()
            for lt in _denote(d.premises[0], bound):
                a = tuple_get(lt, p.payload)
                lt = tuple_drop(lt, p.payload)
                for rt in _denote(d.premises[1], bound):
                    b = tuple_get(rt, p.channel)
                    rt2 = tuple_drop(rt, p.channel)
                    out.add(tuple_merge(tuple_merge(lt, rt2), mk_tuple({p.channel: Pair(a, b)})))
            return out
        case "par":
            out = set()
            for t in _denote(d.premises[0], bound):
                a = tuple_get(t, p.payload)
                b = tuple_get(t, p.channel)
                t2 = tuple_drop(t, p.payload, p.channel)
                out.add(tuple_merge(t2, mk_tuple({p.channel: Pair(a, b)})))
            return out
        case "plus":
            out = set()
            for t in _denote(d.premises[0], bound):
                a = tuple_get(t, p.channel)
                out.add(tuple_set(t, p.channel, Tag(p.branch, a)))
            return out
        case "with":
            out = set()
            for i in (1, 2):
                for t in _denote(d.premises[i - 1], bound):
                    a = tuple_get(t, p.channel)
                    out.add(tuple_set(t, p.channel, Tag(i, a)))
            return out
        case "bang":
            prem = sorted(_denote(d.premises[0], bound), key=tuple_key)
            others = [n for n, _ in d.premises[0].ctx if n != p.payload]
            out = set()
            for k in range(bound + 1):
                for combo in itertools.combinations_with_replacement(prem, k):
                    entry = {n: bag() for n in others}
                    entry[p.channel] = Bag(tuple(tuple_get(t, p.payload) for t in combo))
                    ok = True
                    for t in combo:
                        for n in others:
                            entry[n] = bag_union(entry[n], tuple_get(t, n))
                            if len(entry[n].items) > bound:
                                ok = False
                                break
                        if not ok:
                            break
                    if ok:
                        out.add(mk_tuple(entry))
            return out
        case "quest":
            if bound < 1:
                return set()
            out = set()
            for t in _denote(d.premises[0], bound):
                a = tuple_get(t, p.payload)
                t2 = tuple_drop(t, p.payload)
                out.add(tuple_merge(t2, mk_tuple({p.channel: bag((a,))})))
            return out
        case "weak":
            return {
                tuple_merge(t, mk_tuple({p.name: bag()}))
                for t in _denote(d.premises[0], bound)
            }
        case "contract":
            out = set()
            for t in _denote(d.premises[0], bound):
                merged = bag_union(tuple_get(t, p.left_name), tuple_get(t, p.right_name))
                if len(merged.items) > bound:
                    continue
                t2 = tuple_drop(t, p.left_name, p.right_name)
                out.add(tuple_merge(t2, mk_tuple({p.name: merged})))
            return out
        case "cut":
            return _join_on(
                _denote(d.premises[0], bound),
                _denote(d.premises[1], bound),
                p.name,
                keep=False,
            )
        case "mix2":
            return {
                tuple_merge(lt, rt)
                for lt in _denote(d.premises[0], bound)
                for rt in _denote(d.premises[1], bound)
            }
    raise CpwbError(f"unknown rule {d.rule!r}")


def _join_on(left, right, name, keep: bool) -> set[ObsTuple]:
    by_val: dict = {}
    for t in left:
        by_val.setdefault(obs_key(tuple_get(t, name)), []).append(t)
    out = set()
    for t in right:
        a = tuple_get(t, name)
        for lt in by_val.get(obs_key(a), ()):
            rest = t if keep else tuple_drop(t, name)
            out.add(tuple_merge(tuple_drop(lt, name), rest))
    return out


def join_tuples(left, right, name, keep=False) -> set[ObsTuple]:
    """Relational composition on a shared coordinate."""
    return _join_on(left, right, name, keep)


def equivalent(p, q, ctx, system: System = System.CP0, bound: int = 2) -> bool:
    """Denotational observational-equivalence check at bound ``bound``."""
    try:
        dp = check(p, ctx, system)
        dq = check(q, ctx, system)
    except CPTypeError as e:
        raise TypingMismatch(f"both processes must check at the shared typing: {e}") from e
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
