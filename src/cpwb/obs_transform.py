"""The observation-level image of the translation, and full abstraction (I).

l_obs saturates an observation with the `*`s that the translated type
acquires; l_ctx applies it pointwise over a context (on primed names)
and appends the closing coordinate.  Injectivity of these maps is what
turns equality of translated denotations back into equality of source
denotations.

l_obs dispatches on the formula's class through one table, ``_L_OBS``:
each class has the class of its observations and a walk generated at
import from its expression in ``_L_OBS_OF``, which recurses through the
module-level name ``l_obs``. An observation of another class raises
``SortMismatch``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .denotations import (
    Bag,
    Observation,
    ObsTuple,
    Pair,
    STAR,
    Star,
    Tag,
    check_shared,
    denote,
    mk_tuple,
    tuple_key,
)
from .syntax import (
    Bottom,
    Formula,
    Name,
    OfCourse,
    Par,
    Plus,
    Process,
    Tensor,
    Unit,
    WhyNot,
    With,
    generated,
)
from .typing import CPTypeError, Derivation, System, check
from .translation import closing_name, prime_map, translate_process, translated_context


class SortMismatch(CPTypeError):
    pass


def l_obs(a: Formula, o: Observation) -> Observation:
    """Transport an observation of ``a`` to one of the translated type."""
    sort, walk = _L_OBS.get(type(a), (None, None))
    if type(o) is not sort:
        raise SortMismatch(f"observation {o} is not sorted at {a}")
    return walk(a, o)


# formula class -> (the class of its observations, l_obs of a formula ``a``
# of the class at an observation ``o`` of that class)
_L_OBS_OF = {
    Bottom: (Star, "STAR"),
    Unit: (Star, "Pair(STAR, STAR)"),
    Par: (Pair, "Pair(l_obs(a.left, o.fst), l_obs(a.right, o.snd))"),
    Tensor: (Pair, "Pair(Pair(Pair(l_obs(a.left, o.fst), STAR),"
                   " Pair(l_obs(a.right, o.snd), STAR)), STAR)"),
    With: (Tag, "Tag(o.index, l_obs(a.left if o.index == 1 else a.right, o.value))"),
    Plus: (Tag, "Pair(Tag(o.index,"
                " Pair(l_obs(a.left if o.index == 1 else a.right, o.value), STAR)), STAR)"),
    OfCourse: (Bag, "Pair(Bag(tuple([Pair(l_obs(a.body, x), STAR) for x in o.items])), STAR)"),
    WhyNot: (Bag, "Bag(tuple([Pair(Pair(l_obs(a.body, x), STAR), STAR) for x in o.items]))"),
}

_L_OBS = {
    cls: (sort, generated(cls, "l_obs", "a, o", [f"return {expr}"], globals()))
    for cls, (sort, expr) in _L_OBS_OF.items()
}


def l_ctx(ctx, theta: ObsTuple, w: Name) -> ObsTuple:
    """Componentwise l_obs over primed names, plus w |-> * at type 1."""
    ctx = dict(ctx)
    if w in ctx or set(n for n, _ in theta) != set(ctx):
        raise SortMismatch("tuple domain must match the context, and w must be fresh")
    pm = prime_map(ctx)
    out = {pm[n]: l_obs(ctx[n], o) for n, o in theta}
    out[w] = STAR
    return mk_tuple(out)


@dataclass(frozen=True)
class Verdict:
    """Outcome of a theorem instance; failures carry the witnessing tuples."""

    holds: bool
    detail: str = ""
    missing: tuple = field(default=())
    extra: tuple = field(default=())


def _set_verdict(expected, actual, label: str) -> Verdict:
    expected, actual = frozenset(expected), frozenset(actual)
    if expected == actual:
        return Verdict(True, label)
    return Verdict(
        False,
        label,
        tuple(sorted(expected - actual, key=tuple_key)),
        tuple(sorted(actual - expected, key=tuple_key)),
    )


def translation_image(d: Derivation, bound: int = 2) -> frozenset:
    """The denotation of the translation of ``d`` at the translation of its typing."""
    return denote(check(translate_process(d), translated_context(d.ctx), System.CP02), bound).tuples


def translation_verdict(ctx, source, image) -> Verdict:
    """The l_ctx image of a source denotation vs its translation's denotation."""
    w = closing_name(ctx)
    return _set_verdict({l_ctx(ctx, t, w) for t in source}, image, "translation theorem")


def check_translation_theorem(
    p: Process, ctx, system: System = System.CP0, bound: int = 2
) -> Verdict:
    """l_ctx image of the source denotation vs the translated denotation."""
    d = check(p, ctx, system)
    return translation_verdict(ctx, denote(d, bound).tuples, translation_image(d, bound))


@dataclass(frozen=True)
class AbstractionVerdict:
    holds: bool
    source_equivalent: bool
    image_equivalent: bool
    detail: str = ""


def full_abstraction_I(
    p: Process, q: Process, ctx, system: System = System.CP0, bound: int = 2
) -> AbstractionVerdict:
    """Source equivalence iff equivalence of the translations."""
    dp, dq = check_shared(p, q, ctx, system)
    src = denote(dp, bound).tuples == denote(dq, bound).tuples
    img = translation_image(dp, bound) == translation_image(dq, bound)
    return AbstractionVerdict(src == img, src, img, "full abstraction (translation)")
