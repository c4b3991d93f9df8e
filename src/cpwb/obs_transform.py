"""The observation-level image of the translation, and full abstraction (I).

l_obs saturates an observation with the `*`s that the translated type
acquires; l_ctx applies it pointwise over a context (on primed names)
and appends the closing coordinate.  Injectivity of these maps is what
turns equality of translated denotations back into equality of source
denotations.
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
)
from .typing import CPTypeError, Derivation, System, check
from .translation import closing_name, prime_map, translate_process, translated_context


class SortMismatch(CPTypeError):
    pass


def l_obs(a: Formula, o: Observation) -> Observation:
    """Transport an observation of ``a`` to one of the translated type."""
    match a, o:
        case Bottom(), Star():
            return STAR
        case Unit(), Star():
            return Pair(STAR, STAR)
        case Par(l, r), Pair(x, y):
            return Pair(l_obs(l, x), l_obs(r, y))
        case Tensor(l, r), Pair(x, y):
            return Pair(Pair(Pair(l_obs(l, x), STAR), Pair(l_obs(r, y), STAR)), STAR)
        case With(l, r), Tag(i, v):
            return Tag(i, l_obs(l if i == 1 else r, v))
        case Plus(l, r), Tag(i, v):
            return Pair(Tag(i, Pair(l_obs(l if i == 1 else r, v), STAR)), STAR)
        case OfCourse(b), Bag(items):
            return Pair(Bag(tuple(Pair(l_obs(b, x), STAR) for x in items)), STAR)
        case WhyNot(b), Bag(items):
            return Bag(tuple(Pair(Pair(l_obs(b, x), STAR), STAR) for x in items))
    raise SortMismatch(f"observation {o} is not sorted at {a}")


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


def translation_image(d: Derivation, ctx, bound: int = 2) -> frozenset:
    """The denotation of the translation of ``d`` at the translated context."""
    return denote(check(translate_process(d), translated_context(ctx), System.CP02), bound).tuples


def translation_verdict(ctx, source, image) -> Verdict:
    """The l_ctx image of a source denotation vs its translation's denotation."""
    w = closing_name(ctx)
    return _set_verdict({l_ctx(ctx, t, w) for t in source}, image, "translation theorem")


def check_translation_theorem(
    p: Process, ctx, system: System = System.CP0, bound: int = 2
) -> Verdict:
    """l_ctx image of the source denotation vs the translated denotation."""
    d = check(p, ctx, system)
    return translation_verdict(ctx, denote(d, bound).tuples, translation_image(d, ctx, bound))


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
    img = translation_image(dp, ctx, bound) == translation_image(dq, ctx, bound)
    return AbstractionVerdict(src == img, src, img, "full abstraction (translation)")
