"""Bounded enumeration of formulas/processes and the property suites.

Process enumeration is derivation-directed: terms are grown by reading
the typing rules bottom-up, so everything emitted type-checks by
construction.  The suites mirror the verification story: adequacy of the
oracle, synchronizer/transformer characterizations, the translation
theorem, and both full-abstraction results. Each suite yields one outcome
per instance it checks (None, or a concrete counterexample), and
`run_suite` reports the count and the counterexamples.
"""

from __future__ import annotations

import itertools
import json
import random
import time
from dataclasses import dataclass, replace
from functools import cache, cached_property, partial

from . import transformers
from .denotations import STAR, Bag, Pair, denote, mk_tuple, obs_space, space, tuples_to_json
from .obs_transform import l_ctx, l_obs, translation_image, translation_verdict
from .oracle import CCut, CProc, adequacy_check
from .syntax import (
    Bottom,
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
    OfCourse,
    Out,
    Par,
    Plus,
    Process,
    Select,
    Server,
    Tensor,
    Unit,
    Weak,
    WhyNot,
    With,
    dual,
    formula_depth,
    fresh_name,
    process_size,
)
from .translation import closing_name, neg_image
from .typing import CpwbError, CPTypeError, System, check, ctx_items


class ConfigError(CpwbError):
    pass


# The connectives by arity, each with its constructor; CONNECTIVES lists
# their names in this order.
UNITS = (("one", Unit), ("bot", Bottom))
BINARY = (("tensor", Tensor), ("par", Par), ("plus", Plus), ("with", With))
UNARY = (("ofcourse", OfCourse), ("whynot", WhyNot))
CONNECTIVES = tuple(name for name, _ in UNITS + BINARY + UNARY)


def _ctors(group, connectives) -> list:
    return [ctor for name, ctor in group if name in connectives]


def _check_connectives(connectives) -> None:
    """Refuse a connective set with an unknown name or without a unit."""
    bad = set(connectives) - set(CONNECTIVES)
    if bad:
        raise ConfigError(f"unknown connectives: {sorted(bad)}")
    if not {"one", "bot"} & set(connectives):
        raise ConfigError("the connectives must include a unit, one or bot")


def enumerate_formulas(depth: int, connectives=CONNECTIVES) -> list[Formula]:
    """All formulas of depth <= depth over the connective set, deduplicated."""
    if depth < 0:
        raise ConfigError("formula depth must be >= 0")
    _check_connectives(connectives)
    binary, unary = _ctors(BINARY, connectives), _ctors(UNARY, connectives)
    seen = dict.fromkeys(ctor() for ctor in _ctors(UNITS, connectives))
    for _ in range(depth):
        base, before = list(seen), len(seen)
        for ctor in binary:
            seen.update(dict.fromkeys(ctor(a, b) for a in base for b in base))
        for ctor in unary:
            seen.update(dict.fromkeys(ctor(a) for a in base))
        if len(seen) == before:  # no later level adds one either
            break
    return list(seen)


# The most formulas a run may enumerate for the formula pool of
# transformer_graph and injectivity. The largest pool under it, 81,610
# formulas (one, bot, tensor and par to depth 3), takes transformer_graph
# about 33 s; the counts grow by squares, so the next pools are in the
# millions (15,717,262 for every connective at depth 3).
MAX_FORMULAS = 100_000

# The deepest formula_depth a run may ask for. Past depth 4 only a set
# without binary connectives stays under MAX_FORMULAS, and its formulas are
# chains of ! or ? over a unit: at bound >= 1 a chain deeper than 63 has more
# than 64 observations and enters neither suite, and at bound 0 the
# transformer of a chain deeper than about 65 passes the checker's recursion
# limit. Building the chains costs the square of the depth or more (about
# 1 s at depth 1,000).
MAX_FORMULA_DEPTH = 64


def formula_count(depth: int, connectives=CONNECTIVES) -> int:
    """``len(enumerate_formulas(depth, connectives))`` without building a
    formula: with u unit, b binary and n unary connectives in the set,
    f(0) = u and f(d + 1) = u + b f(d)^2 + n f(d). Once a level's count
    passes ``MAX_FORMULAS``, that count is returned, a lower bound, so a
    deep ``depth`` costs no huge number."""
    u, b, n = (len(_ctors(group, connectives)) for group in (UNITS, BINARY, UNARY))
    if b == n == 0:  # the units alone, at every depth
        return u
    f = u
    for _ in range(depth):
        if f > MAX_FORMULAS:
            break
        f = u + b * f * f + n * f
    return f


def enumerate_processes(ctx, size: int, system: System = System.CP02, cut_formulas=(),
                        markers: bool = True) -> list[Process]:
    """All well-typed processes of at most ``size`` constructors at ``ctx``.

    Each rule is one call: ``unary`` or ``binary`` with the rule's process
    constructor and the typings of its premises, which get what is left of
    the budget once the rule's own constructor is paid for."""
    if size < 1:
        raise ConfigError("process size must be >= 1")

    @cache
    def gen(items, budget: int) -> list[Process]:
        out: dict[Process, None] = {}  # a repeated cut formula repeats its cuts

        def unary(make, rest, *extra):
            out.update((make(p), None) for p in gen(tuple(sorted(rest + extra)), budget - 1))

        def binary(make, left, right):
            for p in gen(tuple(sorted(left)), budget - 2):
                for q in gen(tuple(sorted(right)), budget - 1 - process_size(p)):
                    out[make(p, q)] = None

        if budget >= 1:
            if not items and system.allows_mix0:
                out[Inact()] = None
            if len(items) == 1 and items[0][1] == Unit():
                out[EmptyOut(items[0][0])] = None
            if len(items) == 2:
                (x, a), (y, b) = items
                if b == dual(a):
                    out.update({Fwd(x, y): None, Fwd(y, x): None})
        if budget >= 2:
            names = {n for n, _ in items}
            v, c = fresh_name("v", names), fresh_name("c", names)
            v0 = fresh_name("v", names | {v})
            for x, a in items:
                rest = tuple(item for item in items if item[0] != x)
                match a:
                    case Bottom():
                        unary(partial(EmptyIn, x), rest)
                    case Par(l, r):
                        unary(partial(In, x, v), rest, (v, l), (x, r))
                    case Plus(l, r):
                        unary(partial(Select, x, 1), rest, (x, l))
                        unary(partial(Select, x, 2), rest, (x, r))
                    case With(l, r):
                        binary(partial(Case, x), rest + ((x, l),), rest + ((x, r),))
                    case Tensor(l, r):
                        for left, right in _splits(rest):
                            binary(partial(Out, v, x), left + ((v, l),), right + ((x, r),))
                    case OfCourse(body):
                        if all(isinstance(f, WhyNot) for _, f in rest):
                            unary(partial(Server, x, v), rest, (v, body))
                    case WhyNot(body):
                        unary(partial(Client, x, v), rest, (v, body))
                        if markers:
                            unary(partial(Weak, x, a), rest)
                            unary(partial(Contract, x, v, v0), rest, (v, a), (v0, a))
            for a in cut_formulas:
                for left, right in _splits(items):
                    binary(partial(Cut, c, a), left + ((c, a),), right + ((c, dual(a)),))
        return list(out)

    return gen(ctx_items(dict(ctx)), size)


def _splits(items):
    """Each way to part ``items`` in two, keeping their order on each side."""
    for r in range(len(items) + 1):
        for left in itertools.combinations(items, r):
            yield left, tuple(item for item in items if item not in left)


# --- suite configuration and report -------------------------------------------


@dataclass(frozen=True)
class SuiteConfig:
    suites: tuple[str, ...] = ("all",)
    formula_depth: int = 2
    process_size: int = 5
    bound: int = 2
    duality_depth: int = 4
    seed: int = 0
    connectives: tuple[str, ...] = CONNECTIVES

    @staticmethod
    def from_json(text: str) -> "SuiteConfig":
        try:
            data = json.loads(text)
        except ValueError as e:
            raise ConfigError(f"suite config is not valid JSON: {e}") from None
        if not isinstance(data, dict):
            raise ConfigError("suite config must be a JSON object")
        cfg = SuiteConfig()
        known = {f for f in cfg.__dataclass_fields__}
        bad = set(data) - known
        if bad:
            raise ConfigError(f"unknown config keys: {sorted(bad)}")
        for key, value in data.items():
            default = getattr(cfg, key)
            if isinstance(default, tuple):
                if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
                    raise ConfigError(f"config key {key!r} must be a list of strings, got {value!r}")
                data[key] = tuple(value)
            elif type(value) is not type(default):  # so true is not an int
                kind = type(default).__name__
                raise ConfigError(f"config key {key!r} must be of type {kind}, got {value!r}")
        return replace(cfg, **data)


@dataclass(frozen=True)
class SuiteResult:
    name: str
    instances: int
    failures: tuple[str, ...]
    millis: int

    @property
    def ok(self) -> bool:
        return not self.failures


@dataclass(frozen=True)
class Report:
    results: tuple[SuiteResult, ...]

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    def to_text(self) -> str:
        lines = []
        for r in self.results:
            status = "pass" if r.ok else "FAIL"
            lines.append(f"{status:4}  {r.name:22} {r.instances:6} instances  {r.millis:6} ms")
            for f in r.failures[:10]:
                lines.append(f"      counterexample: {f}")
            if len(r.failures) > 10:
                lines.append(f"      ... and {len(r.failures) - 10} more failures")
        lines.append("result: " + ("all suites passed" if self.ok else "FAILURES PRESENT"))
        return "\n".join(lines)

    def to_json(self):
        return {
            r.name: {"instances": r.instances, "failures": list(r.failures), "millis": r.millis}
            for r in self.results
        }


def run_suite(cfg: SuiteConfig) -> Report:
    """Run the selected suites once every config value is checked. A suite
    yields one outcome per instance it checks, None if the instance holds
    and else its counterexample; run_suite alone counts the outcomes, times
    them and collects the counterexamples. A type
    error raised inside a suite, such as an ill-typed image, ends that suite:
    the instance that raised it fails with the error's type and message as
    its counterexample."""
    names = SUITE_NAMES if "all" in cfg.suites else cfg.suites
    bad = set(names) - set(SUITE_NAMES)
    if bad:
        raise ConfigError(f"unknown suites: {sorted(bad)}")
    for key, least in (("bound", 0), ("formula_depth", 0), ("duality_depth", 0), ("process_size", 1)):
        value = getattr(cfg, key)
        if value < least:
            raise ConfigError(f"{key} must be >= {least}, got {value}")
    _check_connectives(cfg.connectives)
    has_exp = "ofcourse" in cfg.connectives or "whynot" in cfg.connectives
    if has_exp and cfg.bound > 2:
        raise ConfigError("exhaustive suites need an exponential-free connective set or bound <= 2")
    if {"transformer_graph", "injectivity"} & set(names):
        if cfg.formula_depth > MAX_FORMULA_DEPTH:
            raise ConfigError(f"formula_depth {cfg.formula_depth} is deeper than the limit of {MAX_FORMULA_DEPTH}")
        n = formula_count(cfg.formula_depth, cfg.connectives)
        if n > MAX_FORMULAS:
            raise ConfigError(f"formula_depth {cfg.formula_depth} enumerates at least {n:,} formulas"
                              f" over these connectives; the limit is {MAX_FORMULAS:,}")
    results = []
    table = _ImageTable(cfg)
    for name in names:
        t0 = time.monotonic()
        outcomes: list = []
        try:
            # on a raise, extend keeps the outcomes yielded before it
            outcomes.extend(_SUITES[name](cfg, random.Random(cfg.seed), table))
        except CPTypeError as e:
            outcomes.append(f"{type(e).__name__}: {e}")
        millis = int((time.monotonic() - t0) * 1000)
        failures = tuple(o for o in outcomes if o is not None)
        results.append(SuiteResult(name, len(outcomes), failures, millis))
    return Report(tuple(results))


# --- families -------------------------------------------------------------------


def _plus_tree(depth: int) -> Formula:
    if depth == 0:
        return Unit()
    sub = _plus_tree(depth - 1)
    return Plus(sub, sub)


def exp_free_families(size: int):
    """(context, processes) pairs over exponential-free session types."""
    one, bot = Unit(), Bottom()
    t2 = Plus(one, one)
    contexts = [
        {"x": one},
        {"x": bot},
        {"x": t2},
        {"x": With(one, bot)},
        {"x": _plus_tree(2)},
        {"x": _plus_tree(3)},
        {"x": _plus_tree(4)},
        {"x": t2, "y": bot},
        {"x": _plus_tree(2), "y": bot},
        {"x": _plus_tree(3), "y": bot},
        {"x": _plus_tree(2), "y": bot, "z": bot},
        {"x": Tensor(t2, t2)},
        {"x": With(t2, t2)},
        {"x": Par(t2, bot)},
        {"x": Tensor(one, bot)},
        {"x": t2, "y": With(bot, bot)},
    ]
    return [
        (ctx, enumerate_processes(ctx, size, System.CP02, markers=False)) for ctx in contexts
    ]


def exponential_families(size: int):
    one, bot = Unit(), Bottom()
    t2 = Plus(one, one)
    contexts = [
        {"x": WhyNot(bot)},
        {"x": WhyNot(With(bot, bot))},
        {"x": OfCourse(one)},
        {"x": OfCourse(t2)},
        {"x": WhyNot(bot), "y": WhyNot(bot)},
        {"x": OfCourse(one), "y": WhyNot(bot)},
    ]
    return [
        (ctx, enumerate_processes(ctx, size, System.CP02, markers=True)) for ctx in contexts
    ]


def cut_families(size: int):
    """Cut instances built from dual-typed enumerated pairs."""
    one, bot = Unit(), Bottom()
    annots = (
        one,
        bot,
        Plus(one, one),
        Tensor(one, bot),
        With(one, bot),
        Par(bot, one),
        Plus(one, Plus(one, one)),
        Tensor(Plus(one, one), bot),
    )
    out = []
    for a in annots:
        lefts = enumerate_processes({"x": a}, size + 1, System.CP02, markers=False)
        rights = enumerate_processes({"x": dual(a)}, size + 1, System.CP02, markers=False)
        for p in lefts[:6]:
            for q in rights[:6]:
                out.append(({}, Cut("x", a, p, q)))
        lefts2 = enumerate_processes({"x": a, "y": bot}, size, System.CP02, markers=False)
        for p in lefts2[:4]:
            for q in rights[:4]:
                out.append(({"y": bot}, Cut("x", a, p, q)))
    # cuts through exponential synchronizers
    for a in (OfCourse(one), WhyNot(bot)):
        lefts = enumerate_processes({"x": a}, size + 1, System.CP02)
        rights = enumerate_processes({"x": dual(a)}, size + 1, System.CP02)
        for p in lefts[:4]:
            for q in rights[:4]:
                out.append(({}, Cut("x", a, p, q)))
    return out


# --- individual suites ------------------------------------------------------------


# The formulas formula_pool tries at each level past 2.
POOL_PER_LEVEL = 4500


def formula_pool(depth: int, connectives=CONNECTIVES) -> list[Formula]:
    """Exhaustive to depth 2, then a deterministic spread of deeper formulas.

    The full closure beyond depth 2 is astronomically large, so deeper
    levels are covered by index-mixed samples rather than exhaustively.
    """
    pool = enumerate_formulas(min(depth, 2), connectives)
    binary, unary = _ctors(BINARY, connectives), _ctors(UNARY, connectives)
    seen = set(pool)
    prev = pool
    for level in range(3, depth + 1):
        fresh = []
        for i in range(POOL_PER_LEVEL):
            j = (i * 7 + level) % len(prev)  # one argument from the previous level
            k = (i * 13 + 3 * level) % len(pool)
            if unary and i % 5 == 4:
                f = unary[i % len(unary)](prev[j])
            elif binary:
                f = binary[i % len(binary)](prev[j], pool[k])
            else:
                continue
            if f not in seen:
                seen.add(f)
                fresh.append(f)
        pool = pool + fresh
        prev = fresh or prev
    return pool


def _suite_duality(cfg: SuiteConfig, rng, table):
    for a in formula_pool(cfg.duality_depth, cfg.connectives):
        yield None if dual(dual(a)) == a else f"dual(dual({a})) != {a}"


def _suite_adequacy(cfg: SuiteConfig, rng, table):
    """Every cut at exponential-free types of depth <= 1 and a spread of
    depth 2, between the first processes of each side: per type 16 lefts by
    16 rights, then for each unit type of a second name y, closed by a cut
    against its closer, 8 lefts by 4 rights. Each process is checked once per
    type: a left one when it is reached, and the right ones when the type's
    first left one is."""
    conns = ("one", "bot", "tensor", "par", "plus", "with")
    deep = [a for a in enumerate_formulas(2, conns) if formula_depth(a) == 2]
    types = enumerate_formulas(1, conns) + deep[::5][:200]
    closers = {e: CProc(check(c, {"y": dual(e)}, System.CP02))
               for e, c in ((Unit(), EmptyIn("y", Inact())), (Bottom(), EmptyOut("y")))}

    def procs(ctx, n):
        return enumerate_processes(ctx, cfg.process_size, System.CP02, markers=False)[:n]

    def checked(ctx, ps):
        for p in ps:
            yield p, CProc(check(p, ctx, System.CP02))

    for a in types:
        rights, checked_rights = procs({"x": dual(a)}, 16), None
        if not rights:
            continue  # no cut at a, so no left process is checked
        for extra, n, m in ((None, 16, 16), (Unit(), 8, 4), (Bottom(), 8, 4)):
            ctx = {"x": a} if extra is None else {"x": a, "y": extra}
            for p, dp in checked(ctx, procs(ctx, n)):
                checked_rights = checked_rights or list(checked({"x": dual(a)}, rights))
                for q, dq in checked_rights[:m]:
                    config = CCut("x", a, dp, dq)
                    if extra is not None:
                        config = CCut("y", extra, config, closers[extra])
                    yield None if adequacy_check(config, cfg.bound) else f"cut at {a}: {p!r} | {q!r}"


def _suite_synchronizer(cfg: SuiteConfig, rng, table):
    """At each type ``a``, the synchronizer relates each observation to its
    dual's, and the ILL translation read back classically is ``neg_image``."""
    from .translation import embed_ill, synchronizer, translate_formula_ill

    one, bot = Unit(), Bottom()
    for a in (one, bot, Tensor(one, bot), Par(bot, one), Plus(one, one), With(one, bot),
              OfCourse(one), WhyNot(bot)):
        if any(neg_image(b) != embed_ill(translate_formula_ill(b)) for b in (a, dual(a))):
            yield f"ILL translation at {a}"
            continue
        ctx = {"z": Tensor(neg_image(a), bot), "w": Tensor(neg_image(dual(a)), bot), "s": one}
        d = check(synchronizer(a, "z", "w", "s"), ctx, System.CP02)
        want = frozenset(
            mk_tuple({"z": Pair(l_obs(a, o), STAR), "w": Pair(l_obs(dual(a), o), STAR), "s": STAR})
            for o in obs_space(a, cfg.bound)
        )
        yield None if denote(d, cfg.bound).tuples == want else f"synchronizer at {a}"


SOURCE, TRANSLATION, TRANSFORMER = "source", "translation", "transformer"


class _ImageTable:
    """One run's translation instances and their denotation sets, and the
    formula pool of transformer_graph and injectivity, made on first use.

    An instance (ctx, p) has three images: its source denotation, that of its
    translation and that of p in its transformer context. Only sets are kept,
    each distinct set once, so no derivation or typed context outlives its
    suite; and the table lives for one run, so no patched module is read stale.
    """

    def __init__(self, cfg: SuiteConfig):
        self.cfg, self.sets, self.distinct = cfg, {}, {}

    @cached_property
    def families(self):
        return exp_free_families(self.cfg.process_size)

    @cached_property
    def small_formulas(self) -> list[Formula]:
        """The formulas up to ``formula_depth`` with at most 64 observations."""
        cfg = self.cfg
        return [
            a
            for a in enumerate_formulas(cfg.formula_depth, cfg.connectives)
            if space(a, cfg.bound).capped <= 64
        ]

    @cached_property
    def instances(self):
        """The families, the cuts and a seeded quarter of the exponential families."""
        out = [(ctx, p) for ctx, ps in self.families for p in ps] + cut_families(4)
        exp = [(ctx, p) for ctx, ps in exponential_families(self.cfg.process_size) for p in ps]
        random.Random(self.cfg.seed).shuffle(exp)
        return out + exp[: max(50, len(exp) // 4)]

    def images(self, instances, *kinds):
        """Yield each (ctx, p) with its sets of ``kinds``; p is checked once for all
        of its images, and one transformer context serves a run of equal contexts."""
        bound, kctx = self.cfg.bound, None
        for ctx, p in instances:
            d, row = None, self.sets.setdefault((p, ctx_items(ctx)), {})
            for kind in kinds:
                if kind in row:
                    continue
                d = d or check(p, ctx, System.CP02)
                if kind == TRANSFORMER:
                    if kctx != ctx:
                        kctx, k = ctx, transformers.transformer_context(ctx)
                    s = transformers.transformer_image(k, d, bound)
                else:
                    s = denote(d, bound).tuples if kind == SOURCE else translation_image(d, bound)
                row[kind] = self.distinct.setdefault(s, s)
            yield ctx, p, [row[kind] for kind in kinds]


def _suite_translation(cfg: SuiteConfig, rng, table):
    for ctx, p, (src, img) in table.images(table.instances, SOURCE, TRANSLATION):
        v = translation_verdict(ctx, src, img)
        yield None if v.holds else f"{p!r} at {dict(ctx)}: missing={v.missing} extra={v.extra}"


def _suite_full_abstraction(image, cfg: SuiteConfig, rng, table):
    """Source equivalence iff equivalence of ``image``, over each family's pairs."""
    for ctx, procs in table.families:
        data = list(table.images([(ctx, p) for p in procs], SOURCE, image))
        for (_, p, (sp, ip)), (_, q, (sq, iq)) in itertools.combinations(data, 2):
            yield None if (sp == sq) == (ip == iq) else f"{p!r} vs {q!r} at {dict(ctx)}"


def _suite_transformer_graph(cfg: SuiteConfig, rng, table):
    pool = table.small_formulas
    for a, verdict in zip(pool, transformers.transformer_graphs(pool, cfg.bound)):
        yield None if verdict.holds else f"transformer at {a}"


def _all_tuples(delta, bound: int) -> list:
    """Every name-keyed observation tuple over the typing ``delta``."""
    columns = [[(n, o) for o in obs_space(a, bound)] for n, a in sorted(delta.items())]
    return list(itertools.product(*columns))


def _suite_context_denotation(cfg: SuiteConfig, rng, table):
    one, bot = Unit(), Bottom()
    t2 = Plus(one, one)
    deltas = [
        {"x": one},
        {"x": bot},
        {"x": t2},
        {"x": With(bot, bot)},
        {"x": With(one, bot)},
        {"x": bot, "y": t2},
        {"x": Tensor(one, bot)},
        {"x": Par(bot, one)},
        {"x": WhyNot(bot)},
        {"x": OfCourse(one)},
    ]
    for delta in deltas:
        full = _all_tuples(delta, cfg.bound)
        for _ in range(10):
            xs = {t for t in full if rng.random() < 0.5}
            v = transformers.check_transformer_theorem(delta, xs, cfg.bound)
            yield None if v.holds else f"context denotation over {dict(delta)} with |X|={len(xs)}"


def _suite_transformer_correct(cfg: SuiteConfig, rng, table):
    for ctx, p, (left, right) in table.images(table.instances, TRANSLATION, TRANSFORMER):
        yield None if left == right else f"{p!r} at {dict(ctx)}"


def _suite_mix_permutation(cfg: SuiteConfig, rng, table):
    one, bot = Unit(), Bottom()
    t2 = Plus(one, one)
    w2 = With(one, bot)
    small = {a: enumerate_processes({"x": a}, 4, System.CP02, markers=False)
             for a in (one, bot, t2, w2)}
    rs = {a: enumerate_processes({"z": a}, 4, System.CP02, markers=False) for a in (one, t2, w2)}

    def alike(ctx, *procs):
        """Whether the processes all denote, at ctx, what the first one does."""
        sets = (denote(check(p, ctx, System.CP02), cfg.bound).tuples for p in procs)
        first = next(sets)
        return all(s == first for s in sets)

    for a1, a2 in itertools.product((one, bot, t2, w2), repeat=2):
        for p, q in itertools.product(small[a1][:3], small[a2][:3]):
            for rc, rlist in rs.items():
                for r in rlist[:3]:
                    ctx = {"x": With(a1, a2), "z": rc}
                    lhs = Mix(Case("x", p, q), r)
                    rhs = Case("x", Mix(p, r), Mix(q, r))
                    yield None if alike(ctx, lhs, rhs) else f"case-mix: {lhs!r}"
    for a in (one, t2):
        rights = enumerate_processes({"x": dual(a)}, 3, System.CP02, markers=False)
        for p, q in itertools.product(small[a][:4], rights[:4]):
            for rc, rlist in rs.items():
                for r in rlist[:2]:
                    lhs = Mix(Cut("x", a, p, q), r)
                    mid = Cut("x", a, p, Mix(q, r))
                    rhs = Cut("x", a, Mix(p, r), q)
                    yield None if alike({"z": rc}, lhs, mid, rhs) else f"cut-mix: {lhs!r}"
    outs_p = enumerate_processes({"y": one}, 2, System.CP02, markers=False)
    outs_q = enumerate_processes({"x": t2}, 3, System.CP02, markers=False)
    for p in outs_p:
        for q in outs_q[:4]:
            for rc, rlist in rs.items():
                for r in rlist[:3]:
                    ctx = {"x": Tensor(one, t2), "z": rc}
                    lhs = Out("y", "x", p, Mix(q, r))
                    rhs = Mix(Out("y", "x", p, q), r)
                    yield None if alike(ctx, lhs, rhs) else f"out-mix: {lhs!r}"


def _suite_injectivity(cfg: SuiteConfig, rng, table):
    for a in table.small_formulas:
        space = obs_space(a, cfg.bound)
        injective = len({l_obs(a, o) for o in space}) == len(space)
        yield None if injective else f"l_obs not injective at {a}"
    one, bot = Unit(), Bottom()
    for delta in ({"x": Plus(one, one), "y": bot}, {"x": one}, {"x": With(one, bot), "y": one}):
        tuples = _all_tuples(delta, cfg.bound)
        w = closing_name(delta)
        injective = len({l_ctx(delta, t, w) for t in tuples}) == len(tuples)
        yield None if injective else f"l_ctx not injective at {dict(delta)}"
    for body in (one, bot, Plus(one, one)):
        qa = WhyNot(body)
        space3 = obs_space(qa, 3)
        for a1, a2 in itertools.product(space3, repeat=2):
            merged = a1.items + a2.items
            if len(merged) > 3:
                continue
            lhs = l_obs(qa, Bag(merged))
            rhs = Bag(l_obs(qa, a1).items + l_obs(qa, a2).items)
            yield None if lhs == rhs else f"bag homomorphism at {qa}: {a1} u {a2}"


def _suite_worked_example(cfg: SuiteConfig, rng, table):
    one = Unit()
    cut = Cut("x", one, EmptyOut("x"), EmptyIn("x", EmptyOut("y")))
    ctx = {"y": one}
    s1 = translation_image(check(cut, ctx, System.CP02), cfg.bound)
    s2 = translation_image(check(EmptyOut("y"), ctx, System.CP02), cfg.bound)
    yield None if s1 == s2 else f"worked example: {tuples_to_json(s1)} vs {tuples_to_json(s2)}"


# The suites in report order. run_suite reads SUITE_NAMES when it is called.
_SUITES = {
    "duality": _suite_duality,
    "adequacy": _suite_adequacy,
    "synchronizer": _suite_synchronizer,
    "translation": _suite_translation,
    "full_abstraction_1": partial(_suite_full_abstraction, TRANSLATION),
    "transformer_graph": _suite_transformer_graph,
    "context_denotation": _suite_context_denotation,
    "transformer_correct": _suite_transformer_correct,
    "full_abstraction_2": partial(_suite_full_abstraction, TRANSFORMER),
    "mix_permutation": _suite_mix_permutation,
    "injectivity": _suite_injectivity,
    "worked_example": _suite_worked_example,
}
SUITE_NAMES = tuple(_SUITES)
