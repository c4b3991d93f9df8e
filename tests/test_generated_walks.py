"""The walks generated per class (``dual``, free names, ``l_obs``) against
references written here as one ``match`` each."""

import dataclasses
import traceback

import pytest

from cpwb import cli, obs_transform, syntax
from cpwb.denotations import Bag, Pair, STAR, Star, Tag, obs_space, space_size
from cpwb.harness import (
    SuiteConfig,
    cut_families,
    enumerate_formulas,
    exp_free_families,
    exponential_families,
    formula_pool,
)
from cpwb.obs_transform import SortMismatch, l_obs
from cpwb.syntax import (
    Bottom,
    Case,
    Client,
    Contract,
    Cut,
    EmptyIn,
    EmptyOut,
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
)
from cpwb.transformers import transformer
from cpwb.translation import translate_process
from cpwb.typing import System, check


def ref_dual(a):
    match a:
        case Unit():
            return Bottom()
        case Bottom():
            return Unit()
        case Tensor(l, r):
            return Par(ref_dual(l), ref_dual(r))
        case Par(l, r):
            return Tensor(ref_dual(l), ref_dual(r))
        case Plus(l, r):
            return With(ref_dual(l), ref_dual(r))
        case With(l, r):
            return Plus(ref_dual(l), ref_dual(r))
        case OfCourse(b):
            return WhyNot(ref_dual(b))
        case WhyNot(b):
            return OfCourse(ref_dual(b))
    raise TypeError(f"not a formula: {a!r}")


def ref_free_names(p):
    match p:
        case Inact():
            return frozenset()
        case Fwd(x, y):
            return frozenset({x, y})
        case Cut(x, _, l, r):
            return (ref_free_names(l) | ref_free_names(r)) - {x}
        case Mix(l, r):
            return ref_free_names(l) | ref_free_names(r)
        case Out(y, x, l, r):
            return {x} | (ref_free_names(l) - {y}) | ref_free_names(r)
        case In(x, y, b) | Server(x, y, b) | Client(x, y, b):
            return {x} | (ref_free_names(b) - {y})
        case Select(x, _, b) | EmptyIn(x, b) | Weak(x, _, b):
            return {x} | ref_free_names(b)
        case Case(x, l, r):
            return {x} | ref_free_names(l) | ref_free_names(r)
        case EmptyOut(x):
            return frozenset({x})
        case Contract(x, y, z, b):
            return {x} | (ref_free_names(b) - {y, z})
    raise TypeError(f"not a process: {p!r}")


def ref_l_obs(a, o):
    match a, o:
        case Bottom(), Star():
            return STAR
        case Unit(), Star():
            return Pair(STAR, STAR)
        case Par(l, r), Pair(x, y):
            return Pair(ref_l_obs(l, x), ref_l_obs(r, y))
        case Tensor(l, r), Pair(x, y):
            return Pair(Pair(Pair(ref_l_obs(l, x), STAR), Pair(ref_l_obs(r, y), STAR)), STAR)
        case With(l, r), Tag(i, v):
            return Tag(i, ref_l_obs(l if i == 1 else r, v))
        case Plus(l, r), Tag(i, v):
            return Pair(Tag(i, Pair(ref_l_obs(l if i == 1 else r, v), STAR)), STAR)
        case OfCourse(b), Bag(items):
            return Pair(Bag(tuple(Pair(ref_l_obs(b, x), STAR) for x in items)), STAR)
        case WhyNot(b), Bag(items):
            return Bag(tuple(Pair(Pair(ref_l_obs(b, x), STAR), STAR) for x in items))
    raise SortMismatch(f"observation {o} is not sorted at {a}")


def small_formulas():
    cfg = SuiteConfig()
    return [a for a in enumerate_formulas(cfg.formula_depth) if space_size(a, cfg.bound) <= 64]


def nodes(p):
    todo = [p]
    while todo:
        q = todo.pop()
        yield q
        todo.extend(v for v in q._fields(q) if isinstance(v, Process))


def test_dual_matches_the_reference():
    formulas = enumerate_formulas(2) + formula_pool(4)
    assert len(formulas) > 10_000
    for a in formulas:
        assert dual(a) == ref_dual(a), a


def test_free_names_match_the_reference():
    size = SuiteConfig().process_size
    instances = [(ctx, p) for ctx, ps in exp_free_families(size) + exponential_families(size)
                 for p in ps] + cut_families(4)
    procs = [p for _, p in instances]
    procs += [translate_process(check(p, ctx, System.CP02)) for ctx, p in instances]
    procs += [transformer(a, "x", "x'") for a in small_formulas()]
    seen, classes = set(), set()
    for p in procs:
        for q in nodes(p):
            if id(q) not in seen:
                seen.add(id(q))
                classes.add(type(q))
                assert syntax.free_names(q) == ref_free_names(q), q
    assert classes == set(syntax._FREE_NAMES) and len(seen) > 10_000


def test_free_names_of_a_non_process_raises_type_error():
    with pytest.raises(TypeError, match="not a process"):
        syntax.free_names(Unit())


def test_l_obs_matches_the_reference():
    count = 0
    for a in small_formulas():
        for o in obs_space(a, 2):
            assert l_obs(a, o) == ref_l_obs(a, o), (a, o)
            count += 1
    assert count > 1000


@pytest.mark.parametrize("a, o", [
    (Tensor(Unit(), Unit()), STAR),
    (Bottom(), Pair(STAR, STAR)),
    (With(Unit(), Bottom()), Bag(())),
    (OfCourse(Unit()), Tag(1, STAR)),
    (Par(Unit(), Bottom()), Tag(2, STAR)),
    ("not a formula", STAR),
])
def test_l_obs_of_a_mismatched_pair_raises_as_the_reference(a, o):
    with pytest.raises(SortMismatch) as want:
        ref_l_obs(a, o)
    with pytest.raises(SortMismatch) as got:
        l_obs(a, o)
    assert str(got.value) == str(want.value)


def test_generated_code_is_named_after_its_class_and_walk():
    tables = {
        "dual": syntax._DUALS,
        "free_names": syntax._FREE_NAMES,
        "l_obs": {cls: walk for cls, (_, walk) in obs_transform._L_OBS.items()},
        # a field-less class keeps object.__init__ (test_field_less_nodes_keep_object_init)
        "__init__": {cls: cls.__init__ for cls in (*syntax._DUAL, *syntax._FREE_NAMES)
                     if dataclasses.fields(cls)},
        "format": {**syntax._FORMULA_PRINTERS, **syntax._ILL_PRINTERS, **cli._PRINTERS},
    }
    for walk, table in tables.items():
        assert len(table) >= 8
        for cls, fn in table.items():
            assert fn.__code__.co_filename == f"<generated {cls.__name__}.{walk}>"
            assert fn.__qualname__ == f"{cls.__name__}.{walk}"
    with pytest.raises(TypeError) as e:
        dual(Tensor(Unit(), Par(Bottom(), "not a formula")))
    files = [frame.filename for frame in traceback.extract_tb(e.tb)]
    assert files.count("<generated Tensor.dual>") == 1 and "<generated Par.dual>" in files
