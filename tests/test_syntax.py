import dataclasses

import pytest
from hypothesis import given, strategies as st

from cpwb import syntax
from cpwb.harness import (
    enumerate_formulas,
    enumerate_processes,
    exp_free_families,
    exponential_families,
)
from cpwb.syntax import (
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
    all_names,
    alpha_eq,
    dual,
    free_names,
    process_size,
    substitute,
)

one, bot = Unit(), Bottom()


def test_dual_table():
    assert dual(one) == bot
    assert dual(bot) == one
    assert dual(Tensor(one, bot)) == Par(bot, one)
    assert dual(Par(one, bot)) == Tensor(bot, one)
    assert dual(Plus(one, bot)) == With(bot, one)
    assert dual(With(one, bot)) == Plus(bot, one)
    assert dual(OfCourse(one)) == WhyNot(bot)
    assert dual(WhyNot(one)) == OfCourse(bot)


def test_dual_involution_example():
    a = Tensor(Plus(one, bot), OfCourse(one))
    assert dual(dual(a)) == a


formula_st = st.recursive(
    st.sampled_from([one, bot]),
    lambda sub: st.one_of(
        st.builds(Tensor, sub, sub),
        st.builds(Par, sub, sub),
        st.builds(Plus, sub, sub),
        st.builds(With, sub, sub),
        st.builds(OfCourse, sub),
        st.builds(WhyNot, sub),
    ),
    max_leaves=12,
)


@given(formula_st)
def test_dual_involution(a):
    assert dual(dual(a)) == a


def test_substitute_examples():
    assert substitute(EmptyOut("x"), "y", "x") == EmptyOut("y")
    got = substitute(In("x", "z", Fwd("z", "x")), "y", "x")
    assert got == In("y", "z", Fwd("z", "y"))


def test_substitute_capture_avoidance():
    # substituting y for x under a binder named y must rename the binder
    p = In("x", "y", Fwd("y", "x"))
    got = substitute(p, "y", "x")
    assert alpha_eq(got, In("y", "u", Fwd("u", "y")))
    assert not alpha_eq(got, In("y", "y", Fwd("y", "y")))


def test_substitute_shadowing():
    # bound occurrences are untouched
    p = Cut("x", one, EmptyOut("x"), EmptyIn("x", Inact()))
    assert substitute(p, "y", "x") == p


def test_free_names():
    assert free_names(Fwd("x", "y")) == {"x", "y"}
    assert free_names(Cut("x", one, EmptyOut("x"), EmptyIn("x", Inact()))) == set()
    p = Out("y", "x", Fwd("y", "z"), EmptyOut("x"))
    assert free_names(p) == {"x", "z"}
    assert free_names(Weak("x", WhyNot(bot), Inact())) == {"x"}
    assert free_names(Contract("x", "a", "b", Fwd("a", "b"))) == {"x"}


def test_alpha_eq_examples():
    assert alpha_eq(In("x", "y", Fwd("y", "x")), In("x", "z", Fwd("z", "x")))
    assert not alpha_eq(EmptyOut("x"), EmptyOut("y"))
    assert not alpha_eq(Fwd("x", "y"), Fwd("y", "x"))


def test_alpha_eq_congruence():
    p = In("x", "y", Fwd("y", "x"))
    q = In("x", "z", Fwd("z", "x"))
    assert alpha_eq(Case("c", p, p), Case("c", q, q))
    assert alpha_eq(Mix(p, EmptyOut("u")), Mix(q, EmptyOut("u")))
    assert not alpha_eq(Case("c", p, p), Case("d", q, q))


def test_alpha_eq_contract_binders():
    p = Contract("x", "a", "b", Fwd("a", "b"))
    q = Contract("x", "u", "v", Fwd("u", "v"))
    r = Contract("x", "u", "v", Fwd("v", "u"))
    assert alpha_eq(p, q)
    assert not alpha_eq(p, r)


process_st = st.deferred(
    lambda: st.one_of(
        st.just(Inact()),
        st.builds(Fwd, name_st, name_st),
        st.builds(EmptyOut, name_st),
        st.builds(EmptyIn, name_st, process_st),
        st.builds(In, name_st, name_st, process_st),
        st.builds(Out, name_st, name_st, process_st, process_st),
        st.builds(Select, name_st, st.sampled_from([1, 2]), process_st),
        st.builds(Case, name_st, process_st, process_st),
        st.builds(Server, name_st, name_st, process_st),
        st.builds(Client, name_st, name_st, process_st),
        st.builds(Cut, name_st, st.just(one), process_st, process_st),
        st.builds(Contract, name_st, name_st, name_st, process_st),
    )
)
name_st = st.sampled_from(["x", "y", "z", "u", "v"])


@given(process_st, name_st, name_st)
def test_substitution_roundtrip(p, x, y):
    fresh = "fresh0"
    assert alpha_eq(substitute(substitute(p, fresh, x), x, fresh), p)


@given(process_st)
def test_alpha_reflexive(p):
    assert alpha_eq(p, p)


def test_process_size():
    assert process_size(EmptyOut("x")) == 1
    assert process_size(Cut("x", one, EmptyOut("x"), EmptyIn("x", Inact()))) == 4


# --- node hashes and cached free names -------------------------------------------


def test_hash_counts_the_class():
    a, b = Plus(one, bot), OfCourse(one)
    assert hash(Unit()) != hash(Bottom())
    assert len({hash(c(a, b)) for c in (Tensor, Par, Plus, With)}) == 4
    assert hash(OfCourse(a)) != hash(WhyNot(a))
    body = Fwd("y", "z")
    assert len({hash(c("x", "y", body)) for c in (In, Server, Client)}) == 3
    assert hash(Tensor(a, b)) == hash(Tensor(Plus(one, bot), OfCourse(one)))


def test_formula_hashes_do_not_collide():
    pool = enumerate_formulas(1)
    assert len({hash(a) for a in pool}) == len(pool)


def test_nodes_stay_immutable_dataclasses():
    t = Tensor(one, bot)
    hash(t)
    assert repr(t) == "Tensor(left=Unit(), right=Bottom())"
    with pytest.raises(dataclasses.FrozenInstanceError):
        t.left = bot
    p = In("x", "y", EmptyIn("y", EmptyOut("x")))
    free_names(p)
    assert repr(p) == "In(channel='x', payload='y', body=EmptyIn(channel='y', body=EmptyOut(channel='x')))"
    match p:
        case In(x, y, EmptyIn(z, _)):
            assert (x, y, z) == ("x", "y", "y")
        case _:
            pytest.fail("match pattern lost")


def _rebuild(t):
    if isinstance(t, (Formula, Process)):
        return type(t)(*(_rebuild(getattr(t, f)) for f in t.__match_args__))
    return t


@given(process_st)
def test_equal_nodes_hash_equal_and_share_free_names(p):
    q = _rebuild(p)
    assert q is not p and q == p
    assert hash(p) == hash(q)  # p's hash cached first, q's computed afresh
    assert free_names(p) == free_names(q)
    assert {p: 1}[q] == 1


# --- the binding declaration and the walks derived from it -----------------------

PROCESS_CLASSES = [
    c for c in vars(syntax).values()
    if isinstance(c, type) and issubclass(c, Process) and c is not Process
]


def test_binders_are_name_fields_over_process_fields():
    assert len(PROCESS_CLASSES) == 14
    binding = {}
    for cls in PROCESS_CLASSES:
        types = {f.name: f.type for f in dataclasses.fields(cls)}
        binders, scope = cls.binds
        assert all(types[n] == "Name" for n in binders), cls
        assert all(types[n] == "Process" for n in scope), cls
        assert bool(binders) == bool(scope), cls
        if binders:
            binding[cls.__name__] = cls.binds
    assert binding == {
        "Cut": (("name",), ("left", "right")),
        "Out": (("payload",), ("left",)),
        "In": (("payload",), ("body",)),
        "Server": (("payload",), ("body",)),
        "Client": (("payload",), ("body",)),
        "Contract": (("left_name", "right_name"), ("body",)),
    }


def test_all_names():
    p = Out("y", "x", Cut("z", one, EmptyOut("z"), EmptyIn("z", Fwd("y", "w"))), EmptyOut("x"))
    assert all_names(p) == {"x", "y", "z", "w"}
    assert all_names(Contract("x", "a", "b", Inact())) == {"x", "a", "b"}
    assert all_names(Inact()) == set()


def test_renaming_under_each_binder():
    # substituting y for x under a binder named y renames the binder to the
    # first y<n> free in neither its scope nor {y, x}
    y_for_x = [
        # Cut: old free on the left, then on the right; y0 is taken
        (Cut("y", one, Fwd("x", "y"), EmptyIn("y", Fwd("y0", "z"))),
         Cut("y1", one, Fwd("y", "y1"), EmptyIn("y1", Fwd("y0", "z")))),
        (Cut("y", one, EmptyOut("y"), EmptyIn("y", Fwd("x", "y0"))),
         Cut("y1", one, EmptyOut("y1"), EmptyIn("y1", Fwd("y", "y0")))),
        # Out binds its payload on the left only
        (Out("y", "x", Fwd("y", "x"), Fwd("y", "x")),
         Out("y0", "y", Fwd("y0", "y"), Fwd("y", "y"))),
        (In("x", "y", Fwd("y", "x")), In("y", "y0", Fwd("y0", "y"))),
        (Server("x", "y", Fwd("y", "x")), Server("y", "y0", Fwd("y0", "y"))),
        (Client("x", "y", Fwd("y", "x")), Client("y", "y0", Fwd("y0", "y"))),
        # Contract: one binder, then both binders named y, renamed left to right
        (Contract("z", "w", "y", Mix(Fwd("y", "w"), EmptyOut("x"))),
         Contract("z", "w", "y0", Mix(Fwd("y0", "w"), EmptyOut("y")))),
        (Contract("z", "y", "y", Mix(Fwd("y", "y0"), EmptyOut("x"))),
         Contract("z", "y1", "y2", Mix(Fwd("y1", "y0"), EmptyOut("y")))),
        # a Contract binder named x shadows it; the contracted name is free
        (Contract("x", "x", "w", Fwd("x", "w")), Contract("y", "x", "w", Fwd("x", "w"))),
        (Contract("x", "w", "x", Fwd("x", "w")), Contract("y", "w", "x", Fwd("x", "w"))),
    ]
    for p, want in y_for_x:
        assert substitute(p, "y", "x") == want, p


ENUMERATED = [
    p
    for _, ps in exponential_families(5) + exp_free_families(5)
    for p in ps
] + enumerate_processes({"x": one, "y": bot}, 5, cut_formulas=(one, OfCourse(one)))
NAMES = st.sampled_from(["x", "y", "z", "v", "v0", "v1", "c", "c0"])


@given(st.sampled_from(ENUMERATED), NAMES, NAMES)
def test_substitution_keeps_size_and_moves_one_free_name(p, new, old):
    q = substitute(p, new, old)
    assert process_size(q) == process_size(p)
    fv = free_names(p)
    assert free_names(q) == ((fv - {old}) | {new} if old in fv else fv)


@given(st.sampled_from(ENUMERATED), NAMES)
def test_renaming_to_a_new_name_and_back(p, x):
    f = "f"
    while f in all_names(p):
        f += "'"
    assert alpha_eq(substitute(substitute(p, f, x), x, f), p)


# --- constructors and the dual table ---------------------------------------------


def _concrete(base):
    """The node classes below ``base`` that ``cpwb.syntax`` exports."""
    todo, found = [base], set()
    while todo:
        for sub in todo.pop().__subclasses__():
            todo.append(sub)
            if vars(syntax).get(sub.__name__) is sub:
                found.add(sub)
    return found


def test_every_formula_class_has_a_dual():
    classes = _concrete(Formula)
    assert len(classes) == 8
    assert classes == set(syntax._DUAL)
    for cls in classes:
        a = cls(*[Unit()] * len(dataclasses.fields(cls)))
        assert type(dual(a)) is syntax._DUAL[cls]
        assert dual(dual(a)) == a


def test_dual_of_a_non_formula_raises_type_error():
    for bad in (Inact(), syntax.IUnit(), "1", None):
        with pytest.raises(TypeError, match="not a formula"):
            dual(bad)


def test_keyword_construction_equals_positional():
    p, q = Inact(), EmptyOut("x")
    pos = Out("y", "x", p, q)
    kw = Out(payload="y", channel="x", left=p, right=q)
    mixed = Out("y", "x", right=q, left=p)
    for node in (kw, mixed):
        assert node == pos and hash(node) == hash(pos) and repr(node) == repr(pos)
    assert Tensor(right=bot, left=one) == Tensor(one, bot)
    with pytest.raises(TypeError):
        Out("y", "x", p)
    with pytest.raises(TypeError):
        Tensor(one, bot, left=one)


def test_every_field_of_every_node_stays_frozen():
    for cls in _concrete(Formula) | _concrete(Process):
        fs = dataclasses.fields(cls)
        node = cls(*[f"v{i}" for i in range(len(fs))])
        for f in fs:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(node, f.name, "w")
            assert getattr(node, f.name) != "w"


def test_each_node_class_is_built_once():
    # the slotted class is built in _node, so no first draft of a constructor
    # class stays alive beside it once the collector has run
    import gc

    from cpwb import oracle
    from cpwb.typing import CtxTree

    gc.collect()  # each class statement's draft, which _node replaced, lives until collected
    bases = {Process: 14, Formula: 8, oracle.Configuration: 6, CtxTree: 3}
    own = [c for base in bases for c in base.__subclasses__() if c.__module__ == base.__module__]
    for base, count in bases.items():
        assert sum(issubclass(c, base) for c in own) == count, base
    for cls in own:
        assert dataclasses.is_dataclass(cls) and cls.__dictoffset__ == 0  # no instance dict
        assert cls.__slots__ == tuple(f.name for f in dataclasses.fields(cls))


def test_a_new_attribute_is_refused_as_frozen():
    for node in (Tensor(one, one), Unit(), Out("y", "x", Inact(), EmptyOut("x"))):
        with pytest.raises(dataclasses.FrozenInstanceError):
            node.foo = 1
        with pytest.raises(dataclasses.FrozenInstanceError):
            del node.foo


def test_nodes_copy_and_pickle_through_their_constructor():
    import copy
    import pickle

    p = Out("y", "x", Fwd("y", "u"), Weak("w", WhyNot(Tensor(one, bot)), EmptyOut("x")))
    for node in (p, Tensor(one, OfCourse(bot)), Unit()):
        for clone in (pickle.loads(pickle.dumps(node)), copy.copy(node), copy.deepcopy(node)):
            assert clone == node and hash(clone) == hash(node) and type(clone) is type(node)


def test_every_term_class_is_a_slotted_node():
    # formulas, processes, configurations and context trees are one term
    # representation: no instance dict, and rebuilt from their fields
    import copy
    import gc
    import pickle

    from cpwb import oracle
    from cpwb.typing import CtxTree, Hole, KCut, KMix, System, check

    syntactic = _concrete(Formula) | _concrete(syntax.IllFormula) | _concrete(Process)
    proc = oracle.CProc(check(EmptyOut("x"), {"x": one}, System.CP))
    terms = [cls(*[f"v{i}" for i in range(len(dataclasses.fields(cls)))]) for cls in syntactic]
    terms += [
        oracle.CZero(), proc, oracle.CCut("x", one, proc, oracle.CZero()),
        oracle.CPar(oracle.CZero(), proc), oracle.CWeak("w", WhyNot(bot), oracle.CZero()),
        oracle.CCon("a", "b", oracle.CZero()),
        Hole(), KCut("x", one, Hole(), EmptyIn("x", Inact()), (("x", bot),)),
        KMix(Hole(), EmptyOut("y"), (("y", one),)),
    ]
    gc.collect()  # each class statement's draft, which _node replaced, lives until collected
    trees = set(oracle.Configuration.__subclasses__()) | set(CtxTree.__subclasses__())
    assert {type(t) for t in terms} == syntactic | trees and len(trees) == 9
    for t in terms:
        assert not hasattr(t, "__dict__"), type(t)
        assert type(t)(*t._fields(t)) == t
        for clone in (copy.copy(t), pickle.loads(pickle.dumps(t))):
            assert clone == t and type(clone) is type(t)


def test_field_less_nodes_keep_object_init():
    import copy
    import pickle

    nodes = [c for c in _concrete(syntax._Node) if dataclasses.is_dataclass(c)]
    bare = [c for c in nodes if not dataclasses.fields(c)]
    assert {c.__name__ for c in bare} == {"Unit", "Bottom", "Inact", "IUnit"}
    for cls in bare:
        assert cls.__init__ is object.__init__
        with pytest.raises(TypeError):
            cls(1)
        node = cls()
        assert node == cls() and node is not cls()
        assert hash(node) == hash((cls.__name__, ()))
        assert all(node != other() for other in bare if other is not cls)
        clone = pickle.loads(pickle.dumps(node))
        assert clone == node and hash(clone) == hash(node) and type(clone) is cls
        assert copy.deepcopy(node) == node
