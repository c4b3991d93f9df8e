from functools import reduce

import pytest

from cpwb.denotations import Pair, STAR, Tag, bag, mk_tuple
from cpwb.harness import enumerate_processes
from cpwb.oracle import (
    CCon,
    CCut,
    CPar,
    CProc,
    CWeak,
    CZero,
    CutTypeMismatch,
    DepthExceeded,
    OpenConfiguration,
    adequacy_check,
    check_config,
    denote_config,
    observe,
)
from cpwb import oracle
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
    OfCourse,
    Out,
    Par,
    Plus,
    Select,
    Server,
    Tensor,
    Unit,
    Weak,
    WhyNot,
    With,
    dual,
)
from cpwb.typing import System, check

one, bot = Unit(), Bottom()


def closed_in(x):
    return EmptyIn(x, Inact())


def proc(p, ctx):
    return CProc(check(p, ctx, System.CP02))


def test_check_config_examples():
    assert check_config(CZero()) == ({}, {})
    assert check_config(proc(EmptyOut("x"), {"x": one})) == ({"x": one}, {})
    c = CCut("x", one, proc(EmptyOut("x"), {"x": one}), proc(EmptyIn("x", Inact()), {"x": bot}))
    assert check_config(c) == ({}, {"x": one})


def test_check_config_errors():
    with pytest.raises(CutTypeMismatch):
        check_config(
            CCut("x", one, proc(EmptyOut("x"), {"x": one}), proc(EmptyOut("x"), {"x": one}))
        )
    with pytest.raises(OpenConfiguration):
        observe(proc(EmptyOut("x"), {"x": one}))


def test_configuration_contraction_of_a_name_with_itself_is_rejected():
    # con a<a,a> would drop a from the free context and read as closed
    c = CCon("a", "a", proc(Client("a", "u", EmptyIn("u", Inact())), {"a": WhyNot(bot)}))
    with pytest.raises(CutTypeMismatch, match="contraction of a with itself"):
        check_config(c)
    with pytest.raises(CutTypeMismatch):
        adequacy_check(c, 2)


def test_negative_bound_is_rejected():
    c = CCut("x", one, proc(EmptyOut("x"), {"x": one}), proc(closed_in("x"), {"x": bot}))
    with pytest.raises(ValueError):
        observe(c, -1)
    with pytest.raises(ValueError):
        denote_config(c, -1)


def test_observe_zero():
    assert observe(CZero()) == frozenset({()})


def test_observe_unit_cut():
    c = CCut("x", one, proc(EmptyOut("x"), {"x": one}), proc(EmptyIn("x", Inact()), {"x": bot}))
    assert observe(c) == frozenset({mk_tuple({"x": STAR})})
    assert adequacy_check(c)


def test_observe_link_relates_names():
    df = proc(Fwd("x", "y"), {"x": bot, "y": one})
    inner = CCut("x", bot, df, proc(EmptyOut("x"), {"x": one}))
    outer = CCut("y", one, inner, proc(closed_in("y"), {"y": bot}))
    assert observe(outer) == frozenset({mk_tuple({"x": STAR, "y": STAR})})
    a = Plus(one, one)
    df2 = proc(Fwd("x", "y"), {"x": dual(a), "y": a})
    inner2 = CCut("x", dual(a), df2, proc(Select("x", 2, EmptyOut("x")), {"x": a}))
    outer2 = CCut(
        "y",
        a,
        inner2,
        proc(Case("y", closed_in("y"), closed_in("y")), {"y": dual(a)}),
    )
    got = observe(outer2)
    assert got == frozenset({mk_tuple({"x": Tag(2, STAR), "y": Tag(2, STAR)})})


def test_observe_tensor():
    p = Out("y", "x", EmptyOut("y"), EmptyOut("x"))
    q = In("x", "y", EmptyIn("y", EmptyIn("x", Inact())))
    c = CCut(
        "x",
        Tensor(one, one),
        proc(p, {"x": Tensor(one, one)}),
        proc(q, {"x": Par(bot, bot)}),
    )
    assert observe(c) == frozenset({mk_tuple({"x": Pair(STAR, STAR)})})
    assert adequacy_check(c)


def test_observe_server_contraction():
    s = Server("x", "y", EmptyOut("y"))
    cl = Contract(
        "x", "a", "b", Client("a", "u", EmptyIn("u", Client("b", "v", EmptyIn("v", Inact()))))
    )
    c = CCut("x", OfCourse(one), proc(s, {"x": OfCourse(one)}), proc(cl, {"x": WhyNot(bot)}))
    assert observe(c, 2) == frozenset({mk_tuple({"x": bag([STAR, STAR])})})
    assert observe(c, 1) == frozenset()
    assert adequacy_check(c, 2)
    assert adequacy_check(c, 1)


def test_observe_weakening():
    s = Server("x", "y", EmptyOut("y"))
    w = Weak("x", WhyNot(bot), Inact())
    c = CCut("x", OfCourse(one), proc(s, {"x": OfCourse(one)}), proc(w, {"x": WhyNot(bot)}))
    assert observe(c) == frozenset({mk_tuple({"x": bag()})})
    assert adequacy_check(c)


def test_config_level_weak_and_con():
    s = Server("x", "y", EmptyOut("y"))
    inner = CWeak("x", WhyNot(bot), CZero())
    c = CCut("x", OfCourse(one), proc(s, {"x": OfCourse(one)}), inner)
    assert observe(c) == frozenset({mk_tuple({"x": bag()})})
    assert adequacy_check(c)

    cl = Client("a", "u", EmptyIn("u", Inact()))
    cl2 = Client("b", "v", EmptyIn("v", Inact()))
    two = CPar(proc(cl, {"a": WhyNot(bot)}), proc(cl2, {"b": WhyNot(bot)}))
    merged = CCon("a", "b", two)
    srv = proc(Server("a", "y", EmptyOut("y")), {"a": OfCourse(one)})
    c2 = CCut("a", OfCourse(one), srv, merged)
    assert observe(c2, 2) == frozenset({mk_tuple({"a": bag([STAR, STAR])})})
    assert adequacy_check(c2, 2)


def test_contraction_is_built_without_rechecking(monkeypatch):
    from cpwb import typing
    from cpwb.cli import parse_config

    c = parse_config(
        "cut a:!1 ({ !a(y).y[] @ a:!1 } | "
        "con a<a,b>. { ?a[u].u().?b[v].v().0 @ a:?bot, b:?bot })"
    )
    calls = []
    real = typing._check

    def counting(p, ctx, sys):
        calls.append(p)
        return real(p, ctx, sys)

    monkeypatch.setattr(typing, "_check", counting)
    assert observe(c, 1) == frozenset()
    assert observe(c, 2) == frozenset({mk_tuple({"a": bag([STAR, STAR])})})
    assert calls == []


def test_observe_invariant_under_cut_permutation():
    p = EmptyOut("x")
    q = EmptyIn("x", EmptyOut("y"))
    r = EmptyIn("y", Inact())
    c1 = CCut("y", one, CCut("x", one, proc(p, {"x": one}), proc(q, {"x": bot, "y": one})), proc(r, {"y": bot}))
    c2 = CCut("x", one, proc(p, {"x": one}), CCut("y", one, proc(q, {"x": bot, "y": one}), proc(r, {"y": bot})))
    c3 = CCut("y", one, CCut("x", bot, proc(q, {"x": bot, "y": one}), proc(p, {"x": one})), proc(r, {"y": bot}))
    assert observe(c1) == observe(c2) == observe(c3)


def test_observe_mix_parallel():
    c = CPar(
        CCut("x", one, proc(EmptyOut("x"), {"x": one}), proc(EmptyIn("x", Inact()), {"x": bot})),
        CZero(),
    )
    assert observe(c) == frozenset({mk_tuple({"x": STAR})})


def test_process_cut_is_hidden():
    p = Cut("x", one, EmptyOut("x"), EmptyIn("x", EmptyOut("y")))
    c = CCut("y", one, proc(p, {"y": one}), proc(EmptyIn("y", Inact()), {"y": bot}))
    assert observe(c) == frozenset({mk_tuple({"y": STAR})})


def test_random_nested_cut_chains_are_adequate():
    import random

    rng = random.Random(11)
    t2 = Plus(one, one)
    mids = enumerate_processes({"x": bot, "y": one}, 4, System.CP02, markers=False)
    mids += enumerate_processes({"x": With(bot, bot), "y": t2}, 6, System.CP02, markers=False)
    heads = {
        one: enumerate_processes({"x": one}, 4, System.CP02, markers=False),
        t2: enumerate_processes({"x": t2}, 4, System.CP02, markers=False),
    }
    tails = {
        one: enumerate_processes({"y": bot}, 4, System.CP02, markers=False),
        t2: enumerate_processes({"y": With(bot, bot)}, 6, System.CP02, markers=False),
    }
    count = 0
    for _ in range(60):
        a = rng.choice((one, t2))
        head = rng.choice(heads[a])
        mid = rng.choice([m for m in mids])
        try:
            dm = check(mid, {"x": dual(a), "y": a}, System.CP02)
        except Exception:
            continue
        tail = rng.choice(tails[a])
        c = CCut(
            "y",
            a,
            CCut("x", a, proc(head, {"x": a}), CProc(dm)),
            proc(tail, {"y": dual(a)}),
        )
        assert adequacy_check(c, 2)
        count += 1
    assert count >= 20


def test_depth_exceeded():
    p = Cut("x", one, EmptyOut("x"), EmptyIn("x", EmptyOut("y")))
    c = CCut("y", one, proc(p, {"y": one}), proc(EmptyIn("y", Inact()), {"y": bot}))
    with pytest.raises(DepthExceeded):
        observe(c, 2, depth=1)


def test_deep_configurations_need_no_python_stack():
    # a CPar 5,000 deep built through the API, of empty configurations and of
    # closed process-level cut pairs: the configuration check, the soup build
    # and the configuration denotation each walk it over an explicit stack
    pair = proc(Cut("x", one, EmptyOut("x"), closed_in("x")), {})
    for leaf, steps in ((CZero(), 0), (pair, 5000)):
        c = reduce(CPar, [leaf] * 5000)
        assert check_config(c) == ({}, {})
        assert observe(c, depth=steps) == frozenset({()})
        assert adequacy_check(c, depth=steps)
    with pytest.raises(DepthExceeded):
        observe(c, depth=4999)


def test_one_path_takes_three_steps_per_copy(monkeypatch):
    # k independent copies of a three-step cut: the search follows one
    # reduction sequence, so it takes exactly 3k steps and looks for a redex
    # once per step, not once per interleaved state
    looked = []
    real = oracle._redexes

    def counting(soup):
        looked.append(soup)
        return real(soup)

    monkeypatch.setattr(oracle, "_redexes", counting)
    a = Tensor(one, one)
    for k in (2, 3):
        copies = []
        for i in range(k):
            x = f"x{i}"
            p = Out("y", x, EmptyOut("y"), EmptyOut(x))
            q = In(x, "y", EmptyIn("y", EmptyIn(x, Inact())))
            copies.append(CCut(x, a, proc(p, {x: a}), proc(q, {x: dual(a)})))
        c = reduce(CPar, copies)
        looked.clear()
        got = observe(c)
        assert len(looked) == 3 * k
        assert got == frozenset({mk_tuple({f"x{i}": Pair(STAR, STAR) for i in range(k)})})
        assert observe(c, depth=3 * k) == got
        with pytest.raises(DepthExceeded):
            observe(c, depth=3 * k - 1)
        assert adequacy_check(c)


def test_last_redex_first_observes_the_same(monkeypatch):
    # reduction is confluent, so firing the last enabled redex of each soup
    # instead of the first must not change any observation: over the clients
    # of test_adequacy_over_exponentials and a configuration with con, weak
    # and par
    a, b = WhyNot(bot), OfCourse(one)
    srv = proc(Server("x", "y", EmptyOut("y")), {"x": b})
    clients = enumerate_processes({"x": a}, 7, System.CP02)
    assert len(clients) == 132
    configs = [CCut("x", b, srv, proc(q, {"x": a})) for q in clients]
    uses = CPar(
        proc(Client("a", "u", EmptyIn("u", Inact())), {"a": a}),
        CPar(
            proc(Contract("b", "c", "d", Client("c", "u", EmptyIn("u", Weak("d", a, Inact())))),
                 {"b": a}),
            CWeak("e", a, CZero()),
        ),
    )
    merged = CCon("a", "e", CCon("a", "b", uses))
    configs.append(CCut("a", b, proc(Server("a", "y", EmptyOut("y")), {"a": b}), merged))
    first = {(c, k): observe(c, k) for c in configs for k in (0, 1, 2)}
    assert first[configs[-1], 2] == frozenset({mk_tuple({"a": bag([STAR, STAR])})})

    reordered = []
    real = oracle._redexes

    def last_first(soup):
        found = list(real(soup))
        reordered.append(len(found) > 1)
        return reversed(found)

    monkeypatch.setattr(oracle, "_redexes", last_first)
    for (c, k), got in first.items():
        assert observe(c, k) == got, (k, c)
    assert any(reordered)


def test_adequacy_over_exponentials():
    # replication, weakening and contraction of one server against every
    # small client, at every bound up to the default
    bang, whynot = OfCourse(one), WhyNot(bot)
    srv = proc(Server("x", "y", EmptyOut("y")), {"x": bang})
    clients = enumerate_processes({"x": whynot}, 7, System.CP02)
    assert len(clients) == 132
    for bound in (0, 1, 2):
        for q in clients:
            c = CCut("x", bang, srv, proc(q, {"x": whynot}))
            assert adequacy_check(c, bound), (bound, q)


def test_server_duplication_contracts_carried_names():
    # a replicated server whose body is a client of another server: splitting
    # it for two uses must also split (and re-merge) the carried ?-name
    srv = Server("x", "y", Client("z", "u", EmptyIn("u", EmptyOut("y"))))
    other = Server("z", "w", EmptyOut("w"))
    cl = Contract(
        "x", "a", "b", Client("a", "u", EmptyIn("u", Client("b", "v", EmptyIn("v", Inact()))))
    )
    inner = CCut(
        "x",
        OfCourse(one),
        proc(srv, {"x": OfCourse(one), "z": WhyNot(bot)}),
        proc(cl, {"x": WhyNot(bot)}),
    )
    c = CCut("z", WhyNot(bot), inner, proc(other, {"z": OfCourse(one)}))
    expected = frozenset({mk_tuple({"x": bag([STAR, STAR]), "z": bag([STAR, STAR])})})
    assert observe(c, 2) == expected
    assert adequacy_check(c, 2)


def test_server_weakening_weakens_carried_names():
    srv = Server("x", "y", Client("z", "u", EmptyIn("u", EmptyOut("y"))))
    other = Server("z", "w", EmptyOut("w"))
    wk = Weak("x", WhyNot(bot), Inact())
    inner = CCut(
        "x",
        OfCourse(one),
        proc(srv, {"x": OfCourse(one), "z": WhyNot(bot)}),
        proc(wk, {"x": WhyNot(bot)}),
    )
    c = CCut("z", WhyNot(bot), inner, proc(other, {"z": OfCourse(one)}))
    assert observe(c, 2) == frozenset({mk_tuple({"x": bag(), "z": bag()})})
    assert adequacy_check(c, 2)


def test_nested_server_adequacy():
    srv = Server("m", "y", Server("y", "z", EmptyOut("z")))
    cl = Client("m", "u", Client("u", "v", EmptyIn("v", Inact())))
    c = CCut(
        "m",
        OfCourse(OfCourse(one)),
        proc(srv, {"m": OfCourse(OfCourse(one))}),
        proc(cl, {"m": WhyNot(WhyNot(bot))}),
    )
    assert adequacy_check(c, 2)


def test_observed_tuples_are_well_sorted():
    from cpwb.denotations import well_sorted

    t2 = Plus(one, one)
    for a in (one, Tensor(t2, bot), Par(t2, bot), OfCourse(one)):
        lefts = enumerate_processes({"x": a}, 5, System.CP02, markers=False)
        rights = enumerate_processes({"x": dual(a)}, 7, System.CP02)
        for p in lefts[:3]:
            for q in rights[:3]:
                c = CCut("x", a, proc(p, {"x": a}), proc(q, {"x": dual(a)}))
                _, theta_ctx = check_config(c)
                for t in observe(c, 2):
                    assert set(n for n, _ in t) == set(theta_ctx)
                    for n, o in t:
                        assert well_sorted(o, theta_ctx[n])


def test_adequacy_small_sweep():
    t2 = Plus(one, one)
    types = [one, bot, t2, Tensor(one, bot), With(one, bot), Par(t2, bot), Plus(t2, t2)]
    count = 0
    for a in types:
        lefts = enumerate_processes({"x": a}, 5, System.CP02, markers=False)
        rights = enumerate_processes({"x": dual(a)}, 7, System.CP02, markers=False)
        for p in lefts[:6]:
            for q in rights[:6]:
                c = CCut("x", a, proc(p, {"x": a}), proc(q, {"x": dual(a)}))
                assert adequacy_check(c, 2), (p, q)
                count += 1
    assert count >= 12


def con_weak_sweep():
    """A `!1` server and a `!(1 + 1)` server, each cut against every
    configuration-level contraction of two small clients, against each
    client contracted with a configuration-level weakening, and against a
    weakening alone."""
    configs = []
    t2 = Plus(one, one)
    for a, bodies, size in ((one, [EmptyOut("y")], 5),
                            (t2, [Select("y", 1, EmptyOut("y")), Select("y", 2, EmptyOut("y"))], 6)):
        bang, whynot = OfCourse(a), WhyNot(dual(a))
        firsts = [proc(q, {"x": whynot}) for q in enumerate_processes({"x": whynot}, size, System.CP02)]
        seconds = [proc(q, {"w": whynot}) for q in enumerate_processes({"w": whynot}, size, System.CP02)]
        users = [CCon("x", "w", CPar(p, q)) for p in firsts for q in seconds]
        users += [CCon("x", "w", CPar(p, CWeak("w", whynot, CZero()))) for p in firsts]
        users.append(CWeak("x", whynot, CZero()))
        for body in bodies:
            srv = proc(Server("x", "y", body), {"x": bang})
            configs += [CCut("x", bang, srv, u) for u in users]
    return configs


def test_adequacy_of_configuration_weak_and_con():
    # the server is replicated through a configuration contraction and
    # dropped by a configuration weakening: the readback's bag and bounded
    # union steps, at every bound up to the default
    configs = con_weak_sweep()
    assert len(configs) == 10 * 10 + 10 + 1 + 2 * (20 * 20 + 20 + 1)
    past_bound = 0
    for c in configs:
        got = {k: observe(c, k) for k in (0, 1, 2)}
        for k in (0, 1, 2):
            assert got[k] == denote_config(c, k).tuples, (k, c)
        # two uses merge into a bag of two, which K = 1 does not allow
        past_bound += bool(got[2]) and not got[1]
    assert past_bound > 0
    dropped = [c for c in configs if isinstance(c.right, CWeak)]
    assert len(dropped) == 3
    for c in dropped:
        for k in (0, 1, 2):
            assert observe(c, k) == frozenset({mk_tuple({"x": bag()})})


def test_adequacy_check_checks_the_configuration_once(monkeypatch):
    calls = []
    real = oracle.check_config

    def counting(c):
        calls.append(c)
        return real(c)

    monkeypatch.setattr(oracle, "check_config", counting)
    c = CCut("x", one, proc(EmptyOut("x"), {"x": one}), proc(closed_in("x"), {"x": bot}))
    assert adequacy_check(c)
    assert calls == [c]
    with pytest.raises(OpenConfiguration):
        adequacy_check(proc(EmptyOut("x"), {"x": one}))


def test_a_long_configuration_product_stays_linear_in_memory(monkeypatch):
    # reduce(CPar, ...) over 2,000 observable cut pairs: check_config merges
    # the smaller side into the larger, and no plan of a wide relation is
    # cached, so neither keeps one ever longer copy per level
    from cpwb import denotations

    cached_widths = []
    cached = denotations._cached_plan

    def recording(src, *rest):
        cached_widths.append(len(src))
        return cached(src, *rest)

    monkeypatch.setattr(denotations, "_cached_plan", recording)

    pairs = [
        CCut(f"x{i}", one, proc(EmptyOut(f"x{i}"), {f"x{i}": one}),
             proc(closed_in(f"x{i}"), {f"x{i}": bot}))
        for i in range(2000)
    ]
    c = reduce(CPar, pairs)
    gamma, theta = check_config(c)
    assert gamma == {} and theta == {f"x{i}": one for i in range(2000)}
    assert adequacy_check(c)
    assert max(cached_widths) <= denotations._CACHED_WIDTH < 2000
    assert denote_config(c).tuples == {mk_tuple({f"x{i}": STAR for i in range(2000)})}
    with pytest.raises(CutTypeMismatch, match=r"names occur twice in a configuration: \['x7'\]"):
        check_config(CPar(c, pairs[7]))


def test_a_par_spine_is_denoted_by_one_product(monkeypatch):
    # n observable cut pairs under one CPar spine, left-deep, right-deep or
    # balanced: the spine is one product of n relations, so the columns
    # planned in all grow linearly in n, not by one ever wider row per level
    from cpwb import denotations

    planned, products = [], []
    real_plan, real_product = denotations._plan, oracle.product_all

    def plan(src, *rest):
        planned.append(len(src))
        return real_plan(src, *rest)

    def product_all(rels):
        products.append(len(rels))
        return real_product(rels)

    monkeypatch.setattr(denotations, "_plan", plan)
    monkeypatch.setattr(oracle, "product_all", product_all)
    n = 1000
    pairs = [
        CCut(f"x{i}", one, proc(EmptyOut(f"x{i}"), {f"x{i}": one}),
             proc(closed_in(f"x{i}"), {f"x{i}": bot}))
        for i in range(n)
    ]

    def balanced(cs):
        half = len(cs) // 2
        return cs[0] if len(cs) == 1 else CPar(balanced(cs[:half]), balanced(cs[half:]))

    want = frozenset({mk_tuple({f"x{i}": STAR for i in range(n)})})
    right_deep = reduce(lambda r, l: CPar(l, r), reversed(pairs))
    for c in (reduce(CPar, pairs), right_deep, balanced(pairs)):
        planned.clear()
        products.clear()
        assert adequacy_check(c, depth=n)
        assert products == [n]
        assert sum(planned) <= 4 * n
        assert denote_config(c).tuples == want
    # a spine ends at any other node: here, at each cut
    c = CCut("x0", one, CPar(pairs[1], proc(EmptyOut("x0"), {"x0": one})),
             CPar(proc(closed_in("x0"), {"x0": bot}), pairs[2]))
    products.clear()
    assert adequacy_check(c) and products == [2, 2]


def test_every_class_has_one_case_in_each_table():
    # a node class without a case fails here, not in a search that falls
    # through to the wrong case
    import ast
    import inspect

    from cpwb import syntax

    processes = {c for c in vars(syntax).values() if isinstance(c, type)
                 and issubclass(c, syntax.Process) and c is not syntax.Process}
    configurations = set(oracle.Configuration.__subclasses__())
    assert len(processes) == 14 and len(configurations) == 6
    assert set(oracle._GROW) == processes | configurations
    assert set(oracle._CHECK) == set(oracle._DENOTE) == configurations
    # each communication step has exactly one case, that of its receiver
    receivers = [r for _, r in oracle._STEPS]
    assert len(set(receivers)) == len(receivers) == len(oracle._COMM)
    assert set(receivers) == set(oracle._COMM)
    # and no walk of the oracle chooses its case by a structural match
    tree = ast.parse(inspect.getsource(oracle))
    assert not any(isinstance(node, ast.Match) for node in ast.walk(tree))
