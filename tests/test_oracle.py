import itertools
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
from cpwb.typing import CPTypeError, System, check

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


def _fwd_chain(k):
    # x0[] linked through k forwarders to xk().0, as nested cuts at type 1
    p = closed_in(f"x{k}")
    for i in reversed(range(k)):
        p = Cut(f"x{i + 1}", one, Fwd(f"x{i}", f"x{i + 1}"), p)
    return Cut("x0", one, EmptyOut("x0"), p)


# The sha256, at each bound, of the JSON observations of the corpus of
# test_pinned_observations_and_step_counts, one line per configuration.
PINNED_OBSERVATIONS = {
    0: "1c07a696846e919b7b0d98681b5559f50e3fca068a64bb46885993169f0a5f0a",
    1: "4e6b930a5edcc966973e3f5ccbe3275792a4801697c9ced5a8f6efbbde6f4477",
    2: "5f87d24982de76a918ae82b4fe26a8329b7394515636f07551cfbc80aed1dd03",
}
# The reduction steps of each closed cut of cut_families(4), then of each
# ?bot client cut against !x(y).y[], one digit per configuration.
PINNED_CUT_STEPS = "11223332233344444444444421442144"
PINNED_CLIENT_STEPS = (
    "215546666665466436665666566666666656665666666666566656666666665666"
    "555466666654664366656665666666666566656666666665666566666666656665"
)
CHAIN_LINKS = (1, 2, 5, 20, 50)


def test_pinned_observations_and_step_counts(monkeypatch):
    # the observations and the step counts of 169 closed configurations,
    # pinned: the closed cuts of cut_families(4) (half of them link
    # forwarders), the !1 server against every ?bot client of size <= 7,
    # and chains of forwarders. Each takes exactly its pinned number of
    # steps, and firing the last enabled redex first observes the same
    import hashlib

    from cpwb.denotations import dumps, tuples_to_json
    from cpwb.harness import cut_families

    bang, whynot = OfCourse(one), WhyNot(bot)
    srv = proc(Server("x", "y", EmptyOut("y")), {"x": bang})
    corpus = [proc(p, {}) for ctx, p in cut_families(4) if not ctx]
    corpus += [CCut("x", bang, srv, proc(q, {"x": whynot}))
               for q in enumerate_processes({"x": whynot}, 7, System.CP02)]
    corpus += [proc(_fwd_chain(k), {}) for k in CHAIN_LINKS]
    steps = [*map(int, PINNED_CUT_STEPS + PINNED_CLIENT_STEPS)] + [k + 1 for k in CHAIN_LINKS]
    assert len(corpus) == len(steps) == 169

    def digest(k):
        lines = "\n".join(dumps(tuples_to_json(observe(c, k))) for c in corpus)
        return hashlib.sha256(lines.encode()).hexdigest()

    assert {k: digest(k) for k in PINNED_OBSERVATIONS} == PINNED_OBSERVATIONS
    for c, n in zip(corpus, steps):
        observe(c, depth=n)
        with pytest.raises(DepthExceeded):
            observe(c, depth=n - 1)

    reordered = []
    real = oracle._redexes

    def last_first(soup):
        found = list(real(soup))
        reordered.append(len(found) > 1)
        return reversed(found)

    monkeypatch.setattr(oracle, "_redexes", last_first)
    assert {k: digest(k) for k in PINNED_OBSERVATIONS} == PINNED_OBSERVATIONS
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


def par_spines():
    """``CPar`` spines of 3 and 4 parts, left-deep and right-deep: part i
    is an observable cut on ``x<i>`` or an open forwarder on ``u<i>, v<i>``."""
    t2 = Plus(one, one)
    parts = []
    for i, a in enumerate((one, t2, Tensor(one, bot), OfCourse(one))):
        x, u, v = f"x{i}", f"u{i}", f"v{i}"
        lefts = enumerate_processes({x: a}, 5, System.CP02, markers=False)[:2]
        rights = enumerate_processes({x: dual(a)}, 5, System.CP02, markers=False)[:2]
        parts.append([CCut(x, a, proc(p, {x: a}), proc(q, {x: dual(a)})) for p in lefts for q in rights])
        parts[-1].append(proc(Fwd(u, v), {u: t2, v: dual(t2)}))
    out = []
    for n in (3, 4):
        for cs in itertools.product(*parts[:n]):
            out += [reduce(CPar, cs), reduce(lambda r, l: CPar(l, r), reversed(cs))]
    return out


# The sha256 of the JSON configuration denotations of
# test_configuration_denotation_output_is_pinned.
CONFIG_DENOTATIONS_SHA256 = "d7405c468a8a810609a007f27aab75482944a2586c38fe7165cae51a72abb11f"


def test_configuration_denotation_output_is_pinned():
    # the byte-stable JSON of the configuration denotations of the
    # weakening/contraction sweep and of par spines at K = 0, 1, 2, one line
    # each: the kept cut column, the spine product, CCon and CWeak
    import hashlib

    from cpwb.denotations import dumps, tuples_to_json

    configs = con_weak_sweep() + par_spines()
    digest, n = hashlib.sha256(), 0
    for c in configs:
        for k in (0, 1, 2):
            digest.update(dumps(tuples_to_json(denote_config(c, k).tuples)).encode() + b"\n")
            n += 1
    assert n == 3 * (953 + 108)
    assert digest.hexdigest() == CONFIG_DENOTATIONS_SHA256


def test_one_server_cut_against_many_clients_is_served_from_its_kept_relation(monkeypatch):
    from cpwb import denotations

    bang, whynot = OfCourse(one), WhyNot(bot)
    server = check(Server("x", "y", EmptyOut("y")), {"x": bang}, System.CP02)
    clients = enumerate_processes({"x": whynot}, 6, System.CP02)
    served = []
    real = denotations._RULES["bang"]

    def counting(d, p, bound):
        served.append(d is server)
        return real(d, p, bound)

    monkeypatch.setitem(denotations._RULES, "bang", counting)
    runs = []
    for q in clients:
        before = served.count(True)
        assert adequacy_check(CCut("x", bang, CProc(server), proc(q, {"x": whynot})))
        runs.append(served.count(True) - before)
    # the first call marks the server, the second keeps its relation, and
    # the bang rule runs once across the other calls: not at all
    assert len(clients) == 32 and runs == [1, 1] + [0] * 30


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
    real_plan, real_product = denotations._plan, oracle.product

    def plan(src, *rest):
        planned.append(len(src))
        return real_plan(src, *rest)

    def product(rels):
        products.append(len(rels))
        return real_product(rels)

    monkeypatch.setattr(denotations, "_plan", plan)
    monkeypatch.setattr(oracle, "product", product)
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
    # each communication step has exactly one case, keyed by its (sender,
    # receiver) kinds: every leaf kind takes part in a step, each receiver
    # kind has one sender kind, and no pair is a step both ways round
    acting = {c for c, case in oracle._GROW.items() if case is oracle._acting}
    assert {kind for step in oracle._COMM for kind in step} == acting | {"weak", "con"}
    receivers = [r for _, r in oracle._COMM]
    assert len(set(receivers)) == len(receivers)
    assert not any((r, s) in oracle._COMM for s, r in oracle._COMM)
    # and no walk of the oracle chooses its case by a structural match
    tree = ast.parse(inspect.getsource(oracle))
    assert not any(isinstance(node, ast.Match) for node in ast.walk(tree))


@pytest.mark.parametrize("config, message", [
    (CCut("x", one, CZero(), CZero()), "left side must offer x at 1"),
    (CWeak("x", one, CZero()), "configuration weakening needs a ?-type, got 1"),
    (CWeak("x", WhyNot(bot), proc(EmptyOut("x"), {"x": one})), "weakened name x already in use"),
    (CCon("x", "y", CZero()), "configuration contraction needs x, y at one ?-type"),
])
def test_every_configuration_error_keeps_its_message(config, message):
    with pytest.raises(CPTypeError) as e:
        check_config(config)
    assert (type(e.value), str(e.value)) == (CutTypeMismatch, message)


_NAMES = ("x", "y", "z")
_ANNOTS = (one, bot, WhyNot(one), WhyNot(bot), OfCourse(bot))
_LEAVES = [CZero()] + [
    proc(p, ctx)
    for n in _NAMES
    for p, ctx in ((EmptyOut(n), {n: one}), (closed_in(n), {n: bot}),
                   (Weak(n, WhyNot(bot), Inact()), {n: WhyNot(bot)}))
] + [proc(Fwd(a, b), {a: WhyNot(one), b: OfCourse(bot)}) for a in _NAMES for b in _NAMES if a != b]


def _random_config(rng, depth):
    """A random configuration over the names x, y and z, at most ``depth`` nodes deep."""
    k = rng.randrange(6) if depth else 0
    sub = lambda: _random_config(rng, depth - 1)
    if k < 2:
        return rng.choice(_LEAVES)
    if k == 2:
        return CCut(rng.choice(_NAMES), rng.choice(_ANNOTS), sub(), sub())
    if k == 3:
        return CPar(sub(), sub())
    if k == 4:
        return CWeak(rng.choice(_NAMES), rng.choice(_ANNOTS), sub())
    return CCon(rng.choice(_NAMES), rng.choice(_NAMES), sub())


def _check_outcome(c) -> str:
    try:
        g, t = check_config(c)
    except CPTypeError as e:
        return f"{type(e).__name__}: {e}"
    return " / ".join(" ".join(f"{n}:{a}" for n, a in sorted(ctx.items())) for ctx in (g, t))


# The sha256 of the check_config outcomes of 20,000 random configurations
# (random.Random(24), depth 4), one a line: about 7,200 are valid and the
# rest name every configuration error, clashes among them.
CHECK_CONFIG_DIGEST = "0f60b0025bb21f394dbcd74c3d6376c39b66132dabdec04b0fe45cc09121f73b"


def test_check_config_outcomes_are_pinned():
    import hashlib
    import random

    rng = random.Random(24)
    outcomes = [_check_outcome(_random_config(rng, 4)) for _ in range(20_000)]
    assert sum("names occur twice" in o for o in outcomes) > 1000
    assert hashlib.sha256("\n".join(outcomes).encode()).hexdigest() == CHECK_CONFIG_DIGEST
