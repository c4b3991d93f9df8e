import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import cpwb

from cpwb import cli, denotations, oracle, syntax
from cpwb.cli import (
    CPSyntaxError,
    format_context,
    format_process,
    main,
    parse_config,
    parse_context,
    parse_process,
    parse_type,
)
from cpwb.denotations import STAR, mk_tuple
from cpwb.harness import SUITE_NAMES, enumerate_processes
from cpwb.oracle import CCut, CProc, observe
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
    alpha_eq,
)
from cpwb.typing import System, check

one, bot = Unit(), Bottom()


def test_parse_type_forms():
    assert parse_type("1") == one
    assert parse_type("bot") == bot
    assert parse_type("(1 * bot)") == Tensor(one, bot)
    assert parse_type("(1 % bot)") == Par(one, bot)
    assert parse_type("(1 + 1)") == Plus(one, one)
    assert parse_type("(1 & bot)") == With(one, bot)
    assert parse_type("!1") == OfCourse(one)
    assert parse_type("?(1 + 1)") == WhyNot(Plus(one, one))


def test_parse_type_requires_parens():
    with pytest.raises(CPSyntaxError):
        parse_type("1 * 1")


def test_parse_process_examples():
    assert parse_process("x[]") == EmptyOut("x")
    got = parse_process("new x:1 (x[] | x().0)")
    assert got == Cut("x", one, EmptyOut("x"), EmptyIn("x", Inact()))
    assert parse_process("!x(y).y[]") == Server("x", "y", EmptyOut("y"))
    assert parse_process("weak x:?bot.0") == Weak("x", WhyNot(bot), Inact())
    assert parse_process("ctr x<a,b>.0").left_name == "a"


def test_parse_errors_have_positions():
    with pytest.raises(CPSyntaxError) as e:
        parse_process("new x:1 (x[] | ")
    assert e.value.line == 1 and e.value.col >= 15


def test_parse_context():
    assert parse_context("") == {}
    assert parse_context("x:1, y:(bot % 1)") == {"x": one, "y": Par(bot, one)}
    with pytest.raises(CPSyntaxError):
        parse_context("x:1, x:bot")


def test_round_trip_enumerated():
    for ctx in ({"x": Plus(one, one), "y": bot}, {"x": WhyNot(bot)}, {"x": Tensor(one, bot)}):
        for p in enumerate_processes(ctx, 5, System.CP02):
            assert parse_process(format_process(p)) == p
            assert alpha_eq(parse_process(format_process(p)), p)
    for p in enumerate_processes({"y": one}, 5, System.CP02, cut_formulas=(one,)):
        assert parse_process(format_process(p)) == p


def test_round_trip_translated_processes():
    # translated terms are deep and name-heavy; the printer must stay faithful
    from cpwb.translation import translate_process
    from cpwb.typing import check as check_

    for ctx, txt in (({"x": Plus(one, one)}, "x<1.x[]"), ({"y": one}, "new x:1 (x[] | x().y[])")):
        lp = translate_process(check_(parse_process(txt), ctx, System.CP02))
        assert parse_process(format_process(lp)) == lp


_name_st = st.sampled_from(["x", "y", "x'", "a'b", "_u", "v2"])
_formula_st = st.recursive(
    st.sampled_from([one, bot]),
    lambda sub: st.one_of(
        st.builds(Tensor, sub, sub),
        st.builds(Par, sub, sub),
        st.builds(Plus, sub, sub),
        st.builds(With, sub, sub),
        st.builds(OfCourse, sub),
        st.builds(WhyNot, sub),
    ),
    max_leaves=4,
)
# every process class, names with primes, and random cut and weakening types
_process_st = st.recursive(
    st.one_of(st.just(Inact()), st.builds(Fwd, _name_st, _name_st), st.builds(EmptyOut, _name_st)),
    lambda sub: st.one_of(
        st.builds(Cut, _name_st, _formula_st, sub, sub),
        st.builds(Mix, sub, sub),
        st.builds(Out, _name_st, _name_st, sub, sub),
        st.builds(In, _name_st, _name_st, sub),
        st.builds(Server, _name_st, _name_st, sub),
        st.builds(Client, _name_st, _name_st, sub),
        st.builds(Select, _name_st, st.sampled_from([1, 2]), sub),
        st.builds(Case, _name_st, sub, sub),
        st.builds(EmptyIn, _name_st, sub),
        st.builds(Weak, _name_st, _formula_st, sub),
        st.builds(Contract, _name_st, _name_st, _name_st, sub),
    ),
    max_leaves=20,
)
_mix = Mix(Inact(), EmptyOut("y"))


@settings(max_examples=500, deadline=None)
@given(_process_st)
@example(Cut("x", WhyNot(one), _mix, Mix(_mix, Inact())))
@example(Out("y", "x", Mix(Inact(), _mix), _mix))
@example(Case("x", Mix(_mix, _mix), Weak("a'b", bot, _mix)))
def test_print_then_parse_is_the_identity(p):
    assert parse_process(format_process(p)) == p


@pytest.mark.parametrize("parse, text, message", [
    (parse_process, "5", "1:1: expected a process (found '5')"),
    (parse_process, "x 5", "1:3: expected a process form after the name (found '5')"),
    (parse_process, "x[5", "1:3: expected name (found '5')"),
    (parse_process, "x(5", "1:3: expected name (found '5')"),
    (parse_process, "x<3.x[]", "1:4: selection index must be 1 or 2 (found '.')"),
    (parse_process, "0 0", "1:3: trailing input (found '0')"),
    (parse_process, "!x[y].0", "1:3: expected ( (found '[')"),
    (parse_config, "con a<b,a>. zero", "1:7: configuration contraction keeps its first name (found 'b')"),
    (parse_config, "par (zero zero)", "1:11: expected | (found 'zero')"),
    (parse_config, "foo", "1:1: expected a configuration (found 'foo')"),
])
def test_parse_error_messages(parse, text, message):
    with pytest.raises(CPSyntaxError) as e:
        parse(text)
    assert str(e.value) == message


# The sha256 of the printed formulas of formula_pool(4), one a line, and of
# the printed ILL translations of enumerate_formulas(2).
FORMULA_POOL_DIGEST = "b67929f04143315eefe4b7b10be607d149e92ca481b6d3998cdf93c811bdeb16"
ILL_DIGEST = "a036df5ceba5b55f2cf8ba03cd0dd54b705f0922fca30aa873836d592e95c35f"


def test_formula_printing_and_parsing_are_pinned():
    import hashlib

    from cpwb.harness import enumerate_formulas, formula_pool
    from cpwb.syntax import format_formula
    from cpwb.translation import translate_formula_ill

    def digest(lines):
        return hashlib.sha256("\n".join(lines).encode()).hexdigest()

    pool, small = formula_pool(4), enumerate_formulas(2)
    assert (len(pool), len(small)) == (10_649, 1_982) and pool[:len(small)] == small
    assert digest(map(format_formula, pool)) == FORMULA_POOL_DIGEST
    assert digest(str(translate_formula_ill(a)) for a in small) == ILL_DIGEST
    for a in small + pool[len(small):][:1000]:
        assert parse_type(format_formula(a)) == a


@pytest.mark.parametrize("text, message", [
    ("2", "1:1: expected a type (found '2')"),
    ("!", "1:2: expected a type (found '')"),
    ("(1 *", "1:5: expected a type (found '')"),
    ("(1 * 1", "1:7: expected ) (found '')"),
    ("1 * 1", "1:3: trailing input (found '*')"),
    ("!(1 + 1", "1:8: expected ) (found '')"),
    ("(1 x 1)", "1:4: expected a type form after the formula (found 'x')"),
])
def test_type_parse_error_messages(text, message):
    with pytest.raises(CPSyntaxError) as e:
        parse_type(text)
    assert str(e.value) == message


def test_config_round_trip():
    c = parse_config("cut x:1 ({ x[] @ x:1 } | { x().0 @ x:bot })")
    from cpwb.oracle import CCut

    assert isinstance(c, CCut)
    parse_config("weak y:?bot. cut x:1 ({ x[] @ x:1 } | { x().0 @ x:bot })")
    parse_config("par ( zero | zero )")
    parse_config("con a<a,b>. { ?a[u].u().?b[v].v().0 @ a:?bot, b:?bot }")


def test_cli_denote(tmp_path, capsys):
    f = tmp_path / "p.cp"
    f.write_text("x[]")
    assert main(["denote", str(f), "--ctx", "x:1"]) == 0
    assert capsys.readouterr().out.strip() == '[{"x":"*"}]'


def test_cli_translate_then_denote(tmp_path, capsys):
    f = tmp_path / "p.cp"
    f.write_text("x[]")
    assert main(["translate", str(f), "--ctx", "x:1"]) == 0
    lp = capsys.readouterr().out.strip()
    g = tmp_path / "lp.cp"
    g.write_text(lp)
    assert main(["denote", str(g), "--ctx", "x':(1 * bot), w:1"]) == 0
    assert capsys.readouterr().out.strip() == '[{"w":"*","x\'":["pair","*","*"]}]'


def test_cli_check_exit_codes(tmp_path, capsys):
    f = tmp_path / "p.cp"
    f.write_text("x[]")
    assert main(["check", str(f), "--ctx", "x:1", "--sys", "cp"]) == 0
    assert main(["check", str(f), "--ctx", "x:bot"]) == 3
    f.write_text("x[")
    assert main(["check", str(f), "--ctx", "x:1"]) == 2


def test_cli_equiv(tmp_path, capsys):
    p = tmp_path / "p.cp"
    q = tmp_path / "q.cp"
    p.write_text("x<1.x[]")
    q.write_text("x<2.x[]")
    assert main(["equiv", str(p), str(q), "--ctx", "x:(1 + 1)"]) == 1
    out = capsys.readouterr().out
    assert '["tag",1,"*"]' in out and '["tag",2,"*"]' in out
    assert main(["equiv", str(p), str(p), "--ctx", "x:(1 + 1)"]) == 0


def test_cli_observe(tmp_path, capsys):
    f = tmp_path / "c.cfg"
    f.write_text("cut x:1 ({ x[] @ x:1 } | { x().0 @ x:bot })")
    assert main(["observe", str(f)]) == 0
    assert capsys.readouterr().out.strip() == '[{"x":"*"}]'


def test_cli_observe_rejects_a_name_contracted_with_itself(tmp_path, capsys):
    f = tmp_path / "c.cfg"
    f.write_text("con a<a,a>. { ?a[u].u().0 @ a:?bot }")
    assert main(["observe", str(f)]) == 3
    err = "type error: CutTypeMismatch: configuration contraction of a with itself\n"
    assert capsys.readouterr() == ("", err)


def _link_chain(i, j):
    # the links x_i().x_{i+1}[] for i <= k < j, as a balanced tree of cuts
    if j - i == 1:
        return f"{{ x{i}().x{j}[] @ x{i}:bot, x{j}:1 }}"
    m = (i + j) // 2
    return f"cut x{m}:1 ({_link_chain(i, m)} | {_link_chain(m, j)})"


def _chain_config(n):
    return (f"cut x{n}:1 (cut x0:1 ({{ x0[] @ x0:1 }} | {_link_chain(0, n)})"
            f" | {{ x{n}().0 @ x{n}:bot }})")


def test_observe_follows_a_long_chain_without_recursion(tmp_path, capsys):
    # 1,500 steps, well inside the default --depth, over a configuration
    # nested only about 12 cuts deep
    n = 1500
    text = _chain_config(n)
    f = tmp_path / "chain.cfg"
    f.write_text(text)
    assert main(["observe", str(f)]) == 0
    out = capsys.readouterr()
    assert out.err == ""
    assert json.loads(out.out) == [{f"x{i}": "*" for i in range(n + 1)}]
    assert observe(parse_config(text)) == frozenset({mk_tuple({f"x{i}": STAR for i in range(n + 1)})})


def test_observe_builds_no_relation_rows(monkeypatch):
    # the observation is read back from the steps into one dict: observing
    # the 1,500-link chain makes no call into the relational algebra
    config = parse_config(_chain_config(1500))
    built = []
    real = denotations._build

    def counting(*args, **kwargs):
        built.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(denotations, "_build", counting)
    assert len(observe(config)) == 1
    assert built == []


def _calls_to(fn, *functions):
    """The result of ``fn()`` and the number of calls it made to each function."""
    at = {id(f.__code__): i for i, f in enumerate(functions)}
    calls = [0] * len(functions)

    def profile(frame, event, arg):
        i = at.get(id(frame.f_code)) if event == "call" else None
        if i is not None:
            calls[i] += 1

    old = sys.getprofile()
    sys.setprofile(profile)
    try:
        result = fn()
    finally:
        sys.setprofile(old)
    return result, calls


def test_observe_rebuilds_no_term(monkeypatch):
    # a leaf is a node of the checked process with an environment, and a link
    # merges names in an alias map: observing makes no substitution and
    # builds no process node, over the ?bot clients of
    # test_adequacy_over_exponentials at K = 0, 1, 2 and the 1,500-link chain
    bang, whynot = OfCourse(one), WhyNot(bot)
    srv = CProc(check(Server("x", "y", EmptyOut("y")), {"x": bang}, System.CP02))
    clients = enumerate_processes({"x": whynot}, 7, System.CP02)
    assert len(clients) == 132
    configs = [CCut("x", bang, srv, CProc(check(q, {"x": whynot}, System.CP02))) for q in clients]
    chain = parse_config(_chain_config(1500))

    def run():
        return [observe(c, k) for c in configs for k in (0, 1, 2)] + [observe(chain)]

    # count every construction of a process node, of a field-less class
    # (which keeps object.__init__) too, through an __init__ hook on each
    # class. A __new__ hook would not do: deleting it leaves CPython calling
    # object.__new__ through a slot that refuses the constructor's arguments.
    built = []
    for cls in Process.__subclasses__():
        def init(self, *args, __init__=cls.__init__, **kwargs):
            built.append(type(self))
            __init__(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", init)
    assert Inact() and built == [Inact]
    built.clear()
    got, (substituted,) = _calls_to(run, syntax.substitute)
    assert sum(map(len, got)) > len(configs) and len(got[-1]) == 1
    assert substituted == 0
    assert built == []


def test_finding_a_redex_does_not_walk_the_soup():
    # the index of acting names is kept across steps: on the 3,000-link chain,
    # whose soup starts with 3,002 leaves, _redexes runs a few lines per step
    config = parse_config(_chain_config(3000))
    code = oracle._redexes.__code__
    lines = 0

    def in_redexes(frame, event, arg):
        nonlocal lines
        lines += event == "line"
        return in_redexes

    def tracer(frame, event, arg):
        return in_redexes if frame.f_code is code else None

    old = sys.gettrace()
    sys.settrace(tracer)
    try:
        got = observe(config)
    finally:
        sys.settrace(old)
    assert got == frozenset({mk_tuple({f"x{i}": STAR for i in range(3001)})})
    assert lines <= 10 * 3001  # the chain takes 3,001 steps


def test_cli_observe_depth_exceeded(tmp_path, capsys):
    f = tmp_path / "c.cfg"
    f.write_text("cut y:1 ({ new x:1 (x[] | x().y[]) @ y:1 } | { y().0 @ y:bot })")
    assert main(["observe", str(f), "--depth", "1"]) == 1
    assert capsys.readouterr() == ("", "depth exceeded: more than 1 steps\n")
    assert main(["observe", str(f), "--depth", "2"]) == 0
    assert capsys.readouterr().out.strip() == '[{"y":"*"}]'


@pytest.mark.parametrize(
    "argv",
    [
        ["observe", "c.cfg", "-K", "-1"],
        ["observe", "c.cfg", "--depth", "-3"],
        ["denote", "bang.cp", "--ctx", "x:!1", "-K", "-1"],
        ["equiv", "bang.cp", "bang.cp", "--ctx", "x:!1", "-K", "-1"],
    ],
)
def test_cli_rejects_negative_bound_and_depth(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "c.cfg").write_text("cut x:1 ({ x[] @ x:1 } | { x().0 @ x:bot })")
    (tmp_path / "bang.cp").write_text("!x(y).y[]")
    assert main(argv) == 4
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("error: ")


def test_cli_transform(tmp_path, capsys):
    f = tmp_path / "p.cp"
    f.write_text("x[]")
    assert main(["transform", str(f), "--ctx", "x:1"]) == 0
    out = capsys.readouterr().out
    assert "new x:1" in out


def test_cli_transform_checks_once(tmp_path, capsys, monkeypatch):
    # every input is checked once, at the hole typing before the context is
    # built; an ill-typed process gets the checker's own error, as from `check`
    calls = []
    real = cli.check

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "check", counting)
    monkeypatch.setattr(cpwb.typing, "check", counting)
    f = tmp_path / "p.cp"
    for source, ctx, err in (
        ("x().0", "x:1", "RuleMismatch: empty input needs type bot, got 1"),
        ("!x(y).y[]", "x:!1, b:1, a:1", "NonBangContext: server context must be all ?-typed, a has 1"),
    ):
        f.write_text(source)
        calls.clear()
        assert main(["transform", str(f), "--ctx", ctx]) == 3
        assert capsys.readouterr() == ("", f"type error: {err}\n")
        assert len(calls) == 1
    calls.clear()
    f.write_text("x[]")
    assert main(["transform", str(f), "--ctx", "x:1"]) == 0
    assert "new x:1" in capsys.readouterr().out
    assert len(calls) == 1


def test_cli_transform_at_a_wide_context_gives_the_type_error(tmp_path, capsys):
    # the context nests one cut per name; the type error of a process that
    # leaves names unused does not depend on how many there are
    f = tmp_path / "p.cp"
    f.write_text("x0[]")
    for n in (300, 1000, 5000):
        ctx = ", ".join(f"x{i}:1" for i in range(n))
        assert main(["transform", str(f), "--ctx", ctx]) == 3
        out = capsys.readouterr()
        unused = sorted(f"x{i}" for i in range(1, n))
        assert out == ("", f"type error: LinearityViolation: unused assignments: {unused}\n")


def _balanced_outputs(names):
    if len(names) == 1:
        return f"{names[0]}[]"
    half = len(names) // 2
    return f"({_balanced_outputs(names[:half])} | {_balanced_outputs(names[half:])})"


def test_cli_transform_refuses_a_filled_process_too_deep_to_print(tmp_path, capsys):
    names = [f"x{i}" for i in range(1000)]
    f = tmp_path / "p.cp"
    f.write_text(_balanced_outputs(names))
    assert main(["transform", str(f), "--ctx", ", ".join(f"{x}:1" for x in names)]) == 4
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("error: the process is nested too deeply")


def test_cli_transform_builds_a_wide_filled_process_without_a_derivation(tmp_path, capsys):
    # only the filled process is printed, so its cuts are built from the
    # context's levels, each without a typing: linear in the names
    names = [f"x{i}" for i in range(5000)]
    f = tmp_path / "p.cp"
    f.write_text(_balanced_outputs(names))
    start = time.perf_counter()
    assert main(["transform", str(f), "--ctx", ", ".join(f"{x}:1" for x in names)]) == 4
    assert time.perf_counter() - start < 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("error: the process is nested too deeply")


def test_cli_suite(tmp_path, capsys):
    cfgf = tmp_path / "cfg.json"
    cfgf.write_text(json.dumps({"suites": ["synchronizer", "worked_example"]}))
    assert main(["suite", "--config", str(cfgf)]) == 0
    out = capsys.readouterr().out
    assert "synchronizer" in out
    assert main(["suite", "--config", str(cfgf), "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["synchronizer"]["failures"] == []


def test_cli_refuses_a_formula_pool_past_the_limit_up_front(tmp_path, capsys):
    # every connective to depth 3 is 15,717,262 formulas: refused before any
    # suite runs. The same depth passes over three connectives (1,446
    # formulas), and a suite that reads no formula pool ignores it
    f = tmp_path / "cfg.json"
    f.write_text(json.dumps({"formula_depth": 3}))
    start = time.perf_counter()
    assert main(["suite", "--config", str(f)]) == 4
    assert time.perf_counter() - start < 1
    out = capsys.readouterr()
    assert out.out == "" and "15,717,262 formulas" in out.err and "100,000" in out.err
    f.write_text(json.dumps({"formula_depth": 3, "connectives": ["one", "bot", "tensor"],
                             "suites": ["transformer_graph", "injectivity"]}))
    assert main(["suite", "--config", str(f), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["transformer_graph"]["instances"] == 1446
    f.write_text(json.dumps({"suites": ["duality"], "formula_depth": 3}))
    assert main(["suite", "--config", str(f), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["duality"]["failures"] == []
    # the units alone count 2 formulas at any depth, and one unary connective
    # d + 1 formulas nested d deep: both stay under the formula limit, so the
    # depth limit refuses them before any formula is built
    for conns, depth in ((["one", "bot"], 10 ** 12), (["one", "ofcourse"], 5000), (["one", "ofcourse"], 65)):
        f.write_text(json.dumps({"connectives": conns, "formula_depth": depth}))
        start = time.perf_counter()
        assert main(["suite", "--config", str(f)]) == 4
        assert time.perf_counter() - start < 1
        out = capsys.readouterr()
        assert out.out == "" and f"formula_depth {depth} is deeper than the limit of 64" in out.err
    f.write_text(json.dumps({"connectives": ["one", "ofcourse"], "formula_depth": 64,
                             "suites": ["transformer_graph", "injectivity"]}))
    assert main(["suite", "--config", str(f), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["transformer_graph"]["instances"] == 3


def test_cli_suite_reports_a_type_error_inside_a_suite_as_its_failure(
    tmp_path, monkeypatch, capsys
):
    # a suite that checks one instance and then builds an ill-typed term: the
    # run goes on to the next suite and ends with a report and exit 1, not
    # with exit 3 and no report; a usage error or a refused denotation inside
    # a suite still exits 4
    from cpwb import harness
    from cpwb.typing import RuleMismatch

    def suite_raising(error):
        def suite(cfg, rng, table):
            yield None
            raise error

        return suite

    msg = "empty input needs type bot, got (1 * bot)"
    monkeypatch.setitem(harness._SUITES, "worked_example", suite_raising(RuleMismatch(msg)))
    f = tmp_path / "cfg.json"
    f.write_text(json.dumps({"suites": ["worked_example", "synchronizer"]}))
    assert main(["suite", "--config", str(f), "--json"]) == 1
    out = capsys.readouterr()
    report = json.loads(out.out)
    assert out.err == ""
    assert report["worked_example"]["instances"] == 2
    assert report["worked_example"]["failures"] == [f"RuleMismatch: {msg}"]
    assert report["synchronizer"]["instances"] > 0 and report["synchronizer"]["failures"] == []
    assert main(["suite", "--config", str(f)]) == 1
    text = capsys.readouterr().out
    assert f"      counterexample: RuleMismatch: {msg}\n" in text
    assert text.endswith("result: FAILURES PRESENT\n")
    for error in (harness.ConfigError("bad"), denotations.TooLarge("too many")):
        monkeypatch.setitem(harness._SUITES, "worked_example", suite_raising(error))
        assert main(["suite", "--config", str(f), "--json"]) == 4
        out = capsys.readouterr()
        assert out.out == "" and out.err == f"error: {error}\n"


def test_cli_maps_an_over_deep_term_to_exit_4(tmp_path, monkeypatch, capsys):
    # the parser refuses deep nesting, so the term comes from a suite that
    # builds a 5,000-deep mix chain through the API
    from cpwb import harness
    from cpwb.typing import System, check

    def suite(cfg, rng, table):
        p, ctx = EmptyOut("x0"), {"x0": Unit()}
        for i in range(1, 5000):
            p, ctx[f"x{i}"] = Mix(p, EmptyOut(f"x{i}")), Unit()
        yield None if check(p, ctx, System.CP02) else "no derivation"

    monkeypatch.setitem(harness._SUITES, "worked_example", suite)
    f = tmp_path / "cfg.json"
    f.write_text(json.dumps({"suites": ["worked_example"]}))
    assert main(["suite", "--config", str(f), "--json"]) == 4
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("error: the process is nested too deeply")
    assert out.err.count("\n") == 1


def test_cli_json_deterministic(tmp_path, capsys):
    f = tmp_path / "p.cp"
    f.write_text("fwd x y")
    main(["denote", str(f), "--ctx", "x:(1 + 1), y:(bot & bot)"])
    first = capsys.readouterr().out
    main(["denote", str(f), "--ctx", "x:(1 + 1), y:(bot & bot)"])
    assert capsys.readouterr().out == first


def test_format_context_is_canonical():
    assert format_context({"y": bot, "x": one}) == "x:1, y:bot"


@pytest.mark.parametrize(
    "text",
    [
        '{"bound": "two"}',
        '{"bound": -1}',
        '{"seed": "7"}',
        '{"seed": true}',
        '{"process_size": 5.0}',
        '{"suites": "adequacy"}',
        '{"connectives": ["plus", 1]}',
        '{"system": 2}',
        '{"system": "cp02"}',
        '{"bound": 2',
        '{"connectives": []}',
        '{"connectives": ["ofcourse"], "suites": ["duality"]}',
    ],
)
def test_cli_rejects_bad_config_values(tmp_path, capsys, text):
    f = tmp_path / "cfg.json"
    f.write_text(text)
    assert main(["suite", "--config", str(f)]) == 4
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("error: ")


@pytest.mark.parametrize("config, key", [
    ({"connectives": ["one", "bot", "foo"], "suites": ["adequacy"]}, "connectives"),
    ({"connectives": ["tensor"], "suites": ["adequacy"]}, "connectives"),
    ({"duality_depth": -1}, "duality_depth"),
    ({"formula_depth": -1, "suites": ["transformer_graph"]}, "formula_depth"),
    ({"process_size": 0}, "process_size"),
])
def test_cli_checks_every_config_value_before_any_suite_runs(tmp_path, monkeypatch, capsys, config, key):
    from cpwb import harness

    def ran(*args):
        raise AssertionError("a suite ran")

    monkeypatch.setattr(harness, "_SUITES", dict.fromkeys(harness._SUITES, ran))
    f = tmp_path / "cfg.json"
    f.write_text(json.dumps(config))
    start = time.perf_counter()
    assert main(["suite", "--config", str(f)]) == 4
    assert time.perf_counter() - start < 0.5
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("error: ") and key in out.err


def test_cli_non_utf8_source_is_a_positioned_syntax_error(tmp_path, capsys):
    f = tmp_path / "p.cp"
    f.write_bytes(b"x().\xff0")
    assert main(["check", str(f), "--ctx", "x:bot"]) == 2
    assert "error: 1:5: " in capsys.readouterr().err
    f.write_bytes("x[]\n  \u00e9".encode() + b"\xfe")
    assert main(["check", str(f), "--ctx", "x:1"]) == 2
    assert "error: 2:4: " in capsys.readouterr().err


# Syntax errors at every kind of position, each with its full message: on
# line 1 and past it; after "\r\n", tabs, and whitespace that is not "\n"
# (U+00A0, U+3000, U+2028, "\x0b", "\x0c", "\x1c"), which moves the column
# only; after a non-BMP character (one column) and non-ASCII names.
POSITION_CORPUS = [
    (parse_process, "x().y(z).5", "1:10: expected a process (found '5')"),
    (parse_process, "x().\n0 |\n\n  y(5).0", "4:5: expected name (found '5')"),
    (parse_process, "x().\r\n  x(5).0", "2:5: expected name (found '5')"),
    (parse_process, "x()\r\n.\r\n\r\ny[5", "4:3: expected name (found '5')"),
    (parse_process, "\tx(\t\t5).0", "1:6: expected name (found '5')"),
    (parse_process, "x()\xa0.\u3000y[\x0c5", "1:10: expected name (found '5')"),
    (parse_process, "x[]\x0b|\u2028\x1c 5", "1:9: expected a process (found '5')"),
    (parse_process, "𝒳[5", "1:3: expected name (found '5')"),
    (parse_process, "𝒳(y).\n𝒳(5).0", "2:3: expected name (found '5')"),
    (parse_process, "café(y).y<3.0", "1:12: selection index must be 1 or 2 (found '.')"),
    (parse_process, "é²Ⅻ(y).\n  y[] | #", "2:9: unexpected character '#'"),
    (parse_process, "x().\n\t0 $", "2:4: unexpected character '$'"),
    (parse_context, "x:1,\n  y:bot, x:1", "2:10: duplicate context name x"),
    (parse_context, "x:1, é:bot,\r\né:1", "2:1: duplicate context name é"),
    (parse_type, "\n" + "!" * 64 + "1", "2:65: nesting deeper than 64 (found '1')"),
    (parse_process, "x().\n", "2:1: expected a process (found '')"),
    (parse_type, "(1 *\n\n", "3:1: expected a type (found '')"),
    (parse_config, "cut x:1 ({ x[] @ x:1 }\n| { x().0 @ x:bot } zero", "2:21: expected ) (found 'zero')"),
    (parse_config, "con a<a,b>.\n  con a<b,c>.zero",
     "2:9: configuration contraction keeps its first name (found 'b')"),
]

# Source files that are not UTF-8: the position is that of the bad byte,
# counted in characters of the valid text before it.
NON_UTF8_CORPUS = [
    (b"x().\xff0", "1:5: {} is not UTF-8 (byte 0xff)"),
    (b"caf\xc3\xa9(y).\xc3(", "1:9: {} is not UTF-8 (byte 0xc3)"),
    (b"x[]\r\n\t\xf0\x9d\x92\xb3\xc3\xa9\x80", "2:4: {} is not UTF-8 (byte 0x80)"),
    (b"x[]\n\n  \xe9(y).0", "3:3: {} is not UTF-8 (byte 0xe9)"),
]


def _syntax_error(read, arg) -> str | None:
    try:
        read(arg)
    except CPSyntaxError as e:
        return str(e)
    return None


def test_syntax_error_positions_are_pinned(tmp_path):
    # plain asserts, no fixtures but a directory: runs without pytest too
    assert [_syntax_error(parse, text) for parse, text, _ in POSITION_CORPUS] == [m for _, _, m in POSITION_CORPUS]
    for i, (data, message) in enumerate(NON_UTF8_CORPUS):
        f = tmp_path / f"bad{i}.cp"
        f.write_bytes(data)
        assert _syntax_error(cli._read, str(f)) == message.format(f)


@pytest.mark.parametrize("ctx", ["x:1", "x:bot"])
def test_python_m_cpwb_exits_as_main(tmp_path, capsys, ctx):
    f = tmp_path / "p.cp"
    f.write_text("x[]")
    argv = ["check", str(f), "--ctx", ctx]
    src = str(Path(cpwb.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-m", "cpwb", *argv], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == main(argv)


def test_cli_config_context_rejects_a_duplicate_name(tmp_path, capsys):
    f = tmp_path / "c.cfg"
    f.write_text("cut x:1 ({ x[] @ x:1, x:1 } | { x().0 @ x:bot })")
    assert main(["observe", str(f)]) == 2
    assert "error: 1:23: duplicate context name x" in capsys.readouterr().err
    f.write_text("0")
    assert main(["check", str(f), "--ctx", "x:1, x:1"]) == 2
    assert "error: 1:6: duplicate context name x" in capsys.readouterr().err


def _plus_chain(depth):
    """x<2. ... x[] at x:(1 + (1 + ... 1)): process and type both ``depth`` deep."""
    return "x<2." * (depth - 1) + "x[]", "x:" + "(1 + " * (depth - 1) + "1" + ")" * (depth - 1)


@pytest.mark.parametrize("family", ["prefix", "mix", "ctx"])
def test_cli_rejects_nesting_past_the_limit(tmp_path, capsys, family):
    limit = cli.MAX_DEPTH
    f = tmp_path / "p.cp"
    for depth in (limit + 1, 3000):
        # the error points at the first node that lies deeper than the limit
        source, ctx, col = {
            "prefix": ("x()." * (depth - 1) + "0", "", 4 * limit + 1),
            "mix": (" | ".join(["0"] * depth), "", 1),
            "ctx": ("0", "x:" + "!" * (depth - 1) + "1", limit + 3),
        }[family]
        f.write_text(source)
        assert main(["check", str(f), "--ctx", ctx]) == 2
        assert f"error: 1:{col}: nesting deeper than {limit}" in capsys.readouterr().err


def test_cli_takes_terms_at_the_nesting_limit(tmp_path, capsys):
    limit = cli.MAX_DEPTH
    f = tmp_path / "p.cp"
    for source, ctx in ((" | ".join(["0"] * limit), ""), _plus_chain(limit)):
        f.write_text(source)
        for command in ("check", "denote", "translate", "transform"):
            assert main([command, str(f), "--ctx", ctx]) == 0, command
    capsys.readouterr()
    # a0 | a1 | a2 is Mix(Mix(a0, a1), a2): a0 and a1 lie under two Mix nodes
    deep = "x()." * (limit - 3) + "0"
    for ok in (f"{deep} | 0 | 0", f"0 | {deep} | 0", f"0 | 0 | 0 | {deep}"):
        parse_process(ok)
    for bad in (f"{deep} | 0 | 0 | 0", f"0 | {deep} | 0 | 0", f"({deep} | 0) | 0"):
        with pytest.raises(CPSyntaxError, match="nesting deeper"):
            parse_process(bad)


class _ClosedPipe(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_cli_closed_stdout_exits_as_sigpipe(tmp_path, monkeypatch, capsys):
    f = tmp_path / "p.cp"
    f.write_text("x[]")
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    assert main(["denote", str(f), "--ctx", "x:1"]) == 141
    assert sys.stdout.name == os.devnull
    sys.stdout.close()
    assert capsys.readouterr().err == ""


def test_cli_unbound_name_message_does_not_depend_on_the_hash_seed(tmp_path):
    # a split's first missing name is the least one, not the first a set yields
    f = tmp_path / "p.cp"
    f.write_text("a[] | b[] | c[]")
    src = str(Path(cpwb.__file__).resolve().parent.parent)
    errors = set()
    for seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": seed,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run(
            [sys.executable, "-m", "cpwb", "check", str(f), "--ctx", "c:1", "--sys", "cp02"],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 3
        errors.add(proc.stderr)
    assert errors == {"type error: UnboundName: name a not in context\n"}


_Q = "((1 + 1) + (1 + 1))"
_QD = "((bot & bot) & (bot & bot))"
_T = Plus(one, one)
for _ in range(8):
    _T = Tensor(Plus(one, one), _T)  # 512 observations


@pytest.mark.parametrize("source, ctx, numbers", [
    # caught at the forwarder: |!!!!!1| at K = 2
    ("fwd x y", "x:!!!!!1, y:?????bot", "2598060 observations"),
    # the forwarder's 33,153 observations pass; the bang over them does not
    ("!x(y).fwd y z", f"x:!!(({_Q} * {_Q}) * ({_Q} * {_Q})), z:?(({_QD} % {_QD}) % ({_QD} % {_QD}))",
     "549610435 multisets of rows"),
    # a count too long to print in full
    ("fwd x y", f"x:{'!' * 16}1, y:{'?' * 16}bot", "more than 2^64 observations"),
    # refused before the count, which has about 2^30 digits, is computed
    ("fwd x y", f"x:{'!' * 30}1, y:{'?' * 30}bot", "more than 2^64 observations"),
    # each forwarder's 512 observations pass; the product of the two does not
    ("fwd x y | fwd u v", format_context({"x": _T, "y": syntax.dual(_T), "u": _T, "v": syntax.dual(_T)}),
     "262144 rows"),
])
def test_cli_refuses_an_over_large_denotation_up_front(tmp_path, capsys, source, ctx, numbers):
    f = tmp_path / "p.cp"
    f.write_text(source)
    t0 = time.monotonic()
    assert main(["denote", str(f), "--ctx", ctx]) == 4
    assert time.monotonic() - t0 < 1.0
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: the denotation of ") and out.err.count("\n") == 1
    assert numbers in out.err and f"limit of {denotations.MAX_ROWS}" in out.err


def test_cli_sizes_a_bag_space_at_a_large_bound_in_few_steps(tmp_path, capsys):
    # |??bot| at K = 10^6 is C(2K + 1, K), of some 2 million bits: its
    # capped size stops at the cap, so the weakening prints its one row
    # and the forwarder is refused, each well under a second
    f = tmp_path / "p.cp"
    for source, ctx, k, code, out in (
        ("weak x:??bot.0", "x:??bot", 10**6, 0, '[{"x":["bag",[]]}]\n'),
        ("fwd x y", "x:??bot, y:!!1", 3 * 10**5, 4, ""),
    ):
        f.write_text(source)
        denotations.space.cache_clear()
        t0 = time.monotonic()
        assert main(["denote", str(f), "--ctx", ctx, "-K", str(k)]) == code
        assert time.monotonic() - t0 < 1.0
        got = capsys.readouterr()
        assert got.out == out
        assert got.err == ("" if code == 0 else "error: the denotation of fwd x y needs more than 2^64 "
                           f"observations, more than the limit of {denotations.MAX_ROWS}\n")


@pytest.mark.parametrize("argv, code", [
    (["denote"], 4),  # a missing file
    (["denote", "p.cp", "-K", "x"], 4),
    (["frob"], 4),
    (["--help"], 0),
])
def test_cli_usage_errors_exit_4_and_help_exits_0(capsys, argv, code):
    assert main(argv) == code
    out = capsys.readouterr()
    assert (out.err if code else out.out).startswith("usage: cpwb")


@pytest.mark.parametrize("source, argv, code, out, err", [
    # the README example: x[] at x:1 translates to a process at x':(1 * bot) and w:1
    ("x[]", ["translate", "--ctx", "x:1", "--emit-typing"], 0,
     "x'[u](u[] | fwd x' w)\nw:1, x':(1 * bot)\n", ""),
    ("x[]", ["check", "--ctx", "x:1", "--sys", "cp3"], 4, "",
     "error: unknown system 'cp3'; use cp, cp0 or cp02\n"),
    ("new x:1 (x[] |\n  x(5).0)", ["check"], 2, "", "syntax error: 2:5: expected name (found '5')\n"),
])
def test_cli_command_outputs(tmp_path, capsys, source, argv, code, out, err):
    f = tmp_path / "p.cp"
    f.write_text(source)
    assert main([argv[0], str(f), *argv[1:]]) == code
    assert capsys.readouterr() == (out, err)


def test_cli_unmapped_exception_is_an_internal_error(monkeypatch, capsys):
    def crash(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "_dispatch", crash)
    assert main(["suite"]) == 70
    assert capsys.readouterr().err == "internal error: RuntimeError: boom\n"


# The exit-code property's inputs: well-typed processes with their contexts,
# closed configurations, and random pieces of each.
_TYPED = [
    ("x[]", "x:1"), ("x().0", "x:bot"), ("x().y[]", "x:bot, y:1"), ("x<1.x[]", "x:(1 + 1)"),
    ("x<2.x[]", "x:(1 + 1)"), ("x>{x[] ; x[]}", "x:(1 & 1)"), ("x>{x[] ; x().0}", "x:(1 & bot)"),
    ("new x:1 (x[] | x().y[])", "y:1"), ("!x(y).y[]", "x:!1"), ("?x[y].y().0", "x:?bot"),
    ("fwd x y", "x:1, y:bot"), ("x[y](y[] | x[])", "x:(1 * 1)"), ("x(y).y().x().0", "x:(bot % bot)"),
    ("weak x:?bot.0", "x:?bot"), ("ctr x<a,b>.weak a:?bot.weak b:?bot.0", "x:?bot"), ("0", ""),
    ("x[] | y[]", "x:1, y:1"),
]
_CONFIGS = [
    "zero", "cut x:1 ({ x[] @ x:1 } | { x().0 @ x:bot })",
    "cut y:1 ({ new x:1 (x[] | x().y[]) @ y:1 } | { y().0 @ y:bot })",
    "cut x:!1 ({ !x(y).y[] @ x:!1 } | { ?x[y].y().0 @ x:?bot })",
    "cut a:!1 ({ !a(y).y[] @ a:!1 } | con a<a,b>. { ?a[u].u().weak b:?bot.0 @ a:?bot, b:?bot })",
    "cut w:!1 ({ !w(y).y[] @ w:!1 } | weak w:?bot.par (zero | zero))",
]
_TYPES = ["1", "bot", "(1 + 1)", "(1 & 1)", "(1 * 1)", "(bot % bot)", "?bot", "!1"]
_token_st = st.sampled_from(
    [*cli._SYMBOLS, *sorted(cli.KEYWORDS), "x", "y", "a'", "0", "1", "2", "12", " ", "\n"])
_random_text_st = st.lists(_token_st, max_size=24).map("".join)
_context_st = st.one_of(
    st.lists(st.tuples(st.sampled_from(["x", "y", "a", "b"]), st.sampled_from(_TYPES)), max_size=2)
    .map(lambda items: ", ".join(f"{n}:{a}" for n, a in items)),
    _random_text_st,
)
_process_text_st = st.one_of(
    st.sampled_from([p for p, _ in _TYPED]), _process_st.map(format_process), _random_text_st)
_typed_st = st.one_of(st.sampled_from(_TYPED), st.tuples(_process_text_st, _context_st))
_config_text_st = st.one_of(
    st.sampled_from(_CONFIGS),
    st.builds("cut x:{} ({{ {} @ {} }} | {{ {} @ {} }})".format, st.sampled_from(_TYPES),
              _process_text_st, _context_st, _process_text_st, _context_st),
    _random_text_st,
)
_CHEAP = {"suites": [[name] for name in SUITE_NAMES], "formula_depth": [0, 1],
          "duality_depth": [0, 1, 2], "bound": [0, 1, 2], "process_size": [1, 2, 3], "seed": [0, 7]}
_BAD = [{"bound": -1}, {"bound": 3}, {"process_size": 0}, {"formula_depth": -1}, {"seed": "7"},
        {"seed": 1.5}, {"connectives": ["frob"]}, {"connectives": ["tensor"]}, {"suites": ["frob"]},
        {"frob": 1}, {"bound": True}]
_suite_config_st = st.one_of(
    st.fixed_dictionaries({k: st.sampled_from(vs) for k, vs in _CHEAP.items()})
    .flatmap(lambda cfg: st.one_of(st.just(cfg), st.sampled_from(_BAD).map(lambda bad: {**cfg, **bad})))
    .map(json.dumps),
    st.sampled_from(["", "{", "[1]", "null", '{"suites": "duality"}']),
)
_number_st = st.sampled_from(["0", "1", "2", "2", "3", "-1", "x"])


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_every_invocation_exits_with_a_documented_code(data):
    # random sources, contexts, flags and suite configs: the exit code is a
    # documented one, nothing escapes as a traceback or an internal error,
    # and exit 1 means a reported failure
    import contextlib
    import tempfile

    command = data.draw(st.sampled_from(
        ["check", "denote", "observe", "translate", "transform", "equiv", "suite"]))
    with tempfile.TemporaryDirectory() as d:
        def write(name, text):
            path = Path(d, name)
            path.write_text(text)
            return str(path)

        if command == "suite":
            argv = ["suite", "--config", write("cfg.json", data.draw(_suite_config_st))]
            argv += data.draw(st.sampled_from([[], ["--json"]]))
        elif command == "observe":
            argv = ["observe", write("c.cfg", data.draw(_config_text_st))]
            argv += ["-K", data.draw(_number_st), "--depth", data.draw(_number_st)]
        else:
            source, ctx = data.draw(_typed_st)
            argv = [command, write("p.cp", source)]
            if command == "equiv":
                argv.append(write("q.cp", data.draw(st.one_of(st.just(source), _process_text_st))))
            argv += ["--ctx", ctx]
            if command != "transform":
                argv += ["--sys", data.draw(st.sampled_from(["cp02", "cp02", "cp", "cp0", "cp3"]))]
            if command in ("denote", "equiv"):
                argv += ["-K", data.draw(_number_st)]
            if command == "translate":
                argv += data.draw(st.sampled_from([[], ["--emit-typing"]]))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2, 3, 4), (argv, code, err)
    assert "Traceback" not in err and "internal error" not in err, (argv, err)
    if code == 1:
        failed = command == "suite" and ("FAIL" in out or out.startswith("{") and any(
            r["failures"] for r in json.loads(out).values()))
        assert "depth exceeded" in err or "not equivalent" in out or failed, (argv, out, err)
