import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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
from cpwb.harness import enumerate_processes
from cpwb.oracle import CCut, CProc, observe
from cpwb.syntax import (
    Bottom,
    Cut,
    EmptyIn,
    EmptyOut,
    Inact,
    OfCourse,
    Par,
    Plus,
    Process,
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


def test_observe_rebuilds_no_term():
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

    inits = [cls.__init__ for cls in Process.__subclasses__() if hasattr(cls.__init__, "__code__")]
    got, (substituted, *built) = _calls_to(run, syntax.substitute, *inits)
    assert sum(map(len, got)) > len(configs) and len(got[-1]) == 1
    assert substituted == 0
    assert sum(built) == 0


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
    # every input is checked once, by fill at the hole typing; an ill-typed
    # process gets the checker's own error, as from `check`
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


def test_cli_suite(tmp_path, capsys):
    cfgf = tmp_path / "cfg.json"
    cfgf.write_text(json.dumps({"suites": ["synchronizer", "worked_example"]}))
    assert main(["suite", "--config", str(cfgf)]) == 0
    out = capsys.readouterr().out
    assert "synchronizer" in out
    assert main(["suite", "--config", str(cfgf), "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["synchronizer"]["failures"] == []


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


def test_cli_rejects_non_integer_seed(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("CPWB_SEED", "abc")
    f = tmp_path / "cfg.json"
    f.write_text(json.dumps({"suites": ["synchronizer"]}))
    assert main(["suite", "--config", str(f)]) == 4
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("error: CPWB_SEED")


def test_cli_non_utf8_source_is_a_positioned_syntax_error(tmp_path, capsys):
    f = tmp_path / "p.cp"
    f.write_bytes(b"x().\xff0")
    assert main(["check", str(f), "--ctx", "x:bot"]) == 2
    assert "error: 1:5: " in capsys.readouterr().err
    f.write_bytes("x[]\n  \u00e9".encode() + b"\xfe")
    assert main(["check", str(f), "--ctx", "x:1"]) == 2
    assert "error: 2:4: " in capsys.readouterr().err


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
