"""Command-line frontend: the textual grammar and the subcommands.

Types:      1, bot, (A * B), (A % B), (A + B), (A & B), !A, ?A
Processes:  0, new x:A (P | Q), P | Q, fwd x y, x[y](P | Q), x(y).P,
            x[], x().P, x<1.P, x<2.P, x>{P ; Q}, !x(y).P, ?x[y].P,
            weak x:?A.P, ctr x<x1,x2>.P
Contexts:   x:A, y:B           (empty context is the empty string)
Configs:    zero, { P @ ctx }, cut x:A (C | C), par (C | C),
            weak x:?A. C, con x<x1,x2>. C

All binary type connectives are parenthesized; process composition under
`new`, outputs and prefixes takes a single atom (parenthesize mixes).
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass

from .denotations import check_shared, dumps, denote, tuples_to_json
from .harness import ConfigError, SuiteConfig, run_suite
from .oracle import (
    CCon,
    CCut,
    CPar,
    CProc,
    CWeak,
    CZero,
    Configuration,
    DepthExceeded,
    DEFAULT_DEPTH,
    observe,
)
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
    format_formula,
)
from .transformers import transformer_context
from .translation import translate_process, translated_context
from .typing import CpwbError, CPTypeError, Derivation, System, TypeMismatch, check, fill

KEYWORDS = {"new", "fwd", "weak", "ctr", "bot", "zero", "cut", "par", "con"}


class CPSyntaxError(CpwbError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


@dataclass(frozen=True)
class Token:
    kind: str  # "name", "num", "sym", "kw", "eof"
    text: str
    line: int
    col: int


_SYMBOLS = "()[]{}<>.:;,|*%+&!?@"


def tokenize(text: str) -> list[Token]:
    toks: list[Token] = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] in "_'"):
                j += 1
            word = text[i:j]
            toks.append(Token("kw" if word in KEYWORDS else "name", word, line, col))
            col += j - i
            i = j
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            toks.append(Token("num", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch in _SYMBOLS:
            toks.append(Token("sym", ch, line, col))
            col += 1
            i += 1
            continue
        raise CPSyntaxError(f"unexpected character {ch!r}", line, col)
    toks.append(Token("eof", "", line, col))
    return toks


# The deepest syntax tree the parser accepts: a process, type or
# configuration with more nodes than this on one path is a syntax error,
# and so is input nested deeper in parentheses. check, denote, translate
# and transform of a term this deep finish within Python's default
# recursion limit; transform of a term and type 100 deep does not.
MAX_DEPTH = 64


def _chains(toks: list[Token]) -> dict[int, int]:
    """The number of `|` at the top level of each segment, keyed by its first token.

    A segment starts at the start of the input, after an opening bracket
    and after `;` or `@`, and ends at the next of these at its level or at
    its closing bracket. Every process group starts a segment.
    """
    counts = {0: 0}
    starts = [0]
    for i, t in enumerate(toks):
        if t.kind != "sym":
            continue
        if t.text in "([{":
            starts.append(i + 1)
            counts[i + 1] = 0
        elif t.text in ")]}":
            if len(starts) > 1:
                starts.pop()
        elif t.text in ";@":
            starts[-1] = i + 1
            counts[i + 1] = 0
        elif t.text == "|":
            counts[starts[-1]] += 1
    return counts


def _nested(parse):
    """Make ``parse`` parse one node, with its subterms one level deeper."""

    def nested(self):
        if self.depth >= MAX_DEPTH:
            self.error(f"nesting deeper than {MAX_DEPTH}")
        self.depth += 1
        node = parse(self)
        self.depth -= 1
        return node

    return nested


class _Parser:
    def __init__(self, text: str):
        self.toks = tokenize(text)
        self.pos = 0
        self.depth = 0  # the number of nodes above the one being parsed
        self.chains = _chains(self.toks)

    def peek(self) -> Token:
        return self.toks[self.pos]

    def next(self) -> Token:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def error(self, msg: str):
        t = self.peek()
        raise CPSyntaxError(f"{msg} (found {t.text!r})", t.line, t.col)

    def expect(self, kind: str, text: str | None = None) -> Token:
        t = self.peek()
        if t.kind != kind or (text is not None and t.text != text):
            self.error(f"expected {text or kind}")
        return self.next()

    def at(self, kind: str, text: str | None = None) -> bool:
        t = self.peek()
        return t.kind == kind and (text is None or t.text == text)

    def done(self):
        if not self.at("eof"):
            self.error("trailing input")

    # types

    @_nested
    def type_(self) -> Formula:
        t = self.peek()
        if t.kind == "num" and t.text == "1":
            self.next()
            return Unit()
        if self.at("kw", "bot"):
            self.next()
            return Bottom()
        if self.at("sym", "!"):
            self.next()
            return OfCourse(self.type_())
        if self.at("sym", "?"):
            self.next()
            return WhyNot(self.type_())
        if self.at("sym", "("):
            self.next()
            left = self.type_()
            op = self.peek()
            ctors = {"*": Tensor, "%": Par, "+": Plus, "&": With}
            if op.kind != "sym" or op.text not in ctors:
                self.error("expected a type connective *, %, + or &")
            self.next()
            right = self.type_()
            self.expect("sym", ")")
            return ctors[op.text](left, right)
        self.error("expected a type")

    # contexts

    def context(self) -> dict[str, Formula]:
        out: dict[str, Formula] = {}
        if self.at("eof"):
            return out
        while True:
            tok = self.expect("name")
            if tok.text in out:
                raise CPSyntaxError(f"duplicate context name {tok.text}", tok.line, tok.col)
            self.expect("sym", ":")
            out[tok.text] = self.type_()
            if self.at("sym", ","):
                self.next()
                continue
            return out

    # processes

    def process(self) -> Process:
        return self.group()

    def group(self) -> Process:
        # a0 | a1 | ... | ak is the left-nested Mix(...Mix(a0, a1)..., ak):
        # a0 and a1 lie under k Mix nodes, and each later atom under one fewer.
        base = self.depth
        self.depth += self.chains.get(self.pos, 0)
        p = self.atom()
        while self.at("sym", "|"):
            self.next()
            p = Mix(p, self.atom())
            self.depth -= 1
        self.depth = base
        return p

    @_nested
    def atom(self) -> Process:
        t = self.peek()
        if t.kind == "num" and t.text == "0":
            self.next()
            return Inact()
        if self.at("sym", "("):
            self.next()
            p = self.group()
            self.expect("sym", ")")
            return p
        if self.at("kw", "new"):
            self.next()
            x = self.expect("name").text
            self.expect("sym", ":")
            a = self.type_()
            self.expect("sym", "(")
            left = self.atom()
            self.expect("sym", "|")
            right = self.atom()
            self.expect("sym", ")")
            return Cut(x, a, left, right)
        if self.at("kw", "fwd"):
            self.next()
            x = self.expect("name").text
            y = self.expect("name").text
            return Fwd(x, y)
        if self.at("kw", "weak"):
            self.next()
            x = self.expect("name").text
            self.expect("sym", ":")
            a = self.type_()
            self.expect("sym", ".")
            return Weak(x, a, self.atom())
        if self.at("kw", "ctr"):
            self.next()
            x = self.expect("name").text
            self.expect("sym", "<")
            x1 = self.expect("name").text
            self.expect("sym", ",")
            x2 = self.expect("name").text
            self.expect("sym", ">")
            self.expect("sym", ".")
            return Contract(x, x1, x2, self.atom())
        if self.at("sym", "!"):
            self.next()
            x = self.expect("name").text
            self.expect("sym", "(")
            y = self.expect("name").text
            self.expect("sym", ")")
            self.expect("sym", ".")
            return Server(x, y, self.atom())
        if self.at("sym", "?"):
            self.next()
            x = self.expect("name").text
            self.expect("sym", "[")
            y = self.expect("name").text
            self.expect("sym", "]")
            self.expect("sym", ".")
            return Client(x, y, self.atom())
        if t.kind == "name":
            x = self.next().text
            if self.at("sym", "["):
                self.next()
                if self.at("sym", "]"):
                    self.next()
                    return EmptyOut(x)
                y = self.expect("name").text
                self.expect("sym", "]")
                self.expect("sym", "(")
                left = self.atom()
                self.expect("sym", "|")
                right = self.atom()
                self.expect("sym", ")")
                return Out(y, x, left, right)
            if self.at("sym", "("):
                self.next()
                if self.at("sym", ")"):
                    self.next()
                    self.expect("sym", ".")
                    return EmptyIn(x, self.atom())
                y = self.expect("name").text
                self.expect("sym", ")")
                self.expect("sym", ".")
                return In(x, y, self.atom())
            if self.at("sym", "<"):
                self.next()
                n = self.expect("num")
                if n.text not in ("1", "2"):
                    self.error("selection index must be 1 or 2")
                self.expect("sym", ".")
                return Select(x, int(n.text), self.atom())
            if self.at("sym", ">"):
                self.next()
                self.expect("sym", "{")
                left = self.group()
                self.expect("sym", ";")
                right = self.group()
                self.expect("sym", "}")
                return Case(x, left, right)
            self.error("expected a process form after the name")
        self.error("expected a process")

    # configurations

    @_nested
    def config(self) -> Configuration:
        if self.at("kw", "zero"):
            self.next()
            return CZero()
        if self.at("sym", "{"):
            self.next()
            p = self.group()
            self.expect("sym", "@")
            ctx = {} if self.at("sym", "}") else self.context()
            self.expect("sym", "}")
            return CProc(check(p, ctx, System.CP02))
        if self.at("kw", "cut"):
            self.next()
            x = self.expect("name").text
            self.expect("sym", ":")
            a = self.type_()
            self.expect("sym", "(")
            left = self.config()
            self.expect("sym", "|")
            right = self.config()
            self.expect("sym", ")")
            return CCut(x, a, left, right)
        if self.at("kw", "par"):
            self.next()
            self.expect("sym", "(")
            left = self.config()
            self.expect("sym", "|")
            right = self.config()
            self.expect("sym", ")")
            return CPar(left, right)
        if self.at("kw", "weak"):
            self.next()
            x = self.expect("name").text
            self.expect("sym", ":")
            a = self.type_()
            self.expect("sym", ".")
            return CWeak(x, a, self.config())
        if self.at("kw", "con"):
            self.next()
            x1 = self.expect("name").text
            self.expect("sym", "<")
            a1 = self.expect("name").text
            self.expect("sym", ",")
            a2 = self.expect("name").text
            self.expect("sym", ">")
            self.expect("sym", ".")
            sub = self.config()
            if a1 != x1:
                self.error("configuration contraction keeps its first name")
            return CCon(a1, a2, sub)
        self.error("expected a configuration")


def parse_type(text: str) -> Formula:
    p = _Parser(text)
    out = p.type_()
    p.done()
    return out


def parse_process(text: str) -> Process:
    p = _Parser(text)
    out = p.process()
    p.done()
    return out


def parse_context(text: str) -> dict[str, Formula]:
    p = _Parser(text)
    out = p.context()
    p.done()
    return out


def parse_config(text: str) -> Configuration:
    p = _Parser(text)
    out = p.config()
    p.done()
    return out


# --- printing -------------------------------------------------------------------


def format_process(p: Process) -> str:
    match p:
        case Inact():
            return "0"
        case Mix(l, r):
            return f"{format_process(l) if isinstance(l, Mix) else _atom(l)} | {_atom(r)}"
        case _:
            return _atom(p)


def _atom(p: Process) -> str:
    match p:
        case Inact():
            return "0"
        case Mix(_, _):
            return f"({format_process(p)})"
        case Fwd(a, b):
            return f"fwd {a} {b}"
        case Cut(x, a, l, r):
            return f"new {x}:{format_formula(a)} ({_atom(l)} | {_atom(r)})"
        case Out(y, x, l, r):
            return f"{x}[{y}]({_atom(l)} | {_atom(r)})"
        case In(x, y, b):
            return f"{x}({y}).{_atom(b)}"
        case Server(x, y, b):
            return f"!{x}({y}).{_atom(b)}"
        case Client(x, y, b):
            return f"?{x}[{y}].{_atom(b)}"
        case Select(x, i, b):
            return f"{x}<{i}.{_atom(b)}"
        case Case(x, l, r):
            return f"{x}>{{{format_process(l)} ; {format_process(r)}}}"
        case EmptyOut(x):
            return f"{x}[]"
        case EmptyIn(x, b):
            return f"{x}().{_atom(b)}"
        case Weak(x, a, b):
            return f"weak {x}:{format_formula(a)}.{_atom(b)}"
        case Contract(x, x1, x2, b):
            return f"ctr {x}<{x1},{x2}>.{_atom(b)}"
    raise CpwbError(f"not a process: {p!r}")


def format_context(ctx) -> str:
    return ", ".join(f"{n}:{format_formula(a)}" for n, a in sorted(dict(ctx).items()))


def derivation_summary(d: Derivation, indent: str = "") -> str:
    lines = [f"{indent}{d.rule}: {format_process(d.process)} |- {format_context(d.ctx)}"]
    for prem in d.premises:
        lines.append(derivation_summary(prem, indent + "  "))
    return "\n".join(lines)


# --- command dispatch --------------------------------------------------------------

EXIT_PROPERTY = 1
EXIT_SYNTAX = 2
EXIT_TYPE = 3
EXIT_USAGE = 4
EXIT_PIPE = 128 + 13  # as if killed by SIGPIPE, like other filters in a pipeline


def _read(path: str) -> str:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as e:
        start = data.rfind(b"\n", 0, e.start) + 1
        line = data.count(b"\n", 0, start) + 1
        col = len(data[start:e.start].decode("utf-8")) + 1
        raise CPSyntaxError(f"{path} is not UTF-8 (byte {data[e.start]:#04x})", line, col) from None


def _system(name: str) -> System:
    try:
        return System(name)
    except ValueError:
        raise ConfigError(f"unknown system {name!r}; use cp, cp0 or cp02") from None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="cpwb", description="classical-processes workbench")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp, ctx=True):
        sp.add_argument("file")
        if ctx:
            sp.add_argument("--ctx", default="", help="typing context, e.g. 'x:1, y:bot'")

    sp = sub.add_parser("check", help="type-check a process")
    common(sp)
    sp.add_argument("--sys", default="cp02", help="cp, cp0 or cp02")

    sp = sub.add_parser("denote", help="print the canonical denotation")
    common(sp)
    sp.add_argument("--sys", default="cp02")
    sp.add_argument("-K", type=int, default=2, dest="bound")

    sp = sub.add_parser("observe", help="observations of a closed configuration")
    sp.add_argument("file")
    sp.add_argument("-K", type=int, default=2, dest="bound")
    sp.add_argument("--depth", type=int, default=DEFAULT_DEPTH)

    sp = sub.add_parser("translate", help="translate a process")
    common(sp)
    sp.add_argument("--sys", default="cp02")
    sp.add_argument("--emit-typing", action="store_true")

    sp = sub.add_parser("transform", help="wrap a process in its transformer context")
    common(sp)

    sp = sub.add_parser("equiv", help="denotational equivalence of two processes")
    sp.add_argument("file_p")
    sp.add_argument("file_q")
    sp.add_argument("--ctx", default="")
    sp.add_argument("--sys", default="cp02")
    sp.add_argument("-K", type=int, default=2, dest="bound")

    sp = sub.add_parser("suite", help="run the property suites")
    sp.add_argument("--config", default=None, help="JSON suite configuration")
    sp.add_argument("--json", action="store_true", help="emit the report as JSON")

    args = ap.parse_args(argv)
    try:
        return _dispatch(args)
    except CPSyntaxError as e:
        print(f"syntax error: {e}", file=sys.stderr)
        return EXIT_SYNTAX
    except CPTypeError as e:
        print(f"type error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_TYPE
    except DepthExceeded as e:
        print(f"depth exceeded: {e}", file=sys.stderr)
        return EXIT_PROPERTY
    except BrokenPipeError:
        # The reader closed stdout (`cpwb denote ... | head`). What is left
        # goes to the null device, so the flush at exit does not fail again.
        sys.stdout = open(os.devnull, "w")
        return EXIT_PIPE
    except (ConfigError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


def _dispatch(args) -> int:
    for flag, dest in (("-K", "bound"), ("--depth", "depth")):
        value = getattr(args, dest, 0)
        if value < 0:
            raise ConfigError(f"{flag} must be >= 0, got {value}")
    match args.command:
        case "check":
            d = check(parse_process(_read(args.file)), parse_context(args.ctx), _system(args.sys))
            print(derivation_summary(d))
            return 0
        case "denote":
            d = check(parse_process(_read(args.file)), parse_context(args.ctx), _system(args.sys))
            print(dumps(tuples_to_json(denote(d, args.bound).tuples)))
            return 0
        case "observe":
            cfg = parse_config(_read(args.file))
            print(dumps(tuples_to_json(observe(cfg, args.bound, args.depth))))
            return 0
        case "translate":
            ctx = parse_context(args.ctx)
            d = check(parse_process(_read(args.file)), ctx, _system(args.sys))
            print(format_process(translate_process(d)))
            if args.emit_typing:
                print(format_context(translated_context(ctx)))
            return 0
        case "transform":
            ctx = parse_context(args.ctx)
            p = parse_process(_read(args.file))
            try:
                d = fill(transformer_context(ctx), p)
            except TypeMismatch as e:
                raise e.__cause__ from None  # the checker's own error, as from `check`
            print(format_process(d.process))
            return 0
        case "equiv":
            ctx = parse_context(args.ctx)
            p = parse_process(_read(args.file_p))
            q = parse_process(_read(args.file_q))
            dp, dq = check_shared(p, q, ctx, _system(args.sys))
            sp, sq = denote(dp, args.bound).tuples, denote(dq, args.bound).tuples
            if sp == sq:
                print("equivalent")
                return 0
            print("not equivalent")
            print(dumps({
                "only_left": tuples_to_json(sp - sq),
                "only_right": tuples_to_json(sq - sp),
            }))
            return EXIT_PROPERTY
        case "suite":
            cfg = SuiteConfig() if args.config is None else SuiteConfig.from_json(_read(args.config))
            report = run_suite(cfg)
            print(dumps(report.to_json()) if args.json else report.to_text())
            return 0 if report.ok else EXIT_PROPERTY
    raise ConfigError(f"unknown command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
