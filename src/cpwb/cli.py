"""Command-line frontend: the textual grammar and the subcommands.

Each type, process and configuration form is one template, written as it
prints, in `syntax.FORMULA_SYNTAX`, `_PROCESS_SYNTAX` or `_CONFIG_SYNTAX`:
the parser reads the form along a trie built from its table, and
`syntax.printers` compiles the printer from it. Types are 1, bot, (A * B),
(A % B), (A + B), (A & B), !A and ?A; every binary connective is
parenthesized. A context is
`x:A, y:B`, and the empty context the empty string. Composition under `new`,
outputs and prefixes takes a single atom (parenthesize mixes).
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass

from .denotations import TooLarge, check_shared, dumps, denote, tuples_to_json
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
    FORMULA_SYNTAX,
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
    Out,
    Process,
    Select,
    Server,
    Weak,
    format_formula,
    pieces,
    printers,
)
from .transformers import transformer_context
from .translation import translate_process, translated_context
from .typing import CpwbError, CPTypeError, Derivation, System, TooDeep, check, check_hole, plug, too_deep

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
    pos: int  # the offset of its first character in the source


def _position(text: str, pos: int) -> tuple[int, int]:
    """The line and column, both counted from 1, of offset ``pos`` in ``text``."""
    return text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos)


_SYMBOLS = "()[]{}<>.:;,|*%+&!?@"


def tokenize(text: str) -> list[Token]:
    toks: list[Token] = []
    i = 0
    while i < len(text):
        ch, j = text[i], i + 1
        if ch.isspace():
            i = j
            continue
        if ch.isalpha() or ch == "_":
            while j < len(text) and (text[j].isalnum() or text[j] in "_'"):
                j += 1
            kind = "kw" if text[i:j] in KEYWORDS else "name"
        elif ch.isdigit():
            while j < len(text) and text[j].isdigit():
                j += 1
            kind = "num"
        elif ch in _SYMBOLS:
            kind = "sym"
        else:
            raise CPSyntaxError(f"unexpected character {ch!r}", *_position(text, i))
        toks.append(Token(kind, text[i:j], i))
        i = j
    toks.append(Token("eof", "", len(text)))
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


# --- concrete syntax --------------------------------------------------------------

# Every process and configuration form, written as it prints. A slot
# `{field}` is read and printed by the type of the class's field so named:
# a `Name`, a `Formula`, the selection index (`int`), a `Process` (an atom,
# or a `|` group where marked `:group`) or a `Configuration`. A slot written
# twice must read the same name twice. The types are read along the trie of
# `syntax.FORMULA_SYNTAX`. The parenthesized group, `{ P @ ctx }`, the `|`
# chain and contexts are read by hand in `_Parser`.
_PROCESS_SYNTAX = {
    Inact: "0",
    Fwd: "fwd {left} {right}",
    Cut: "new {name}:{annot} ({left} | {right})",
    Out: "{channel}[{payload}]({left} | {right})",
    In: "{channel}({payload}).{body}",
    Server: "!{channel}({payload}).{body}",
    Client: "?{channel}[{payload}].{body}",
    Select: "{channel}<{branch}.{body}",
    Case: "{channel}>{{{left:group} ; {right:group}}}",
    EmptyOut: "{channel}[]",
    EmptyIn: "{channel}().{body}",
    Weak: "weak {name}:{annot}.{body}",
    Contract: "ctr {name}<{left_name},{right_name}>.{body}",
}

_CONFIG_SYNTAX = {
    CZero: "zero",
    CCut: "cut {name}:{annot} ({left} | {right})",
    CPar: "par ({left} | {right})",
    CWeak: "weak {name}:{annot}.{body}",
    CCon: "con {left_name}<{left_name},{right_name}>.{body}",
}


class _Branch:
    """A node of a syntax table's dispatch trie: the templates, token by
    token and slot by slot, with their common prefixes shared."""

    __slots__ = ("error", "literals", "slot", "form")

    def __init__(self, error: str):
        self.error = error  # what a token that fits no way on is told
        self.literals: dict[str, _Branch] = {}  # keyed by token text
        self.slot = None  # (reader, field, next branch)
        self.form = None  # where a template ends: its class


def _trie(table, noun: str) -> _Branch:
    root = _Branch(f"expected a {noun}")
    for cls, template in table.items():
        node = root
        for literal, name, kind in pieces(cls, template):
            for tok in tokenize(literal)[:-1]:
                branch = _Branch(f"expected a {noun} form after {tok.text}")
                node = node.literals.setdefault(tok.text, branch)
            if name is not None:
                if node.slot is None:  # templates that share a slot name its field alike
                    branch = _Branch(f"expected a {noun} form after the {kind.lower()}")
                    node.slot = _READERS[kind], name, branch
                node = node.slot[2]
        node.form = cls
    return root


class _Parser:
    def __init__(self, text: str):
        self.text = text
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
        raise CPSyntaxError(f"{msg} (found {t.text!r})", *_position(self.text, t.pos))

    def expect(self, kind: str, text: str | None = None) -> Token:
        t = self.peek()
        if t.kind != kind or (text is not None and t.text != text):
            self.error(f"expected {text or kind}")
        return self.next()

    def at(self, kind: str, text: str | None = None) -> bool:
        t = self.peek()
        return t.kind == kind and (text is None or t.text == text)

    def form(self, root: _Branch):
        """One form of a syntax table, read along its trie: a literal that
        matches the next token is read; else past the root the slot is read
        (its reader says what it expected), and at the root the slot only for
        a name, as a form that starts with a slot starts with a name. A slot
        read a second time must read its first value; if not, the error is
        at the second."""
        node, args = root, {}
        while node.form is None:
            start = self.pos
            t = self.toks[start]
            nxt = node.literals.get(t.text)
            if nxt is not None:
                self.pos += 1
                node = nxt
            elif node.slot is not None and (node is not root or t.kind == "name"):
                read, name, node = node.slot
                value = read(self)
                if args.setdefault(name, value) != value:  # only `con` repeats a slot
                    self.pos = start
                    self.error("configuration contraction keeps its first name")
            else:
                lits = [*node.literals]
                self.error(f"expected {lits[0]}" if len(lits) == 1 else node.error)
        return node.form(**args)

    def index(self) -> int:
        n = self.expect("num")
        if n.text not in ("1", "2"):
            self.error("selection index must be 1 or 2")
        return int(n.text)

    @_nested
    def type_(self) -> Formula:
        return self.form(_TYPE_TRIE)

    # contexts

    def context(self) -> dict[str, Formula]:
        out: dict[str, Formula] = {}
        if self.at("eof"):
            return out
        while True:
            tok = self.expect("name")
            if tok.text in out:
                raise CPSyntaxError(f"duplicate context name {tok.text}", *_position(self.text, tok.pos))
            self.expect("sym", ":")
            out[tok.text] = self.type_()
            if self.at("sym", ","):
                self.next()
                continue
            return out

    # processes and configurations

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
        if self.at("sym", "("):
            self.next()
            p = self.group()
            self.expect("sym", ")")
            return p
        return self.form(_PROCESS_TRIE)

    @_nested
    def config(self) -> Configuration:
        if self.at("sym", "{"):
            self.next()
            p = self.group()
            self.expect("sym", "@")
            ctx = {} if self.at("sym", "}") else self.context()
            self.expect("sym", "}")
            return CProc(check(p, ctx, System.CP02))
        return self.form(_CONFIG_TRIE)


_READERS = {"Name": lambda p: p.expect("name").text, "Formula": _Parser.type_, "int": _Parser.index,
            "Process": _Parser.atom, "group": _Parser.group, "Configuration": _Parser.config}
_TYPE_TRIE = _trie(FORMULA_SYNTAX, "type")
_PROCESS_TRIE = _trie(_PROCESS_SYNTAX, "process")
_CONFIG_TRIE = _trie(_CONFIG_SYNTAX, "configuration")


def _parse(text: str, read):
    p = _Parser(text)
    out = read(p)
    if not p.at("eof"):
        p.error("trailing input")
    return out


def parse_type(text: str) -> Formula:
    return _parse(text, _Parser.type_)


def parse_process(text: str) -> Process:
    return _parse(text, _Parser.group)


def parse_context(text: str) -> dict[str, Formula]:
    return _parse(text, _Parser.context)


def parse_config(text: str) -> Configuration:
    return _parse(text, _Parser.config)


# --- printing -------------------------------------------------------------------


def format_process(p: Process) -> str:
    try:
        return _group(p)
    except RecursionError:
        raise too_deep("the process") from None


def _group(p: Process) -> str:
    if isinstance(p, Mix):
        return f"{_group(p.left)} | {_atom(p.right)}"
    return _atom(p)


def _atom(p: Process) -> str:
    write = _PRINTERS.get(type(p))
    if write is not None:
        return write(p)
    if isinstance(p, Mix):
        return f"({_group(p)})"
    raise CpwbError(f"not a process: {p!r}")


_PRINTERS = printers(_PROCESS_SYNTAX, {"Formula": "format_formula", "Process": "_atom", "group": "_group"},
                     globals())


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
EXIT_INTERNAL = 70  # EX_SOFTWARE: an error the CLI has no other code for
EXIT_PIPE = 128 + 13  # as if killed by SIGPIPE, like other filters in a pipeline


def _read(path: str) -> str:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as e:
        head = data[:e.start].decode("utf-8")  # the valid text before the bad byte
        message = f"{path} is not UTF-8 (byte {data[e.start]:#04x})"
        raise CPSyntaxError(message, *_position(head, len(head))) from None


def _system(name: str) -> System:
    try:
        return System(name)
    except ValueError:
        raise ConfigError(f"unknown system {name!r}; use cp, cp0 or cp02") from None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="cpwb", description="classical-processes workbench")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("file")
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

    try:
        args = ap.parse_args(argv)
    except SystemExit as e:  # argparse exits 2 on a usage error, which is 4 here
        return EXIT_USAGE if e.code else 0
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
    except (ConfigError, OSError, TooLarge, TooDeep) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as e:
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_INTERNAL


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
            d = check(parse_process(_read(args.file)), ctx, System.CP02)  # before the context is built
            k = transformer_context(ctx)
            check_hole(k, d)
            p = d.process  # only the filled process is printed, so no derivation is grafted
            for node, _ in k.levels:
                p = plug(node, p)
            print(format_process(p))
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
