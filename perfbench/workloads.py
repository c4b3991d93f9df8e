"""The benchmark's workloads: inputs from a seed, timed operations, checks.

Each workload is built in ``__init__`` (the inputs; this counts as set-up),
runs its operations in ``run`` (the timed part) and judges the outcome in
``verify`` against references that do not come from the layer under test.
An operation is one suite instance, one chain length or one adequacy pair.
A wrong verdict, a failed output check or an exception fails it.

cpwb is looked up through its modules at call time (``typing.check``, not
a name bound at import) so that a tracer installed after import sees the
benchmark's own calls too.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import time
from pathlib import Path

from cpwb import cli, denotations, harness, oracle, syntax, typing
from cpwb.denotations import STAR, Pair, Tag
from expected import BANG_PAIRS, BANG_SIZE, CHAIN_LENGTHS, SUITE_INSTANCES

clock = time.perf_counter


def _percentile(sorted_ms, q):
    """Nearest-rank percentile ``q`` (0-100) of an ascending list."""
    k = max(0, -(-q * len(sorted_ms) // 100) - 1)
    return sorted_ms[k]


class Outcome:
    """What one pass measured and what it still has to check."""

    def __init__(self):
        self.wall_s = 0.0
        self.op_ms = []  # one latency per operation, in run order
        self.results = []  # per operation: the value to verify, or an exception
        self.extra = {}  # workload-specific figures for the trace run

    def timed(self, fn, *args):
        t0 = clock()
        try:
            result = fn(*args)
        except Exception as exc:  # a crash is a failed operation, not the end of the pass
            result = exc
        self.op_ms.append((clock() - t0) * 1000.0)
        self.results.append(result)
        return result

    def latency(self):
        ms = sorted(self.op_ms)
        return {"p50": _percentile(ms, 50), "p99": _percentile(ms, 99), "samples": len(ms)}


# --- suite_default -----------------------------------------------------------

class SuiteDefault:
    """``cpwb suite --json`` at the default config, with the seed in the config."""

    def __init__(self, seed, workdir):
        self.config = Path(workdir) / f"suite-config-{seed}.json"
        self.config.write_text(json.dumps({"seed": seed}), encoding="utf-8")

    def run(self):
        out = Outcome()
        buf = io.StringIO()
        t0 = clock()
        with contextlib.redirect_stdout(buf):
            code = out.timed(cli.main, ["suite", "--json", "--config", str(self.config)])
        out.wall_s = clock() - t0
        out.results = [(code, buf.getvalue())]
        return out

    def verify(self, out):
        attempted = sum(SUITE_INSTANCES.values())
        code, text = out.results[0]
        if isinstance(code, Exception):
            return attempted, attempted, [f"cpwb suite raised {code!r}"]
        try:
            report = json.loads(text)
        except ValueError:
            return attempted, attempted, [f"cpwb suite printed no JSON report (exit {code})"]
        failed, errors = 0, []
        for name in sorted(set(SUITE_INSTANCES) | set(report)):
            entry = report.get(name, {"instances": 0, "failures": [], "millis": 0})
            miss = abs(entry["instances"] - SUITE_INSTANCES.get(name, 0)) + len(entry["failures"])
            if miss:
                failed += miss
                errors.append(f"{name}: {entry['instances']} instances, "
                              f"{len(entry['failures'])} failures")
        if code != 0 and not failed:
            failed, errors = 1, [f"cpwb suite exited {code} with every suite passing"]
        out.extra["suite_ms"] = {n: e["millis"] for n, e in report.items()}
        # The report times suites, not instances: charge each instance its
        # suite's millis over the suite's instance count.
        out.op_ms = [e["millis"] / e["instances"] for e in report.values()
                     for _ in range(e["instances"])]
        return attempted, failed, errors


# --- denote_chain ------------------------------------------------------------

class DenoteChain:
    """Check and denote ``x[y_1](fwd y_1 u_1 | ... x[])`` for n = 1..7."""

    def __init__(self, seed, workdir):
        stem = random.Random(seed).randrange(10**6)  # the seed picks the channel names
        self.x = f"x{stem}"
        self.ys = [f"y{stem}_{i}" for i in CHAIN_LENGTHS]
        self.us = [f"u{stem}_{i}" for i in CHAIN_LENGTHS]
        self.inputs = [self.chain(n) for n in CHAIN_LENGTHS]

    def chain(self, n):
        """The chain of length n at ``x: B * (B * ... 1)``, ``u_i: dual(B)``."""
        one, bot = syntax.Unit(), syntax.Bottom()
        b = syntax.Plus(syntax.Plus(one, one), syntax.Plus(one, one))
        b_dual = syntax.With(syntax.With(bot, bot), syntax.With(bot, bot))
        proc, typ, ctx = syntax.EmptyOut(self.x), one, {}
        for i in reversed(range(n)):
            proc = syntax.Out(self.ys[i], self.x, syntax.Fwd(self.ys[i], self.us[i]), proc)
            typ = syntax.Tensor(b, typ)
            ctx[self.us[i]] = b_dual
        ctx[self.x] = typ
        return proc, ctx

    @staticmethod
    def _denote(proc, ctx):
        return denotations.denote(typing.check(proc, ctx, typing.System.CP02), 2).tuples

    def run(self):
        out = Outcome()
        t0 = clock()
        for proc, ctx in self.inputs:
            out.timed(self._denote, proc, ctx)
        out.wall_s = clock() - t0
        out.extra["chain_ms"] = list(out.op_ms)
        return out

    def reference(self, n):
        """The closed form ``{x: pair(o_1, ... pair(o_n, *)), u_i: o_i}``."""
        obs = [Tag(i, Tag(j, STAR)) for i in (1, 2) for j in (1, 2)]
        rows = [((), STAR)]  # (u_i observations, x observation) built from the tail
        for _ in range(n):
            rows = [((o, *us), Pair(o, xo)) for o in obs for us, xo in rows]
        names = self.us[:n]
        return frozenset(
            tuple(sorted([(self.x, xo), *zip(names, us)])) for us, xo in rows
        )

    def verify(self, out):
        failed, errors = 0, []
        for n, result in zip(CHAIN_LENGTHS, out.results):
            if isinstance(result, Exception):
                failed, errors = failed + 1, errors + [f"n={n}: raised {result!r}"]
            elif result != self.reference(n):
                failed, errors = failed + 1, errors + [f"n={n}: denotation differs from closed form"]
        return len(self.inputs), failed, errors


# --- oracle_bang -------------------------------------------------------------

class OracleBang:
    """Adequacy of ``!x(y).y[]`` cut against every ``?bot`` process of size <= 9."""

    def __init__(self, seed, workdir):
        bang, whynot = syntax.OfCourse(syntax.Unit()), syntax.WhyNot(syntax.Bottom())
        server = typing.check(syntax.Server("x", "y", syntax.EmptyOut("y")), {"x": bang},
                              typing.System.CP02)
        clients = harness.enumerate_processes({"x": whynot}, BANG_SIZE, typing.System.CP02)
        self.pairs = [
            oracle.CCut("x", bang, oracle.CProc(server),
                        oracle.CProc(typing.check(q, {"x": whynot}, typing.System.CP02)))
            for q in clients
        ]
        random.Random(seed).shuffle(self.pairs)  # the seed picks the order

    def run(self):
        out = Outcome()
        t0 = clock()
        for config in self.pairs:
            out.timed(oracle.adequacy_check, config)
        out.wall_s = clock() - t0
        return out

    def verify(self, out):
        failed = sum(r is not True for r in out.results) + abs(BANG_PAIRS - len(out.results))
        errors = [f"{len(out.results)} pairs, {failed} not adequate"] if failed else []
        return BANG_PAIRS, failed, errors


WORKLOADS = {
    "suite_default": SuiteDefault,
    "denote_chain": DenoteChain,
    "oracle_bang": OracleBang,
}
