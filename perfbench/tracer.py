"""Layer spans recorded from outside the program.

The tracer wraps the public functions of each cpwb layer. The modules of
cpwb import one another's functions by name (``from .typing import
check``), so a wrapper bound only in the defining module would miss every
call made through such a name. ``Tracer.install`` therefore rebinds each
wrapped function in every loaded ``cpwb`` module that holds it, the
defining module included.

A span is (layer, parent span, start, end) in integer nanoseconds. The
spans live in four ``array`` columns in memory and are written out once,
by ``Tracer.write``, when the pass ends. A call into the layer that is
already current (recursion, or one public function of a layer calling
another) is counted as a re-entry and opens no span, so a layer's self
time is its span time minus the spans of the other layers it called.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from contextlib import contextmanager

# layer -> (module, public functions); the layers the benchmark reports.
LAYERS = {
    "cli": ("cli", ("main",)),
    "harness.enumerate": ("harness", ("enumerate_processes", "enumerate_formulas", "formula_pool")),
    "harness.self": ("harness", ("run_suite",)),
    "syntax": ("syntax", ("dual", "free_names", "substitute", "alpha_eq")),
    "typing": ("typing", ("check", "fill", "make_context", "check_context")),
    "denotations": ("denotations", ("denote", "obs_space", "join_tuples", "equivalent")),
    "oracle.observe": ("oracle", ("observe",)),
    "oracle.denote_config": ("oracle", ("denote_config", "check_config")),
    "translation": ("translation", ("translate_process", "synchronizer", "translated_context")),
    "transformers": ("transformers", ("transformer", "transformer_context", "context_denotation")),
    "obs_transform": ("obs_transform", ("l_obs", "l_ctx")),
}

# The benchmark's own code between layer calls: the root span of a pass.
BENCH = "bench"


class Tracer:
    def __init__(self):
        self.names = [BENCH, *LAYERS]
        self.layer = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.reentries = [0] * len(self.names)
        self._state = [-1, -1]  # current span, its layer
        self._bound = []  # (module, attribute, original) for uninstall

    def install(self):
        """Wrap every layer function and rebind it wherever cpwb holds it."""
        modules = [m for n, m in sys.modules.items() if n == "cpwb" or n.startswith("cpwb.")]
        wrappers = {}
        for lid, (module, functions) in enumerate(LAYERS.values(), start=1):
            home = sys.modules[f"cpwb.{module}"]
            for fn_name in functions:
                fn = getattr(home, fn_name)
                wrappers[id(fn)] = (fn, self._wrap(fn, lid))
        for m in modules:
            for attr, value in list(vars(m).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(m, attr, hit[1])
                    self._bound.append((m, attr, value))

    def uninstall(self):
        for m, attr, value in self._bound:
            setattr(m, attr, value)
        self._bound.clear()

    def _wrap(self, fn, lid):
        layer, parent_col, start, end = self.layer, self.parent, self.start, self.end
        state, reentries, clock = self._state, self.reentries, time.perf_counter_ns

        def traced(*args, **kwargs):
            parent, parent_layer = state
            if parent_layer == lid:
                reentries[lid] += 1
                return fn(*args, **kwargs)
            i = len(start)
            layer.append(lid)
            parent_col.append(parent)
            end.append(0)
            state[0], state[1] = i, lid
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                state[0], state[1] = parent, parent_layer

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    @contextmanager
    def root(self):
        """The pass's root span; every layer span of the pass nests in it."""
        if self._state != [-1, -1]:
            raise RuntimeError("root span opened inside another span")
        i = len(self.start)
        self.layer.append(0)
        self.parent.append(-1)
        self.end.append(0)
        self._state[:] = [i, 0]
        self.start.append(time.perf_counter_ns())
        try:
            yield
        finally:
            self.end[i] = time.perf_counter_ns()
            self._state[:] = [-1, -1]

    def summary(self):
        """Per layer: spans opened, re-entries, and self time in ns."""
        start, end, parent, layer = self.start, self.end, self.parent, self.layer
        self_ns = [e - s for s, e in zip(start, end)]
        for i, p in enumerate(parent):
            if p >= 0:
                self_ns[p] -= end[i] - start[i]
        calls = [0] * len(self.names)
        total = [0] * len(self.names)
        for lid, t in zip(layer, self_ns):
            calls[lid] += 1
            total[lid] += t
        roots = sum(end[i] - start[i] for i, p in enumerate(parent) if p < 0)
        layers = {
            name: {"calls": calls[k], "reentries": self.reentries[k], "self_ns": total[k]}
            for k, name in enumerate(self.names)
        }
        return {"spans": len(start), "root_ns": roots, "layers": layers}

    def write(self, stem, **about):
        """Write the spans as ``<stem>.spans`` columns and a JSON header."""
        with open(f"{stem}.spans", "wb") as fh:
            for col in (self.layer, self.parent, self.start, self.end):
                col.tofile(fh)
        header = {
            **about,
            "layers": self.names,
            "spans": len(self.start),
            "columns": [["layer", "i"], ["parent", "i"], ["start_ns", "q"], ["end_ns", "q"]],
            "byteorder": sys.byteorder,
        }
        with open(f"{stem}.spans.json", "w", encoding="utf-8") as fh:
            json.dump(header, fh)
