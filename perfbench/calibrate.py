"""A fixed Python kernel that measures how fast the host runs right now.

The benchmark's host drifts in speed by about 20% over minutes: the same
code gave a suite_default ``wall_s`` near 6.0 s in one ten-seed set and
near 4.4 s in another an hour later. ``run.py`` times this kernel before
each pass and after the last one and scales every time metric of the run
by ``REFERENCE_S`` over the kernel's mean time, so times read as seconds
at a reference host speed.

The kernel does what cpwb does most: it builds frozen dataclass terms,
matches on them, substitutes names, collects free names and sorts small
tuples. It imports nothing from cpwb, so no change to cpwb changes its
time.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

# The kernel's time on the host the benchmark was written on, when quiet.
REFERENCE_S = 0.004


@dataclass(frozen=True)
class _Var:
    name: str


@dataclass(frozen=True)
class _Bind:
    bound: str
    body: object


@dataclass(frozen=True)
class _Apply:
    fn: object
    arg: object


def _free(t):
    match t:
        case _Var(n):
            return frozenset((n,))
        case _Bind(b, body):
            return _free(body) - {b}
        case _Apply(f, a):
            return _free(f) | _free(a)


def _subst(t, new, old):
    match t:
        case _Var(n):
            return _Var(new) if n == old else t
        case _Bind(b, body):
            return t if b == old else _Bind(b, _subst(body, new, old))
        case _Apply(f, a):
            return _Apply(_subst(f, new, old), _subst(a, new, old))


def _build(depth, i):
    if depth == 0:
        return _Var(f"x{i % 5}")
    if depth % 2:
        return _Bind(f"x{i % 3}", _build(depth - 1, i + 1))
    return _Apply(_build(depth - 1, i + 2), _build(depth - 1, i + 3))


def kernel(rounds=60):
    """One unit of calibration work; returns a checksum."""
    seen = set()
    for i in range(rounds):
        t = _subst(_build(6, i), "y", f"x{i % 5}")
        seen.add(t)
        row = dict(sorted((n, i % 4) for n in _free(t)))
        row["z"] = i
        seen.add(tuple(sorted(row.items())))
    return len(seen)


def seconds_per_kernel(budget_s):
    """Median time of one kernel call over about ``budget_s`` seconds."""
    times = []
    end = time.perf_counter() + budget_s
    while time.perf_counter() < end or len(times) < 3:
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    times.sort()
    return times[len(times) // 2]
