"""cpwb's benchmark: time to verdict on three workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The benchmark is a closed loop with one
client: it runs passes of the workload one after another, each in a fresh
interpreter (``one_pass.py``), until ``--seconds`` have gone by. A fresh
interpreter per pass makes every pass pay the cold cost a ``cpwb suite``
user pays, so a cache that outlives one call cannot flatter passes after
the first.

``--trace 0`` prints the end-to-end metrics of untraced passes:

- ``setup_s``: interpreter start, ``import cpwb`` and building the inputs,
  the median over the passes;
- ``wall_s``: the time to verdict of one pass, the mean over the passes;
- ``instance_ms_p50`` / ``instance_ms_p99``: latency of one operation, the
  mean over the passes of each pass's percentile (one adequacy pair on
  oracle_bang, one chain length on denote_chain, one suite instance on
  suite_default, charged its suite's time over its instance count);
- ``peak_rss_mb``: ``ru_maxrss`` of the pass process, the median.

The times of the measured region are means, not medians: on the 2-CPU
host the benchmark was written on, pass times drift with the host's speed
rather than jump at outliers, and over ten seeds the mean of a run's
passes spread 25-45% less than their median on suite_default and
oracle_bang.

Every time metric is in seconds at a reference host speed: ``run.py``
times a fixed kernel (``calibrate.py``) for ``CALIBRATION_S`` before each
pass and after the last, and scales the run's times by
``calibrate.REFERENCE_S`` over the kernel's mean time. In ten-seed sets
this cut the quartile spread of ``wall_s`` from 0.14-0.21 of the median to
0.04-0.10. The unscaled times stay in the pass records.

``--trace 1`` is the traced run. Whatever ``--workload`` names, it runs
every workload, an untraced and a traced pass of each in turn, until
``--seconds`` have gone by, so that every per-layer metric is measured in
every traced run. It prints, from the traced passes (``tracer.py``),
``<workload>.<layer>.calls`` and ``<workload>.<layer>.self_s`` for each
layer the workload enters (``expected.TRACED_LAYERS``) and
``<workload>.trace_overhead_ratio``, traced over untraced mean
``wall_s``; and from the untraced passes ``suite.<name>_ms`` on
suite_default (``expected.TIMED_SUITES``) and ``denotations.growth_n7_n6``
on denote_chain.

Every pass checks its verdicts (``workloads.py``); ``fail_ratio`` is
``failed / attempted`` over all operations of all passes. The last line of
output is one JSON object; the exit code is 1 when a check failed and 2
when the checkout holds no cpwb sources. Each run's pass records go to
``perfbench/out/<workload>-seed<n>.json`` (``traced-seed<n>.json`` for the
traced run) and the spans of each workload's last traced pass to
``perfbench/out/<workload>.spans``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
from expected import TIMED_SUITES, TRACED_LAYERS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# Seconds of calibration kernel before each pass and after the last.
CALIBRATION_S = 0.4

# A run must end within this many seconds, however its passes behave.
RUN_LIMIT_S = 170

# How far the sum of a traced pass's layer self times may fall short of the
# pass time read outside its root span: the cost of opening that span.
SELF_SUM_TOLERANCE_NS = 1_000_000

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "instance_ms_p50": "ms",
    "instance_ms_p99": "ms",
    "peak_rss_mb": "MB",
}


def layer_units():
    units = {}
    for workload, layers in TRACED_LAYERS.items():
        for layer in layers:
            units[f"{workload}.{layer}.calls"] = "count"
            units[f"{workload}.{layer}.self_s"] = "s"
        units[f"{workload}.trace_overhead_ratio"] = "ratio"
    for name in TIMED_SUITES:
        units[f"suite.{name}_ms"] = "ms"
    units["denotations.growth_n7_n6"] = "ratio"
    return units


def run_pass(workload, seed, index, traced, timeout=RUN_LIMIT_S):
    env = dict(os.environ)
    env.pop("CPWB_SEED", None)  # it would override the seed passed in the config
    # Each pass gets its own string-hash layout, as separate user runs do,
    # and the same seed gives the same layouts.
    env["PYTHONHASHSEED"] = str((seed * 7919 + index) % 2**32)
    cmd = [sys.executable, str(HERE / "one_pass.py"), workload, str(seed),
           str(time.clock_gettime_ns(time.CLOCK_MONOTONIC)), str(OUT)]
    if traced:
        cmd.append("--trace")
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"error": "pass timed out"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 0 and lines:
        try:
            return json.loads(lines[-1])
        except ValueError:
            pass
    return {"error": f"pass exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"}


def trace_problem(record):
    """Why a traced pass's spans do not account for its time, or None."""
    trace = record["trace"]
    self_ns = [layer["self_ns"] for layer in trace["layers"].values()]
    gap = trace["pass_ns"] - sum(self_ns)
    if min(self_ns) < 0 or not 0 <= gap <= SELF_SUM_TOLERANCE_NS:
        return f"layer self times sum to {sum(self_ns)} ns of a {trace['pass_ns']} ns pass"
    return None


def e2e_metrics(plain):
    return {
        "setup_s": statistics.median([r["setup_s"] for r in plain]),
        "wall_s": statistics.fmean([r["wall_s"] for r in plain]),
        "instance_ms_p50": statistics.fmean([r["latency_ms"]["p50"] for r in plain]),
        "instance_ms_p99": statistics.fmean([r["latency_ms"]["p99"] for r in plain]),
        "peak_rss_mb": statistics.median([r["peak_rss_mb"] for r in plain]),
    }


def layer_metrics(passes):
    values = {}
    for workload, layers in TRACED_LAYERS.items():
        plain, traced = passes[workload]
        for layer in layers:
            spans = [r["trace"]["layers"][layer] for r in traced]
            values[f"{workload}.{layer}.calls"] = statistics.median(
                [span["calls"] for span in spans])
            values[f"{workload}.{layer}.self_s"] = statistics.median(
                [span["self_ns"] / 1e9 for span in spans])
        values[f"{workload}.trace_overhead_ratio"] = (
            statistics.fmean([r["wall_s"] for r in traced])
            / statistics.fmean([r["wall_s"] for r in plain]))
    for name in TIMED_SUITES:
        values[f"suite.{name}_ms"] = statistics.median(
            [r["suite_ms"][name] for r in passes["suite_default"][0]])
    values["denotations.growth_n7_n6"] = statistics.median(
        [r["chain_ms"][6] / r["chain_ms"][5] for r in passes["denote_chain"][0]])
    return values


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S
    if not (SRC / "cpwb" / "__init__.py").is_file():
        print(f"error: no cpwb sources under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    # Byte-compile once, as an installed package is, so no pass pays for it.
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC / "cpwb"), str(HERE)],
                   check=True, capture_output=True)

    # workload -> (untraced passes, traced passes)
    names = WORKLOADS if args.trace else (args.workload,)
    modes = (False, True) if args.trace else (False,)
    passes = {name: ([], []) for name in names}
    errors = []
    attempted = failed = 0
    start = time.monotonic()
    kernel_s = [calibrate.seconds_per_kernel(CALIBRATION_S)]
    index = 0
    while not errors and (index == 0 or time.monotonic() - start < args.seconds):
        for name in names:
            for is_traced in modes:
                record = run_pass(name, args.seed, index, is_traced,
                                  timeout=max(1.0, deadline - time.monotonic()))
                index += 1
                kernel_s.append(calibrate.seconds_per_kernel(CALIBRATION_S))
                if "error" in record:
                    attempted, failed = attempted + 1, failed + 1
                    errors.append(record["error"])
                    continue
                attempted += record["attempted"]
                failed += record["failed"]
                errors.extend(record["errors"])
                problem = is_traced and trace_problem(record)
                if problem:
                    errors.append(problem)
                passes[name][is_traced].append(record)

    correct = not errors and failed == 0
    if args.trace:
        units = layer_units()
        values = layer_metrics(passes) if correct else {}
    else:
        units = E2E_UNITS
        values = e2e_metrics(passes[args.workload][0]) if correct else {}
    scale = calibrate.REFERENCE_S / statistics.fmean(kernel_s)
    metrics = {name: {"value": values.get(name, 0.0) * (scale if unit in ("s", "ms") else 1),
                      "unit": unit}
               for name, unit in units.items()}

    log = OUT / f"{'traced' if args.trace else args.workload}-seed{args.seed}.json"
    log.write_text(json.dumps({"seed": args.seed, "kernel_s": kernel_s, "scale": scale,
                               "passes": passes, "errors": errors}), encoding="utf-8")
    print(f"seed {args.seed}; closed loop, one client, a fresh interpreter per pass")
    for name, (plain, traced) in passes.items():
        print(f"workload {name}: {len(plain)} untraced passes, {len(traced)} traced")
    for error in errors[:10]:
        print(f"FAILED: {error}")
    print(f"{'fail_ratio':28} {failed / attempted:.6g}  ({failed} of {attempted} operations)")
    print(f"{'host speed scale':28} {scale:.4g}  (each time below is its unscaled value times this)")
    for name, m in metrics.items():
        print(f"{name:28} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
