"""One pass of one workload, in a fresh interpreter.

    python3 perfbench/one_pass.py WORKLOAD SEED SPAWNED_NS WORKDIR [--trace]

SPAWNED_NS is the CLOCK_MONOTONIC reading just before ``run.py`` started
this interpreter, so ``setup_s`` covers interpreter start, ``import cpwb``
and building the inputs. cpwb is imported from the ``src`` directory of
the checkout this file sits in, never from an installed copy. The pass
prints one JSON line; ``run.py`` checks and aggregates it.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main(argv):
    workload, seed, spawned_ns, workdir = argv[0], int(argv[1]), int(argv[2]), Path(argv[3])
    traced = "--trace" in argv[4:]
    sys.path[:0] = [str(SRC), str(HERE)]
    import cpwb

    if Path(cpwb.__file__).resolve().parent != SRC / "cpwb":
        raise SystemExit(f"cpwb imported from {cpwb.__file__}, not from {SRC}")
    import workloads

    tracer = None
    if traced:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    t0 = time.perf_counter_ns()
    with tracer.root() if tracer else nullcontext():
        work = workloads.WORKLOADS[workload](seed, workdir)
        setup_s = (time.clock_gettime_ns(time.CLOCK_MONOTONIC) - spawned_ns) / 1e9
        outcome = work.run()
    traced_ns = time.perf_counter_ns() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        tracer.uninstall()
    attempted, failed, errors = work.verify(outcome)
    result = {
        "setup_s": setup_s,
        "wall_s": outcome.wall_s,
        "latency_ms": outcome.latency(),
        "peak_rss_mb": peak_rss_mb,
        "attempted": attempted,
        "failed": failed,
        "errors": errors[:10],
        **outcome.extra,
    }
    if tracer:
        result["trace"] = tracer.summary()
        result["trace"]["pass_ns"] = traced_ns
        tracer.write(workdir / workload, workload=workload, seed=seed)
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
