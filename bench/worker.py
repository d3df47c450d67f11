"""One workload in one process: set-up, whole rounds of operations, checks.

Started by ``run.py`` with BLAS/OpenMP pinned to one thread and ``src`` on
``PYTHONPATH``.  The last line of standard output is one JSON object; with
``--setup-only`` it holds only the set-up timestamps.

With ``--trace FILE`` every operation runs twice in a row, first with the
program's own functions and then through the tracing wrappers.  Only the
second run records spans; the pair gives the tracing overhead, measured on
adjacent runs so that the machine's drift in speed largely cancels.

    python3 bench/worker.py --workload reports-cli --seed 1 --seconds 10 \\
        --workdir bench/out/w1 [--trace FILE.npz] [--setup-only]
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path


def timed(op, times_ms: list[float]):
    """Run one operation, append its wall time, return its output."""
    t0 = time.perf_counter()
    output = op.run()
    times_ms.append((time.perf_counter() - t0) * 1e3)
    return output


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace", default=None, help="install the wrappers; write spans here")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    t0 = time.perf_counter()
    import entnum  # noqa: F401  (the import is what set-up measures)
    import_s = time.perf_counter() - t0
    import workloads

    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    workload = workloads.build(args.workload, args.seed, workdir)
    ready = time.perf_counter()
    if args.setup_only:
        print(json.dumps({"ready": ready, "import_s": import_s}))
        return 0

    tracer = None
    if args.trace is not None:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()

    round_s: list[float] = []
    op_ms: list[float] = []
    plain_ms: list[float] = []  # the untraced twin of each traced operation
    verdicts: Counter = Counter()
    attempted = 0
    start = time.perf_counter()
    # whole rounds only, and none that would end past --seconds (at least one)
    while not round_s or time.perf_counter() - start + round_s[-1] <= args.seconds:
        workload.reset()
        outputs = []
        r0 = time.perf_counter()
        for op in workload.ops:
            if tracer is not None:
                tracer.enable(False)
                outputs.append((op, timed(op, plain_ms)))
                tracer.enable(True)
            outputs.append((op, timed(op, op_ms)))
        round_s.append(time.perf_counter() - r0)
        for op, output in outputs:
            v = op.check(output)
            attempted += 1
            if v.status != workloads.PASS:
                verdicts[(op.name, v.status, v.reason)] += 1

    result = {
        "ready": ready,
        "import_s": import_s,
        "rounds": len(round_s),
        "run_s": statistics.median(round_s),
        "op_ms_p50": statistics.median(op_ms),
        "ops_per_round": len(workload.ops),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": attempted,
        "failed": sum(verdicts.values()),
        "wrong": sum(n for (_, status, _), n in verdicts.items() if status == workloads.WRONG),
        "failures": [{"op": name, "status": status, "reason": reason, "count": n}
                     for (name, status, reason), n in sorted(verdicts.items())],
        "round_s_all": round_s,
        "op_ms_all": op_ms,
    }
    if tracer is not None:
        result["per_layer"] = tracer.metrics(len(round_s))
        result["per_layer"]["trace.overhead_pct"] = (sum(op_ms) / sum(plain_ms) - 1.0) * 100.0
        tracer.save(args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
