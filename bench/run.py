"""Benchmark entry point: one workload, end-to-end or per-layer metrics.

    python3 bench/run.py --workload mixed-rank2-cli --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Every process it starts runs
``bench/worker.py`` with BLAS/OpenMP pinned to one thread and ``src`` on
``PYTHONPATH``:

- one warm-up and ``SETUP_PROBES`` set-up probes, each a fresh interpreter
  that imports entnum, builds the workload's inputs and exits; ``setup_s`` is
  the median time from spawning a probe to its inputs being built;
- with ``--trace 0``, one untraced workload process, which gives ``run_s``,
  ``op_ms_p50`` and ``peak_rss_mb``;
- with ``--trace 1``, one traced workload process, which runs every operation
  untraced and then traced, and one ``python -X importtime -c "import
  entnum"``; it prints the per-layer metrics.

Human-readable lines go first; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  Inputs,
certificates, raw timings, results and traces are written under ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_PROBES = 5
PROCESS_TIMEOUT_S = 150
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "op_ms_p50": "ms", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "mixed.searches": "count", "mixed.search_ms": "ms", "mixed.evaluations": "count",
    "mixed.eval_us": "us", "mixed.objective_us": "us", "mixed.expm_us": "us",
    "mixed.optimizer_us": "us", "mixed.descents": "count", "mixed.descents_at_budget": "count",
    "mixed.improving_descents": "count", "mixed.certificate_ms": "ms",
    "mixed.spectral_us": "us", "mixed.decomposition_entanglement_us": "us",
    "operators.density_us": "us", "operators.operator_us": "us",
    "contexts.from_rows_us": "us", "contexts.coefficient_us": "us",
    "contexts.residual_us": "us", "contexts.measurable_us": "us",
    "bipartite.from_vector_us": "us", "bipartite.schmidt_us": "us", "bipartite.pure_e_us": "us",
    "measures.e_us": "us", "measures.product_e_us": "us", "measures.factorized_us": "us",
    "serialize.decode_ms": "ms", "serialize.decode_entries": "count",
    "serialize.decode_ns_per_entry": "ns", "serialize.encode_ms": "ms",
    "cli.main_ms": "ms", "cli.self_ms": "ms", "cli.parser_us": "us",
    "verify.run_checks_ms": "ms", "verify.example9_ms": "ms", "verify.thm33_ms": "ms",
    "setup.import_s": "s", "setup.scipy_import_s": "s", "trace.overhead_pct": "%",
}


class BenchError(Exception):
    pass


def pinned_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_process(argv: list[str], env: dict[str, str]) -> tuple[float, str, str]:
    """Run to completion (killed on timeout); return spawn time, stdout, stderr."""
    spawned = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=PROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{' '.join(argv)} timed out after {PROCESS_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(argv)} exited {proc.returncode}:\n{err[-2000:]}")
    return spawned, out, err


def worker(args, env, workdir: Path, *extra: str) -> tuple[float, dict]:
    argv = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--workdir", str(workdir), *extra]
    spawned, out, _ = run_process(argv, env)
    return spawned, json.loads(out.strip().splitlines()[-1])


def setup_probes(args, env, workdir: Path) -> tuple[list[float], list[float]]:
    """Fresh-interpreter set-up times and import times; the first probe is a warm-up."""
    setup, imports = [], []
    for k in range(SETUP_PROBES + 1):
        spawned, res = worker(args, env, workdir / f"probe{k}", "--setup-only")
        if k:
            setup.append(res["ready"] - spawned)
            imports.append(res["import_s"])
    return setup, imports


def scipy_import_s(env) -> float:
    """scipy's share of ``import entnum``, from ``python -X importtime``.

    Counts every scipy module imported while no other scipy module encloses it.
    """
    _, _, err = run_process([sys.executable, "-X", "importtime", "-c", "import entnum"], env)
    rows = []
    for line in err.splitlines():
        m = re.match(r"import time:\s*(\d+) \|\s*(\d+) \|( *)(\S+)", line)
        if m:
            rows.append((len(m.group(3)), m.group(4), int(m.group(2))))
    total_us, ancestors = 0, []  # children print before their parent, so walk backwards
    for depth, name, cumulative in reversed(rows):
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        if name.split(".")[0] == "scipy" and not any(a[1] == "scipy" for a in ancestors):
            total_us += cumulative
        ancestors.append((depth, name.split(".")[0]))
    return total_us / 1e6


def environment() -> dict[str, object]:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": len(os.sched_getaffinity(0)), "python": sys.version.split()[0],
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "threads": {var: "1" for var in THREAD_VARS}}


def report(args, res: dict) -> bool:
    """Print attempted/failed and each failure; return whether outputs are correct."""
    print(f"workload {args.workload} seed {args.seed}: {res['rounds']} rounds of "
          f"{res['ops_per_round']} operations, attempted {res['attempted']}, "
          f"failed {res['failed']}")
    for f in res["failures"]:
        print(f"  {f['status'].upper()} {f['op']} x{f['count']}: {f['reason']}")
    # the stalled search is the one failure this benchmark counts without
    # calling the run incorrect, and only on the workload that exercises it
    stalled = res["failed"] - res["wrong"]
    return res["wrong"] == 0 and (stalled == 0 or args.workload == "mixed-highrank")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "entnum" / "__init__.py").is_file():
        print(f"no entnum sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    env = pinned_env()
    try:
        for key, value in environment().items():
            print(f"env {key}: {value}")
        setup, imports = setup_probes(args, env, workdir)
        if args.trace:
            trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.npz"
            _, res = worker(args, env, workdir / "run", "--trace", str(trace_file))
            print(f"spans written to {trace_file.relative_to(ROOT)}")
            metrics = dict(res["per_layer"])
            metrics["setup.import_s"] = statistics.median(imports)
            metrics["setup.scipy_import_s"] = scipy_import_s(env)
            units = PER_LAYER_UNITS
        else:
            _, res = worker(args, env, workdir / "run")
            metrics = {"setup_s": statistics.median(setup), "run_s": res["run_s"],
                       "op_ms_p50": res["op_ms_p50"], "peak_rss_mb": res["peak_rss_mb"]}
            units = END_TO_END_UNITS
        raw = OUT / f"raw-{args.workload}-seed{args.seed}-trace{args.trace}.json"
        raw.write_text(json.dumps(res) + "\n")
        correct = report(args, res)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {"correct": correct, "attempted": res["attempted"], "failed": res["failed"],
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit in units.items() if name in metrics}}
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
