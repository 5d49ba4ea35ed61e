"""gicl benchmark: end-to-end metrics, or per-layer metrics from a traced run.

    python3 bench/run.py --workload c5_oracle|cli_pipeline|http_feedback \
        --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S

Run from the repository root; the program is imported from ``src/``.
Every iteration runs in a fresh worker process, so iterations are alike
(none inherits another's warm heap) and ``peak_rss_mb`` covers one
iteration. With ``--trace 0`` a run starts five set-up-only workers
(fresh interpreter, import, input build; ``setup_s`` is the median time
to exit), then starts iteration workers until the next one would end past
``--seconds`` (at least one), and reports medians. With ``--trace 1`` it
runs one untraced and one traced iteration, and reports per-layer metrics,
self times and the tracing overhead (traced minus untraced ``wall_s``).
``all`` runs every workload both ways.

Earlier stdout lines carry machine facts and a readable table; the last
line is one JSON object {"correct", "attempted", "failed", "metrics"}. The
exit code is 1 when an output check fails and 2 when the program's sources
are missing.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
NAMES = ("c5_oracle", "cli_pipeline", "http_feedback")

# Gated in BENCHMARK.json; every workload reports each of them.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "retrieved_utility": "ratio",
    "accuracy_askgnn": "ratio",
}
# Printed where a workload defines them, not gated; bench/NOTES.md says why.
PRINTED = {
    "train_s": "s",
    "infer_queries_per_s": "queries/s",
    "feedback_pairs_per_s": "pairs/s",
    "failed_share": "ratio",
}
SETUPS = 5  # set-up-only workers per run; setup_s is their median


def blas_facts() -> dict:
    import numpy as np

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    threads = None
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "blas" in line.lower() and ".so" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                threads = int(fn())
                break
    return {"blas": f"{blas.get('name', '?')} {blas.get('version', '?')}", "blas_threads": threads}


def machine_facts(load_at_start: tuple[float, float, float]) -> dict:
    import numpy
    import requests
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "requests": requests.__version__,
        **blas_facts(),
        "loadavg_at_start": [round(x, 2) for x in load_at_start],
    }


def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                       "metrics": metrics})


def worker(args) -> int:
    """One fresh process: build the inputs, then run one iteration (or stop)."""
    sys.path[:0] = [str(SRC), str(BENCH)]
    import workloads

    wl = workloads.WORKLOADS[args.workload](ROOT, args.seed)
    rec = None
    if args.worker == "traced":
        import layers
        from tracer import Recorder

        rec = Recorder()
        layers.install(rec)
        wl.quiet = rec.suspended
    try:
        wl.build()
        out = {} if args.worker == "setup" else {"measures": wl.iteration()}
    except workloads.CheckFailed as exc:
        print(json.dumps({"failed": f"check failed: {exc}"}))
        return 1
    finally:
        wl.close()
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if rec is not None:
        rec.uninstall()
        out["per_layer"] = layers.per_layer_metrics(rec)
    print(json.dumps(out))
    return 0


class RunFailed(Exception):
    pass


def spawn(args, mode: str) -> tuple[dict, float]:
    """Run a worker process; return its result and its wall time."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--worker", mode]
    # String hashing is randomised per process, and the dict and set layouts it
    # yields move short Python-heavy phases by up to ~30% between processes
    # running identical work; one fixed hash seed keeps that out of the figures.
    env = {**os.environ, "PYTHONHASHSEED": "0"}
    started = time.perf_counter()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env)
    took = time.perf_counter() - started
    lines = proc.stdout.splitlines()
    out = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else {}
    if proc.returncode != 0 or "failed" in out:
        raise RunFailed(out.get("failed", f"{mode} worker exited with {proc.returncode}"))
    return out, took


def measure(args) -> tuple[dict, list[dict]]:
    setup = [spawn(args, "setup")[1] for _ in range(SETUPS)]
    runs = []
    started = time.perf_counter()
    while True:
        out, took = spawn(args, "iteration")
        runs.append({**out["measures"], "peak_rss_mb": out["peak_rss_mb"]})
        if time.perf_counter() - started + took > args.seconds:
            break
    if any(r["outputs"] != runs[0]["outputs"] for r in runs):
        raise RunFailed("outputs differ between iterations of the same inputs")
    values = {"setup_s": statistics.median(setup)}
    for key in (*END_TO_END, *PRINTED):
        if key in runs[0]:
            values[key] = statistics.median(r[key] for r in runs)
    units = {**END_TO_END, **PRINTED}
    return {k: {"value": float(v), "unit": units[k]} for k, v in values.items()}, runs


def trace(args) -> tuple[dict, list[dict]]:
    untraced, _ = spawn(args, "iteration")
    traced, _ = spawn(args, "traced")
    if traced["measures"]["outputs"] != untraced["measures"]["outputs"]:
        raise RunFailed("tracing changed the workload's outputs")
    metrics = traced["per_layer"]
    overhead = traced["measures"]["wall_s"] - untraced["measures"]["wall_s"]
    metrics["trace.wall_s"]["value"] = traced["measures"]["wall_s"]
    metrics["trace.overhead_s"]["value"] = overhead
    return metrics, [untraced["measures"], traced["measures"]]


def run_one(args) -> int:
    load_at_start = os.getloadavg()
    if not (SRC / "gicl" / "__init__.py").is_file():
        print(f"bench: no gicl sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    print(json.dumps({"machine": machine_facts(load_at_start)}), flush=True)
    try:
        metrics, runs = trace(args) if args.trace else measure(args)
    except RunFailed as exc:
        print(f"bench: {args.workload} seed {args.seed}: {exc}", file=sys.stderr)
        print(result_line(False, 1, 1, {}))
        return 1

    print(json.dumps({"iterations": len(runs), "outputs": runs[-1]["outputs"]}))
    for name, m in metrics.items():
        print(f"{args.workload:14s} {name:42s} {m['value']:>14.6g} {m['unit']}")
    if not args.trace:
        metrics = {k: metrics[k] for k in END_TO_END}
    print(result_line(True, sum(r["operations"] for r in runs), 0, metrics))
    return 0


def run_all(args) -> int:
    ok = True
    for name in NAMES:
        for traced in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(traced)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.splitlines() or ["{}"]
            print("\n".join(lines[:-1]), flush=True)
            correct = proc.returncode == 0 and json.loads(lines[-1]).get("correct", False)
            print(f"# {name} trace={traced}: {'ok' if correct else 'FAILED'}", flush=True)
            ok = ok and correct
    print(json.dumps({"correct": ok}))
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--worker", choices=("setup", "iteration", "traced"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.worker:
        return worker(args)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
