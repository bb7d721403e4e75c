"""Benchmark entry point: one workload, one seed, one result line.

    python3 perfbench/run.py --workload resolve --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout.  The workload runs in a fresh
worker process with the BLAS and OpenMP thread counts pinned.  With
``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` the worker traces every other
round, the object holds the per-layer metrics (per traced round) and the
tracing overhead (the median difference between a traced round and the
untraced round after it, on the same inputs), and the full per-layer table, with the time each parent
span spends in each child, is written to
``perfbench/out/layers_<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("resolve", "certify", "cli")
THREADS = "1"  # pinned BLAS / OpenMP threads: steadier on a shared machine
# set-up is timed in this many fresh processes, spread before and after
# the timed rounds so that the median does not rest on one stretch of time
SETUP_SAMPLES = 5
# a run may take this long beyond --seconds: set-up samples, the warm-up
# round, the last round's overrun and the checks
SLACK_S = 140.0


def worker_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = THREADS
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def start_worker(args, probe: bool, deadline: float):
    """Start a worker; return (seconds from start to 'ready', process)."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ] + (["--probe"] if probe else [])
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    ready = perf_counter() - t0
    if line != "ready\n":
        finish(proc, deadline)
        raise RuntimeError(f"worker did not get ready (exit code {proc.returncode})")
    return ready, proc


def finish(proc, deadline: float) -> str:
    """Wait for a worker and return the rest of its stdout."""
    try:
        rest, _ = proc.communicate(timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("worker ran past the deadline") from None
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return rest


def measure(args) -> dict:
    deadline = perf_counter() + args.seconds + SLACK_S
    probes = 0 if args.trace else SETUP_SAMPLES - 1

    def probe():
        ready, proc = start_worker(args, True, deadline)
        finish(proc, deadline)
        return ready

    setups = [probe() for _ in range(probes // 2)]
    ready, proc = start_worker(args, False, deadline)
    setups.append(ready)
    record = json.loads(finish(proc, deadline).splitlines()[-1])
    setups += [probe() for _ in range(probes - probes // 2)]

    times = record["round_times"]
    if args.trace:
        import tracing

        layers = record["layers"]
        (HERE / "out" / f"layers_{args.workload}.json").write_text(
            json.dumps({"workload": args.workload, "seed": args.seed,
                        "rounds": len(times), **layers}, indent=1)
        )
        spans = layers["spans"]
        metrics = {
            name: {"value": spans.get(span, {}).get(field, 0.0),
                   "unit": "s" if field == "self_s" else "count"}
            for name, span, field in tracing.METRICS
        }
        traced_p50 = statistics.median(times)
        metrics["trace.round_p50_s"] = {"value": traced_p50, "unit": "s"}
        # traced round 2j - 1 and untraced round 2j work on the same inputs
        pairs = zip(times, record["untraced_round_times"])
        metrics["trace.overhead_s"] = {
            "value": statistics.median(t - u for t, u in pairs),
            "unit": "s",
        }
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "rounds_per_s": {"value": len(times) / sum(times), "unit": "1/s"},
            "round_p50_s": {"value": statistics.median(times), "unit": "s"},
            "peak_rss_mb": {"value": record["peak_rss_mb"], "unit": "MB"},
        }
    for key, n in sorted(record["errors"].items()):
        print(f"failed {n}x {key}", file=sys.stderr)
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "dirichletforms" / "__init__.py").is_file():
        print(f"no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result = measure(args)
    except RuntimeError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
