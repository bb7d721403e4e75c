"""Steadiness check and traced report.

    python3 perfbench/steady.py [--first-seed 1] [--layers]

Runs each workload of BENCHMARK.json ten times for its ``run_seconds``,
on seeds ``--first-seed`` to ``--first-seed + 9``, through ``run.py`` (one
fresh process per run, one after another) and prints, per end-to-end
metric, the median, the quartiles and the quartile spread as a share of
the median against a third of the metric's bound in BENCHMARK.json.  It
also prints the share of failed operations, which must be the same in
every run.  With ``--layers`` it adds one traced run per workload (on the
first seed) and prints its per-layer table with the tracing overhead:
the median difference between a traced round and the untraced round
after it, on the same inputs, in that one run.
Raw results go to ``perfbench/out/steady_<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def layer_table(result: dict) -> str:
    rows = ["| metric | value per round |", "| --- | --- |"]
    for name, m in result["metrics"].items():
        v = m["value"]
        shown = f"{v:.4g} s" if m["unit"] == "s" else f"{v:g}"
        rows.append(f"| `{name}` | {shown} |")
    return "\n".join(rows)


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--layers", action="store_true")
    args = ap.parse_args(argv)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    (HERE / "out").mkdir(exist_ok=True)
    steady = True

    for workload in (w["name"] for w in bench["workloads"]):
        seeds = range(args.first_seed, args.first_seed + RUNS)
        runs = [run_once(workload, s, seconds, 0) for s in seeds]
        record = {"workload": workload, "seconds": seconds, "seeds": list(seeds), "runs": runs}
        shares = {Fraction(r["failed"], r["attempted"]) for r in runs}
        print(f"\n== {workload}: {RUNS} runs of {seconds} s, "
              f"failed share {sorted(str(s) for s in shares)}, "
              f"correct {all(r['correct'] for r in runs)}")
        steady &= len(shares) == 1 and all(r["correct"] for r in runs)
        print(f"{'metric':14} {'median':>10} {'q1':>10} {'q3':>10} {'spread':>7} {'bound/3':>7}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            med, q1, q3, rel = spread(values)
            ok = rel < bound / 3
            steady &= ok
            print(f"{name:14} {med:10.4f} {q1:10.4f} {q3:10.4f} {rel:7.2%} "
                  f"{bound / 3:7.2%} {'ok' if ok else 'WIDE'}")
        if args.layers:
            traced = run_once(workload, args.first_seed, seconds, 1)
            record["traced"] = traced
            m = traced["metrics"]
            print(f"\ntraced round_p50_s {m['trace.round_p50_s']['value']:.4f} s, "
                  f"tracing overhead {m['trace.overhead_s']['value']:+.4f} s per round "
                  f"(seed {args.first_seed})")
            print(layer_table(traced))
        (HERE / "out" / f"steady_{workload}.json").write_text(json.dumps(record, indent=1))
    print("\nsteady" if steady else "\nNOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
