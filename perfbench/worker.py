"""One workload process: set up, then run whole rounds for a fixed time.

Started by ``run.py``.  Writes ``ready`` on stdout when set-up is done
(the launcher times process start to that line), then one JSON line with
the round times and operation counts.  With ``--probe`` it exits after
``ready``: the launcher uses probes to sample set-up time.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import tempfile
from collections import Counter
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _import_program():
    import dirichletforms

    where = Path(dirichletforms.__file__).resolve()
    if ROOT / "src" not in where.parents:
        sys.exit(f"dirichletforms was imported from {where}, not from {ROOT / 'src'}")


def tally(outcomes, errors: Counter) -> tuple[int, int]:
    """Check a round's outcomes; return (failed, wrong) and count each
    failure in ``errors`` by operation and exception type.

    An operation fails when it raised, or when its output fails its check.
    It is wrong in the second case, also when the check itself raises on
    an output it cannot read.
    """
    failed = wrong = 0
    for op, result, exc in outcomes:
        if exc is None:
            try:
                op.check(result)
                continue
            except Exception as bad:
                wrong += 1
                exc = bad
        failed += 1
        key = f"{op.name}: {type(exc).__name__}"
        if not errors[key]:
            print(f"{key}: {exc}", file=sys.stderr)
        errors[key] += 1
    return failed, wrong


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--probe", action="store_true")
    args = ap.parse_args(argv)

    _import_program()
    from workloads import WORKLOADS

    out = sys.stdout
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.install()
    (HERE / "out").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=HERE / "out"))
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        out.write("ready\n")
        out.flush()
        if args.probe:
            return 0

        attempted = failed = wrong = 0
        errors: Counter = Counter()
        # round 0 is an untimed warm-up.  A traced worker traces odd rounds
        # only: each even round after it times the same inputs untraced, in
        # the same process and minutes, which gives the tracing overhead.
        times, plain = [], []
        k = 0
        while (
            k < (3 if tracer else 1)
            or (tracer is not None and k % 2 == 0)
            or sum(times) + sum(plain) < args.seconds
        ):
            if tracer is not None:
                tracer.active = k % 2 == 1
            ops = workload.ops((k + 1) // 2 if tracer else k)
            outcomes = []
            t0 = perf_counter()
            for op in ops:
                try:
                    outcomes.append((op, op.run(), None))
                except Exception as exc:  # a failed operation, counted below
                    outcomes.append((op, None, exc))
            dt = perf_counter() - t0
            attempted += len(outcomes)
            round_failed, round_wrong = tally(outcomes, errors)
            failed += round_failed
            wrong += round_wrong
            if k > 0:
                (plain if tracer and not tracer.active else times).append(dt)
            k += 1

        record = {
            "correct": wrong == 0,
            "attempted": attempted,
            "failed": failed,
            "errors": dict(errors),
            "round_times": times,
            "untraced_round_times": plain,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        if tracer is not None:
            record["layers"] = tracer.per_round(len(times))
        out.write(json.dumps(record) + "\n")
        out.flush()
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
