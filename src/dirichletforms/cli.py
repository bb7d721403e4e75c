"""Command-line interface.

Subcommands: classify, capacity, hardy-weight, resolvent, green, luxemburg,
profile, verify.  Results are emitted as a JSON envelope on stdout; witness
tables can additionally be written as CSV.  Exit codes: verification
failed 1, usage 2, infeasible 3, non-convergence 4, inconclusive 5,
internal check failed 6.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time

import numpy as np

from . import criticality, modular, potential, resolvent
from .energy import (
    EnergySpec,
    bd1_check,
    bd2_check,
    contraction_battery,
    fuzz_scalar_inequalities,
)
from .errors import (
    InconclusiveError,
    InfeasibleError,
    InternalCheckError,
    NonConvergenceError,
    DirichletFormError,
)
from .problemio import (
    ProblemFile,
    envelope_to_json,
    make_envelope,
    parse_problem,
)
from .resolvent import ProxConfig

DEFAULT_SEED = 20240901  # documented default for all randomized commands

EXIT_USAGE = 2
EXIT_INFEASIBLE = 3
EXIT_NONCONVERGENCE = 4
EXIT_INCONCLUSIVE = 5
EXIT_INTERNAL_CHECK = 6


def _load(args) -> tuple[ProblemFile, EnergySpec, ProxConfig]:
    """The problem file, the spec its validation built, and the solver config."""
    with open(args.problem) as fh:
        problem = parse_problem(fh.read())
    return problem, problem.spec, _cfg(problem, args)


def _tol(problem: ProblemFile, args) -> float:
    if args.tol is not None:
        return args.tol
    return float(problem.defaults.get("tol", 1e-9))


def _cfg(problem: ProblemFile, args) -> ProxConfig:
    """Solver configuration: flags win, then problem defaults, then built-ins."""
    if args.max_iter is not None:
        max_iter = args.max_iter
    else:
        max_iter = int(problem.defaults.get("max_iterations", 20_000))
    return ProxConfig(residual_tolerance=_tol(problem, args), max_iterations=max_iter)


def _field_from_arg(spec: EnergySpec, arg: str | None, default=0.0):
    if arg is None:
        return spec.space.field(default)
    values = json.loads(arg)
    if isinstance(values, (int, float)):
        return spec.space.field(float(values))
    return spec.space.field(values)


def _write_csv(path: str, tables: dict[str, dict[str, float]]):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["table", "point", "value"])
        for name, table in tables.items():
            for point, value in table.items():
                writer.writerow([name, point, value])


def _emit(args, envelope: dict, tables: dict | None = None):
    if args.csv and tables:
        _write_csv(args.csv, tables)
    sys.stdout.write(envelope_to_json(envelope))


def cmd_classify(args) -> int:
    problem, spec, cfg = _load(args)
    report = criticality.classify(spec, cfg, n_terms=args.terms, seed=args.seed)
    tables = {}
    result = {"verdict": report.verdict.value, "witness_pending": report.witness_pending}
    if report.hardy_weight is not None:
        tables["hardy_weight"] = spec.space.as_dict(report.hardy_weight)
        result["hardy_weight"] = tables["hardy_weight"]
        result["K_witness"] = report.diagnostics.get("K_witness")
    if report.invariant_set is not None:
        result["invariant_set"] = sorted(report.invariant_set)
    if report.kernel_scales is not None:
        result["kernel_scales"] = report.kernel_scales
    envelope = make_envelope("classify", problem, args.seed, result=result)
    _emit(args, envelope, tables)
    return 0


def cmd_capacity(args) -> int:
    problem, spec, cfg = _load(args)
    target = set(args.set.split(",")) if args.set else set()
    h = _field_from_arg(spec, args.h, default=1.0)
    res = potential.capacity(spec, target, h, cfg)
    tables = {"equilibrium": spec.space.as_dict(res.equilibrium)}
    envelope = make_envelope(
        "capacity",
        problem,
        args.seed,
        result={
            "capacity": res.value,
            "target": sorted(target),
            "equilibrium": tables["equilibrium"],
            "alternative_value": res.report.extras.get("alternative_value"),
        },
    )
    _emit(args, envelope, tables)
    return 0


def cmd_hardy_weight(args) -> int:
    problem, spec, cfg = _load(args)
    seed_w = np.ones(spec.space.n) / spec.space.total_mass()
    W = criticality.synthesize_hardy_weight(spec, seed_w, n_terms=args.terms, cfg=cfg)
    K = criticality.K_of(spec, W, cfg)
    tables = {"hardy_weight": spec.space.as_dict(W)}
    envelope = make_envelope(
        "hardy-weight",
        problem,
        args.seed,
        result={"hardy_weight": tables["hardy_weight"], "K": K, "terms": args.terms},
    )
    _emit(args, envelope, tables)
    return 0


def cmd_resolvent(args) -> int:
    problem, spec, cfg = _load(args)
    f = _field_from_arg(spec, args.field)
    g, report = resolvent.prox(spec, args.alpha0, f, cfg)
    tables = {"resolvent": spec.space.as_dict(g)}
    envelope = make_envelope(
        "resolvent",
        problem,
        args.seed,
        result={
            "alpha": args.alpha0,
            "resolvent": tables["resolvent"],
            "iterations": report.iterations,
            "residual": report.residual,
        },
    )
    _emit(args, envelope, tables)
    return 0


def cmd_green(args) -> int:
    problem, spec, cfg = _load(args)
    f = _field_from_arg(spec, args.field)
    value = resolvent.green_on_nonneg(
        spec,
        f,
        cfg,
        alpha0=args.alpha0,
        depth=args.schedule_depth,
        divergence_threshold=args.divergence_threshold,
    )
    finite = bool(np.all(np.isfinite(value)))
    tables = {"green": spec.space.as_dict(value)}
    envelope = make_envelope(
        "green",
        problem,
        args.seed,
        result={"finite": finite, "green": tables["green"]},
    )
    _emit(args, envelope, tables)
    return 0


def cmd_luxemburg(args) -> int:
    problem, spec, _ = _load(args)
    f = _field_from_arg(spec, args.field)
    query = modular.LuxemburgQuery(r=args.r, lambda_tolerance=_tol(problem, args))
    value = modular.luxemburg_norm(spec, f, query)
    envelope = make_envelope(
        "luxemburg",
        problem,
        args.seed,
        result={"norm": value, "r": args.r},
    )
    _emit(args, envelope)
    return 0


def cmd_profile(args) -> int:
    problem, spec, _ = _load(args)
    r_grid = [float(r) for r in args.r_grid.split(",")]
    w = _field_from_arg(spec, args.weight, default=1.0)
    if args.kind == "hardy":
        profile = criticality.weak_hardy_profile(
            spec, w, args.p, r_grid, search_budget=args.budget, seed=args.seed
        )
    else:
        profile = criticality.weak_poincare_profile(
            spec, w, args.p, r_grid, search_budget=args.budget, seed=args.seed
        )
    envelope = make_envelope(
        "profile",
        problem,
        args.seed,
        result={
            "kind": args.kind,
            "p": args.p,
            "r_grid": profile.r_grid,
            "alpha_of_r": profile.alpha_of_r,
            "method": profile.estimation_method,
        },
    )
    _emit(args, envelope)
    return 0


def cmd_verify(args) -> int:
    problem, spec, cfg = _load(args)
    rng = np.random.default_rng(args.seed)
    checks: dict[str, bool] = {}

    fields = [spec.project_feasible(rng.normal(size=spec.space.n)) for _ in range(6)]
    checks["bd1"] = all(
        bd1_check(spec, f, g)[0] for f in fields for g in fields
    )
    battery = contraction_battery(args.seed)
    checks["bd2"] = all(
        bd2_check(spec, fields[i], fields[(i + 1) % len(fields)], C)[0]
        for i in range(len(fields))
        for C in battery
    )
    checks["scalar_fuzz"] = fuzz_scalar_inequalities(10_000, seed=args.seed)[0]
    checks["luxemburg_family"] = all(
        modular.luxemburg_family_check(spec, f, 2.0, 1.0)[0] for f in fields
    )
    checks["resolvent_identity"] = all(
        resolvent.resolvent_identity_check(spec, 1.0, 2.0, f, cfg)[0] for f in fields[:3]
    )
    markov = resolvent.markov_property_checks(
        spec, 1.0, [(fields[0], fields[1]), (fields[2], fields[3])], cfg
    )
    checks["markov"] = markov["pass"]

    passed = all(checks.values())
    envelope = make_envelope(
        "verify", problem, args.seed, result={"pass": passed, "checks": checks}
    )
    _emit(args, envelope)
    return 0 if passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dform",
        description="Convex graph energies: resolvents, Green operators, "
        "Luxemburg seminorms, criticality and capacity.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("problem", help="path to a JSON problem file")
        p.add_argument("--seed", type=int, default=DEFAULT_SEED)
        p.add_argument("--tol", type=float, default=None)
        p.add_argument("--max-iter", type=int, default=None)
        p.add_argument("--alpha0", type=float, default=1.0)
        p.add_argument("--schedule-depth", type=int, default=40)
        p.add_argument("--divergence-threshold", type=float, default=1e8)
        p.add_argument("--csv", help="write witness tables to this CSV path")
        p.add_argument("--terms", type=int, default=20)

    p = sub.add_parser("classify", help="criticality classification")
    common(p)
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("capacity", help="capacity of a point set")
    common(p)
    p.add_argument("--set", required=True, help="comma-separated point list")
    p.add_argument("--h", help="reference field as JSON (default constant 1)")
    p.set_defaults(fn=cmd_capacity)

    p = sub.add_parser("hardy-weight", help="synthesize a Hardy weight")
    common(p)
    p.set_defaults(fn=cmd_hardy_weight)

    p = sub.add_parser("resolvent", help="proximal resolvent G_alpha f")
    common(p)
    p.add_argument("--field", help="input field as JSON map or scalar")
    p.set_defaults(fn=cmd_resolvent)

    p = sub.add_parser("green", help="Green operator on a nonnegative field")
    common(p)
    p.add_argument("--field", help="input field as JSON map or scalar")
    p.set_defaults(fn=cmd_green)

    p = sub.add_parser("luxemburg", help="Luxemburg seminorm of a field")
    common(p)
    p.add_argument("--field", help="input field as JSON map or scalar")
    p.add_argument("--r", type=float, default=1.0, help="level parameter")
    p.set_defaults(fn=cmd_luxemburg)

    p = sub.add_parser("profile", help="weak Hardy / Poincare profile")
    common(p)
    p.add_argument("--kind", choices=("hardy", "poincare"), default="hardy")
    p.add_argument("--p", type=float, default=1.0)
    p.add_argument("--r-grid", default="0.1,0.2,0.5,1.0")
    p.add_argument("--weight", help="weight field as JSON map or scalar")
    p.add_argument("--budget", type=int, default=40)
    p.set_defaults(fn=cmd_profile)

    p = sub.add_parser("verify", help="run the property suite on a problem")
    common(p)
    p.set_defaults(fn=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    start = time.monotonic()
    try:
        code = args.fn(args)
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except NonConvergenceError as exc:
        print(f"non-convergence: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    except InconclusiveError as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except InternalCheckError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return EXIT_INTERNAL_CHECK
    except DirichletFormError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    # timing goes to stderr so the stdout envelope stays byte-deterministic
    print(f"wall_time_s: {time.monotonic() - start:.3f}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
