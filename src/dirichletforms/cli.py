"""Command-line interface.

Subcommands: classify, capacity, hardy-weight, resolvent, green, luxemburg,
profile, verify.  One table, ``COMMANDS``, drives them all: each entry
names its handler (``(args, spec, cfg) -> result dict``), its help, the
result keys that ``--csv`` writes as witness tables, and the flags the
handler reads.  Every subcommand takes ``--seed``, ``--tol`` and
``--max-iter``; ``--csv`` goes only to the subcommands with tables, and
every other flag only to the subcommands that read it.  Results are
emitted as a JSON envelope on stdout.  Exit codes: verification failed 1,
usage 2 (also a malformed problem file, and a flag value that is malformed
or out of its range), infeasible 3, non-convergence 4,
inconclusive 5, internal check failed 6.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from dataclasses import dataclass
from typing import Callable

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
    StructuralError,
)
from .problemio import (
    ProblemFile,
    envelope_to_json,
    make_envelope,
    parse_problem,
)
from .resolvent import ProxConfig

DEFAULT_SEED = 20240901  # documented default for all randomized commands

# (exception type, exit code, stderr prefix), most specific first: the
# first type that matches decides
EXIT_CODES = (
    (InfeasibleError, 3, "infeasible"),
    (NonConvergenceError, 4, "non-convergence"),
    (InconclusiveError, 5, "inconclusive"),
    (InternalCheckError, 6, "internal check failed"),
    (DirichletFormError, 2, "error"),  # usage, and a malformed problem file
    (OSError, 2, "error"),
)


def _load(args) -> tuple[ProblemFile, EnergySpec, ProxConfig]:
    """The problem file, the spec its validation built, and the solver config.

    Solver configuration: flags win, then problem defaults, then built-ins.
    """
    with open(args.problem) as fh:
        problem = parse_problem(fh.read())
    built_in = ProxConfig()
    tol, max_iter = args.tol, args.max_iter
    if tol is None:
        tol = problem.defaults.get("tol", built_in.residual_tolerance)
    if max_iter is None:
        max_iter = problem.defaults.get("max_iterations", built_in.max_iterations)
    cfg = ProxConfig(residual_tolerance=float(tol), max_iterations=max_iter)
    return problem, problem.spec, cfg


def _field_from_arg(spec: EnergySpec, arg: str | None, flag: str, default=0.0):
    """The field that the value ``arg`` of ``flag`` gives as JSON (a number
    or a point -> number map), or the constant ``default`` without it."""
    if arg is None:
        return spec.space.field(default)
    try:
        return spec.space.field(json.loads(arg))
    except (json.JSONDecodeError, StructuralError) as exc:
        raise StructuralError(f"{flag}: {exc}") from None


def _classify(args, spec, cfg) -> dict:
    report = criticality.classify(spec, cfg, n_terms=args.terms, seed=args.seed)
    result = {"verdict": report.verdict.value, "witness_pending": report.witness_pending}
    if report.hardy_weight is not None:
        result["hardy_weight"] = spec.space.as_dict(report.hardy_weight)
        result["K_witness"] = report.diagnostics.get("K_witness")
    if report.invariant_set is not None:
        result["invariant_set"] = sorted(report.invariant_set)
    if report.kernel_scales is not None:
        result["kernel_scales"] = report.kernel_scales
    return result


def _capacity(args, spec, cfg) -> dict:
    target = set(args.set.split(",")) if args.set else set()
    h = _field_from_arg(spec, args.h, "--h", default=1.0)
    res = potential.capacity(spec, target, h, cfg)
    return {
        "capacity": res.value,
        "target": sorted(target),
        "equilibrium": spec.space.as_dict(res.equilibrium),
        "lower_bound": res.lower_bound,
    }


def _hardy_weight(args, spec, cfg) -> dict:
    seed_w = np.ones(spec.space.n) / spec.space.total_mass()
    W = criticality.synthesize_hardy_weight(spec, seed_w, n_terms=args.terms, cfg=cfg)
    K = criticality.K_of(spec, W, cfg)
    return {"hardy_weight": spec.space.as_dict(W), "K": K, "terms": args.terms}


def _resolvent(args, spec, cfg) -> dict:
    f = _field_from_arg(spec, args.field, "--field")
    g, report = resolvent.prox(spec, args.alpha0, f, cfg)
    return {
        "alpha": args.alpha0,
        "resolvent": spec.space.as_dict(g),
        "iterations": report.iterations,
        "residual": report.residual,
    }


def _green(args, spec, cfg) -> dict:
    f = _field_from_arg(spec, args.field, "--field")
    res = resolvent.green(spec, f, cfg, alpha0=args.alpha0, depth=args.schedule_depth)
    return {"finite": res.finite, "green": spec.space.as_dict(res.value)}


def _luxemburg(args, spec, cfg) -> dict:
    f = _field_from_arg(spec, args.field, "--field")
    query = modular.LuxemburgQuery(r=args.r)
    return {"norm": modular.luxemburg_norm(spec, f, query), "r": args.r}


def _profile(args, spec, cfg) -> dict:
    try:
        r_grid = [float(r) for r in args.r_grid.split(",")]
    except ValueError:
        raise StructuralError(f"--r-grid: {args.r_grid!r} is not a list of numbers") from None
    w = _field_from_arg(spec, args.weight, "--weight", default=1.0)
    if args.kind == "hardy":
        weak_profile = criticality.weak_hardy_profile
    else:
        weak_profile = criticality.weak_poincare_profile
    profile = weak_profile(spec, w, args.p, r_grid, search_budget=args.budget, seed=args.seed)
    return {
        "kind": args.kind,
        "p": args.p,
        "r_grid": profile.r_grid,
        "alpha_of_r": profile.alpha_of_r,
        "method": profile.estimation_method,
    }


def _verify(args, spec, cfg) -> dict:
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
    return {"pass": all(checks.values()), "checks": checks}


@dataclass(frozen=True)
class Command:
    run: Callable[[argparse.Namespace, EnergySpec, ProxConfig], dict]
    help: str
    tables: tuple[str, ...] = ()  # result keys that --csv writes
    flags: tuple[str, ...] = ()  # keys of FLAGS that ``run`` reads


# every flag read by some subcommand, beyond the shared --seed, --tol, --max-iter
FLAGS = {
    "--terms": dict(type=int, default=20),
    "--alpha0": dict(type=float, default=1.0),
    "--schedule-depth": dict(type=int, default=40),
    "--set": dict(required=True, help="comma-separated point list"),
    "--h": dict(help="reference field as JSON (default constant 1)"),
    "--field": dict(help="input field as JSON map or scalar"),
    "--r": dict(type=float, default=1.0, help="level parameter"),
    "--kind": dict(choices=("hardy", "poincare"), default="hardy"),
    "--p": dict(type=float, default=1.0),
    "--r-grid": dict(default="0.1,0.2,0.5,1.0"),
    "--weight": dict(help="weight field as JSON map or scalar"),
    "--budget": dict(type=int, default=40),
}

COMMANDS = {
    "classify": Command(
        _classify, "criticality classification", ("hardy_weight",), ("--terms",)
    ),
    "capacity": Command(
        _capacity, "capacity of a point set", ("equilibrium",), ("--set", "--h")
    ),
    "hardy-weight": Command(
        _hardy_weight, "synthesize a Hardy weight", ("hardy_weight",), ("--terms",)
    ),
    "resolvent": Command(
        _resolvent, "proximal resolvent G_alpha f", ("resolvent",), ("--field", "--alpha0")
    ),
    "green": Command(
        _green,
        "Green operator on a nonnegative field",
        ("green",),
        ("--field", "--alpha0", "--schedule-depth"),
    ),
    "luxemburg": Command(
        _luxemburg, "Luxemburg seminorm of a field", flags=("--field", "--r")
    ),
    "profile": Command(
        _profile,
        "weak Hardy / Poincare profile",
        flags=("--kind", "--p", "--r-grid", "--weight", "--budget"),
    ),
    "verify": Command(_verify, "run the property suite on a problem"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dform",
        description="Convex graph energies: resolvents, Green operators, "
        "Luxemburg seminorms, criticality and capacity.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        p.add_argument("problem", help="path to a JSON problem file")
        p.add_argument("--seed", type=int, default=DEFAULT_SEED)
        p.add_argument("--tol", type=float, default=None)
        p.add_argument("--max-iter", type=int, default=None)
        if command.tables:
            p.add_argument("--csv", help="write witness tables to this CSV path")
        for flag in command.flags:
            p.add_argument(flag, **FLAGS[flag])
    return parser


def _run(args) -> int:
    """Load the problem, run the command, write its tables and envelope."""
    command = COMMANDS[args.command]
    problem, spec, cfg = _load(args)
    result = command.run(args, spec, cfg)
    tables = {key: result[key] for key in command.tables if key in result}
    # only subcommands with tables take --csv
    if tables and args.csv:
        with open(args.csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["table", "point", "value"])
            for name, table in tables.items():
                for point, value in table.items():
                    writer.writerow([name, point, value])
    envelope = make_envelope(args.command, problem, args.seed, result=result)
    sys.stdout.write(envelope_to_json(envelope))
    return 0 if result.get("pass", True) else 1


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    start = time.monotonic()
    try:
        code = _run(args)
    except tuple(kind for kind, _, _ in EXIT_CODES) as exc:
        exit_code, prefix = next((c, p) for kind, c, p in EXIT_CODES if isinstance(exc, kind))
        print(f"{prefix}: {exc}", file=sys.stderr)
        return exit_code
    # timing goes to stderr so the stdout envelope stays byte-deterministic
    print(f"wall_time_s: {time.monotonic() - start:.3f}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
