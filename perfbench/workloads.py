"""The three workloads: their inputs, the operations of one round, and the
checks on each operation's output.

A workload builds all of its inputs from the seed at set-up.  ``ops(k)``
returns round k's operations with their inputs ready, so that nothing but
the program's own work falls inside the timed region.  Each operation
carries a check that is run after the round, outside the timed region,
against ``oracles.py`` or a law the method must obey.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import graphs
import oracles
from graphs import Graph


class CheckFailed(Exception):
    """An operation returned an output that its oracle or law rejects."""


def need(cond: bool, message: str):
    if not cond:
        raise CheckFailed(message)


def close(got: float, want: float, what: str, rel: float = 1e-6):
    need(abs(got - want) <= rel * max(1.0, abs(want)), f"{what} = {got!r}, oracle {want!r}")


@dataclass
class Op:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], None]


def check_verdict(g: Graph, verdict: str, pending: bool, hardy_weight, invariant_set) -> None:
    """The verdict matches the structure, and so does its witness.

    A reducible verdict names a non-boundary component as its invariant
    set (of point names); a subcritical one has a Hardy weight W > 0, not
    pending, with K(W) <= 1 by the p = 2 direct solve.
    """
    want, comps = oracles.verdict(g)
    need(verdict == want, f"verdict {verdict}, structure says {want}")
    if want == "Reducible":
        need(invariant_set is not None, "no invariant set")
        got = {g.points.index(p) for p in invariant_set}
        need(got in comps, "invariant set is not a non-boundary component")
    if want == "Subcritical":
        need(not pending and hardy_weight is not None, "no Hardy witness")
        W = np.asarray(hardy_weight, dtype=float)
        need(bool(np.all(W > 0)), "Hardy witness is not strictly positive")
        K = oracles.K2(g, W)
        need(K <= 1.0 + 1e-6, f"K(W) = {K!r} > 1")


def check_capacity(g: Graph, target, value: float, e, floor: float | None = None) -> None:
    """Laws of cap_1(target) with h = 1 and its equilibrium potential e.

    ``0 <= e <= h``, ``e = h`` on the target, ``E(e) = cap``, the value is at
    least ``floor`` (the capacity of a subset), and at p = 2 both agree with
    the harmonic extension of the target by direct solve.
    """
    e = np.asarray(e, dtype=float)
    need(bool(np.all(e >= -1e-8) and np.all(e <= 1.0 + 1e-8)), "e leaves [0, h]")
    need(bool(np.all(np.abs(e[target] - 1.0) <= 1e-8)), "e != h on the target")
    close(oracles.energy(g, e), value, "E(e_A) against cap")
    need(floor is None or value >= floor - 1e-6 * max(1.0, floor), "capacity not monotone")
    if g.exponents() == {2.0}:
        cap, u = oracles.capacity2(g, target)
        close(value, cap, "capacity")
        need(float(np.max(np.abs(e - u))) <= 1e-6, "equilibrium differs from the direct solve")


# -- resolve ----------------------------------------------------------------


class Resolve:
    """prox at alpha = 1 with fresh right-hand sides each round."""

    ALPHA = 1.0

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng([seed, 1])
        self.seed = seed
        self.cases = [
            ("path1001_p3", graphs.path(1000, 3.0, rng)),
            ("path501_p1.5", graphs.path(500, 1.5, rng)),
            ("grid24_p1.5", graphs.grid(24, 1.5, rng)),
            ("grid32_p3", graphs.grid(32, 3.0, rng)),
            ("grid40_p2", graphs.grid(40, 2.0, rng)),
            ("random900_p3", graphs.random_sparse(900, rng, (3.0,), n_kill=3, n_boundary=2)),
            ("random2000_p2", graphs.random_sparse(2000, rng, (2.0,), n_kill=3, n_boundary=2)),
        ]
        self.specs = [graphs.to_spec(g) for _, g in self.cases]

    def rhs(self, k: int) -> list[np.ndarray]:
        """Round k's right-hand sides, one per case."""
        rng = np.random.default_rng([self.seed, 2, k])
        return [graphs.feasible_field(g, rng) for _, g in self.cases]

    def ops(self, k: int) -> list[Op]:
        from dirichletforms import prox

        out = []
        for (name, g), spec, f in zip(self.cases, self.specs, self.rhs(k)):
            out.append(
                Op(
                    f"prox:{name}",
                    lambda spec=spec, f=f: prox(spec, self.ALPHA, f)[0],
                    lambda x, g=g, f=f: self._check(g, f, x),
                )
            )
        return out

    def _check(self, g: Graph, f, x):
        a = self.ALPHA
        res = oracles.prox_residual(g, a, f, x)
        need(
            res <= 1e-8 * max(1.0, oracles.mu_norm(g, f)),
            f"optimality residual {res:.3e}",
        )
        fmax = float(np.max(np.abs(f)))
        need(
            a * float(np.max(np.abs(x))) <= fmax * (1.0 + 1e-9),
            "alpha G_alpha is not an L-infinity contraction",
        )
        need(np.all(x[g.boundary] == 0.0), "nonzero on the Dirichlet boundary")
        if g.exponents() == {2.0}:
            ref = oracles.prox2(g, a, f)
            err = float(np.max(np.abs(x - ref)))
            need(err <= 1e-7 * max(1.0, fmax), f"differs from the direct solve by {err:.3e}")


# -- certify ----------------------------------------------------------------


class Certify:
    """Criticality and potential theory on small graphs, same inputs each round."""

    KOF_PATH_EDGES = 50  # the Dirichlet-path K_of; inputs fixed, not seeded
    HARDY_BUDGET = 24

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng([seed, 3])
        mixed = (1.5, 2.0, 3.0)
        self.seed = seed
        self.sub = [graphs.grid(4, 2.0, rng, n_boundary=1), graphs.random_sparse(16, rng)]
        self.crit = graphs.random_sparse(30, rng, mixed, n_kill=0, n_boundary=0)
        self.red = graphs.split(
            graphs.random_sparse(12, rng, mixed), graphs.random_sparse(8, rng, mixed)
        )
        self.path = graphs.unit_path(self.KOF_PATH_EDGES, 2.0)
        self.kof = graphs.random_sparse(40, rng)
        self.kof_w = rng.uniform(0.1, 1.0, self.kof.n) / self.kof.n
        self.hardy = graphs.grid(4, 2.0, rng, n_boundary=1)
        self.hardy_w = rng.uniform(0.2, 1.0, self.hardy.n) / self.hardy.n
        self.cap2 = graphs.random_sparse(40, rng)
        self.cap3 = graphs.grid(5, 3.0, rng)
        self.chains = [(g, self._nested(g, rng)) for g in (self.cap2, self.cap3)]
        lux = [graphs.random_sparse(60, rng, mixed), graphs.grid(8, 3.0, rng)]
        self.lux = [
            (g, [(graphs.feasible_field(g, rng), r) for r in (0.5, 1.0, 2.0) for _ in range(6)])
            for g in lux
        ]
        graph_list = self.sub + [
            self.crit, self.red, self.path, self.kof, self.hardy, self.cap2, self.cap3
        ] + lux
        self.specs = {id(g): graphs.to_spec(g) for g in graph_list}

    @staticmethod
    def _nested(g: Graph, rng) -> list[np.ndarray]:
        order = rng.permutation(np.flatnonzero(g.free))
        masks = []
        for size in (1, 3, 6):
            m = np.zeros(g.n, dtype=bool)
            m[order[:size]] = True
            masks.append(m)
        return masks

    def spec(self, g: Graph):
        return self.specs[id(g)]

    def ops(self, k: int) -> list[Op]:
        import dirichletforms as df

        ops = []
        for i, g in enumerate(self.sub + [self.crit, self.red]):
            ops.append(
                Op(
                    f"classify:{oracles.verdict(g)[0].lower()}{i}",
                    lambda s=self.spec(g): df.classify(s, seed=self.seed),
                    lambda rep, g=g: check_verdict(
                        g, rep.verdict.value, rep.witness_pending, rep.hardy_weight,
                        rep.invariant_set,
                    ),
                )
            )
        n = self.KOF_PATH_EDGES
        ops.append(
            Op(
                "K_of:dirichlet_path",
                lambda s=self.spec(self.path): df.K_of(s, np.ones(n + 1)),
                lambda K: close(K, oracles.path_K(n, 2.0), "K_of on the path"),
            )
        )
        ops.append(
            Op(
                "K_of:random40",
                lambda s=self.spec(self.kof): df.K_of(s, self.kof_w),
                lambda K: close(K, oracles.K2(self.kof, self.kof_w), "K_of"),
            )
        )
        ops.append(
            Op(
                "hardy_optimal_constant",
                lambda s=self.spec(self.hardy): df.hardy_optimal_constant(
                    s, self.hardy_w, search_budget=self.HARDY_BUDGET, seed=self.seed
                ),
                self._check_hardy,
            )
        )
        for j, (g, chain) in enumerate(self.chains):
            state: dict = {}
            for m in chain:
                target = {g.points[i] for i in np.flatnonzero(m)}
                ops.append(
                    Op(
                        f"capacity:{j}:{int(m.sum())}",
                        lambda s=self.spec(g), t=target, h=np.ones(g.n): df.capacity(s, t, h),
                        lambda res, g=g, m=m, state=state: self._check_capacity(g, m, res, state),
                    )
                )
        for j, (g, batch) in enumerate(self.lux):
            ops.append(
                Op(
                    f"luxemburg_norm:batch{j}",
                    lambda s=self.spec(g), b=batch: [
                        df.luxemburg_norm(s, f, df.LuxemburgQuery(r=r)) for f, r in b
                    ],
                    lambda lams, g=g, b=batch: self._check_lux(g, b, lams),
                )
            )
        return ops

    def _check_hardy(self, res):
        K = oracles.K2(self.hardy, self.hardy_w)
        mu_hat = res["mu_hat"]
        need(0.0 < mu_hat <= (1.0 + K) * (1.0 + 1e-9), f"mu_hat {mu_hat!r} vs 1 + K = {1 + K!r}")
        close(res["K"], K, "K(w)")

    def _check_capacity(self, g: Graph, m, res, state):
        check_capacity(g, m, res.value, res.equilibrium, state.get("value"))
        state["value"] = res.value

    def _check_lux(self, g: Graph, batch, lams):
        for (f, r), lam in zip(batch, lams):
            reason = oracles.luxemburg_ok(g, f, lam, r)
            need(reason is None, str(reason))


# -- cli --------------------------------------------------------------------


class Cli:
    """``dform`` subcommands in process, on problem files written at set-up."""

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng([seed, 4])
        mixed = (1.5, 2.0, 3.0)
        self.dir = workdir
        self.csv = str(workdir / "tables.csv")
        cli_seed = str(1000 + seed)
        files = {
            "lux_grid": graphs.grid(100, 3.0, rng),
            "lux_random": graphs.random_sparse(10_000, rng, mixed, n_kill=20, n_boundary=5),
            "classify": graphs.random_sparse(40, rng),
            "capacity": graphs.random_sparse(100, rng),
            "hardy": graphs.random_sparse(40, rng),
            "resolvent": graphs.grid(20, 3.0, rng),
            "green": graphs.random_sparse(60, rng, n_kill=4),
            "profile": graphs.random_sparse(40, rng, mixed),
            "verify": graphs.random_sparse(40, rng, mixed),
        }
        self.graphs = files
        paths = {}
        for name, g in files.items():
            paths[name] = str(workdir / f"{name}.json")
            Path(paths[name]).write_text(json.dumps(graphs.to_problem(g)))
        self.fields = {
            name: graphs.feasible_field(files[name], rng)
            for name in ("lux_grid", "lux_random", "resolvent")
        }
        as_arg = lambda name: json.dumps(dict(zip(files[name].points, self.fields[name].tolist())))
        cap_target = rng.permutation(np.flatnonzero(files["capacity"].free))[:3]
        self.cap_target = cap_target
        common = ["--seed", cli_seed]
        self.commands = [
            ("luxemburg:grid", ["luxemburg", paths["lux_grid"], "--field", as_arg("lux_grid"), "--r", "1.0"]),
            ("luxemburg:random", ["luxemburg", paths["lux_random"], "--field", as_arg("lux_random"), "--r", "2.0"]),
            ("classify", ["classify", paths["classify"], "--csv", self.csv]),
            ("capacity", ["capacity", paths["capacity"], "--set",
                          ",".join(files["capacity"].points[i] for i in cap_target), "--csv", self.csv]),
            ("hardy-weight", ["hardy-weight", paths["hardy"], "--csv", self.csv]),
            ("resolvent", ["resolvent", paths["resolvent"], "--field", as_arg("resolvent"), "--csv", self.csv]),
            ("green", ["green", paths["green"], "--field", "1", "--csv", self.csv]),
            ("profile", ["profile", paths["profile"], "--kind", "hardy", "--r-grid", "0.1,0.5,1.0"]),
            ("verify", ["verify", paths["verify"]]),
        ]
        self.commands = [(name, argv + common) for name, argv in self.commands]
        # command -> (stdout, CSV rows, check failure or None) of its first run
        self.first: dict[str, tuple] = {}

    def ops(self, k: int) -> list[Op]:
        return [
            Op(f"dform {name}", lambda argv=argv: self._run(argv),
               lambda out, name=name: self._check(name, out))
            for name, argv in self.commands
        ]

    def _run(self, argv):
        from dirichletforms.cli import main

        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        table = None
        if "--csv" in argv:
            with open(self.csv, newline="") as fh:
                table = list(csv.reader(fh))
        return code, out.getvalue(), err.getvalue(), table

    def _check(self, name: str, out):
        code, stdout, stderr, table = out
        need(code == 0, f"exit code {code}: {stderr.strip()[-200:]}")
        if name not in self.first:
            reason = None
            try:
                result = json.loads(stdout)["result"]
                if table is not None:
                    self._check_table(result, table)
                kind = name.split(":")[0]
                getattr(self, "_check_" + kind.replace("-", "_"))(name, result)
            except Exception as exc:  # also a checker that cannot read the output
                reason = exc
            self.first[name] = (stdout, table, reason)
        # later rounds: byte-identical to an output already checked, same verdict
        first_stdout, first_table, reason = self.first[name]
        need(stdout == first_stdout, "stdout differs from the first round")
        need(table == first_table, "CSV differs from the first round")
        if reason is not None:
            raise reason.with_traceback(None)

    @staticmethod
    def _check_table(result: dict, table):
        need(table[0] == ["table", "point", "value"], "CSV header")
        rows = table[1:]
        for row in rows:
            need(float(row[2]) == result[row[0]][row[1]], f"CSV row {row} disagrees with the envelope")
        names = {r[0] for r in rows}
        need(all(len(result[t]) == sum(r[0] == t for r in rows) for t in names), "CSV row count")

    def _vec(self, g: Graph, table: dict) -> np.ndarray:
        return np.array([table[p] for p in g.points])

    def _check_luxemburg(self, name, result):
        key = "lux_" + name.split(":")[1]
        reason = oracles.luxemburg_ok(self.graphs[key], self.fields[key], result["norm"], result["r"])
        need(reason is None, str(reason))

    def _check_classify(self, name, result):
        g = self.graphs["classify"]
        W = result.get("hardy_weight")
        check_verdict(
            g, result["verdict"], result["witness_pending"],
            None if W is None else self._vec(g, W), result.get("invariant_set"),
        )

    def _check_capacity(self, name, result):
        g = self.graphs["capacity"]
        m = np.zeros(g.n, dtype=bool)
        m[self.cap_target] = True
        check_capacity(g, m, result["capacity"], self._vec(g, result["equilibrium"]))

    def _check_hardy_weight(self, name, result):
        g = self.graphs["hardy"]
        W = self._vec(g, result["hardy_weight"])
        need(bool(np.all(W > 0)), "Hardy weight is not strictly positive")
        K = oracles.K2(g, W)
        need(abs(result["K"] - K) <= 1e-6 * max(1.0, K), f"K = {result['K']!r}, oracle {K!r}")

    def _check_resolvent(self, name, result):
        g = self.graphs["resolvent"]
        f = self.fields["resolvent"]
        x = self._vec(g, result["resolvent"])
        res = oracles.prox_residual(g, result["alpha"], f, x)
        need(res <= 1e-8 * max(1.0, oracles.mu_norm(g, f)), f"optimality residual {res:.3e}")

    def _check_green(self, name, result):
        g = self.graphs["green"]
        x = self._vec(g, result["green"])
        ref = oracles.green2(g, np.ones(g.n))
        need(result["finite"], "Green value reported infinite")
        need(float(np.max(np.abs(x - ref))) <= 1e-6 * max(1.0, float(np.max(ref))),
             "Green value differs from the direct solve")

    def _check_profile(self, name, result):
        a = result["alpha_of_r"]
        need(all(math.isfinite(v) and v >= 0 for v in a), "profile value not finite and >= 0")
        need(all(x >= y for x, y in zip(a, a[1:])), "profile is not nonincreasing in r")

    def _check_verify(self, name, result):
        need(result["pass"] is True, f"property checks failed: {result['checks']}")


WORKLOADS = {"resolve": Resolve, "certify": Certify, "cli": Cli}
