"""Tests of the benchmark's own code: oracles, input generation, harness.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import graphs  # noqa: E402
import oracles  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS, Op  # noqa: E402


# -- oracles against closed forms ---------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 7])
def test_path_green_p2_closed_form(n):
    k = np.arange(n + 1)
    want = (n * (n + 1) - k * (k + 1)) / 2
    assert np.allclose(oracles.path_green(n, 2.0), want)
    g = graphs.unit_path(n, 2.0)
    assert np.allclose(oracles.green2(g, np.ones(n + 1)), want)
    assert oracles.K2(g, np.ones(n + 1)) == pytest.approx(oracles.path_K(n, 2.0))


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_path_green_solves_the_green_equation(p):
    # G 1 is the feasible g with grad E(g) = 1 on the free points
    g = graphs.unit_path(6, p)
    x = oracles.path_green(6, p)
    assert x[-1] == 0.0
    assert np.allclose(oracles.gradient(g, x)[:-1], 1.0)


def test_prox2_two_points_closed_form():
    w, alpha, f = 1.5, 0.5, np.array([1.0, -2.0])
    g = graphs._graph(["a", "b"], [1.0, 1.0], ([0], [1], [w], [2.0]))
    M = np.array([[w + alpha, -w], [-w, w + alpha]])
    assert np.allclose(oracles.prox2(g, alpha, f), np.linalg.solve(M, f))
    assert oracles.prox_residual(g, alpha, f, oracles.prox2(g, alpha, f)) < 1e-12


def test_capacity2_on_the_unit_path():
    # the equilibrium potential of {0} is linear, so cap = 1 / (2n)
    n = 5
    g = graphs.unit_path(n, 2.0)
    target = np.zeros(n + 1, dtype=bool)
    target[0] = True
    cap, u = oracles.capacity2(g, target)
    assert cap == pytest.approx(1.0 / (2 * n))
    assert np.allclose(u, 1.0 - np.arange(n + 1) / n)


def test_gradient_matches_energy_differences():
    rng = np.random.default_rng(5)
    g = graphs.random_sparse(12, rng, (1.5, 2.0, 3.0))
    f = graphs.feasible_field(g, rng)
    h = 1e-6
    for i in np.flatnonzero(g.free):
        e = np.zeros(g.n)
        e[i] = h
        fd = (oracles.energy(g, f + e) - oracles.energy(g, f - e)) / (2 * h)
        assert fd == pytest.approx(g.mu[i] * oracles.gradient(g, f)[i], rel=1e-5, abs=1e-7)
    f[g.boundary] = 1.0
    assert oracles.energy(g, f) == np.inf


def test_luxemburg_check_accepts_only_the_closed_form():
    rng = np.random.default_rng(2)
    g = graphs.grid(4, 3.0, rng)
    f = graphs.feasible_field(g, rng)
    lam = (oracles.energy(g, f) / 2.0) ** (1 / 3)
    assert oracles.luxemburg_ok(g, f, lam, 2.0) is None
    assert oracles.luxemburg_ok(g, f, 1.01 * lam, 2.0) is not None
    assert oracles.luxemburg_ok(g, f, 0.99 * lam, 2.0) is not None


def test_verdict_reads_the_structure():
    rng = np.random.default_rng(3)
    assert oracles.verdict(graphs.random_sparse(9, rng, n_kill=0, n_boundary=0))[0] == "Critical"
    assert oracles.verdict(graphs.random_sparse(9, rng))[0] == "Subcritical"
    a, b = graphs.random_sparse(5, rng), graphs.random_sparse(4, rng)
    verdict, comps = oracles.verdict(graphs.split(a, b))
    assert verdict == "Reducible"
    assert sorted(len(c) for c in comps) == [4, 5]


# -- inputs are a function of the seed -----------------------------------------


def _digest(obj, h, workdir: str):
    if isinstance(obj, graphs.Graph):
        obj = vars(obj)
    if isinstance(obj, np.ndarray):
        h.update(obj.tobytes())
    elif isinstance(obj, dict):
        for key in sorted(obj, key=str):
            h.update(str(key).encode())
            _digest(obj[key], h, workdir)
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            _digest(item, h, workdir)
    elif isinstance(obj, str):
        h.update(obj.replace(workdir, "<dir>").encode())
    elif isinstance(obj, (int, float, np.generic)):
        h.update(repr(obj).encode())
    # program objects (specs) are built from the above and are not hashed


def inputs_digest(name: str, seed: int, tmp: Path) -> str:
    workdir = tmp / f"{name}-{seed}-{len(list(tmp.iterdir()))}"
    workdir.mkdir()
    wl = WORKLOADS[name](seed, workdir)
    h = hashlib.sha256()
    # the seed itself is left out: only what it generated counts
    _digest({k: v for k, v in vars(wl).items() if k not in ("specs", "seed")}, h, str(workdir))
    if hasattr(wl, "rhs"):
        _digest([wl.rhs(0), wl.rhs(1)], h, str(workdir))
    for path in sorted(workdir.glob("*.json")):
        h.update(path.read_bytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_inputs_other_seed_other_inputs(name, tmp_path):
    first = inputs_digest(name, 7, tmp_path)
    assert inputs_digest(name, 7, tmp_path) == first
    assert inputs_digest(name, 8, tmp_path) != first


def test_resolve_draws_fresh_right_hand_sides_each_round(tmp_path):
    wl = WORKLOADS["resolve"](1, tmp_path)
    assert not np.array_equal(wl.rhs(0)[0], wl.rhs(1)[0])


# -- the harness ---------------------------------------------------------------


def test_traced_run_reports_every_layer_metric():
    import tracing

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {m["name"] for m in bench["per_layer"]}
    assert names == {m for m, _, _ in tracing.METRICS} | {"trace.round_p50_s", "trace.overhead_s"}
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "certify", "--seed", "3",
         "--seconds", "0.1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result["metrics"]) == names
    assert result["correct"] is True
    # the Dirichlet-path K_of is the one operation of a round that fails
    assert result["metrics"]["trace.round_p50_s"]["value"] > 0
    rounds = result["attempted"] // 15
    assert result["attempted"] == 15 * rounds and result["failed"] == rounds
    assert result["metrics"]["resolvent.green.steps"]["value"] > 0


def test_a_check_that_cannot_read_the_output_counts_a_wrong_operation():
    # malformed outputs make the checkers raise errors of their own
    cli = object.__new__(WORKLOADS["cli"])
    cli.first = {}
    resolve = WORKLOADS["resolve"]
    g = graphs.unit_path(4, 2.0)
    ops = [
        Op("dform verify", None, lambda out: cli._check("verify", out)),
        Op("prox", None, lambda x: resolve._check(resolve, g, np.ones(5), x)),
        Op("K_of", None, None),
    ]
    outcomes = [
        (ops[0], (0, "not json", "", None), None),
        (ops[1], np.ones(3), None),
        (ops[2], None, RuntimeError("raised")),
    ]
    errors = Counter()
    assert worker.tally(outcomes, errors) == (3, 2)
    assert errors == {
        "dform verify: JSONDecodeError": 1, "prox: IndexError": 1, "K_of: RuntimeError": 1,
    }
    # the first round's verdict holds for the byte-identical later rounds
    assert worker.tally(outcomes[:1], errors) == (1, 1)
    assert errors["dform verify: JSONDecodeError"] == 2


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert out.returncode != 0
    assert out.stdout == ""
