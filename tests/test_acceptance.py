"""Acceptance gate: one pass/fail line per criterion.

Each test exercises one acceptance criterion end to end at the stated
tolerances and prints a single ``[PASS]``/``[FAIL]`` line (bypassing pytest
capture so the lines always appear in the run log).
"""

import itertools
import math
import sys
import time

import numpy as np
import pytest

import dirichletforms as df
from conftest import green_oracle, path_spec, prox_oracle, random_connected_spec


_CAPMAN = None


@pytest.fixture(autouse=True)
def _passthrough_capture(request):
    # pytest captures at the fd level; route the per-criterion lines past it
    global _CAPMAN
    _CAPMAN = request.config.pluginmanager.getplugin("capturemanager")
    yield


def _report(num: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    line = f"[{status}] criterion {num}: {name}{suffix}"
    if _CAPMAN is not None:
        with _CAPMAN.global_and_fixture_disabled():
            print(line, flush=True)
    else:
        print(line, flush=True)
    assert ok, line


def _spec_with_mass(n, seed, **kw):
    """Random connected quadratic spec guaranteed subcritical (kill or boundary)."""
    rng = np.random.default_rng(seed)
    if rng.random() < 0.5:
        kw.setdefault("n_kill", int(rng.integers(1, max(2, n // 3 + 1))))
    else:
        kw.setdefault("n_boundary", int(rng.integers(1, 3)))
    return random_connected_spec(n, seed=seed + 1, **kw)


def test_criterion_1_bilinear_oracle_equivalence():
    start = time.monotonic()
    rng = np.random.default_rng(101)
    worst_prox, worst_green = 0.0, 0.0
    for trial in range(100):
        n = int(rng.integers(2, 51))
        spec = _spec_with_mass(n, seed=1000 + trial)
        f = rng.normal(size=spec.space.n)
        alpha = float(rng.uniform(0.2, 3.0))
        g, _ = df.prox(spec, alpha, f)
        worst_prox = max(worst_prox, float(np.max(np.abs(g - prox_oracle(spec, alpha, f)))))
        w = np.abs(f)
        gw = df.green(spec, w).value
        worst_green = max(worst_green, float(np.max(np.abs(gw - green_oracle(spec, w)))))
    elapsed = time.monotonic() - start
    ok = worst_prox < 1e-8 and worst_green < 1e-6 and elapsed < 30.0
    _report(
        1,
        "bilinear oracle equivalence",
        ok,
        f"prox sup-err {worst_prox:.2e}, green sup-err {worst_green:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_resolvent_laws():
    rng = np.random.default_rng(202)
    violations = 0
    for trial in range(500):
        n = int(rng.integers(3, 8))
        spec = _spec_with_mass(
            n, seed=2000 + trial, p_range=(1.5, 3.5), q_range=(1.5, 3.5)
        )
        f = spec.project_feasible(rng.normal(size=spec.space.n))
        g = spec.project_feasible(rng.normal(size=spec.space.n))
        alpha = float(rng.uniform(0.2, 4.0))
        beta = float(rng.uniform(0.2, 4.0))
        ok_id, _ = df.resolvent_identity_check(spec, alpha, beta, f)
        gf, _ = df.prox(spec, alpha, f)
        gg, _ = df.prox(spec, alpha, g, x0=gf)
        lip = spec.space.norm(gf - gg) <= spec.space.norm(f - g) / alpha + 1e-7
        markov = df.markov_property_checks(spec, alpha, [(f, g)])["pass"]
        if not (ok_id and lip and markov):
            violations += 1
    _report(2, "resolvent laws on 500 draws", violations == 0, f"{violations} violations")


def test_criterion_3_luxemburg_engine():
    rng = np.random.default_rng(303)
    violations = 0
    for trial in range(500):
        n = int(rng.integers(2, 8))
        spec = _spec_with_mass(
            n, seed=3000 + trial, p_range=(1.5, 4.0), q_range=(1.5, 4.0)
        )
        f = spec.project_feasible(rng.normal(size=spec.space.n))
        r = float(rng.uniform(0.5, 3.0))
        s = float(rng.uniform(0.1, 1.0)) * r
        ok, _ = df.luxemburg_family_check(spec, f, r, s)
        if not ok:
            violations += 1
    worst_hom = 0.0
    for trial in range(50):
        p = float(rng.uniform(1.5, 4.0))
        spec = _spec_with_mass(
            int(rng.integers(2, 7)), seed=3600 + trial, p_range=(p, p), q_range=(p, p)
        )
        f = spec.project_feasible(rng.normal(size=spec.space.n))
        e = df.energy(spec, f)
        if e <= 1e-12:
            continue
        norm = df.luxemburg_norm(spec, f)
        worst_hom = max(worst_hom, abs(norm - e ** (1.0 / p)))
    ok = violations == 0 and worst_hom <= 1e-10
    _report(
        3,
        "Luxemburg engine (500 draws + homogeneous identity)",
        ok,
        f"{violations} violations, homogeneity err {worst_hom:.2e}",
    )


def test_criterion_4_beurling_deny_fuzz():
    ok_fuzz, worst = df.fuzz_scalar_inequalities(100_000, seed=404)
    rng = np.random.default_rng(404)
    battery = df.contraction_battery(seed=404)
    bd_ok = True
    for trial in range(10):
        spec = _spec_with_mass(
            int(rng.integers(3, 8)), seed=4000 + trial, p_range=(1.5, 4.0)
        )
        for _ in range(5):
            f = spec.project_feasible(rng.normal(size=spec.space.n))
            g = spec.project_feasible(rng.normal(size=spec.space.n))
            bd_ok &= df.bd1_check(spec, f, g)[0]
            for C in battery:
                bd_ok &= df.bd2_check(spec, f, g, C)[0]
    ok = ok_fuzz and bd_ok
    _report(
        4,
        "Beurling-Deny fuzz (1e5 scalar samples + bd1/bd2 battery)",
        ok,
        f"worst scalar violation {worst:.2e}",
    )


def test_criterion_5_hardy_bounds():
    rng = np.random.default_rng(505)
    failures = []
    worst_rel = 0.0
    for trial in range(50):
        bilinear = trial < 25
        p_range = (2.0, 2.0) if bilinear else (1.6, 3.0)
        spec = _spec_with_mass(
            int(rng.integers(3, 6)), seed=5000 + trial, p_range=p_range, q_range=p_range
        )
        w = rng.uniform(0.1, 1.0, size=spec.space.n)
        battery = [spec.project_feasible(rng.normal(size=spec.space.n)) for _ in range(8)]
        ok_a, _ = df.hardy_upper_check(spec, w, battery)
        out = df.hardy_optimal_constant(spec, w, search_budget=220, seed=trial)
        ok_b = out["pass"] and df.K_of(spec, w / out["mu_hat"]) <= 1.0 + 1e-6
        ok_c = True
        if bilinear:
            target = math.sqrt(2.0 * out["K"])
            rel = abs(out["mu_hat"] - target) / target
            worst_rel = max(worst_rel, rel)
            ok_c = rel <= 0.05
        if not (ok_a and ok_b and ok_c):
            failures.append(trial)
    _report(
        5,
        "Hardy bounds on 50 subcritical specs",
        not failures,
        f"failures {failures}, worst bilinear rel-err {worst_rel:.3f}",
    )


def test_criterion_6_ground_state_alternative():
    rng = np.random.default_rng(606)
    failures = []
    for trial in range(200):
        n = int(rng.integers(3, 7))
        if trial % 2 == 0:
            spec = random_connected_spec(n, seed=6000 + trial)
            expected = df.Verdict.CRITICAL
        else:
            spec = _spec_with_mass(n, seed=6000 + trial)
            expected = df.Verdict.SUBCRITICAL
        report = df.classify(spec, seed=trial)
        ok = report.verdict is expected
        if ok and expected is df.Verdict.SUBCRITICAL:
            W = report.hardy_weight
            ok = (
                not report.witness_pending
                and W is not None
                and bool(np.all(W > 0))
                and df.K_of(spec, W) <= 1.0 + 1e-6
            )
        if not ok:
            failures.append(trial)
    _report(
        6,
        "ground-state alternative on 200 connected specs",
        not failures,
        f"failures {failures[:5]}",
    )


def test_criterion_7_potential_theory():
    start = time.monotonic()
    rng = np.random.default_rng(707)
    failures = []
    for trial in range(10):
        spec = random_connected_spec(
            5,
            seed=7000 + trial,
            p_range=(1.8, 3.0),
            n_kill=int(rng.integers(1, 4)),
        )
        h = np.ones(5)
        pts = spec.space.points
        subsets = [frozenset(s) for k in range(6) for s in itertools.combinations(pts, k)]
        ok = df.choquet_suite(spec, h, subsets)["pass"]
        for A in subsets:
            if not A:
                continue
            res = df.capacity(spec, A, h)  # one obstacle solve, with its certified bracket
            e = res.equilibrium
            mask = np.array([p in A for p in pts])
            ok &= bool(np.all(e >= -1e-8) and np.all(e <= h + 1e-8))
            ok &= bool(np.all(np.abs(e[mask] - 1.0) <= 1e-8))
            ok &= 0.0 <= res.value - res.lower_bound <= 1e-12 * max(1.0, res.value)
        # spot-check excessivity of a few equilibrium potentials
        for A in (frozenset({pts[0]}), frozenset(pts[:2])):
            e = df.capacity(spec, A, h).equilibrium
            ok &= df.is_excessive(spec, np.clip(e, 0.0, None))[0]
        if not ok:
            failures.append(trial)
    elapsed = time.monotonic() - start
    ok = not failures and elapsed < 300.0
    _report(
        7,
        "potential theory on all 2^5 subsets of 10 specs",
        ok,
        f"failures {failures}, {elapsed:.1f}s",
    )


def test_criterion_8_duality_recovery():
    rng = np.random.default_rng(808)
    failures = []
    for trial in range(20):
        spec = _spec_with_mass(
            int(rng.integers(3, 6)), seed=8000 + trial, p_range=(1.6, 4.0), q_range=(1.6, 4.0)
        )
        f = spec.project_feasible(rng.normal(size=spec.space.n))
        target = df.energy(spec, f)
        records = df.duality_recover(spec, f, [1e-1, 1e-2, 1e-3, 1e-4])
        ok = abs(records[-1]["value"] - target) <= 1e-3 * max(1.0, target)
        ok &= all(rec["gap_residual"] <= 1e-6 for rec in records)
        if not ok:
            failures.append(trial)
    _report(8, "duality recovery on 20 specs", not failures, f"failures {failures}")


def test_criterion_9_path_exhaustion():
    worst = 0.0
    for n in range(2, 65):
        spec = path_spec(n)
        value = df.capacity(spec, {"0"}, np.ones(n + 1)).value
        worst = max(worst, abs(value - 1.0 / (2.0 * n)))
    _report(
        9,
        "path-exhaustion capacity vs series-resistance oracle",
        worst <= 1e-8,
        f"worst abs err {worst:.2e}",
    )
