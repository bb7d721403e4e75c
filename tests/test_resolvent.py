import math

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse import csgraph
from scipy.sparse.linalg import splu

from dirichletforms import (
    Edge,
    EnergySpec,
    InconclusiveError,
    KillTerm,
    MeasureSpace,
    NonConvergenceError,
    ParameterError,
    ProxConfig,
    StructuralError,
    convex_conjugate,
    directional_derivative,
    green,
    luxemburg_norm,
    markov_property_checks,
    perturbed_prox,
    prox,
    resolvent_identity_check,
)
from dirichletforms.energy import energy, energy_gradient
from dirichletforms import resolvent
from dirichletforms.resolvent import (
    _DENSE_MAX,
    _newton_direction,
    _solve_shifted,
    energy_hessian,
)
from conftest import (
    disjoint_union,
    green_oracle,
    grid_spec,
    path_spec,
    prox_oracle,
    random_connected_spec,
    single_vertex_spec,
    two_vertex_spec,
    weak_edge_spec,
)

CFG = ProxConfig()


def test_prox_two_vertex_closed_form():
    # minimize (g1-g2)^2/2 + (1/2)(|g - (1,0)|^2): g = (2/3, 1/3)
    spec = two_vertex_spec()
    g, report = prox(spec, 1.0, np.array([1.0, 0.0]))
    assert np.allclose(g, [2.0 / 3.0, 1.0 / 3.0], atol=1e-9)
    assert report.converged and report.residual <= CFG.residual_tolerance


@pytest.mark.parametrize("seed", range(6))
def test_prox_matches_linear_oracle(seed):
    spec = random_connected_spec(8, seed=seed, n_kill=2, n_boundary=1)
    rng = np.random.default_rng(seed)
    f = rng.normal(size=spec.space.n)
    alpha = float(rng.uniform(0.2, 3.0))
    g, _ = prox(spec, alpha, f)
    assert np.max(np.abs(g - prox_oracle(spec, alpha, f))) < 1e-8


def test_prox_residual_certificate_nonquadratic():
    spec = random_connected_spec(7, seed=2, p_range=(1.6, 3.5), n_kill=1)
    rng = np.random.default_rng(2)
    f = rng.normal(size=spec.space.n)
    g, report = prox(spec, 0.7, f)
    r = energy_gradient(spec, g) + 0.7 * g - f
    r[spec.boundary_mask] = 0.0
    assert spec.space.norm(r) <= CFG.residual_tolerance
    assert report.residual == pytest.approx(spec.space.norm(r), abs=1e-12)


def test_prox_boundary_pinned():
    spec = path_spec(3, p=2.5)
    g, _ = prox(spec, 1.0, np.ones(4))
    assert g[-1] == 0.0


def test_prox_parameter_validation():
    spec = two_vertex_spec()
    with pytest.raises(ParameterError):
        prox(spec, 0.0, np.zeros(2))
    with pytest.raises(ParameterError):
        ProxConfig(residual_tolerance=0.0)
    with pytest.raises(ParameterError):
        ProxConfig(max_iterations=-1)


_BAD_FIELDS = [np.ones(3), np.array([1.0, np.nan]), np.array([np.inf, 0.0])]


@pytest.mark.parametrize("bad", _BAD_FIELDS)
@pytest.mark.parametrize(
    "call",
    [
        lambda spec, bad: prox(spec, 1.0, bad),
        lambda spec, bad: prox(spec, 1.0, np.ones(2), x0=bad),
        lambda spec, bad: convex_conjugate(spec, bad),
        lambda spec, bad: convex_conjugate(spec, np.zeros(2), x0=bad),
        lambda spec, bad: energy(spec, bad),
        lambda spec, bad: energy_gradient(spec, bad),
        lambda spec, bad: luxemburg_norm(spec, bad),
        lambda spec, bad: directional_derivative(spec, np.zeros(2), bad),
    ],
)
def test_public_entries_reject_malformed_fields(call, bad):
    # the solver core does not check its input, so every entry must
    with pytest.raises(StructuralError):
        call(two_vertex_spec(), bad)


def test_the_solver_core_checks_no_field(check_calls):
    spec = path_spec(30, 3.0)
    g, report = _solve_shifted(spec, 1e-2, np.ones(31), None, None, np.zeros(31), ProxConfig())
    assert report.converged and report.iterations >= 30
    assert check_calls == []


@pytest.mark.parametrize("warm", [False, True])
def test_prox_checks_each_field_argument_once(warm, check_calls):
    # 35 Newton iterations, each with residual and objective evaluations
    spec = path_spec(30, 3.0)
    x0 = np.zeros(31) if warm else None
    _, report = prox(spec, 1e-2, np.ones(31), x0=x0)
    assert report.iterations >= 30
    assert len(check_calls) == 1 + warm


def test_a_non_finite_newton_direction_takes_the_fallback_step(monkeypatch):
    spec = random_connected_spec(12, seed=3, p_range=(1.5, 3.0), n_kill=2, n_boundary=1)
    f = spec.project_feasible(np.random.default_rng(3).normal(size=spec.space.n))
    want, _ = prox(spec, 0.5, f)
    direction, poisoned = resolvent._newton_direction, []

    def nan_once(*args):
        delta = direction(*args)
        if not poisoned:
            poisoned.append(delta)
            delta = np.full_like(delta, np.nan)
        return delta

    monkeypatch.setattr(resolvent, "_newton_direction", nan_once)
    got, report = prox(spec, 0.5, f)
    assert poisoned and report.converged
    # each answer is within residual / alpha of the resolvent in the mu-norm
    assert spec.space.norm(got - want) <= 2 * ProxConfig().residual_tolerance / 0.5


@pytest.mark.parametrize("budget", [0, 1, 5])
def test_reported_iterations_stay_within_the_budget(budget):
    # an obstacle solve that needs 8 iterations, so each of these budgets
    # runs out; the report counts Newton iterations and no more
    spec = random_connected_spec(6, seed=1, n_kill=2, p_range=(1.8, 3.0))
    lower = np.full(6, -np.inf)
    lower[1] = 1.0
    cfg = ProxConfig(max_iterations=budget)
    _, report = _solve_shifted(spec, 0.0, np.zeros(6), lower, None, np.ones(6), cfg)
    assert report.iterations <= budget
    assert report.converged is False


def test_prox_nonconvergence_reports_best():
    spec = two_vertex_spec(p=3.0)
    cfg = ProxConfig(residual_tolerance=1e-12, max_iterations=0)
    with pytest.raises(NonConvergenceError) as exc:
        prox(spec, 1.0, np.array([1.0, -1.0]), cfg)
    assert exc.value.report.converged is False
    assert exc.value.best is not None


def test_energy_hessian_matches_gradient_difference():
    spec = random_connected_spec(5, seed=4, p_range=(2.5, 3.5), n_kill=1)
    rng = np.random.default_rng(4)
    g0 = rng.normal(size=spec.space.n) + 1.0
    H = energy_hessian(spec, g0)
    h = 1e-6
    for i in range(spec.space.n):
        e = np.zeros(spec.space.n)
        e[i] = h
        col = (
            spec.space.mu * energy_gradient(spec, g0 + e)
            - spec.space.mu * energy_gradient(spec, g0 - e)
        ) / (2 * h)
        assert np.allclose(H[:, i], col, rtol=1e-4, atol=1e-4)


def _weighted_path(n_points: int, seed: int, p: float) -> EnergySpec:
    """Path with random weights, one kill and a Dirichlet right end."""
    rng = np.random.default_rng(seed)
    pts = tuple(f"x{i}" for i in range(n_points))
    edges = tuple(
        Edge(pts[i], pts[i + 1], float(rng.uniform(0.5, 2.0)), p)
        for i in range(n_points - 1)
    )
    kill = (KillTerm(pts[0], 1.0, p),)
    space = MeasureSpace(pts, rng.uniform(0.5, 2.0, size=n_points))
    return EnergySpec(space, edges, kill, frozenset({pts[-1]}))


def _direction_specs(p: float, large: bool):
    """Path, grid and random specs with kill and boundary, either below or
    above the dense/sparse crossover."""
    n = 4 * _DENSE_MAX if large else _DENSE_MAX // 4
    side = int(math.isqrt(n))
    return [
        _weighted_path(n, seed=1, p=p),
        grid_spec(side, seed=2, p=p, n_kill=2, n_boundary=3),
        random_connected_spec(n, seed=3, p_range=(p, p), n_kill=3, n_boundary=2),
    ]


def _dense_direction(spec, g, alpha, free, rhs):
    H = energy_hessian(spec, g, alpha)
    delta = np.zeros(spec.space.n)
    delta[free] = np.linalg.solve(H[np.ix_(free, free)], rhs[free])
    return delta


@pytest.mark.parametrize("large", [False, True])
@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_newton_direction_matches_dense_solve(p, large):
    rng = np.random.default_rng(7)
    for spec in _direction_specs(p, large):
        n = spec.space.n
        g = spec.project_feasible(rng.normal(size=n))
        rhs = rng.normal(size=n)
        inactive = spec.free_mask & (rng.random(n) < 0.7)
        for alpha, free in ((1.3, spec.free_mask), (1e-14, spec.free_mask), (0.5, inactive)):
            got = _newton_direction(spec, g, alpha, free, rhs)
            want = _dense_direction(spec, g, alpha, free, rhs)
            assert np.all(got[~free] == 0.0)
            err = np.linalg.norm(got - want) / np.linalg.norm(want)
            assert err <= 1e-10, (spec.space.n, alpha, int(free.sum()), err)


@pytest.mark.parametrize("n_points", [_DENSE_MAX // 4, 4 * _DENSE_MAX])
def test_newton_direction_at_curvature_cap(n_points):
    # p = 1.5 at the zero field: every curvature is infinite and capped, and
    # the kill term with kappa = 0 gives 0 * inf
    path = _weighted_path(n_points, seed=5, p=1.5)
    kill = path.kill + (KillTerm("x1", 0.0, 1.5),)
    spec = EnergySpec(path.space, path.edges, kill, path.boundary)
    g = np.zeros(n_points)
    rhs = np.random.default_rng(5).normal(size=n_points)
    free = spec.free_mask
    delta = _newton_direction(spec, g, 1.0, free, rhs)
    assert delta is not None and np.all(np.isfinite(delta))
    A = energy_hessian(spec, g, 1.0)[np.ix_(free, free)]
    backward = np.linalg.norm(A @ delta[free] - rhs[free]) / (
        np.linalg.norm(A, 1) * np.linalg.norm(delta[free]) + np.linalg.norm(rhs)
    )
    assert backward <= 1e-12


@pytest.mark.parametrize("n_points", [_DENSE_MAX // 4, 4 * _DENSE_MAX])
def test_newton_direction_singular_block_returns_none(n_points):
    # an isolated point without kill has an all-zero row when unshifted
    path = path_spec(n_points - 2, dirichlet_right=False)
    space = MeasureSpace(path.space.points + ("lonely",), np.ones(n_points))
    spec = EnergySpec(space, path.edges, (KillTerm("0", 1.0, 2.0),))
    g = np.linspace(0.0, 1.0, n_points)
    free = np.ones(n_points, dtype=bool)
    assert _newton_direction(spec, g, 0.0, free, np.ones(n_points)) is None


def _count_calls(monkeypatch, name: str, owner=resolvent) -> list:
    """Patch ``owner.<name>`` to record its calls."""
    calls = []
    real = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


def _tally() -> dict:
    return dict.fromkeys(resolvent._LINEAR_TALLY, 0)


def _family_spec(kind: str, n: int, p: float = 2.0) -> EnergySpec:
    """About n points of the conftest path, grid or random family."""
    if kind == "path":
        return path_spec(n - 1, p)
    if kind == "grid":
        return grid_spec(math.isqrt(n), seed=2, p=p, n_kill=2, n_boundary=3)
    return random_connected_spec(n, seed=3, p_range=(p, p), n_kill=3, n_boundary=2)


@pytest.mark.parametrize("n", [4 * _DENSE_MAX, 3000])
@pytest.mark.parametrize("kind", ["path", "grid", "random"])
def test_wide_patterns_use_cg_and_narrow_ones_splu(kind, n, monkeypatch):
    spec = _family_spec(kind, n)
    cg_calls, splu_calls = _count_calls(monkeypatch, "cg"), _count_calls(monkeypatch, "splu")
    rng = np.random.default_rng(1)
    g = spec.project_feasible(rng.normal(size=spec.space.n))
    tally = _tally()
    delta = _newton_direction(spec, g, 1.0, spec.free_mask, rng.normal(size=spec.space.n), tally)
    assert delta is not None
    wide = kind == "random"
    assert spec._hessian_is_wide is wide
    assert (len(cg_calls), len(splu_calls)) == ((1, 0) if wide else (0, 1))
    assert tally["cg"] == int(wide) and tally["splu"] == int(not wide)
    assert (tally["cg_iterations"] > 0) is wide and tally["cg_fallbacks"] == 0


def _splu_direction(spec, g, alpha, free, rhs):
    A = sparse.csc_array(energy_hessian(spec, g, alpha)[np.ix_(free, free)])
    delta = np.zeros(spec.space.n)
    delta[free] = splu(A).solve(rhs[free])
    return delta


@pytest.mark.parametrize("alpha", [1.0, 1e-14])
@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_cg_direction_matches_splu_direction(p, alpha):
    spec = _family_spec("random", 4 * _DENSE_MAX, p)
    rng = np.random.default_rng(4)
    g = spec.project_feasible(rng.normal(size=spec.space.n))
    rhs = rng.normal(size=spec.space.n)
    inactive = spec.free_mask & (rng.random(spec.space.n) < 0.7)
    for free in (spec.free_mask, inactive):
        tally = _tally()
        got = _newton_direction(spec, g, alpha, free, rhs, tally)
        assert tally["cg"] == 1 and tally["splu"] == 0
        want = _splu_direction(spec, g, alpha, free, rhs)
        assert np.all(got[~free] == 0.0)
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)


@pytest.mark.parametrize("info", [resolvent._CG_MAX_ITER, -1])
def test_an_unfinished_cg_solve_falls_back_to_splu(info, monkeypatch):
    # info > 0: the iteration cap; info < 0: a breakdown
    spec = _family_spec("random", 4 * _DENSE_MAX)
    rng = np.random.default_rng(5)
    g = spec.project_feasible(rng.normal(size=spec.space.n))
    rhs = rng.normal(size=spec.space.n)
    cg_calls = []

    def unfinished(A, b, **kwargs):
        cg_calls.append(1)
        kwargs["callback"](np.zeros_like(b))
        return np.full_like(b, np.nan), info

    monkeypatch.setattr(resolvent, "cg", unfinished)
    splu_calls = _count_calls(monkeypatch, "splu")
    tally = _tally()
    got = _newton_direction(spec, g, 1.0, spec.free_mask, rhs, tally)
    assert (len(cg_calls), len(splu_calls)) == (1, 1)
    assert tally == {"dense": 0, "splu": 1, "cg": 0, "cg_iterations": 1, "cg_fallbacks": 1}
    want = _splu_direction(spec, g, 1.0, spec.free_mask, rhs)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_a_capped_iterate_runs_no_cg(monkeypatch):
    # p = 1.5 at the zero field: every curvature sits at the cap, where CG
    # would stall, so even the wide pattern is factored
    spec = _family_spec("random", 4 * _DENSE_MAX, p=1.5)
    assert spec._hessian_is_wide
    cg_calls, splu_calls = _count_calls(monkeypatch, "cg"), _count_calls(monkeypatch, "splu")
    tally = _tally()
    rhs = np.random.default_rng(6).normal(size=spec.space.n)
    delta = _newton_direction(spec, np.zeros(spec.space.n), 1.0, spec.free_mask, rhs, tally)
    assert delta is not None and np.all(np.isfinite(delta))
    assert (len(cg_calls), len(splu_calls)) == (0, 1)
    assert tally["splu"] == 1 and tally["cg"] == tally["cg_iterations"] == 0


def test_a_singular_wide_block_returns_none():
    # an isolated point without kill has a zero diagonal when unshifted:
    # no CG, and the LU reports the singular block
    rand = _family_spec("random", 4 * _DENSE_MAX)
    space = MeasureSpace(rand.space.points + ("lonely",), np.ones(rand.space.n + 1))
    spec = EnergySpec(space, rand.edges, rand.kill, rand.boundary)
    assert spec._hessian_is_wide
    g = spec.project_feasible(np.linspace(0.0, 1.0, space.n))
    tally = _tally()
    assert _newton_direction(spec, g, 0.0, spec.free_mask, np.ones(space.n), tally) is None
    assert tally["splu"] == 1 and tally["cg"] == tally["cg_fallbacks"] == 0


def test_the_bandwidth_is_computed_once_per_spec(monkeypatch):
    calls = _count_calls(monkeypatch, "reverse_cuthill_mckee", csgraph)
    spec = _family_spec("random", 4 * _DENSE_MAX, p=3.0)
    f = spec.project_feasible(np.random.default_rng(7).normal(size=spec.space.n))
    _, first = prox(spec, 1.0, f)
    _, second = prox(spec, 0.5, f)
    assert first.iterations > 1 and len(calls) == 1
    assert first.extras["linear"]["cg"] == first.iterations
    assert second.extras["linear"]["cg"] == second.iterations


@pytest.mark.parametrize(
    "kind, n, solver",
    [("random", _DENSE_MAX // 4, "dense"), ("path", 4 * _DENSE_MAX, "splu"),
     ("random", 4 * _DENSE_MAX, "cg")],
)
def test_the_report_tallies_the_linear_solves(kind, n, solver):
    # a converged solve computes one direction per iteration
    spec = _family_spec(kind, n, p=3.0)
    f = spec.project_feasible(np.random.default_rng(8).normal(size=spec.space.n))
    _, report = prox(spec, 1.0, f)
    linear = report.extras["linear"]
    assert report.iterations > 1 and linear[solver] == report.iterations
    assert sum(linear[k] for k in ("dense", "splu", "cg")) == report.iterations
    assert (linear["cg_iterations"] >= report.iterations) is (solver == "cg")
    assert linear["cg_fallbacks"] == 0


@pytest.mark.parametrize(
    "make, budget",
    [
        (lambda: grid_spec(24, 7, 1.5, n_kill=3, n_boundary=2), 32),
        (lambda: random_connected_spec(300, 4, (1.5, 3.0), n_kill=5, n_boundary=1), 19),
        (lambda: random_connected_spec(900, 3, (3.0, 3.0), n_kill=3, n_boundary=2), 6),
    ],
    ids=["grid24-p1.5", "random300-mixed", "random900-p3"],
)
def test_kill_bearing_solves_keep_their_iteration_counts(make, budget):
    # the measured Newton iteration counts of these kill-bearing solves; a
    # rise is the stall that a change to the energy kernels can bring
    spec = make()
    f = spec.project_feasible(np.random.default_rng(1).normal(size=spec.space.n))
    _, report = prox(spec, 1.0, f)
    assert report.iterations <= budget, report.extras["linear"]


@pytest.mark.parametrize("kind", ["path", "random"])
def test_prox_at_2000_points_matches_linear_oracle(kind):
    if kind == "path":
        spec = _weighted_path(2000, seed=11, p=2.0)
    else:
        spec = random_connected_spec(1998, seed=11, n_kill=3, n_boundary=2)
    rng = np.random.default_rng(11)
    f = spec.project_feasible(rng.normal(size=spec.space.n))
    g, report = prox(spec, 1.0, f)
    assert report.converged
    want = prox_oracle(spec, 1.0, f)
    assert np.max(np.abs(g - want)) <= 1e-8 * max(1.0, float(np.max(np.abs(want))))


def test_resolvent_identity():
    spec = random_connected_spec(6, seed=5, p_range=(1.7, 3.0), n_kill=1)
    rng = np.random.default_rng(5)
    f = rng.normal(size=spec.space.n)
    ok, residual = resolvent_identity_check(spec, 0.6, 2.3, f)
    assert ok, residual


def test_markov_properties():
    spec = random_connected_spec(6, seed=6, p_range=(1.6, 3.2), n_kill=1, n_boundary=1)
    rng = np.random.default_rng(6)
    pairs = [
        (
            spec.project_feasible(rng.normal(size=spec.space.n)),
            spec.project_feasible(rng.normal(size=spec.space.n)),
        )
        for _ in range(4)
    ]
    report = markov_property_checks(spec, 1.1, pairs)
    assert report["pass"], report["margins"]


def test_lipschitz_bound():
    spec = random_connected_spec(6, seed=7, p_range=(1.6, 3.0), n_kill=1)
    rng = np.random.default_rng(7)
    f = rng.normal(size=spec.space.n)
    g = rng.normal(size=spec.space.n)
    for alpha in (0.3, 1.0, 5.0):
        gf, _ = prox(spec, alpha, f)
        gg, _ = prox(spec, alpha, g)
        assert spec.space.norm(gf - gg) <= spec.space.norm(f - g) / alpha + 1e-8


def test_alpha_galpha_approaches_identity():
    spec = random_connected_spec(5, seed=8, p_range=(2.0, 2.0), n_kill=2)
    rng = np.random.default_rng(8)
    f = rng.normal(size=spec.space.n)
    for alpha, tol in ((1e2, 0.1), (1e4, 1e-3)):
        g, _ = prox(spec, alpha, alpha * f)
        assert np.max(np.abs(g - f)) < tol


def test_perturbed_prox_fixed_point_and_exchange():
    spec = random_connected_spec(5, seed=9, p_range=(1.8, 3.0))
    rng = np.random.default_rng(9)
    w = rng.uniform(0.2, 1.0, size=spec.space.n)
    w2 = rng.uniform(0.2, 1.0, size=spec.space.n)
    f = rng.normal(size=spec.space.n)
    g, report = perturbed_prox(spec, w, 1.0, f, second_weight=w2)
    assert report.extras["fixed_point_residual"] < 1e-7
    assert report.extras["exchange_residual"] < 1e-7


def test_perturbed_resolvent_bounded_by_one():
    # Lemma II(a) analogue: G^w(w) takes values in [0, 1]
    spec = random_connected_spec(5, seed=10)
    rng = np.random.default_rng(10)
    w = rng.uniform(0.2, 1.0, size=spec.space.n)
    from dirichletforms.energy import perturb

    result = green(perturb(spec, w), w)
    assert result.finite
    assert np.all(result.value >= -1e-9) and np.all(result.value <= 1.0 + 1e-9)
    # Lemma II(b) analogue: the perturbed Green potential has energy
    # bounded by the pairing with the data
    e = energy(perturb(spec, w), result.value)
    pairing = float(np.sum(spec.space.mu * w * result.value))
    assert e <= pairing + 1e-7


def test_green_matches_linear_oracle():
    spec = random_connected_spec(6, seed=11, n_kill=2)
    rng = np.random.default_rng(11)
    f = rng.uniform(0.0, 1.0, size=spec.space.n)
    out = green(spec, f).value
    assert np.max(np.abs(out - green_oracle(spec, f))) < 1e-6


def test_green_checks_its_field_once(check_calls):
    # every step of the schedule is a core solve: f is checked at entry only
    spec = random_connected_spec(12, seed=13, n_kill=2, n_boundary=1)
    f = np.random.default_rng(13).uniform(0.0, 1.0, size=spec.space.n)
    check_calls.clear()
    result = green(spec, f)
    assert len(result.alpha_trace) > 2
    assert len(check_calls) == 1


@pytest.mark.parametrize("alpha", [0.0, 0.5])
def test_solve_shifted_box_with_both_bounds_active(alpha):
    spec = random_connected_spec(30, seed=17, p_range=(1.8, 3.0), n_kill=3, n_boundary=2)
    rng = np.random.default_rng(17)
    n = spec.space.n
    f = spec.project_feasible(rng.normal(scale=3.0, size=n))
    lo = np.full(n, -0.2)
    hi = np.full(n, 0.3)
    lo[0], hi[0] = 1.0, 2.0
    g, report = _solve_shifted(spec, alpha, f, lo, hi, np.zeros(n), CFG)
    assert report.converged
    assert np.all(g[spec.boundary_mask] == 0.0)
    assert np.all(g >= lo - 1e-12) and np.all(g <= hi + 1e-12)

    # KKT: zero gradient inside the box, multipliers pushing inward on it
    r = energy_gradient(spec, g) + alpha * g - f
    free = spec.free_mask
    at_lo = free & (g <= lo + 1e-12)
    at_hi = free & (g >= hi - 1e-12)
    inside = free & ~at_lo & ~at_hi
    assert np.max(np.abs(r[inside])) <= 1e-8
    assert np.all(r[at_lo] >= -1e-8) and np.all(r[at_hi] <= 1e-8)
    # both kinds of bound hold some coordinate with a nonzero multiplier
    assert np.any(at_lo & (r > 1e-6)) and np.any(at_hi & (r < -1e-6))


def test_solve_shifted_bounds_the_error_where_e_is_flat():
    # E = |a - b|^3 / 3 with a held at 1: the minimizer is b = 1, where the
    # Hessian vanishes, so the residual (b - 1)^2 reads 1e-9 at an error of
    # 3e-5; the stop test on the step brings the error below the tolerance
    spec = two_vertex_spec(p=3.0)
    lo = np.array([1.0, -np.inf])
    hi = np.array([1.0, np.inf])
    g, report = _solve_shifted(spec, 0.0, np.zeros(2), lo, hi, np.array([1.0, 0.0]), CFG)
    assert report.converged
    assert g[0] == 1.0
    assert abs(g[1] - 1.0) <= CFG.residual_tolerance


def test_green_trace_monotone_and_finite():
    spec = single_vertex_spec(kappa=2.0)
    result = green(spec, np.array([1.0]))
    assert result.finite
    sups = [s for _, s in result.alpha_trace]
    assert all(b >= a - 1e-9 for a, b in zip(sups, sups[1:]))
    assert result.value[0] == pytest.approx(0.5, abs=1e-6)  # kappa g = f


def test_green_divergence_on_critical():
    spec = two_vertex_spec()
    result = green(spec, np.array([1.0, 1.0]))
    assert not result.finite
    assert np.all(np.isinf(result.value))


def test_green_on_nonneg_is_finite_past_any_magnitude():
    # G 1_a = (1e9, 0): a large finite value, never +inf, and 0 on the boundary
    spec = weak_edge_spec(1e-9)
    try:
        out = green(spec, np.array([1.0, 0.0])).value
    except InconclusiveError:
        return  # the alpha -> 0 schedule may not settle on values this large
    assert out[1] == 0.0
    assert out[0] == pytest.approx(1e9, rel=1e-6)


@pytest.mark.parametrize("charge", [0.0, 1.0])
def test_green_on_nonneg_decides_free_components_and_solves_the_rest(charge):
    # one free component (no kill, no boundary) and two coercive ones, at p = 2
    parts = {
        "A": random_connected_spec(6, seed=31, n_kill=2),
        "B": random_connected_spec(5, seed=32, n_boundary=1),
    }
    spec = disjoint_union({"F": random_connected_spec(4, seed=30), **parts})
    coercive = disjoint_union(parts)
    assert len(spec.free_components) == 1 and len(spec.inner_components) == 3
    free = spec.free_components[0]
    rest = np.setdiff1d(np.arange(spec.space.n), free)
    f = np.random.default_rng(33).uniform(0.1, 1.0, size=spec.space.n)
    f[free] *= charge

    result = green(spec, f)
    # one schedule solves both coercive components
    assert np.max(np.abs(result.value[rest] - green_oracle(coercive, f[rest]))) < 1e-6
    assert np.all(result.value[free] == (math.inf if charge else 0.0))
    assert result.finite == (charge == 0.0)


def test_green_kernel_component_is_infinite():
    spec = two_vertex_spec()
    out = green(spec, np.array([1.0, 0.0])).value
    assert np.all(np.isinf(out))
    out0 = green(spec, np.zeros(2)).value
    assert np.allclose(out0, 0.0)


def test_green_inconclusive_when_schedule_exhausted():
    spec = path_spec(2)
    with pytest.raises(InconclusiveError):
        green(spec, np.ones(3), depth=0)


def test_green_rejects_negative_data():
    spec = path_spec(2)
    with pytest.raises(ParameterError):
        green(spec, np.array([1.0, -1.0, 0.0]))
    with pytest.raises(ParameterError):
        green(spec, np.ones(3), alpha0=0.0)
