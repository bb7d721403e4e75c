import math

import numpy as np
import pytest

from dirichletforms import (
    Edge,
    EnergySpec,
    InconclusiveError,
    KillTerm,
    MeasureSpace,
    NonConvergenceError,
    ParameterError,
    ProxConfig,
    green,
    green_on_nonneg,
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
    out = green_on_nonneg(spec, f)
    assert np.max(np.abs(out - green_oracle(spec, f))) < 1e-6


def _count_green(monkeypatch) -> list:
    calls = []
    real = resolvent.green

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(resolvent, "green", counting)
    return calls


def test_green_on_whole_graph_component_builds_no_sub_spec(monkeypatch):
    spec = random_connected_spec(12, seed=13, n_kill=2, n_boundary=1)
    assert len(spec.components) == 1
    f = np.random.default_rng(13).uniform(0.0, 1.0, size=spec.space.n)
    expected = green(spec, f).value
    calls = _count_green(monkeypatch)
    out = green_on_nonneg(spec, f)
    assert np.array_equal(out, expected)
    assert len(calls) == 1 and calls[0][0] is spec


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


def test_green_on_nonneg_is_finite_past_any_magnitude():
    # G 1_a = (1e9, 0): a large finite value, never +inf, and 0 on the boundary
    spec = weak_edge_spec(1e-9)
    try:
        out = green_on_nonneg(spec, np.array([1.0, 0.0]))
    except InconclusiveError:
        return  # the alpha -> 0 schedule may not settle on values this large
    assert out[1] == 0.0
    assert out[0] == pytest.approx(1e9, rel=1e-6)


@pytest.mark.parametrize("charge", [0.0, 1.0])
def test_green_on_nonneg_decides_free_components_and_solves_the_rest(charge, monkeypatch):
    # one free component (no kill, no boundary) and two coercive ones, at p = 2
    parts = {
        "A": random_connected_spec(6, seed=31, n_kill=2),
        "B": random_connected_spec(5, seed=32, n_boundary=1),
    }
    spec = disjoint_union({"F": random_connected_spec(4, seed=30), **parts})
    coercive = disjoint_union(parts)
    assert len(spec.free_components) == 1 and len(spec.components) == 3
    free = spec.free_components[0]
    rest = np.setdiff1d(np.arange(spec.space.n), free)
    f = np.random.default_rng(33).uniform(0.1, 1.0, size=spec.space.n)
    f[free] *= charge

    calls = _count_green(monkeypatch)
    out = green_on_nonneg(spec, f)
    assert len(calls) == 1  # one schedule for both coercive components
    assert np.max(np.abs(out[rest] - green_oracle(coercive, f[rest]))) < 1e-6
    assert np.all(out[free] == (math.inf if charge else 0.0))

    # green itself decides a charged free component before any solve
    result = green(spec, f)
    assert result.finite == (charge == 0.0)
    if charge:
        assert result.value is None and result.alpha_trace == []


def test_green_kernel_component_is_infinite():
    spec = two_vertex_spec()
    out = green_on_nonneg(spec, np.array([1.0, 0.0]))
    assert np.all(np.isinf(out))
    out0 = green_on_nonneg(spec, np.zeros(2))
    assert np.allclose(out0, 0.0)


def test_green_inconclusive_when_schedule_exhausted():
    spec = path_spec(2)
    with pytest.raises(InconclusiveError):
        green(spec, np.ones(3), depth=0)


def test_green_rejects_negative_data():
    spec = path_spec(2)
    with pytest.raises(ParameterError):
        green(spec, np.array([1.0, -1.0, 0.0]))
