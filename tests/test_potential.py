import itertools
import math

import numpy as np
import pytest

from dirichletforms import (
    Edge,
    EnergySpec,
    InfeasibleError,
    InternalCheckError,
    KillTerm,
    MeasureSpace,
    NonConvergenceError,
    ParameterError,
    capacity,
    capacity_zero_property,
    choquet_suite,
    directional_derivative,
    energy,
    energy_gradient,
    excessive_envelope,
    exhaustion_capacity_profile,
    green,
    is_excessive,
)
from dirichletforms import potential, resolvent
from dirichletforms.potential import DERIVATIVE_TOL
from dirichletforms.resolvent import ProxConfig, _solve_shifted
from conftest import (
    box_spec,
    grid_spec,
    one_sided_derivatives,
    path_spec,
    quadratic_matrix,
    random_connected_spec,
    tree_spec,
)


def test_constant_is_excessive_without_kill():
    spec = random_connected_spec(5, seed=0)
    ok, margins = is_excessive(spec, np.ones(5))
    assert ok, margins


def test_green_potential_is_excessive():
    spec = random_connected_spec(5, seed=1, n_kill=2)
    rng = np.random.default_rng(1)
    psi = rng.uniform(0.1, 1.0, size=spec.space.n)
    h = green(spec, psi).value
    assert np.all(np.isfinite(h))
    ok, margins = is_excessive(spec, h)
    assert ok, margins


def test_is_excessive_rejects_negative():
    spec = path_spec(2)
    with pytest.raises(ParameterError):
        is_excessive(spec, np.array([1.0, -1.0, 0.0]))


def _first_order_spec(family, p):
    if family == "path":  # Dirichlet right end
        return path_spec(6, p)
    if family == "grid":
        return grid_spec(3, seed=1, p=p, n_kill=2, n_boundary=2)
    return random_connected_spec(7, seed=3, p_range=(p, p), n_kill=2, n_boundary=2)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("family", ["path", "grid", "random"])
def test_first_order_checks_match_the_pointwise_oracle(family, p):
    spec = _first_order_spec(family, p)
    n, free = spec.space.n, spec.free_mask
    rng = np.random.default_rng(7)
    f = spec.project_feasible(rng.uniform(0.0, 2.0, size=n))
    f[np.flatnonzero(free)[:2]] = 1.0  # on the path a zero difference: a kink at p < 2
    plus, minus = one_sided_derivatives(spec, f), one_sided_derivatives(spec, f, -1.0)
    atol = 1e-12 * np.max(np.abs(plus[free]))

    d = spec.space.mu * energy_gradient(spec, f)
    np.testing.assert_allclose(d[free], plus[free], rtol=1e-12, atol=atol)
    np.testing.assert_allclose(-d[free], minus[free], rtol=1e-12, atol=atol)
    for x in np.flatnonzero(free):
        e_x = np.zeros(n)
        e_x[x] = 1.0
        assert directional_derivative(spec, f, e_x) == pytest.approx(plus[x], rel=1e-12, abs=atol)
        assert directional_derivative(spec, f, -e_x) == pytest.approx(minus[x], rel=1e-12, abs=atol)
    _, margins = is_excessive(spec, f)
    assert margins["derivative"] == pytest.approx(np.min(plus[free]), rel=1e-12, abs=atol)

    # the equilibrium potential passes its check, so it passes the oracle's
    target = {spec.space.points[np.flatnonzero(free)[-1]]}
    e = capacity(spec, target, spec.project_feasible(np.ones(n))).equilibrium
    off = free & ~spec.space.indicator(target)
    assert np.all(one_sided_derivatives(spec, e)[free] >= -DERIVATIVE_TOL)
    assert np.all(one_sided_derivatives(spec, e, -1.0)[off] >= -DERIVATIVE_TOL)


@pytest.mark.parametrize(
    "sign, message", [(-1.0, "ascent direction"), (1.0, "off the target set")]
)
def test_equilibrium_potential_reports_each_first_order_failure(sign, message, monkeypatch):
    # a gradient of -1 makes +1_x an ascent direction everywhere; one of +1
    # makes -1_x one, which only the points off the target may take
    monkeypatch.setattr(
        "dirichletforms.potential.energy_gradient",
        lambda spec, f: sign * np.ones(spec.space.n),
    )
    with pytest.raises(InternalCheckError, match=message):
        capacity(path_spec(4), {"0"}, np.ones(5))


def test_excessive_envelope_path_closed_form():
    # path 0-1-2 with Dirichlet at 2, obstacle f(0) >= 1: linear decay
    spec = path_spec(2)
    env, _ = excessive_envelope(spec, np.ones(3), {"0"})
    assert np.allclose(env, [1.0, 0.5, 0.0], atol=1e-7)
    assert energy(spec, env) == pytest.approx(0.25, abs=1e-8)


def test_excessive_envelope_infeasible_on_boundary():
    spec = path_spec(2)
    with pytest.raises(InfeasibleError):
        excessive_envelope(spec, np.ones(3), {"2"})
    with pytest.raises(InfeasibleError):
        capacity(spec, {"2"}, np.ones(3))


def test_equilibrium_potential_properties():
    spec = random_connected_spec(5, seed=2, n_kill=2)
    h = np.ones(5)
    res = capacity(spec, {"v0", "v2"}, h)
    e = res.equilibrium
    assert np.all(e >= -1e-8) and np.all(e <= h + 1e-8)
    assert e[0] == pytest.approx(1.0, abs=1e-8)
    assert e[2] == pytest.approx(1.0, abs=1e-8)
    assert res.value == pytest.approx(energy(spec, e))
    ok, margins = is_excessive(spec, np.maximum(e, 0.0))
    assert ok, margins


@pytest.mark.parametrize("target", [{"v3"}, {"v0"}, {"v0", "v1", "v2", "v3", "v5", "v7"}])
def test_equilibrium_potential_on_a_critical_spec_is_constant(target):
    # no kill and no boundary: the constant h = 1 has energy 0, so e = 1
    spec = random_connected_spec(8, seed=4, p_range=(1.5, 3.0))
    res = capacity(spec, target, np.ones(8))
    assert np.max(np.abs(res.equilibrium - 1.0)) <= 1e-10
    assert res.value <= 1e-12


def test_empty_set_has_zero_capacity():
    spec = random_connected_spec(4, seed=3, n_kill=1)
    res = capacity(spec, frozenset(), np.ones(4))
    assert res.value == 0.0


def test_capacity_bracket_is_tight():
    spec = random_connected_spec(5, seed=4, n_kill=2, p_range=(1.8, 3.0))
    res = capacity(spec, {"v1"}, np.ones(5))
    assert 0.0 <= res.value - res.lower_bound <= 1e-12 * res.value


def test_a_capacity_is_one_obstacle_solve(monkeypatch):
    calls = []
    real = potential._solve_shifted

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(potential, "_solve_shifted", counting)
    spec = random_connected_spec(6, seed=2, n_kill=2, p_range=(1.5, 3.0))
    for A in ({"v0"}, {"v1", "v4"}, set(spec.space.points)):
        calls.clear()
        res = capacity(spec, A, np.ones(6))
        assert len(calls) == 1, A
        assert res.lower_bound <= res.value


def test_an_uncertified_capacity_is_an_internal_check_failure(monkeypatch):
    # a gradient 5e-8 too large passes the first-order checks, which allow
    # DERIVATIVE_TOL = 1e-7 per point, but the gap sums it over the 399 points
    # off the target: 5e-8 * sum(e) = 1.0e-5 > VALUE_TOL
    real = potential.energy_gradient
    monkeypatch.setattr(
        potential, "energy_gradient", lambda spec, f: real(spec, f) + 5e-8
    )
    with pytest.raises(InternalCheckError, match="gap"):
        capacity(path_spec(400), {"0"}, np.ones(401))


@pytest.mark.parametrize("seed", range(4))
def test_capacity_report_converged_agrees_with_residual(seed):
    spec = random_connected_spec(6, seed=seed, n_kill=2, p_range=(1.8, 3.0))
    cfg = ProxConfig()
    res = capacity(spec, {"v1", "v3"}, np.ones(6), cfg)
    assert res.report.converged == (res.report.residual <= cfg.residual_tolerance)


def test_constrained_minimize_reports_unconverged_polish():
    spec = random_connected_spec(6, seed=1, n_kill=2, p_range=(1.8, 3.0))
    lower = np.full(6, -np.inf)
    lower[1] = 1.0
    cfg = ProxConfig(residual_tolerance=1e-300)
    _, report = _solve_shifted(spec, 0.0, np.zeros(6), lower, None, np.ones(6), cfg)
    assert report.residual > cfg.residual_tolerance
    assert report.converged is False


def test_capacity_raises_when_the_obstacle_solve_does_not_converge():
    spec = random_connected_spec(6, seed=1, n_kill=2, p_range=(1.8, 3.0))
    cfg = ProxConfig(residual_tolerance=1e-300)
    with pytest.raises(NonConvergenceError) as exc:
        capacity(spec, {"v1"}, np.ones(6), cfg)
    assert exc.value.report.converged is False


def _criterion_7_specs():
    # the ten specs of the acceptance gate's criterion 7
    rng = np.random.default_rng(707)
    for trial in range(10):
        n_kill = int(rng.integers(1, 4))
        yield random_connected_spec(5, seed=7000 + trial, p_range=(1.8, 3.0), n_kill=n_kill)


def _random_capacity_problem(seed: int, p_range):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 30))
    spec = random_connected_spec(n, seed=seed, p_range=p_range, n_kill=int(rng.integers(1, 4)))
    target = rng.random(n) < 0.3
    target[int(rng.integers(n))] = True
    return spec, frozenset(np.array(spec.space.points)[target])


def _sound_capacity(spec, A) -> float:
    """cap_1(A), checked: converged, within 1e-8 of its certified lower
    bound, and with no feasible descent direction at the equilibrium."""
    res = capacity(spec, A, np.ones(spec.space.n))
    assert res.report.converged
    assert 0.0 <= res.value - res.lower_bound <= 1e-8 * max(1.0, res.value)
    free = spec.free_mask
    off = free & ~spec.space.indicator(A)
    assert np.all(one_sided_derivatives(spec, res.equilibrium)[free] >= -DERIVATIVE_TOL)
    assert np.all(one_sided_derivatives(spec, res.equilibrium, -1.0)[off] >= -DERIVATIVE_TOL)
    return res.value


def test_obstacle_solves_converge_by_newton_alone(monkeypatch):
    # these solves start at the obstacle, with zero differences where E is
    # not twice differentiable: each capacity makes one obstacle solve, and
    # no other minimizer may be called
    def refuse(*args, **kwargs):
        raise AssertionError("scipy.optimize.minimize called")

    monkeypatch.setattr("scipy.optimize.minimize", refuse)
    problems = [
        (spec, frozenset(A))
        for spec in _criterion_7_specs()
        for k in range(1, 6)
        for A in itertools.combinations(spec.space.points, k)
    ]
    problems += [_random_capacity_problem(seed, (1.8, 3.0)) for seed in range(40)]
    assert len(problems) == 350
    for spec, A in problems:
        _sound_capacity(spec, A)
    example = random_connected_spec(5, seed=7001, p_range=(1.8, 3.0), n_kill=2)
    assert _sound_capacity(example, {"v0", "v2"}) == pytest.approx(1.0403859483656785, rel=1e-12)


@pytest.mark.parametrize("seed, value", [(0, 1.4093521084145062), (18, 0.6262519934916695)])
def test_a_gradient_step_frees_a_point_held_at_a_zero_difference(seed, value):
    # started at the obstacle 1, a point off the target sits at a zero
    # difference on an edge with p < 2, where the capped curvature makes its
    # Newton step smaller than the rounding of 1: neither search along the
    # Newton direction can move it, a step along -r does
    spec, A = _random_capacity_problem(seed, (1.5, 3.5))
    assert _sound_capacity(spec, A) == pytest.approx(value, rel=1e-12)


def _count_splu(monkeypatch) -> list:
    calls = []
    real = resolvent.splu

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(resolvent, "splu", counting)
    return calls


def test_capacity_400_point_path_series_resistance(monkeypatch):
    # more free points than the dense limit: the Newton steps factor sparsely
    n = 399
    splu_calls = _count_splu(monkeypatch)
    res = capacity(path_spec(n), {"0"}, np.ones(n + 1))
    assert splu_calls
    assert res.value == pytest.approx(1.0 / (2.0 * n), rel=1e-10)
    assert np.allclose(res.equilibrium, 1.0 - np.arange(n + 1) / n, atol=1e-8)


def test_capacity_at_p_1_5_on_a_300_point_path(monkeypatch):
    # equal weights carry equal differences: e = 1 - i/n, cap = n^(1-p) / p
    n, p = 300, 1.5
    splu_calls = _count_splu(monkeypatch)
    res = capacity(path_spec(n, p=p), {"0"}, np.ones(n + 1))
    assert splu_calls
    assert res.report.converged
    assert res.value == pytest.approx(n ** (1.0 - p) / p, rel=1e-10)
    assert np.allclose(res.equilibrium, 1.0 - np.arange(n + 1) / n, atol=1e-10)


def test_capacity_at_p_1_5_on_a_250_point_random_spec(monkeypatch):
    spec = random_connected_spec(250, seed=5, p_range=(1.5, 1.5), n_kill=4, n_boundary=3)
    splu_calls = _count_splu(monkeypatch)
    res = capacity(spec, {"v0", "v3", "v10"}, np.ones(spec.space.n))
    assert splu_calls
    assert res.report.converged
    assert 0.0 <= res.value - res.lower_bound <= 1e-11 * res.value


def test_capacity_on_a_grid_matches_direct_solve(monkeypatch):
    spec = grid_spec(20, seed=3, n_kill=3, n_boundary=4)
    target = {"g5_5", "g5_6", "g12_14"}
    splu_calls = _count_splu(monkeypatch)
    res = capacity(spec, target, np.ones(spec.space.n))
    assert splu_calls

    # harmonic extension of 1 on the target, 0 on the boundary
    A = quadratic_matrix(spec)
    on = np.array([p in target for p in spec.space.points])
    rest = spec.free_mask & ~on
    u = on.astype(float)
    u[rest] = np.linalg.solve(A[np.ix_(rest, rest)], -A[np.ix_(rest, on)] @ u[on])
    assert np.max(np.abs(res.equilibrium - u)) <= 1e-9
    assert res.value == pytest.approx(0.5 * u @ A @ u, rel=1e-9)


def test_capacity_monotone_in_obstacle():
    spec = random_connected_spec(5, seed=5, n_kill=2)
    a = capacity(spec, {"v0"}, 0.5 * np.ones(5)).value
    b = capacity(spec, {"v0"}, np.ones(5)).value
    assert a <= b + 1e-9


def test_choquet_axioms_small_family():
    spec = random_connected_spec(4, seed=6, n_kill=1)
    pts = spec.space.points
    family = [frozenset(s) for k in range(3) for s in itertools.combinations(pts, k)]
    report = choquet_suite(spec, np.ones(4), family)
    assert report["pass"], report


def test_choquet_suite_does_not_swallow_a_failed_check(monkeypatch):
    def failing(*args, **kwargs):
        raise InternalCheckError("planted")

    monkeypatch.setattr("dirichletforms.potential.capacity", failing)
    spec = random_connected_spec(4, seed=6, n_kill=1)
    with pytest.raises(InternalCheckError, match="planted"):
        choquet_suite(spec, np.ones(4), [{"v0"}, {"v1"}])


def test_choquet_suite_lists_a_solver_failure(monkeypatch):
    def failing(*args, **kwargs):
        raise NonConvergenceError("planted")

    monkeypatch.setattr("dirichletforms.potential.capacity", failing)
    spec = random_connected_spec(4, seed=6, n_kill=1)
    report = choquet_suite(spec, np.ones(4), [{"v0"}, {"v1"}])
    assert report["failures"] == [(["v0"], ["v1"], "planted")]
    assert report["pass"] is False


def _scaled_path(c):
    """The path a-b-c-d with a kill term at a, every weight and kappa c."""
    space = MeasureSpace(("a", "b", "c", "d"), np.ones(4))
    edges = tuple(Edge(u, v, c, 2.0) for u, v in ("ab", "bc", "cd"))
    return EnergySpec(space, edges, (KillTerm("a", c, 2.0),))


def test_capacity_zero_property():
    spec = random_connected_spec(4, seed=7, n_kill=2)
    ok, values = capacity_zero_property(spec, np.ones(4))
    assert ok
    assert all(v > 0 for v in values.values())
    # only the empty set is exceptional, at every scale c of E
    for c in (1.0, 1e-9, 1e-100):
        ok, values = capacity_zero_property(_scaled_path(c), np.ones(4))
        assert ok and all(v > 0 for v in values.values()), c
    crit = random_connected_spec(4, seed=7)
    with pytest.raises(ParameterError):
        capacity_zero_property(crit, np.ones(4))


@pytest.mark.xfail(strict=True, reason="FOUND 51: absolute stop test; ROADMAP items 13/15")
def test_the_capacity_bracket_is_tight_at_scale_1e_100():
    # cap({x}) on the scaled path is c / (2 k), with k the edges from x to
    # the grounded point, the kill term counted as one: c/4, c/6, c/8
    c = 1e-100
    spec = _scaled_path(c)
    for point, k in zip("bcd", (2, 3, 4)):
        res = _cap_of(spec, point)
        assert res.value - res.lower_bound <= 1e-10 * res.value, point
        assert res.value == pytest.approx(c / (2 * k), rel=1e-10), point


def test_path_capacity_series_resistance():
    for n in (2, 5, 16):
        spec = path_spec(n)
        res = _cap_of(spec, "0")
        assert res.value == pytest.approx(1.0 / (2.0 * n), abs=1e-8)
        _assert_brackets(res, 1.0 / (2.0 * n))


# -- exhaustion: capacities of a fixed set in growing balls ------------------


def _cap_of(spec, point):
    return capacity(spec, {point}, np.ones(spec.space.n))


def _assert_brackets(res, closed_form):
    # to rounding: the gap is 0 at the exact minimizer
    assert res.lower_bound <= closed_form * (1.0 + 2e-15)
    assert closed_form <= res.value * (1.0 + 2e-15)


def test_binary_tree_capacity_oracle():
    # the b-ary tree with its leaves at depth k on the boundary: each of the
    # b^j edges of level j carries 1/b^j of the flux, so the drop across it
    # is proportional to b^(-j/(p-1)), which gives cap({root}) =
    # (1/p) S^(1-p) with S = sum(b^(-j/(p-1)), j=1..k); at p = 2, S is the
    # effective resistance
    trees = [(2, depth) for depth in (1, 2, 3, 4, 10)] + [(3, 8), (4, 6), (10, 4)]
    for p, (b, depth) in itertools.product((1.5, 2.0, 3.0), trees):
        S = sum(float(b) ** (-j / (p - 1.0)) for j in range(1, depth + 1))
        res = _cap_of(tree_spec(b, depth, p), "0")
        assert res.value == pytest.approx(S ** (1.0 - p) / p, rel=1e-10), (p, b, depth)
        _assert_brackets(res, S ** (1.0 - p) / p)


def test_exhaustion_profile_decays():
    family = []
    for n in (2, 4, 8, 16):
        spec = path_spec(n)
        family.append((float(n), spec, {"0"}))
    profile = exhaustion_capacity_profile(family)
    values = [v for _, v in profile]
    assert all(b < a for a, b in zip(values, values[1:]))
    assert values[-1] == pytest.approx(1.0 / 32.0, abs=1e-8)


# R = 1000 at p = 3 is left out: from the flat start it takes 1006 Newton
# iterations (2-7 s), against at most 106 for each cell here
@pytest.mark.parametrize("p, R", [(1.5, 100), (1.5, 1000), (2.0, 100), (2.0, 1000), (3.0, 100)])
def test_z1_box_capacity_closed_form(p, R):
    # R edges on either side of the origin, each dropping 1/R
    res = _cap_of(box_spec(1, R, p), "0")
    assert res.value == pytest.approx(2.0 / p * R ** (1.0 - p), rel=1e-10)
    _assert_brackets(res, 2.0 / p * R ** (1.0 - p))


def _z2_profile(p):
    family = [(R, box_spec(2, R, p), {"0,0"}) for R in (5, 10, 20)]
    return [value for _, value in exhaustion_capacity_profile(family)]


def test_z2_exhaustion_is_subcritical_below_p_2():
    # measured 2.3701, 2.3417, 2.3279: each drop is under half the one
    # before, so if the drops keep halving the values stay above the last
    # value minus the last drop
    v = _z2_profile(1.5)
    drops = [a - b for a, b in zip(v, v[1:])]
    assert 0 < drops[1] < 0.5 * drops[0]
    assert v[-1] - drops[1] > 2.3


def test_z2_exhaustion_at_p_2_decays_by_the_logarithmic_law():
    # measured 0.9526, 0.7865, 0.6701: 1 / cap = 2 R_eff grows by ln(2) / pi
    # per doubling of R, within 0.5 %
    v = _z2_profile(2.0)
    assert v[0] > v[1] > v[2] > 0
    for a, b in zip(v, v[1:]):
        assert 1.0 / b - 1.0 / a == pytest.approx(math.log(2.0) / math.pi, rel=0.01)


def test_z2_exhaustion_above_p_2_slope_approaches_2_minus_p():
    # measured log2 ratios -1.174 and -1.113 against 2 - p = -1
    v = _z2_profile(3.0)
    gaps = [abs(math.log2(b / a) - (2.0 - 3.0)) for a, b in zip(v, v[1:])]
    assert gaps[1] < gaps[0] < 0.2
    assert gaps[1] < 0.12
