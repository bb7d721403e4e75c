import math

import numpy as np
import pytest
from scipy import optimize, sparse
from scipy.sparse.linalg import spsolve

from dirichletforms import (
    Edge,
    EnergySpec,
    InfeasibleError,
    KillTerm,
    LuxemburgQuery,
    MeasureSpace,
    ParameterError,
    convex_conjugate,
    delta2_constant,
    directional_derivative,
    duality_recover,
    energy,
    in_kernel,
    luxemburg_family_check,
    luxemburg_norm,
)
from conftest import (
    path_spec,
    quadratic_matrix,
    random_connected_spec,
    single_vertex_spec,
    two_vertex_spec,
    weak_edge_spec,
)


def test_luxemburg_norm_checks_its_field_once(check_calls):
    spec = random_connected_spec(8, seed=2, p_range=(1.5, 3.0), n_kill=1, n_boundary=1)
    f = spec.project_feasible(np.linspace(-1.0, 2.0, spec.space.n))
    check_calls.clear()
    assert 0 < luxemburg_norm(spec, f, LuxemburgQuery(r=2.0)) < math.inf
    assert len(check_calls) == 1


def test_homogeneous_identity():
    # constant exponent p: ||f||_{L,1} = E(f)^{1/p}
    spec = two_vertex_spec(w=3.0, p=3.0)
    f = np.array([2.0, 0.0])
    e = energy(spec, f)
    assert e == pytest.approx(8.0)
    norm = luxemburg_norm(spec, f)
    assert norm == pytest.approx(e ** (1.0 / 3.0), abs=1e-10)


def test_kernel_detection():
    spec = two_vertex_spec()
    assert in_kernel(spec, np.array([5.0, 5.0]))
    assert not in_kernel(spec, np.array([1.0, 0.0]))
    assert luxemburg_norm(spec, np.array([5.0, 5.0])) == 0.0


def test_infeasible_field_has_infinite_norm():
    spec = path_spec(2)
    assert math.isinf(luxemburg_norm(spec, np.array([0.0, 0.0, 1.0])))


def test_level_scaling():
    # ||f||_{L,r} = (E(f)/r)^{1/p} for constant exponent p
    spec = two_vertex_spec(p=2.0)
    f = np.array([3.0, 0.0])
    e = energy(spec, f)
    for r in (0.5, 1.0, 4.0):
        norm = luxemburg_norm(spec, f, LuxemburgQuery(r=r))
        assert norm == pytest.approx(math.sqrt(e / r), rel=1e-9)


def _bisect_luxemburg(spec, f, r):
    """Reference: bisection on E(f / lam) <= r, to 1e-15 relative."""
    lo = hi = 1.0
    while energy(spec, f / hi) > r:
        hi *= 2.0
    while energy(spec, f / lo) <= r:
        lo /= 2.0
    while hi - lo > 1e-15 * hi:
        mid = 0.5 * (lo + hi)
        if energy(spec, f / mid) <= r:
            hi = mid
        else:
            lo = mid
    return hi


def _mixed_spec_and_field(seed):
    spec = random_connected_spec(10, seed=seed, p_range=(1.5, 3.5), n_kill=2, n_boundary=1)
    rng = np.random.default_rng(seed)
    f = spec.project_feasible(rng.normal(size=spec.space.n) * rng.uniform(0.1, 10.0))
    return spec, f


@pytest.mark.parametrize("seed", range(20))
def test_exponent_range_brackets_the_level(seed):
    # log E(f / lam) has slope in [-p_hi, -p_lo] in log lam, so the level
    # r is met between (E(f)/r)^{1/p_hi} and (E(f)/r)^{1/p_lo}
    spec, f = _mixed_spec_and_field(seed)
    assert spec.min_exponent < spec.max_exponent
    e = energy(spec, f)
    for r in (0.1, 1.0, 10.0):
        ends = [(e / r) ** (1.0 / p) for p in (spec.min_exponent, spec.max_exponent)]
        levels = [energy(spec, f / lam) for lam in ends]
        assert min(levels) <= r * (1.0 + 1e-12) and max(levels) >= r * (1.0 - 1e-12)


@pytest.mark.parametrize("seed", range(10))
def test_mixed_exponent_norm_matches_bisection(seed):
    spec, f = _mixed_spec_and_field(seed)
    for r in (0.3, 1.0, 4.0):
        norm = luxemburg_norm(spec, f, LuxemburgQuery(r=r))
        assert norm == pytest.approx(_bisect_luxemburg(spec, f, r), rel=1e-12)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 4.0])
def test_one_exponent_norm_is_the_closed_form(p):
    spec = random_connected_spec(
        12, seed=int(10 * p), p_range=(p, p), n_kill=2, n_boundary=1
    )
    f = spec.project_feasible(np.random.default_rng(int(10 * p)).normal(size=spec.space.n))
    e = energy(spec, f)
    for r in (0.3, 1.0, 4.0):
        norm = luxemburg_norm(spec, f, LuxemburgQuery(r=r))
        assert norm == pytest.approx((e / r) ** (1.0 / p), rel=1e-14)


def test_norm_where_the_energy_underflows():
    # off the kernel, yet E(f) = (1e-11)^40 / 40 underflows to 0.0
    spec = two_vertex_spec(p=40.0)
    f = np.array([0.0, 1e-11])
    assert energy(spec, f) == 0.0
    assert luxemburg_norm(spec, f) == pytest.approx(
        1e-11 / 40.0 ** (1 / 40), rel=1e-12, abs=0
    )
    # the same on an offset: E(f / max|f|) underflows as well
    f = np.array([1.0, 1.0 + 2.0**-30])
    assert luxemburg_norm(spec, f) == pytest.approx(
        2.0**-30 / 40.0 ** (1 / 40), rel=1e-12, abs=0
    )


def test_mixed_exponent_norm_on_a_large_offset():
    # E(f / lambda) from the differences of f, not from f / lambda: the
    # offset 1e6 would otherwise cancel 11 of the digits of differences 1e-5
    space = MeasureSpace(("a", "b", "c"), np.ones(3))
    spec = EnergySpec(space, (Edge("a", "b", 1.0, 2.0), Edge("b", "c", 1.0, 3.0)))
    f = 1e6 + np.array([0.0, 1e-5, 3e-5])
    d1, d2 = f[1] - f[0], f[2] - f[1]  # exact: the entries are within a factor 2
    want = optimize.brentq(
        lambda lam: (d1 / lam) ** 2 / 2.0 + (d2 / lam) ** 3 / 3.0 - 1.0,
        1e-8, 1e-3, xtol=1e-30, rtol=4 * np.finfo(float).eps,
    )
    assert luxemburg_norm(spec, f) == pytest.approx(want, rel=1e-12)


def test_a_weight_0_kill_term_sets_no_norm_scale():
    # the kill term's difference 1e6 is the largest, but it carries no
    # energy: scaling by it would underflow E(f / s) to 0 at p = 40
    base = path_spec(5, 40.0, dirichlet_right=False)
    spec = EnergySpec(base.space, base.edges, (KillTerm("0", 0.0, 40.0),))
    f = 1e6 + 1e-5 * np.array([0.0, 1.0, 0.0, 1.0, 0.0, 1.0])
    assert luxemburg_norm(base, f) > 0.0
    assert luxemburg_norm(spec, f) == luxemburg_norm(base, f)


@pytest.mark.parametrize("seed", range(5))
def test_family_sandwich_and_level_set(seed):
    spec = random_connected_spec(6, seed=seed, p_range=(1.6, 3.5), n_kill=1, n_boundary=1)
    rng = np.random.default_rng(seed)
    f = spec.project_feasible(rng.normal(size=spec.space.n))
    ok, details = luxemburg_family_check(spec, f, 2.0, 0.5)
    assert ok, details


def test_family_check_rejects_bad_levels():
    spec = two_vertex_spec()
    with pytest.raises(ParameterError):
        luxemburg_family_check(spec, np.zeros(2), 1.0, 2.0)


def test_delta2_constant():
    spec = random_connected_spec(5, seed=3, p_range=(1.5, 3.0), n_kill=1)
    K = delta2_constant(spec)
    assert K == pytest.approx(2.0**spec.max_exponent)


def test_directional_derivative_euler_identity():
    # constant exponent p: d+E(f, f) = p E(f)
    spec = random_connected_spec(5, seed=4, p_range=(3.0, 3.0), n_kill=1, q_range=(3.0, 3.0))
    rng = np.random.default_rng(4)
    f = rng.normal(size=spec.space.n)
    assert directional_derivative(spec, f, f) == pytest.approx(
        3.0 * energy(spec, f), rel=1e-10
    )


def test_directional_derivative_matches_finite_difference():
    spec = random_connected_spec(5, seed=5, p_range=(1.8, 3.2), n_kill=1)
    rng = np.random.default_rng(5)
    f = rng.normal(size=spec.space.n)
    g = rng.normal(size=spec.space.n)
    h = 1e-7
    fd = (energy(spec, f + h * g) - energy(spec, f)) / h
    assert directional_derivative(spec, f, g) == pytest.approx(fd, rel=1e-4, abs=1e-6)


def test_directional_derivative_infeasible_direction():
    spec = path_spec(2)
    with pytest.raises(InfeasibleError):
        directional_derivative(spec, np.array([0.0, 0.0, 1.0]), np.zeros(3))
    assert math.isinf(
        directional_derivative(spec, np.zeros(3), np.array([0.0, 0.0, 1.0]))
    )


def test_subgradient_inequality():
    spec = random_connected_spec(5, seed=6, p_range=(1.7, 3.0), n_kill=1)
    rng = np.random.default_rng(6)
    f = rng.normal(size=spec.space.n)
    g = rng.normal(size=spec.space.n)
    # convexity: E(g) >= E(f) + d+E(f, g - f)
    assert energy(spec, g) >= energy(spec, f) + directional_derivative(
        spec, f, g - f
    ) - 1e-9


def test_conjugate_closed_form_quadratic():
    # E(x) = x^2/2 on a single unit-mass vertex: E*(phi) = phi^2/2
    spec = single_vertex_spec(kappa=1.0, q=2.0)
    res = convex_conjugate(spec, np.array([3.0]))
    assert not res.diverged
    assert res.value == pytest.approx(4.5, abs=1e-8)
    assert res.maximizer[0] == pytest.approx(3.0, abs=1e-6)


def test_conjugate_diverges_on_kernel_pairing():
    # at every scale t of phi: the pairing with the kernel does not cancel
    spec = two_vertex_spec()
    for t in (1.0, 1e-13, 1e-300):
        res = convex_conjugate(spec, t * np.array([1.0, 1.0]))
        assert res.diverged and math.isinf(res.value), t
        # orthogonal to the kernel: finite
        res2 = convex_conjugate(spec, t * np.array([1.0, -1.0]))
        assert not res2.diverged and math.isfinite(res2.value), t


def test_conjugate_is_finite_past_any_magnitude():
    # E(x) = 1e-9 (x_a - x_b)^2 / 2 with x_b = 0: the maximizer is x_a = 1e9
    # and E*(1_a) = 1e9 - 1e-9 * 1e18 / 2 = 5e8
    res = convex_conjugate(weak_edge_spec(1e-9), np.array([1.0, 0.0]))
    assert not res.diverged
    assert res.value == pytest.approx(5e8, rel=1e-12)


def test_conjugate_at_300_points_matches_sparse_solve():
    # E(x) = x^T K x / 2 at p = 2, so E*(phi) = (M phi)^T K^{-1} (M phi) / 2
    spec = random_connected_spec(300, seed=21, n_kill=3, n_boundary=2)
    phi = spec.project_feasible(np.random.default_rng(21).normal(size=spec.space.n))
    free = spec.free_mask
    K = sparse.csc_array(quadratic_matrix(spec)[np.ix_(free, free)])
    b = (spec.space.mu * phi)[free]
    x = spsolve(K, b)
    res = convex_conjugate(spec, phi)
    assert not res.diverged
    assert res.value == pytest.approx(0.5 * b @ x, rel=1e-10)
    assert np.max(np.abs(res.maximizer[free] - x)) <= 1e-8 * max(1.0, np.max(np.abs(x)))


def test_fenchel_young_inequality():
    spec = random_connected_spec(4, seed=7, p_range=(2.0, 3.0), n_kill=2)
    rng = np.random.default_rng(7)
    f = rng.normal(size=spec.space.n)
    phi = rng.normal(size=spec.space.n)
    res = convex_conjugate(spec, phi)
    assert spec.space.inner(phi, f) <= energy(spec, f) + res.value + 1e-8


def test_duality_recovery_converges():
    spec = random_connected_spec(4, seed=8, p_range=(2.0, 3.0), n_kill=1)
    rng = np.random.default_rng(8)
    f = rng.normal(size=spec.space.n)
    records = duality_recover(spec, f, [1e-1, 1e-2, 1e-3, 1e-4])
    target = energy(spec, f)
    assert abs(records[-1]["value"] - target) <= 1e-3 * max(1.0, target)
    for rec in records:
        assert rec["gap_residual"] <= 1e-6
