import math

import numpy as np
import pytest

from dirichletforms import (
    Edge,
    EnergySpec,
    KillTerm,
    MeasureSpace,
    NormalContraction,
    ParameterError,
    StructuralError,
    bd1_check,
    bd2_check,
    contraction_battery,
    energy,
    energy_gradient,
    fuzz_scalar_inequalities,
    perturb,
)
from conftest import (
    central_difference_gradient,
    random_connected_spec,
    single_vertex_spec,
    sparse_random_spec,
    two_vertex_spec,
)


def test_two_vertex_closed_form():
    spec = two_vertex_spec(w=2.0, p=3.0)
    f = np.array([1.5, -0.5])
    assert energy(spec, f) == pytest.approx((2.0 / 3.0) * 2.0**3)


def test_kill_closed_form():
    spec = single_vertex_spec(kappa=3.0, q=4.0, mu=2.0)
    assert energy(spec, np.array([2.0])) == pytest.approx((3.0 / 4.0) * 2.0 * 16.0)


def test_boundary_extends_by_inf():
    spec = EnergySpec(
        MeasureSpace(("a", "b"), np.ones(2)),
        (Edge("a", "b", 1.0, 2.0),),
        boundary=frozenset({"b"}),
    )
    assert math.isinf(energy(spec, np.array([0.0, 1.0])))
    assert energy(spec, np.array([1.0, 0.0])) == pytest.approx(0.5)
    assert not spec.is_feasible(np.array([0.0, 1e-14]))
    assert spec.is_feasible(spec.project_feasible(np.array([3.0, 1.0])))


def test_invalid_parameters_rejected():
    space = MeasureSpace(("a", "b"), np.ones(2))
    with pytest.raises(StructuralError):
        EnergySpec(space, (Edge("a", "a", 1.0, 2.0),))
    with pytest.raises(ParameterError):
        EnergySpec(space, (Edge("a", "b", -1.0, 2.0),))
    with pytest.raises(ParameterError):
        EnergySpec(space, (Edge("a", "b", 1.0, 1.0),))
    with pytest.raises(ParameterError):
        EnergySpec(space, (), (KillTerm("a", -1.0, 2.0),))
    with pytest.raises(ParameterError):
        EnergySpec(space, (), (KillTerm("a", 1.0, math.inf),))


@pytest.mark.parametrize("seed", range(5))
def test_gradient_matches_central_difference(seed):
    spec = random_connected_spec(
        6, seed=seed, p_range=(1.7, 3.5), n_kill=2, n_boundary=1
    )
    rng = np.random.default_rng(seed)
    f = spec.project_feasible(rng.normal(size=spec.space.n) + 0.5)
    grad = energy_gradient(spec, f)
    fd = central_difference_gradient(lambda x: energy(spec, spec.project_feasible(x)), f)
    # the gradient is the mu-representer, the finite difference the Euclidean one
    assert np.allclose(grad * spec.space.mu, fd, rtol=1e-5, atol=1e-6)


def test_homogeneity_constant_exponent():
    spec = random_connected_spec(5, seed=3, p_range=(3.0, 3.0), n_kill=1, q_range=(3.0, 3.0))
    rng = np.random.default_rng(0)
    f = rng.normal(size=spec.space.n)
    assert energy(spec, 2.0 * f) == pytest.approx(2.0**3 * energy(spec, f), rel=1e-12)


def test_perturb_additivity():
    spec = random_connected_spec(5, seed=1, p_range=(1.5, 4.0), n_kill=1)
    rng = np.random.default_rng(1)
    w = rng.uniform(0.1, 1.0, size=spec.space.n)
    f = rng.normal(size=spec.space.n)
    extra = 0.5 * float(np.sum(spec.space.mu * w * f**2))
    assert energy(perturb(spec, w), f) == pytest.approx(energy(spec, f) + extra, rel=1e-10)
    with pytest.raises(ParameterError):
        perturb(spec, -w)


def test_kernel_basis_free_components():
    # two components: one free, one killed
    space = MeasureSpace(("a", "b", "c", "d"), np.ones(4))
    spec = EnergySpec(
        space,
        (Edge("a", "b", 1.0, 2.0), Edge("c", "d", 1.0, 2.0)),
        (KillTerm("c", 1.0, 2.0),),
    )
    basis = spec.kernel_basis
    assert len(basis) == 1
    assert np.allclose(basis[0], [1.0, 1.0, 0.0, 0.0])
    assert energy(spec, 7.0 * basis[0]) == 0.0


@pytest.mark.parametrize("seed", range(40))
def test_components_match_networkx(seed):
    nx = pytest.importorskip("networkx")
    spec = sparse_random_spec(seed)
    G = nx.MultiGraph()
    G.add_nodes_from(range(spec.space.n))
    G.add_edges_from((spec.space.index(e.u), spec.space.index(e.v)) for e in spec.edges)
    want = sorted((sorted(c) for c in nx.connected_components(G)), key=lambda c: c[0])
    assert [c.tolist() for c in spec.components] == want


def test_contraction_battery_valid():
    battery = contraction_battery(seed=0)
    assert len(battery) == 31
    for C in battery:
        C.validate(rng=0)


def test_contraction_constructor_validation():
    with pytest.raises(ParameterError):
        NormalContraction.scale(1.5)
    with pytest.raises(ParameterError):
        NormalContraction.clamp(-1.0)
    with pytest.raises(ParameterError):
        NormalContraction.piecewise_linear([0.0], [2.0, 0.0])
    with pytest.raises(ParameterError):
        NormalContraction.piecewise_linear([1.0, 0.0], [0.5, 0.5, 0.5])


def test_piecewise_linear_scalar_and_anchor():
    C = NormalContraction.piecewise_linear([-1.0, 1.0], [0.5, -1.0, 0.25])
    assert C(0.0) == pytest.approx(0.0)
    assert np.ndim(C(2.0)) == 0
    assert np.allclose(C([0.5, -0.5]), [-0.5, 0.5])


def test_bd1_bd2_on_random_specs():
    battery = contraction_battery(seed=7)
    for seed in range(4):
        spec = random_connected_spec(
            5, seed=seed, p_range=(1.5, 4.0), n_kill=1, n_boundary=1
        )
        rng = np.random.default_rng(seed)
        f = spec.project_feasible(rng.normal(size=spec.space.n))
        g = spec.project_feasible(rng.normal(size=spec.space.n))
        ok, _ = bd1_check(spec, f, g)
        assert ok
        for C in battery[:8]:
            ok, _ = bd2_check(spec, f, g, C)
            assert ok


def test_fuzz_scalar_inequalities():
    ok, worst = fuzz_scalar_inequalities(20_000, seed=11)
    assert ok, worst
    with pytest.raises(ParameterError):
        fuzz_scalar_inequalities(0)
